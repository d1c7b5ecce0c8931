"""Declarative experiment descriptions and the line-oriented config format.

A scenario names one model (``micro``, ``phen`` or ``dressed``), the
system parameters, a bath or loss-rate description, an initial state, a
time grid in the dimensionless units tau = 2 * rabi * t, and the
observables to record.  :func:`run_trajectory` solves it for ``jcsim
evolve``, ``compare`` and ``verify`` alike.

Config files are flat ``key = value`` text: ``#`` starts a comment,
and bath parameters use dotted keys (``bath.kind``, ``bath.gamma0``,
...).  Example::

    model = micro
    omega0 = 1.0
    rabi = 0.41
    nmax = 2
    bath.kind = flat
    bath.temperature = 0.0
    bath.gamma0 = 0.082
    initial = fock:0,e
    tau_max = 100.0
    steps = 2000
    observables = pop_0g,atomic_ground
    solver = spectral
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bath import BathSpec, FlatSpectrum, LorentzianSpectrum, OhmicSpectrum
from .generators import (SparseOperator, Superoperator, _lindblad, default_freq_tol, model_terms,
                         restricted_lindblad)
from .hilbert import DensityMatrix, StateSpace, build_space, pure_state
from .jcmodel import JCParams, complete_eigensystem
from .observables import ObservableSet
from .solver import (DampingBasis, TimeSeries, check_rk4_step, damping_basis, evolve_ode,
                     evolve_spectral)

MODELS = ("micro", "phen", "dressed")
SOLVERS = ("spectral", "ode")


class ConfigError(ValueError):
    """Invalid scenario configuration (CLI exit code 1)."""


@dataclass(frozen=True)
class Scenario:
    model: str
    omega0: float
    rabi: float
    n_max: int
    initial: tuple
    tau_max: float
    steps: int
    observables: ObservableSet
    solver: str = "spectral"
    dt: float | None = None
    bath: BathSpec | None = None
    gamma0: float | None = None
    nbar: float | None = None
    freq_tol: float | None = None

    def __post_init__(self):
        for key in ("omega0", "rabi", "tau_max", "dt", "gamma0", "nbar", "freq_tol"):
            value = getattr(self, key)
            if value is not None and not np.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.freq_tol is not None and self.freq_tol <= 0:
            raise ConfigError(f"freq_tol must be positive, got {self.freq_tol}")
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.omega0 <= 0:
            raise ConfigError(f"omega0 must be positive, got {self.omega0}")
        if self.rabi < 0:
            raise ConfigError(f"rabi must be nonnegative, got {self.rabi}")
        if self.solver not in SOLVERS:
            raise ConfigError(f"solver must be one of {SOLVERS}, got {self.solver!r}")
        if self.solver == "ode":
            if self.dt is None or self.dt <= 0:
                raise ConfigError("solver = ode requires a positive dt")
        if self.steps < 2:
            raise ConfigError(f"time grid needs at least 2 points, got steps = {self.steps}")
        if self.tau_max <= 0:
            raise ConfigError(f"tau_max must be positive, got {self.tau_max}")
        if self.model == "micro":
            if self.bath is None:
                raise ConfigError(f"model = {self.model} requires a bath.* block")
        else:
            if self.gamma0 is None or self.gamma0 < 0:
                raise ConfigError(f"model = {self.model} requires gamma0 >= 0")
            if self.nbar is None or self.nbar < 0:
                raise ConfigError(f"model = {self.model} requires nbar >= 0")
        headroom = self.n_max - self._initial_photons()
        if headroom < 2:
            raise ConfigError(
                f"nmax = {self.n_max} leaves {headroom} spare photon levels above the "
                f"initial state; at least 2 are required, and evolve and steady print the "
                f"top Fock level population to check the cutoff"
            )
        top = self.n_max + 1.0  # Python floats overflow to inf without a warning
        largest = 2.0 * (float(self.omega0) * top + float(self.rabi) * top**0.5)
        freq_tol = default_freq_tol(self.omega0) if self.freq_tol is None else self.freq_tol
        if not math.ulp(largest) < freq_tol:  # ulp(inf) is inf
            raise ConfigError(f"the largest Bohr frequency 2*(omega0*(nmax+1) + rabi*sqrt(nmax+1))"
                              f" = {largest:.6g} is not resolved to freq_tol = {freq_tol:.3g} (one "
                              f"float step there is {math.ulp(largest):.3g}) at omega0 = "
                              f"{self.omega0}, rabi = {self.rabi} and nmax = {self.n_max}")
        self._initial_vector(build_space(self.n_max))  # validates the label

    def _initial_photons(self) -> int:
        if self.initial[0] in ("fock", "dressed"):
            return self.initial[1]
        raise ConfigError(f"unknown initial state kind {self.initial[0]!r}")

    def _initial_vector(self, space: StateSpace) -> np.ndarray:
        if self.initial[0] == "fock":
            _, n, s = self.initial
            try:
                return space.basis_state(n, s)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        _, n, branch = self.initial
        _, vectors, labels = complete_eigensystem(self.params, space)
        if (n, branch) not in labels:
            raise ConfigError(f"dressed state ({n}, {branch:+d}) outside the space")
        return vectors[:, labels.index((n, branch))]

    @property
    def params(self) -> JCParams:
        return JCParams(self.omega0, self.rabi)

    def space(self) -> StateSpace:
        return build_space(self.n_max)

    def tau_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.tau_max, self.steps)

    def time_grid(self) -> np.ndarray:
        if self.rabi == 0:
            raise ConfigError("tau = 2*rabi*t is degenerate at rabi = 0; no time axis")
        if not np.isfinite(self.tau_max / (2.0 * self.rabi)):
            raise ConfigError(f"t = tau/(2*rabi) overflows at tau_max = {self.tau_max} and "
                              f"rabi = {self.rabi}")
        return self.tau_grid() / (2.0 * self.rabi)

    def lindblad_terms(self) -> tuple[np.ndarray, list[tuple[SparseOperator, float]], list | None]:
        """The scenario's :func:`model_terms`: the Hamiltonian, the (operator, rate) jumps of
        its Lindblad form and the (omega, operator, rate) channels they come from (None for phen).

        Micro and dressed take their channels from the dressed levels, with
        |0,g> the lowest; at rabi >= omega0 the level (1,-) at omega0/2 - rabi
        lies at or below |0,g> at -omega0/2, and the build is a :class:`ConfigError`.
        """
        if self.model != "phen" and self.rabi >= self.omega0:
            raise ConfigError(f"model = {self.model} needs rabi < omega0: at rabi = {self.rabi} "
                              f"and omega0 = {self.omega0} the dressed level (1,-) lies at or "
                              f"below |0,g>, so the excitation manifolds cross")
        return model_terms(self.model, self.params, self.space(), self.bath, self.gamma0,
                           self.nbar, self.freq_tol)

    def generator(self) -> Superoperator:
        h, jumps, _ = self.lindblad_terms()
        return _lindblad(h, jumps)

    def initial_state(self) -> DensityMatrix:
        return pure_state(self._initial_vector(self.space()))


class Trajectory(NamedTuple):
    """A scenario solved on the states S its initial state reaches."""

    liouvillian: Superoperator  # the generator on S
    rho0: DensityMatrix  # the initial state on S
    basis: DampingBasis | None  # None on the ode route, which never diagonalizes
    series: TimeSeries  # the validated states' entries on S, with their defects
    observables: dict[str, np.ndarray]  # on the time grid
    reached: np.ndarray  # S
    channels: list | None  # micro's or dressed's (omega, operator, rate) channels; phen: None


def run_trajectory(scenario: Scenario) -> Trajectory:
    """Solve the scenario with its configured solver on the states S rho0 reaches.

    The problem is :func:`restricted_lindblad`'s, so the trajectory is
    exactly the full one's S x S block; the RK4 step is held to the full
    generator's bound.  A micro or dressed run builds its channels once
    and returns them.
    """
    h, jumps, channels = scenario.lindblad_terms()
    liouvillian, rho0, reached = restricted_lindblad(h, jumps, scenario.initial_state().matrix)
    times = scenario.time_grid()
    basis = None
    if scenario.solver == "ode":
        check_rk4_step(scenario.dt, _lindblad(h, jumps).diagonal())
        series = evolve_ode(liouvillian, rho0, times, scenario.dt)
    else:
        basis = damping_basis(liouvillian)
        series = evolve_spectral(basis, rho0, times)
    observables = scenario.observables.evaluate(series, scenario.space(), reached)
    return Trajectory(liouvillian, rho0, basis, series, observables, reached, channels)


# bath.kind: its spectrum and the bath.* keys of that spectrum, in constructor order
_BATH_KINDS = {
    "flat": (FlatSpectrum, ("gamma0",)),
    "ohmic": (OhmicSpectrum, ("alpha", "cutoff")),
    "lorentzian": (LorentzianSpectrum, ("gamma0", "center", "halfwidth")),
}

_KNOWN_KEYS = {
    "model", "omega0", "rabi", "nmax", "initial", "tau_max", "steps",
    "observables", "solver", "dt", "gamma0", "nbar", "freq_tol",
    "bath.kind", "bath.temperature",
} | {f"bath.{key}" for _, keys in _BATH_KINDS.values() for key in keys}


def parse_config(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into an ordered mapping of raw strings."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def _get(mapping: dict[str, str], key: str, convert, default=None):
    if key not in mapping:
        return default
    try:
        return convert(mapping[key])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key!r}: {mapping[key]!r}") from exc


def _parse_initial(text: str) -> tuple:
    if text == "ground":
        return ("fock", 0, "g")
    kind, _, rest = text.partition(":")
    parts = [p.strip() for p in rest.split(",")]
    try:
        if kind == "fock" and len(parts) == 2 and parts[1] in ("g", "e"):
            return ("fock", int(parts[0]), parts[1])
        if kind == "dressed" and len(parts) == 2 and parts[1] in ("+", "-"):
            return ("dressed", int(parts[0]), +1 if parts[1] == "+" else -1)
    except ValueError:  # a photon or manifold number that is no integer
        pass
    raise ConfigError(
        f"initial must be 'ground', 'fock:<n>,<g|e>' or 'dressed:<N>,<+|->', got {text!r}"
    )


def _parse_bath(mapping: dict[str, str]) -> BathSpec | None:
    given = [key for key in mapping if key.startswith("bath.")]
    if "bath.kind" not in mapping:
        if given:
            raise ConfigError(f"{', '.join(given)} set without bath.kind")
        return None
    kind = mapping["bath.kind"]
    if kind not in _BATH_KINDS:
        raise ConfigError(f"bath.kind must be one of {sorted(_BATH_KINDS)}, got {kind!r}")
    spectrum, keys = _BATH_KINDS[kind]
    temperature = _get(mapping, "bath.temperature", float, 0.0)
    try:
        bath = BathSpec(temperature, spectrum(*(_get(mapping, f"bath.{key}", float)
                                                for key in keys)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid bath block: {exc}") from exc
    stray = [key for key in given
             if key.removeprefix("bath.") not in ("kind", "temperature") + keys]
    if stray:
        raise ConfigError(f"bath.kind = {kind} takes no {', '.join(stray)}")
    return bath


def scenario_from_mapping(mapping: dict[str, str]) -> Scenario:
    unknown = sorted(set(mapping) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    for key in ("model", "omega0", "rabi", "nmax", "initial", "tau_max", "steps"):
        if key not in mapping:
            raise ConfigError(f"missing required key {key!r}")
    names = _get(mapping, "observables", str, "pop_0g,atomic_ground")
    try:
        observables = ObservableSet(tuple(n.strip() for n in names.split(",")))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return Scenario(
        model=mapping["model"],
        omega0=_get(mapping, "omega0", float),
        rabi=_get(mapping, "rabi", float),
        n_max=_get(mapping, "nmax", int),
        initial=_parse_initial(mapping["initial"]),
        tau_max=_get(mapping, "tau_max", float),
        steps=_get(mapping, "steps", int),
        observables=observables,
        solver=_get(mapping, "solver", str, "spectral"),
        dt=_get(mapping, "dt", float),
        bath=_parse_bath(mapping),
        gamma0=_get(mapping, "gamma0", float),
        nbar=_get(mapping, "nbar", float),
        freq_tol=_get(mapping, "freq_tol", float),
    )


def scenario_from_config(text: str) -> Scenario:
    return scenario_from_mapping(parse_config(text))
