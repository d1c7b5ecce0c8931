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
from .generators import (SparseOperator, Superoperator, _lindblad, _photon_loss, default_freq_tol,
                         dressed_channels, microscopic_channels, restricted_lindblad)
from .hilbert import DensityMatrix, StateSpace, build_space, pure_state
from .jcmodel import JCParams, complete_eigensystem, hamiltonian
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
        kind = self.initial[0]
        if kind == "ground":
            return 0
        if kind == "fock":
            return self.initial[1]
        if kind == "dressed":
            return self.initial[1]
        raise ConfigError(f"unknown initial state kind {self.initial[0]!r}")

    def _initial_vector(self, space: StateSpace) -> np.ndarray:
        kind = self.initial[0]
        if kind == "ground":
            return space.basis_state(0, "g")
        if kind == "fock":
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

    def channels(self) -> list[tuple[float, SparseOperator, float]]:
        """The (omega, operator, rate) jump channels of a micro or dressed model.

        Each operator holds only its nonzero entries.
        """
        params, space = self.params, self.space()
        if self.model == "micro":
            return microscopic_channels(params, space, self.bath, self.freq_tol)
        if self.model == "dressed":
            return dressed_channels(params, space, self.gamma0, self.nbar, self.freq_tol)
        raise ValueError("phen's jumps a and a† are no Bohr-frequency channels")

    def lindblad_terms(self, channels: list | None = None
                       ) -> tuple[np.ndarray, list[tuple[SparseOperator, float]]]:
        """The Hamiltonian and the (operator, rate) jumps of the model's Lindblad form.

        Micro and dressed read ``channels``, :meth:`channels` if not given.
        """
        params, space = self.params, self.space()
        if self.model == "phen":
            return hamiltonian(params, space), _photon_loss(space, self.gamma0, self.nbar)
        channels = self.channels() if channels is None else channels
        return hamiltonian(params, space), [(op, g) for _, op, g in channels]

    def generator(self) -> Superoperator:
        return _lindblad(*self.lindblad_terms())

    def initial_state(self) -> DensityMatrix:
        return pure_state(self._initial_vector(self.space()))


class Trajectory(NamedTuple):
    """A scenario solved on the states S its initial state reaches."""

    liouvillian: Superoperator  # the generator on S
    rho0: DensityMatrix  # the initial state on S
    basis: DampingBasis | None  # None on the ode route, which never diagonalizes
    series: TimeSeries  # the validated states on S, with their defects
    observables: dict[str, np.ndarray]  # on the time grid
    edge: float  # the top Fock level's largest population along the grid
    reached: np.ndarray  # S


def run_trajectory(scenario: Scenario, channels: list | None = None) -> Trajectory:
    """Solve the scenario with its configured solver on the states S rho0 reaches.

    The trajectory is exactly the full one's S x S block (see
    :func:`restricted_lindblad`); the RK4 step is held to the full
    generator's bound.  Micro and dressed take their jumps from
    ``channels`` when given (see :meth:`Scenario.lindblad_terms`).
    """
    h, jumps = scenario.lindblad_terms(channels)
    full_rho0 = scenario.initial_state().matrix
    liouvillian, reached = restricted_lindblad(h, jumps, full_rho0)
    rho0 = DensityMatrix(full_rho0[np.ix_(reached, reached)])
    times = scenario.time_grid()
    basis = None
    if scenario.solver == "ode":
        check_rk4_step(scenario.dt, _lindblad(h, jumps).diagonal())
        series = evolve_ode(liouvillian, rho0, times, scenario.dt)
    else:
        basis = damping_basis(liouvillian)
        series = evolve_spectral(basis, rho0, times)
    observables = scenario.observables.evaluate(series, scenario.space(), reached)
    edge = _edge_population(scenario, series.states, reached)
    return Trajectory(liouvillian, rho0, basis, series, observables, edge, reached)


def _edge_population(scenario: Scenario, states: np.ndarray, basis: np.ndarray) -> float:
    """Largest top Fock level population of states (..., n, n) held on ``basis``; 0 off it."""
    space = scenario.space()
    top = np.flatnonzero(np.isin(basis, [space.index(scenario.n_max, s) for s in ("g", "e")]))
    return float(np.diagonal(states, axis1=-2, axis2=-1)[..., top].real.sum(axis=-1).max())


_BATH_KEYS = {
    "flat": ("gamma0",),
    "ohmic": ("alpha", "cutoff"),
    "lorentzian": ("gamma0", "center", "halfwidth"),
}

_KNOWN_KEYS = {
    "model", "omega0", "rabi", "nmax", "initial", "tau_max", "steps",
    "observables", "solver", "dt", "gamma0", "nbar", "freq_tol",
    "bath.kind", "bath.temperature", "bath.gamma0", "bath.alpha",
    "bath.cutoff", "bath.center", "bath.halfwidth",
}


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
        return ("ground",)
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
    if "bath.kind" not in mapping:
        return None
    kind = mapping["bath.kind"]
    if kind not in _BATH_KEYS:
        raise ConfigError(f"bath.kind must be one of {sorted(_BATH_KEYS)}, got {kind!r}")
    temperature = _get(mapping, "bath.temperature", float, 0.0)
    try:
        if kind == "flat":
            spectrum = FlatSpectrum(_get(mapping, "bath.gamma0", float))
        elif kind == "ohmic":
            spectrum = OhmicSpectrum(
                _get(mapping, "bath.alpha", float), _get(mapping, "bath.cutoff", float)
            )
        else:
            spectrum = LorentzianSpectrum(
                _get(mapping, "bath.gamma0", float),
                _get(mapping, "bath.center", float),
                _get(mapping, "bath.halfwidth", float),
            )
        return BathSpec(temperature, spectrum)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid bath block: {exc}") from exc


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
