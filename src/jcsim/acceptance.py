"""The acceptance battery: every headline claim, checked at a fixed tolerance.

Each criterion runs one self-contained numerical experiment and records
"measured vs threshold" lines; `run_all_criteria` executes all ten.  The
scenarios reuse one parameter point with gamma/(2*rabi) = 0.1, chosen so
that (a) the dressed doublets never cross between excitation manifolds
(rabi*(1+sqrt(2)) < omega0, which the closed-form solutions require at
zero temperature) and (b) the mandated RK4 step 1e-3/rabi sits inside
the integrator's stability bound for every grid in the battery; that
pins rabi to the window (0.40, 0.414) and we use 0.41.

Every trajectory comes from :func:`jcsim.scenario.run_trajectory`, on
the states its initial state reaches, as ``jcsim evolve`` solves it.

``tolerance_scale`` multiplies every "<" threshold (and divides every
">" one), so scaling it down corrupts the tolerances and must make the
suite fail; it exists as a hook for the battery's negative test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .analytic import bell_phen, rabi_phen
from .bath import BathSpec, FlatSpectrum, LorentzianSpectrum, OhmicSpectrum, occupation, rate
from .generators import (microscopic_generator, phenomenological_generator,
                         dressed_approx_generator, restricted_lindblad)
from .hilbert import DensityMatrix, build_space
from .jcmodel import JCParams, hamiltonian
from .observables import ObservableSet
from .scenario import Scenario, Trajectory, run_trajectory
from .solver import DampingBasis, damping_basis, dominant_frequency, steady_state

OMEGA0 = 1.0
RABI = 0.41
GAMMA = 0.082  # gamma/(2*rabi) = 0.1, the figure-scenario damping
TAU_MAX = 100.0
STEPS = 2000
DT = 1e-3 / RABI

_OBSERVABLES = ObservableSet(("pop_0g", "pop_1g", "atomic_ground"))


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    lines: list[str]


class _Checker:
    """Collects pass/fail lines; tolerance_scale corrupts thresholds."""

    def __init__(self, scale: float):
        self.scale = scale
        self.lines: list[str] = []
        self.passed = True

    def _record(self, ok: bool, text: str) -> None:
        self.passed &= bool(ok)
        self.lines.append(("ok   " if ok else "FAIL ") + text)

    def less(self, label: str, value: float, threshold: float) -> None:
        self._record(value < threshold * self.scale,
                     f"{label}: {value:.3e} < {threshold * self.scale:.3e}")

    def greater(self, label: str, value: float, threshold: float) -> None:
        self._record(value > threshold / self.scale,
                     f"{label}: {value:.3e} > {threshold / self.scale:.3e}")

    def within(self, label: str, value: float, low: float, high: float) -> None:
        self._record(low <= value <= high * self.scale,
                     f"{label}: {value:.3e} in [{low:.3e}, {high * self.scale:.3e}]")

    def result(self, number: int, name: str) -> CriterionResult:
        return CriterionResult(number, name, self.passed, self.lines)


_SCENARIOS = {  # the shared runs' scenarios, on the spectral route
    "micro_rabi": Scenario(
        model="micro", omega0=OMEGA0, rabi=RABI, n_max=2, initial=("fock", 0, "e"),
        tau_max=TAU_MAX, steps=STEPS, observables=_OBSERVABLES,
        bath=BathSpec(0.0, FlatSpectrum(GAMMA)),
    ),
    "phen_rabi": Scenario(
        model="phen", omega0=OMEGA0, rabi=RABI, n_max=2, initial=("fock", 0, "e"),
        tau_max=TAU_MAX, steps=STEPS, observables=_OBSERVABLES, gamma0=GAMMA, nbar=0.0,
    ),
    "phen_bell": Scenario(
        model="phen", omega0=OMEGA0, rabi=RABI, n_max=3, initial=("dressed", 1, +1),
        tau_max=TAU_MAX, steps=STEPS, observables=_OBSERVABLES, gamma0=GAMMA, nbar=0.0,
    ),
}


class _SharedRuns:
    """:func:`run_trajectory` of every battery scenario on both routes, solved and timed at once.

    ``micro_rabi`` on the spectral route is solved first, so criterion 1 reads a cold
    run's time; the criteria only look the runs up, and each criterion's runtime is its own.
    """

    def __init__(self):
        self.runs: dict[tuple[str, str], Trajectory] = {}
        self.runtimes: dict[tuple[str, str], float] = {}
        for key, solver in product(_SCENARIOS, ("spectral", "ode")):
            dt = DT if solver == "ode" else None
            scenario = replace(_SCENARIOS[key], solver=solver, dt=dt)
            start = time.perf_counter()
            self.runs[key, solver] = run_trajectory(scenario)
            self.runtimes[key, solver] = time.perf_counter() - start

    def get(self, key: str, solver: str = "spectral") -> Trajectory:
        return self.runs[key, solver]


def _fitted_exponential(t: np.ndarray, pop: np.ndarray) -> np.ndarray:
    """Best single-exponential approach 1 - A exp(-k t), log-linear LSQ."""
    slope, intercept = np.polyfit(t, np.log(1.0 - pop), 1)
    return 1.0 - np.exp(intercept + slope * t)


def _trace_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho_a - rho_b)).sum())


def _gibbs(h: np.ndarray, temperature: float) -> np.ndarray:
    """Direct exponentiation exp(-H/T)/Z through the eigendecomposition."""
    evals, evecs = np.linalg.eigh(h)
    weights = np.exp(-(evals - evals.min()) / temperature)
    weights /= weights.sum()
    return (evecs * weights) @ evecs.conj().T


def _criterion_1(runs: _SharedRuns, scale: float) -> CriterionResult:
    check = _Checker(scale)
    pops = runs.get("micro_rabi").observables
    t = _SCENARIOS["micro_rabi"].time_grid()
    oracle = 1.0 - np.exp(-GAMMA * t / 2.0)
    check.less("max |P_0g - (1 - e^{-gamma t/2})|", np.abs(pops["pop_0g"] - oracle).max(), 1e-8)
    check.less("runtime [s]", runs.runtimes["micro_rabi", "spectral"], 1.0)
    return check.result(1, "micro-rabi-decay")


def _criterion_2(runs: _SharedRuns, scale: float) -> CriterionResult:
    check = _Checker(scale)
    cases = {
        "phen_rabi": lambda t: rabi_phen(t, GAMMA, RABI),
        "phen_bell": lambda t: bell_phen(t, GAMMA, RABI),
    }
    for key, oracle_fn in cases.items():
        p0g, p1g, pg = oracle_fn(_SCENARIOS[key].time_grid())
        oracle = {"pop_0g": p0g, "pop_1g": p1g, "atomic_ground": pg}
        for solver_name, tol in (("spectral", 1e-8), ("ode", 1e-6)):
            pops = runs.get(key, solver_name).observables
            dev = max(np.abs(pops[name] - oracle[name]).max() for name in oracle)
            check.less(f"{key} {solver_name} vs closed form", dev, tol)
    return check.result(2, "phen-closed-forms")


def _criterion_3(runs: _SharedRuns, scale: float) -> CriterionResult:
    check = _Checker(scale)
    t = _SCENARIOS["micro_rabi"].time_grid()
    micro, phen = runs.get("micro_rabi").observables, runs.get("phen_rabi").observables
    micro_resid = np.abs(micro["pop_0g"] - _fitted_exponential(t, micro["pop_0g"])).max()
    phen_resid = np.abs(phen["pop_0g"] - _fitted_exponential(t, phen["pop_0g"])).max()
    check.less("micro residual vs fitted exponential", micro_resid, 1e-8)
    check.within("phen residual peak (order gamma/rabi)", phen_resid, 0.01, 0.2)
    return check.result(3, "oscillation-signature")


def _basis(runs: _SharedRuns, key: str, **changes) -> tuple[DampingBasis, DensityMatrix]:
    """Damping basis and rho0 on the states S rho0 reaches, as in compare, of a changed scenario.

    A scenario the changes leave equal to the shared run's reads that run's basis, solved once.
    """
    scenario = replace(_SCENARIOS[key], **changes)
    if scenario == _SCENARIOS[key]:
        run = runs.get(key)
        return run.basis, run.rho0
    h, jumps, _ = scenario.lindblad_terms()
    liouvillian, rho0, _ = restricted_lindblad(h, jumps, scenario.initial_state().matrix)
    return damping_basis(liouvillian), rho0


def _criterion_4(runs: _SharedRuns, scale: float) -> CriterionResult:
    """Phen's frequency against its closed form, and the micro-phen shift's slope in gamma.

    The sweep's point gamma = 0.1 * 2 * rabi is ``GAMMA``, so it reads the shared runs.
    """
    check = _Checker(scale)
    f_phen = dominant_frequency(*_basis(runs, "phen_rabi"))
    expected = np.sqrt(16.0 * RABI**2 - GAMMA**2) / 2.0
    check.less("|phen frequency - sqrt(16 rabi^2 - gamma^2)/2|", abs(f_phen - expected), 1e-10)

    gammas = np.array([0.02, 0.05, 0.1]) * 2.0 * RABI
    shifts = []
    for gamma in gammas:
        f_micro = dominant_frequency(*_basis(runs, "micro_rabi",
                                             bath=BathSpec(0.0, FlatSpectrum(gamma))))
        f_phen = dominant_frequency(*_basis(runs, "phen_rabi", gamma0=gamma))
        shifts.append((f_micro - f_phen) / f_micro)
    slope = np.polyfit(np.log(gammas), np.log(shifts), 1)[0]
    check.less("|log-log slope of shift vs gamma - 2|", abs(slope - 2.0), 0.1)
    return check.result(4, "frequency-shift")


def _expected_sector_eigenvalues(bath: BathSpec) -> np.ndarray:
    """Spectrum of micro's one-excitation sector forced by its jump structure.

    Populations of the two doublet states relax at gamma_a/2 and gamma_b/2,
    with gamma_a and gamma_b the bath rates at omega0 -+ rabi; each
    coherence decays at the mean of its endpoint population rates, giving
    gamma/4 for the ground coherences and (gamma_a + gamma_b)/4 for the
    intra-doublet one.
    """
    w_minus, w_plus = OMEGA0 - RABI, OMEGA0 + RABI
    gamma_a, gamma_b = rate(w_minus, bath), rate(w_plus, bath)
    return np.array([
        0.0,
        -gamma_a / 2.0,
        -gamma_b / 2.0,
        +1j * w_minus - gamma_a / 4.0,
        -1j * w_minus - gamma_a / 4.0,
        +1j * w_plus - gamma_b / 4.0,
        -1j * w_plus - gamma_b / 4.0,
        +2j * RABI - (gamma_a + gamma_b) / 4.0,
        -2j * RABI - (gamma_a + gamma_b) / 4.0,
    ])


def _criterion_5(runs: _SharedRuns, scale: float) -> CriterionResult:
    """Micro's spectrum on S = {|0,g>, |0,e>, |1,g>} against its jumps, and biorthonormality.

    The "degenerate" flat bath is ``micro_rabi``'s, so it reads that shared run's basis.
    """
    check = _Checker(scale)
    for spectrum, tag in ((OhmicSpectrum(0.15, 2.0 * OMEGA0), "distinct"),
                          (FlatSpectrum(GAMMA), "degenerate")):
        bath = BathSpec(0.0, spectrum)
        basis, _ = _basis(runs, "micro_rabi", bath=bath)
        expected = _expected_sector_eigenvalues(bath)
        order = np.lexsort((expected.imag, -expected.real))
        dev = np.abs(basis.eigenvalues - expected[order]).max()
        check.less(f"eigenvalues ({tag} rates)", dev, 1e-10)
        # max over blocks of |left_b right_b - 1|: off the blocks, left @ right is exactly zero
        check.less(f"biorthonormality residual ({tag})", max(
            np.abs(g.left @ g.right - np.eye(g.index.shape[1])).max() for g in basis.groups), 1e-10)
    return check.result(5, "damping-basis-spectrum")


def _criterion_6(runs: _SharedRuns, scale: float) -> CriterionResult:
    """Micro's and dressed's generators entry by entry: at T = 0 with no crossed manifolds, the
    secular projection of photon loss is micro's equation, as a + a†'s emission parts are a's."""
    check = _Checker(scale)
    params = JCParams(OMEGA0, 0.2)
    gamma0 = 0.04
    space = build_space(4)
    micro = microscopic_generator(params, space, BathSpec(0.0, FlatSpectrum(gamma0)))
    dressed = dressed_approx_generator(params, space, gamma0, 0.0)
    same = np.array_equal(micro.rows, dressed.rows) and np.array_equal(micro.cols, dressed.cols)
    dev = np.abs(micro.values - dressed.values).max() if same else np.inf
    check.less("micro vs dressed, every generator entry", dev, 1e-12)
    return check.result(6, "generator-equivalence")


def _criterion_7(runs: _SharedRuns, scale: float) -> CriterionResult:
    check = _Checker(scale)
    params = JCParams(OMEGA0, 0.2)
    temperature = OMEGA0 / 4.0
    space = build_space(20)
    gamma0 = 0.02
    bath = BathSpec(temperature, FlatSpectrum(gamma0))
    nbar = occupation(OMEGA0, temperature)

    micro_ss = steady_state(microscopic_generator(params, space, bath))
    gibbs_jc = _gibbs(hamiltonian(params, space), temperature)
    check.less("micro steady state vs Gibbs(H)", _trace_distance(micro_ss.matrix, gibbs_jc), 1e-6)

    phen_ss = steady_state(phenomenological_generator(params, space, gamma0, nbar))
    free = hamiltonian(JCParams(OMEGA0, 0.0), space)
    gibbs_free = _gibbs(free, temperature)
    check.less("phen steady state vs Gibbs(H_free)",
               _trace_distance(phen_ss.matrix, gibbs_free), 1e-6)
    check.greater("Gibbs(H) vs Gibbs(H_free)", _trace_distance(gibbs_jc, gibbs_free), 1e-3)
    return check.result(7, "thermal-steady-states")


def _criterion_8(runs: _SharedRuns, scale: float) -> CriterionResult:
    check = _Checker(scale)
    spectra = {
        "flat": FlatSpectrum(0.2),
        "ohmic": OhmicSpectrum(0.15, 2.0 * OMEGA0),
        "lorentzian": LorentzianSpectrum(0.2, OMEGA0, 0.25 * OMEGA0),
    }
    omegas = np.linspace(0.05, 3.0, 100) * OMEGA0
    for name, spectrum in spectra.items():
        for temperature in (OMEGA0 / 10.0, OMEGA0):
            bath = BathSpec(temperature, spectrum)
            emit = rate(omegas, bath)
            rel = np.max(np.abs(rate(-omegas, bath) - np.exp(-omegas / temperature) * emit) / emit)
            check.less(f"{name} spectrum, T = {temperature:g}", rel, 1e-12)
    return check.result(8, "kms-detailed-balance")


def _criterion_9(runs: _SharedRuns, scale: float) -> CriterionResult:
    """The worst sample defects of the six shared runs, as their validation measured them."""
    check = _Checker(scale)
    worst_trace, worst_herm, worst_eig = 0.0, 0.0, 0.0
    for key in ("micro_rabi", "phen_rabi", "phen_bell"):
        for series in (runs.get(key).series, runs.get(key, "ode").series):  # on S: worst_eig >= 0
            worst_trace = max(worst_trace, series.trace_defect.max())
            worst_herm = max(worst_herm, series.herm_defect.max())
            worst_eig = max(worst_eig, -series.min_eigenvalue.min())
    check.less("max |trace - 1|", worst_trace, 1e-10)
    check.less("max hermiticity defect", worst_herm, 1e-12)
    check.less("max negative eigenvalue", worst_eig, 1e-10)
    return check.result(9, "trajectory-physicality")


def _criterion_10(runs: _SharedRuns, scale: float) -> CriterionResult:
    check = _Checker(scale)
    for key in ("micro_rabi", "phen_rabi", "phen_bell"):
        spectral, ode = runs.get(key).series, runs.get(key, "ode").series
        # both routes hold the entries of the blocks rho0 touches, in one order
        same = np.array_equal(spectral.positions, ode.positions)
        dev = np.abs(spectral.states - ode.states).max() if same else np.inf
        check.less(f"{key}: spectral vs RK4", dev, 1e-8)
    return check.result(10, "cross-method-agreement")


_CRITERIA = (
    _criterion_1, _criterion_2, _criterion_3, _criterion_4, _criterion_5,
    _criterion_6, _criterion_7, _criterion_8, _criterion_9, _criterion_10,
)


def run_criterion(number: int, runs: _SharedRuns, tolerance_scale: float = 1.0) -> CriterionResult:
    return _CRITERIA[number - 1](runs, tolerance_scale)


def run_all_criteria(tolerance_scale: float = 1.0) -> list[CriterionResult]:
    runs = _SharedRuns()
    return [fn(runs, tolerance_scale) for fn in _CRITERIA]
