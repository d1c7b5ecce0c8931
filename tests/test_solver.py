import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from jcsim import cli, solver
from jcsim.acceptance import _SCENARIOS, DT
from jcsim.bath import BathSpec, FlatSpectrum, OhmicSpectrum, occupation, rate
from jcsim.blocks import coupled_blocks, width_groups
from jcsim.generators import (
    SparseOperator,
    Superoperator,
    _lindblad,
    dressed_approx_generator,
    microscopic_channels,
    microscopic_generator,
    model_terms,
    phenomenological_generator,
    reachable_states,
    restricted_lindblad,
    unvec,
    vec,
)
from jcsim.hilbert import (
    DensityMatrix,
    build_space,
    ladder_operators,
    pure_state,
)
from jcsim.jcmodel import JCParams, complete_eigensystem, hamiltonian
from jcsim.scenario import run_trajectory, scenario_from_config
from jcsim.solver import (
    KERNEL_TOL,
    RESIDUAL_TOL,
    DampingBasis,
    DampingBasisError,
    KernelMultiplicityError,
    StepSizeError,
    _clusters,
    _format_clusters,
    _tie_ranks,
    damping_basis,
    dominant_frequency,
    evolve_ode,
    evolve_spectral,
    rk4_step_limit,
    steady_state,
)
from dense_operators import atomic_operators, doublet_plus, superoperator
from stacks import dense, dense_diagnostics, series_of
from test_analytic import rabi_micro_density

OMEGA0 = 1.0
RABI = 0.2
PARAMS = JCParams(OMEGA0, RABI)
SECTOR_BATH = BathSpec(0.0, OhmicSpectrum(0.15, 2.0 * OMEGA0))  # unequal sideband rates
GAMMA_A, GAMMA_B = rate(OMEGA0 - RABI, SECTOR_BATH), rate(OMEGA0 + RABI, SECTOR_BATH)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _blocks(liouvillian: Superoperator) -> list[np.ndarray]:
    # the positions of each decoupled block in block order; each label must name its block
    label, order, starts = coupled_blocks(liouvillian)
    blocks = np.split(order, starts[1:])
    assert all((label[block] == k).all() for k, block in enumerate(blocks))
    return blocks


def _sector_generator(bath: BathSpec = SECTOR_BATH) -> Superoperator:
    # micro restricted to the states |0,e> reaches: the basis [|0,g>, |0,e>, |1,g>]
    space = build_space(2)
    jumps = [(op, g) for _, op, g in microscopic_channels(PARAMS, space, bath)]
    excited = pure_state(space.basis_state(0, "e")).matrix
    liouvillian, _, states = restricted_lindblad(hamiltonian(PARAMS, space), jumps, excited)
    assert states.tolist() == [0, 1, 2]
    return liouvillian


def _sector_state_excited_atom() -> DensityMatrix:
    return pure_state(np.array([0.0, 1.0, 0.0], dtype=complex))


def _sector_state_upper_doublet() -> DensityMatrix:
    return pure_state(np.array([0.0, 1.0, 1.0], dtype=complex) / np.sqrt(2.0))


def _dressed_to_sector(rho: np.ndarray) -> np.ndarray:
    # from the dressed basis [ground, (1,-), (1,+)] to [|0,g>, |0,e>, |1,g>]
    u = complete_eigensystem(PARAMS, build_space(1)).vectors[:3, :3]
    return u @ rho @ u.conj().T


def _expected_sector_eigenvalues(gamma_a, gamma_b):
    lower, upper = OMEGA0 - RABI, OMEGA0 + RABI
    return np.array([
        0.0,
        -gamma_a / 2.0,
        -gamma_b / 2.0,
        1j * lower - gamma_a / 4.0,
        -1j * lower - gamma_a / 4.0,
        1j * upper - gamma_b / 4.0,
        -1j * upper - gamma_b / 4.0,
        2j * RABI - (gamma_a + gamma_b) / 4.0,
        -2j * RABI - (gamma_a + gamma_b) / 4.0,
    ])


@pytest.mark.parametrize("bath", [SECTOR_BATH, BathSpec(0.0, FlatSpectrum(0.1))],
                         ids=["distinct", "degenerate"])
def test_sector_spectrum_closed_form(bath):
    got = damping_basis(_sector_generator(bath)).eigenvalues
    expected = _expected_sector_eigenvalues(rate(OMEGA0 - RABI, bath), rate(OMEGA0 + RABI, bath))
    order = np.lexsort((expected.imag, -expected.real))
    assert np.abs(got - expected[order]).max() < 1e-10


def _scattered(basis: DampingBasis) -> tuple[np.ndarray, np.ndarray]:
    # the block-held basis as dense D x D arrays: right eigenvectors as columns, duals as rows
    size = basis.eigenvalues.size
    right, left = np.zeros((2, size, size), dtype=complex)
    for index, modes, block_right, block_left in basis.groups:
        right[index[:, :, None], modes[:, None, :]] = block_right
        left[modes[:, :, None], index[:, None, :]] = block_left
    return right, left


def _biorthonormality_defect(basis: DampingBasis) -> float:
    return max(np.abs(left @ right - np.eye(right.shape[-1])).max()
               for _, _, right, left in basis.groups)


def test_damping_basis_biorthonormality_and_sorting():
    basis = damping_basis(_sector_generator())
    assert basis.eigenvalues.shape == (9,)
    # every position and every mode in exactly one block, each block's modes ascending
    for field in ("index", "modes"):
        flat = np.concatenate([getattr(group, field).ravel() for group in basis.groups])
        assert np.array_equal(np.sort(flat), np.arange(9))
    for index, modes, right, left in basis.groups:
        m, w = index.shape
        assert modes.shape == (m, w) and right.shape == left.shape == (m, w, w)
        assert np.all(np.diff(modes, axis=1) > 0)
    assert _biorthonormality_defect(basis) < 1e-10
    # Re lambda descending, then Im lambda ascending among real parts tied within
    # 1e-9 * max(1, max|lambda|): a conjugate pair's real parts differ in the last bits
    lam = basis.eigenvalues
    tie = 1e-9 * max(1.0, float(np.abs(lam).max()))
    step = np.diff(lam)
    assert np.all(step.real <= tie)
    assert np.all(step.imag[np.abs(step.real) <= tie] > 0.0)


def test_zero_mode_pair():
    basis = damping_basis(_sector_generator())
    (zero,) = np.flatnonzero(np.abs(basis.eigenvalues) < 1e-12)
    right, left = _scattered(basis)
    # the left functional is the trace: Tr{1 rho} = vec(1) . vec(rho)
    assert np.abs(left[zero] - vec(np.eye(3))).max() < 1e-12
    assert np.abs(right[:, zero] - vec(np.diag([1.0, 0.0, 0.0]))).max() < 1e-12


def test_damping_modes_satisfy_eigenproblems():
    liouvillian = microscopic_generator(PARAMS, build_space(2), BathSpec(0.0, FlatSpectrum(0.04)))
    basis = damping_basis(liouvillian)
    rights, lefts = _scattered(basis)
    for k, lam in enumerate(basis.eigenvalues):
        right, left = rights[:, k], lefts[k]
        assert np.abs(liouvillian.matrix @ right - lam * right).max() < 1e-10
        assert np.abs(left @ liouvillian.matrix - lam * left).max() < 1e-10


def test_contractivity_of_built_generators():
    cases = [
        _sector_generator(),
        microscopic_generator(PARAMS, build_space(2), BathSpec(0.25, FlatSpectrum(0.04))),
        phenomenological_generator(PARAMS, build_space(2), 0.04, 0.3),
    ]
    for liouvillian in cases:
        assert damping_basis(liouvillian).eigenvalues.real.max() <= 1e-10


def test_spectral_reproduces_initial_state():
    liouvillian = _sector_generator()
    rho0 = _sector_state_excited_atom()
    series = evolve_spectral(damping_basis(liouvillian), rho0, np.array([0.0, 1.0]))
    assert np.abs(dense(series)[0] - rho0.matrix).max() < 1e-12


def test_spectral_matches_closed_form_density():
    liouvillian = _sector_generator()
    times = np.linspace(0.0, 30.0, 40)
    series = evolve_spectral(damping_basis(liouvillian), _sector_state_excited_atom(), times)
    for k, t in enumerate(times):
        oracle = _dressed_to_sector(rabi_micro_density(t, GAMMA_A, GAMMA_B, RABI, OMEGA0).matrix)
        assert np.abs(dense(series)[k] - oracle).max() < 1e-10


def test_spectral_bell_decay_has_two_modes_only():
    liouvillian = _sector_generator()
    times = np.linspace(0.0, 50.0, 60)
    series = evolve_spectral(damping_basis(liouvillian), _sector_state_upper_doublet(), times)
    for k, t in enumerate(times):
        decay = np.exp(-GAMMA_B * t / 2.0)
        expected = _dressed_to_sector(np.diag([1.0 - decay, 0.0, decay]).astype(complex))
        assert np.abs(dense(series)[k] - expected).max() < 1e-12


def test_expansion_completeness_random_states():
    liouvillian = microscopic_generator(PARAMS, build_space(2), BathSpec(0.0, FlatSpectrum(0.04)))
    right, left = _scattered(damping_basis(liouvillian))
    rng = np.random.default_rng(11)
    dim = liouvillian.dim
    for _ in range(5):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = x @ x.conj().T
        rho /= np.trace(rho)
        coeff = left @ vec(rho)
        recon = unvec(right @ coeff, dim)
        assert np.abs(recon - rho).max() < 1e-9


def test_ode_matches_spectral():
    space = build_space(2)
    liouvillian = microscopic_generator(PARAMS, space, BathSpec(0.0, FlatSpectrum(0.04)))
    rho0 = pure_state(space.basis_state(0, "e"))
    times = np.linspace(0.0, 40.0, 80)
    spectral = evolve_spectral(damping_basis(liouvillian), rho0, times)
    ode = evolve_ode(liouvillian, rho0, times, dt=2e-3)
    # both routes hold the entries of the blocks rho0 touches, in one order
    assert np.array_equal(spectral.positions, ode.positions)
    assert np.abs(spectral.states - ode.states).max() < 1e-8


def test_ode_unitary_limit_keeps_populations():
    space = build_space(2)
    liouvillian = phenomenological_generator(PARAMS, space, 0.0, 0.0)
    plus = doublet_plus(PARAMS, space)
    rho0 = pure_state(plus)
    times = np.linspace(0.0, 20.0, 30)
    series = evolve_ode(liouvillian, rho0, times, dt=2e-3)
    populations = [
        (plus.conj() @ rho @ plus).real
        for rho in dense(series)
    ]
    assert np.abs(np.array(populations) - 1.0).max() < 1e-10


def test_ode_trace_conservation():
    space = build_space(3)
    liouvillian = phenomenological_generator(PARAMS, space, 0.08, 0.0)
    series = evolve_ode(liouvillian, pure_state(doublet_plus(PARAMS, space)),
                        np.linspace(0.0, 60.0, 50), dt=2e-3)
    assert abs(np.trace(dense(series)[-1]) - 1.0) < 1e-10


def _rk4_loop_reference(mat: np.ndarray, rho0: np.ndarray, times: np.ndarray,
                        dt: float) -> np.ndarray:
    # evolve_ode's states from four mat-vecs per RK4 substep, with the same h and n_sub
    dim = rho0.shape[0]
    states = np.empty((times.size, dim, dim), dtype=complex)
    v = vec(rho0)
    t_prev = 0.0
    for k, t in enumerate(times):
        if t > t_prev:
            n_sub = max(1, int(np.ceil((t - t_prev) / dt - 1e-12)))
            h = (t - t_prev) / n_sub
            for _ in range(n_sub):
                k1 = mat @ v
                k2 = mat @ (v + 0.5 * h * k1)
                k3 = mat @ (v + 0.5 * h * k2)
                k4 = mat @ (v + h * k3)
                v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_prev = t
        states[k] = unvec(v, dim)
    return states


@pytest.mark.parametrize("key", ["micro_rabi", "phen_rabi", "phen_bell"])
def test_ode_matches_loop_reference_on_battery_scenarios(key):
    scenario = _SCENARIOS[key]
    liouvillian, rho0 = scenario.generator(), scenario.initial_state()
    times = scenario.time_grid()[:80]
    got = dense(evolve_ode(liouvillian, rho0, times, DT))
    reference = _rk4_loop_reference(liouvillian.matrix, rho0.matrix, times, DT)
    assert np.abs(got - reference).max() <= 1e-12


def test_ode_matches_loop_reference_from_a_later_first_time():
    space = build_space(3)
    liouvillian = phenomenological_generator(PARAMS, space, 0.08, 0.1)
    rho0 = pure_state(space.basis_state(1, "e"))
    times = np.linspace(0.7, 9.0, 37)  # the first interval runs from t = 0 to 0.7
    got = dense(evolve_ode(liouvillian, rho0, times, 2e-3))
    reference = _rk4_loop_reference(liouvillian.matrix, rho0.matrix, times, 2e-3)
    assert np.abs(got - reference).max() <= 1e-12


def test_ode_matches_loop_reference_on_merged_blocks():
    liouvillian = _u1_breaking_generator(3)
    blocks = _blocks(liouvillian)
    space = build_space(3)
    psi = space.basis_state(0, "g") + space.basis_state(0, "e") + space.basis_state(2, "g")
    rho0 = pure_state(psi / np.linalg.norm(psi))
    v0 = vec(rho0.matrix)
    assert len(blocks) == 2 and all(v0[b].any() for b in blocks)
    times = np.linspace(0.0, 12.0, 25)
    dt = rk4_step_limit(np.diag(liouvillian.matrix))
    got = dense(evolve_ode(liouvillian, rho0, times, dt))
    reference = _rk4_loop_reference(liouvillian.matrix, rho0.matrix, times, dt)
    assert np.abs(got - reference).max() <= 1e-12


def test_ode_matches_loop_reference_on_a_whole_battery_grid():
    # all 2000 samples: doubling reaches its 11th level, 1024 samples advanced at once
    scenario = _SCENARIOS["phen_rabi"]
    liouvillian, rho0 = scenario.generator(), scenario.initial_state()
    times = scenario.time_grid()
    got = dense(evolve_ode(liouvillian, rho0, times, DT))
    reference = _rk4_loop_reference(liouvillian.matrix, rho0.matrix, times, DT)
    assert np.abs(got - reference).max() <= 1e-12


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_ode_forms_two_propagators_per_touched_block(config, monkeypatch):
    # one for the span up to the first sample, one for the grid step, whatever the sample count
    calls = []
    power_increment = solver._power_increment
    monkeypatch.setattr(solver, "_power_increment",
                        lambda q, n: calls.append(q.shape) or power_increment(q, n))
    scenario = scenario_from_config((CONFIGS / config).read_text())
    run = run_trajectory(replace(scenario, solver="ode", dt=DT))
    labels = coupled_blocks(run.liouvillian)[0]
    touched = np.unique(labels[np.flatnonzero(vec(run.rho0.matrix))])
    assert touched.size >= 1 and len(calls) == 2 * touched.size


def test_ode_refuses_a_non_uniform_grid():
    liouvillian, rho0 = _sector_generator(), _sector_state_excited_atom()
    with pytest.raises(ValueError, match="times must be uniform after the first sample"):
        evolve_ode(liouvillian, rho0, np.array([0.0, 1.0, 2.0, 3.5]), dt=1e-3)
    times = np.linspace(0.0, 5.0, 11)
    times[5] += 2 * np.spacing(5.0)  # two intervals 2 float steps of t_last off: uniform
    evolve_ode(liouvillian, rho0, times, dt=1e-3)
    times[5] += 14 * np.spacing(5.0)  # 16 off
    with pytest.raises(ValueError, match="more than 8 float steps of t = 5"):
        evolve_ode(liouvillian, rho0, times, dt=1e-3)


def test_ode_takes_a_long_linspace_as_uniform():
    # a linspace's intervals spread further from its step the more samples it has; the rule
    # counts float steps of its last time, so 10**5 samples still pass
    liouvillian, rho0 = _sector_generator(), _sector_state_excited_atom()
    times = np.linspace(0.0, 300.0, 10 ** 5)
    assert np.abs(np.diff(times) - times[-1] / (times.size - 1)).max() > 1e-12 * times[1]
    ode = evolve_ode(liouvillian, rho0, times, rk4_step_limit(liouvillian.diagonal()))
    spectral = evolve_spectral(damping_basis(liouvillian), rho0, times)
    assert np.abs(ode.states - spectral.states).max() < 1e-8


def test_ode_keeps_unweighted_blocks_exactly_zero():
    space = build_space(3)
    liouvillian = phenomenological_generator(PARAMS, space, 0.08, 0.0)
    rho0 = pure_state(space.basis_state(1, "g"))  # diagonal: weight in the k = 0 block only
    series = evolve_ode(liouvillian, rho0, np.linspace(0.0, 5.0, 11), 2e-3)
    n_exc = np.array([n + (s == "e") for n in range(4) for s in ("g", "e")])
    assert not dense(series)[:, n_exc[:, None] != n_exc[None, :]].any()


def test_ode_never_diagonalizes(monkeypatch):
    scenario = _SCENARIOS["phen_bell"]
    liouvillian, rho0 = scenario.generator(), scenario.initial_state()

    def refuse(*args, **kwargs):
        raise AssertionError("the RK4 route must not diagonalize")

    monkeypatch.setattr(np.linalg, "eig", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    series = evolve_ode(liouvillian, rho0, scenario.time_grid()[:200], DT)
    assert abs(np.trace(dense(series)[-1]) - 1.0) < 1e-10


def test_ode_step_size_guard():
    liouvillian = _sector_generator()
    with pytest.raises(StepSizeError):
        evolve_ode(liouvillian, _sector_state_excited_atom(), np.array([0.0, 1.0]), dt=0.5)


def test_ode_rejects_bad_grid():
    liouvillian = _sector_generator()
    with pytest.raises(ValueError):
        evolve_ode(liouvillian, _sector_state_excited_atom(), np.array([1.0, 0.5]), dt=1e-3)


def test_steady_state_cold_bath_is_ground_projector():
    space = build_space(2)
    liouvillian = microscopic_generator(PARAMS, space, BathSpec(0.0, FlatSpectrum(0.04)))
    rho = steady_state(liouvillian)
    expected = np.outer(space.basis_state(0, "g"), space.basis_state(0, "g").conj())
    assert np.abs(rho.matrix - expected).max() < 1e-10


def test_steady_state_thermal_matches_gibbs():
    params = JCParams(1.0, 0.15)
    space = build_space(8)
    temperature = 0.25
    liouvillian = microscopic_generator(params, space, BathSpec(temperature, FlatSpectrum(0.02)))
    rho = steady_state(liouvillian)
    evals, evecs = np.linalg.eigh(hamiltonian(params, space))
    weights = np.exp(-(evals - evals.min()) / temperature)
    weights /= weights.sum()
    gibbs = (evecs * weights) @ evecs.conj().T
    assert 0.5 * np.abs(np.linalg.eigvalsh(rho.matrix - gibbs)).sum() < 1e-8


def test_steady_state_multiplicity_error_for_unitary_generator():
    liouvillian = phenomenological_generator(PARAMS, build_space(2), 0.0, 0.0)
    with pytest.raises(KernelMultiplicityError):
        steady_state(liouvillian)


def _dense_steady_reference(liouvillian: Superoperator) -> DensityMatrix:
    # steady_state as one dense eig of the whole dim^2 x dim^2 Liouvillian
    vals, vecs = np.linalg.eig(liouvillian.matrix)
    null = np.where(np.abs(vals) < KERNEL_TOL)[0]
    if null.size != 1:
        raise KernelMultiplicityError(
            f"kernel dimension {null.size} at tolerance {KERNEL_TOL:.1e}; "
            f"smallest |eigenvalues|: {np.sort(np.abs(vals))[:4]}"
        )
    rho = unvec(vecs[:, null[0]], liouvillian.dim)
    rho = (rho + rho.conj().T) / 2.0
    trace = np.trace(rho)
    if abs(trace) < 1e-12:
        raise KernelMultiplicityError("kernel element is traceless; no stationary state")
    return DensityMatrix(rho / trace).validate()


def _thermal_generators(n_max: int, temperature: float) -> dict[str, Superoperator]:
    space, gamma0 = build_space(n_max), 0.04
    nbar = occupation(OMEGA0, temperature)
    return {
        "micro": microscopic_generator(PARAMS, space, BathSpec(temperature, FlatSpectrum(gamma0))),
        "phen": phenomenological_generator(PARAMS, space, gamma0, nbar),
        "dressed": dressed_approx_generator(PARAMS, space, gamma0, nbar),
    }


def _u1_breaking_generator(n_max: int) -> Superoperator:
    # sigma_minus + sigma_plus flips the atom alone, so N_row - N_col is not conserved
    space = build_space(n_max)
    a, _ = ladder_operators(space)
    sm, sp, _ = atomic_operators(space)
    return _lindblad(hamiltonian(PARAMS, space), [(SparseOperator.from_dense(a), 0.05),
                                                  (SparseOperator.from_dense(sm + sp), 0.01)])


@pytest.mark.parametrize("model", ["micro", "phen", "dressed", "u1-breaking"])
def test_steady_state_matches_dense_reference(model):
    if model == "u1-breaking":
        liouvillian = _u1_breaking_generator(6)
        # phen at nmax 6 splits into 15 blocks; the atom flip merges them into 2
        assert len(_blocks(liouvillian)) == 2
    else:
        liouvillian = _thermal_generators(8, 0.22)[model]
    got = steady_state(liouvillian).matrix
    assert np.abs(got - _dense_steady_reference(liouvillian).matrix).max() <= 1e-12


@pytest.mark.parametrize("model", ["micro", "phen", "dressed", "single"])
def test_coupled_blocks_partition_the_generator(model):
    if model == "single":
        liouvillian = _sector_generator()
    else:
        liouvillian = _thermal_generators(5, 0.3)[model]
    mat = liouvillian.matrix
    blocks = _blocks(liouvillian)
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(mat.shape[0]))
    off_block = mat.copy()
    for block in blocks:
        off_block[np.ix_(block, block)] = 0.0
    assert not off_block.any()


def test_steady_state_counts_isolated_indices_in_the_kernel():
    # every index of the zero generator is a 1x1 block with eigenvalue 0
    with pytest.raises(KernelMultiplicityError, match="kernel dimension 4 "):
        steady_state(superoperator(np.zeros((4, 4))))


def _record_linalg(monkeypatch, names=("eig", "eigvals", "solve", "inv")) -> list:
    # every call of the named np.linalg functions, as (name, copy of the first argument)
    calls = []
    for name in names:
        original = getattr(np.linalg, name)

        def recording(matrix, *args, _name=name, _original=original):
            calls.append((_name, np.array(matrix, copy=True)))
            return _original(matrix, *args)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


def test_steady_state_never_diagonalizes_more_than_one_block(monkeypatch):
    # it now diagonalizes none: the kernel block is counted and solved by one inverse
    liouvillian = phenomenological_generator(PARAMS, build_space(16), 0.04, occupation(OMEGA0, 0.22))
    calls = _record_linalg(monkeypatch)
    steady_state(liouvillian)
    assert [name for name, _ in calls if name != "inv"] == []
    # one inverse of a single matrix: the block of |0,g><0,g|, 1 + 4 * 16 + 1 wide, with its
    # first population row, |0,g><0,g|'s, replaced by the trace row; the coherence blocks'
    # inverse bounds come from stacks
    kernel_block = next(b for b in _blocks(liouvillian) if b[0] == 0)
    assert kernel_block.size == 66
    sub = liouvillian.matrix[np.ix_(kernel_block, kernel_block)]
    (system,) = [matrix for name, matrix in calls if matrix.ndim == 2]
    trace_row = kernel_block % (liouvillian.dim + 1) == 0
    assert np.array_equal(system[1:], sub[1:]) and np.array_equal(system[0], trace_row)
    # its inverse holds that of the deflated block B' = B[~r, ~r] - B[~r, r] t[~r], r = 0
    deflated = sub[1:, 1:] - np.outer(sub[1:, 0], trace_row[1:])
    inverse = np.linalg.inv(system)[1:, 1:]
    assert np.abs(inverse - np.linalg.inv(deflated)).max() <= 1e-12 * np.abs(inverse).max()


@pytest.mark.parametrize("model", ["micro", "phen", "dressed", "u1-breaking"])
def test_trace_preserving_steady_states_make_no_eigen_or_lu_solve(model, monkeypatch):
    liouvillian = (_u1_breaking_generator(6) if model == "u1-breaking"
                   else _thermal_generators(8, 0.22)[model])
    expected = _dense_steady_reference(liouvillian).matrix
    calls = _record_linalg(monkeypatch)
    got = steady_state(liouvillian).matrix
    assert {name for name, _ in calls} == {"inv"}
    assert np.abs(got - expected).max() <= 1e-12


def _two_level_superoperator(populations: list) -> Superoperator:
    # d = 2: the populations |0><0|, |1><1| at vec positions 0 and 3 couple through
    # ``populations``; the coherences decay at rate 1
    matrix = np.diag([0.0, -1.0, -1.0, 0.0]).astype(complex)
    matrix[np.ix_([0, 3], [0, 3])] = populations
    return superoperator(matrix)


def test_steady_state_refuses_a_populated_block_with_a_second_small_eigenvalue(monkeypatch):
    # trace-preserving rates 5e-12 each way: the eigenvalues are 0 and -1e-11, so the
    # deflated block's inverse bound 1e-11 does not clear KERNEL_TOL and eigvals counts two
    liouvillian = _two_level_superoperator([[-5e-12, 5e-12], [5e-12, -5e-12]])
    calls = _record_linalg(monkeypatch, ("eigvals",))
    with pytest.raises(KernelMultiplicityError, match=r"^kernel dimension 2 at tolerance 1\.0e-10"):
        steady_state(liouvillian)
    assert np.array_equal(calls[0][1], liouvillian.matrix[np.ix_([0, 3], [0, 3])][None])


def test_steady_state_counts_a_block_that_breaks_the_trace_with_eigvals(monkeypatch):
    # column sums 1 and -2: tB != 0, so the inverse of the trace-row system certifies nothing;
    # eigvals counts the eigenvalues 0 and -5, and the same inverse holds the kernel (2, 1) / 3
    liouvillian = _two_level_superoperator([[-1.0, 2.0], [2.0, -4.0]])
    calls = _record_linalg(monkeypatch, ("eigvals", "solve", "inv"))
    rho = steady_state(liouvillian)
    assert [name for name, _ in calls] == ["inv", "inv", "eigvals"]  # no empty stacks either
    assert calls[0][1].shape == (2, 1, 1)  # the coherences' inverse bounds, 1x1 blocks
    assert np.array_equal(calls[1][1], [[1.0, 1.0], [2.0, -4.0]])
    assert np.array_equal(calls[2][1], liouvillian.matrix[np.ix_([0, 3], [0, 3])][None])
    assert np.abs(rho.matrix - np.diag([2.0, 1.0]) / 3.0).max() <= 1e-15


def _anti_hermitian_shift(n_max: int, strength: float) -> Superoperator:
    # phen at T = 0.22 plus -i[k, .] with k = i strength a^dagger a: trace-preserving, its entries
    # sit at mirrored positions, but L(X^dagger) - L(X)^dagger = 2 strength (n_i - n_j) X_ij
    space = build_space(n_max)
    a, _ = ladder_operators(space)
    k, eye = 1j * strength * (a.conj().T @ a), np.eye(space.dim)
    phen = _thermal_generators(n_max, 0.22)["phen"].matrix
    return superoperator(phen - 1j * (np.kron(eye, k) - np.kron(k.T, eye)))


@pytest.mark.parametrize("strength", [0.03, 0.3])
def test_a_generator_that_breaks_hermiticity_matches_the_dense_solves(strength):
    liouvillian = _anti_hermitian_shift(3, strength)
    vals = _dense_damping_basis(liouvillian)[0]
    got = damping_basis(liouvillian)
    assert np.abs(got.eigenvalues - vals).max() <= 1e-13 * max(1.0, float(np.abs(vals).max()))
    reference = _dense_steady_reference(liouvillian).matrix
    assert np.abs(steady_state(liouvillian).matrix - reference).max() <= 1e-12


@pytest.mark.parametrize("corner, counted", [(1e-3, 1), (10.0, 2)])
def test_steady_state_counts_the_blocks_its_inverse_bound_does_not_clear(corner, counted,
                                                                         monkeypatch):
    # |1><1| decays into |0><0|, the one kernel element; the coherences |1><0| and |0><1| decay
    # at 1e-5 and `corner` links them, so 1/||B^-1||_F is 1e-7 at 1e-3 and 1e-11 at 10.0
    matrix = np.zeros((4, 4), dtype=complex)
    matrix[0, 3], matrix[3, 3] = 0.5, -0.5
    matrix[1, 1] = matrix[2, 2] = -1e-5
    matrix[1, 2] = corner
    calls = _record_linalg(monkeypatch, ("eigvals",))
    rho = steady_state(superoperator(matrix))
    # `counted` blocks enter the count: the population block always, through its inverse, and
    # the coherence block too where its bound does not clear; that one reaches eigvals, holds
    # no zero eigenvalue, and the state is |0><0| either way
    assert [len(stack) for _, stack in calls] == [1] * (counted - 1)
    assert np.array_equal(rho.matrix, np.diag([1.0, 0.0]).astype(complex))


@pytest.mark.parametrize("diagonal, populations, residual", [
    # the kernel (1/2, 1/2) has unit trace, but |0><0|'s row is not redundant: singular
    ([0.0, -1.0, -1.0, 0.0], [[-1.0, 1.0], [0.0, 0.0]], "nan"),
    # the one zero eigenvalue sits on the coherence |1><0|, whose block holds no population
    ([-1.0, 0.0, -1.0, -1.0], None, "nan"),
    # the eigenvalue 5e-11 counts, but B has no kernel: the system is solved, x = |1><1|
    ([0.0, -1.0, -1.0, 0.0], [[1e6, -5e-5], [1.0, 0.0]], "5.000e-05"),
])
def test_steady_state_refuses_a_kernel_the_trace_row_solve_misses(diagonal, populations,
                                                                  residual):
    # the solve puts the trace row in place of the kernel block's first population row; the
    # residual check refuses its solution unless that row was redundant
    matrix = np.diag(diagonal).astype(complex)
    if populations:
        matrix[np.ix_([0, 3], [0, 3])] = populations
    with pytest.raises(KernelMultiplicityError,
                       match=rf"has residual {residual} \(the kernel is traceless, or that row is not"):
        steady_state(superoperator(matrix))


def _reachable_reference(h: np.ndarray, jumps: list, rho0: np.ndarray) -> np.ndarray:
    # the closure as dim passes over the dense one-step pattern of h, each live A and each A^dagger A
    step = h != 0
    for op, g in jumps:
        if g > 0:
            a = np.zeros(h.shape)
            a[op.rows, op.cols] = np.abs(op.values)
            step |= (a != 0) | (a.T @ a != 0)
    reached = np.diag(rho0) != 0
    for _ in range(len(reached)):
        reached = reached | step[:, reached].any(axis=1)
    return np.flatnonzero(reached)


def _block_spectra(liouvillian: Superoperator) -> list[tuple[np.ndarray, np.ndarray]]:
    # (singular values, eigenvalues) of every decoupled block
    mat = liouvillian.matrix
    subs = [mat[np.ix_(b, b)] for b in _blocks(liouvillian)]
    return [(np.linalg.svd(sub, compute_uv=False), np.linalg.eigvals(sub)) for sub in subs]


def _all_blocks_message(liouvillian: Superoperator) -> str:
    # the KernelMultiplicityError text, from eigvals over every decoupled block
    vals = np.concatenate([vals for _, vals in _block_spectra(liouvillian)])
    return (f"kernel dimension {np.count_nonzero(np.abs(vals) < KERNEL_TOL)} at tolerance "
            f"{KERNEL_TOL:.1e}; smallest |eigenvalues|: {np.sort(np.abs(vals))[:4]}")


@pytest.mark.parametrize("case", [f"{model}-{n_max}-{temperature}"
                                  for model in ("micro", "phen", "dressed")
                                  for n_max in (3, 8) for temperature in (0.0, 0.22)]
                         + ["u1-breaking-6", "lossless-phen"])
def test_singular_value_screen_keeps_every_kernel_block(case):
    liouvillian = (_u1_breaking_generator(6) if case == "u1-breaking-6"
                   else _reference_case(case))
    kernel_count, candidate_count = 0, 0
    for sing, vals in _block_spectra(liouvillian):
        # |lambda| >= sigma_min, up to the eigenvalues' rounding
        assert sing[-1] <= np.abs(vals).min() + 1e-12 * max(1.0, sing[0])
        zeros = np.count_nonzero(np.abs(vals) < KERNEL_TOL)
        kernel_count += zeros
        if sing[-1] <= KERNEL_TOL:
            candidate_count += zeros
    assert candidate_count == kernel_count
    assert kernel_count == (6 if case == "lossless-phen" else 1)


@pytest.mark.parametrize("case", ["lossless-phen", "zero"])
def test_kernel_multiplicity_message_reads_every_block(case):
    liouvillian = _reference_case(case)
    with pytest.raises(KernelMultiplicityError) as error:
        steady_state(liouvillian)
    assert str(error.value) == _all_blocks_message(liouvillian)
    if case == "zero":
        assert str(error.value) == ("kernel dimension 4 at tolerance 1.0e-10; "
                                    "smallest |eigenvalues|: [0. 0. 0. 0.]")


def test_steady_command_reports_a_lossless_kernel(tmp_path, capsys):
    text = (CONFIGS / "rabi_joint_ground.cfg").read_text().replace("\ngamma0 = 0.082",
                                                                   "\ngamma0 = 0.0")
    config, out = tmp_path / "lossless.cfg", tmp_path / "steady.csv"
    config.write_text(text)
    assert cli.main(["steady", "--config", str(config), "--model", "phen", "--out", str(out)]) == 2
    liouvillian = replace(scenario_from_config(text), model="phen").generator()
    assert capsys.readouterr().err == f"solver failure: {_all_blocks_message(liouvillian)}\n"
    assert not out.exists()


def _distance_to_gibbs(rho: DensityMatrix, h: np.ndarray, temperature: float) -> float:
    # trace distance to the Gibbs state of h
    evals, evecs = np.linalg.eigh(h)
    weights = np.exp(-(evals - evals.min()) / temperature)
    gibbs = (evecs * (weights / weights.sum())) @ evecs.conj().T
    return 0.5 * np.abs(np.linalg.eigvalsh(rho.matrix - gibbs)).sum()


def _distance_to_free_gibbs(rho: DensityMatrix, space, temperature: float) -> float:
    # to the Gibbs state of the uncoupled Hamiltonian, which phen relaxes to
    return _distance_to_gibbs(rho, hamiltonian(JCParams(OMEGA0, 0.0), space), temperature)


def test_steady_state_stays_small_beyond_the_dense_generator():
    # phen at T = omega0, nmax 24: the dense generator alone would take 2500^2 * 16 B = 100 MB
    temperature, gamma0, space = OMEGA0, 0.02, build_space(24)
    tracemalloc.start()
    try:
        rho = steady_state(phenomenological_generator(PARAMS, space, gamma0,
                                                      occupation(OMEGA0, temperature)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    assert _distance_to_free_gibbs(rho, space, temperature) < 1e-6


def test_steady_state_micro_at_nmax_40_meets_gibbs():
    # 316 Bohr-frequency channels on 82 states; Gibbs(H) is the micro generator's fixed point
    params, space, temperature = JCParams(OMEGA0, 0.2), build_space(40), 0.25
    rho = steady_state(microscopic_generator(params, space,
                                             BathSpec(temperature, FlatSpectrum(0.02))))
    assert _distance_to_gibbs(rho, hamiltonian(params, space), temperature) < 1e-6


@pytest.mark.parametrize("nmax", [4, 8, 16])
def test_steady_state_dressed_meets_gibbs_of_the_free_hamiltonian(nmax):
    # criterion 7's point: dressed's rates balance with weights exp(-N omega0/T), constant on
    # each manifold N, so it relaxes to phen's fixed point and not to micro's Gibbs(H)
    params, space, temperature, gamma0 = JCParams(OMEGA0, 0.2), build_space(nmax), 0.25, 0.02
    rho = steady_state(dressed_approx_generator(params, space, gamma0,
                                                occupation(OMEGA0, temperature)))
    assert _distance_to_free_gibbs(rho, space, temperature) <= 1e-6
    assert _distance_to_gibbs(rho, hamiltonian(params, space), temperature) > 1e-3


def test_steady_state_hot_phen_meets_gibbs_of_the_free_hamiltonian():
    # phen at T = 2 omega0, nmax 46: 95 decoupled blocks, the widest 186
    temperature, gamma0, space = 2.0 * OMEGA0, 0.02, build_space(46)
    rho = steady_state(phenomenological_generator(PARAMS, space, gamma0,
                                                  occupation(OMEGA0, temperature)))
    assert _distance_to_free_gibbs(rho, space, temperature) < 1e-6


def _dense_damping_basis(liouvillian: Superoperator) -> tuple[np.ndarray, ...]:
    # damping_basis as one dense eig and one dense inverse of the whole dim^2 x dim^2 Liouvillian:
    # the sorted eigenvalues, the right eigenvectors as columns and the dual functionals as rows
    mat = liouvillian.matrix
    dim = liouvillian.dim
    vals, right = np.linalg.eig(mat)

    for k in range(vals.size):
        col = right[:, k]
        tr = np.trace(unvec(col, dim))
        if abs(vals[k]) < KERNEL_TOL and abs(tr) > 1e-8:
            right[:, k] = col / tr
        else:
            col = col / np.linalg.norm(col)
            pivot = col[np.argmax(np.abs(col))]
            right[:, k] = col * (abs(pivot) / pivot)

    scale = max(1.0, float(np.abs(vals).max()))
    try:
        left = np.linalg.inv(right)
    except np.linalg.LinAlgError as exc:
        raise DampingBasisError(
            "right eigenoperators are linearly dependent; eigenvalue clusters: "
            + _format_clusters(vals)
        ) from exc

    right_res = np.abs(mat @ right - right * vals[None, :]).max()
    left_res = np.abs(left @ mat - vals[:, None] * left).max()
    if max(right_res, left_res) > RESIDUAL_TOL * scale:
        raise DampingBasisError(
            f"left/right pairing failed (residuals {right_res:.3e}/{left_res:.3e}, "
            f"eigenvector matrix cond(R) = {np.linalg.cond(right):.3e}); "
            "near-defective eigenvalue clusters: " + _format_clusters(vals)
        )

    tie = 1e-9 * scale
    order = np.lexsort((-vals.real, _tie_ranks(vals.imag, tie), _tie_ranks(-vals.real, tie)))
    return vals[order], right[:, order], left[order, :]


# dressed at nmax 9 and 10 has real modes whose Re lambda tie within 1e-9 and whose
# Im lambda is rounding noise: the sort must not let that noise order them
_REFERENCE_CASES = [f"{model}-{n_max}-{temperature}" for model in ("micro", "phen", "dressed")
                    for n_max in (2, 3, 8) for temperature in (0.0, 0.22)]
_REFERENCE_CASES += ["dressed-9-0.22", "dressed-10-0.22"]


def _reference_case(case: str) -> Superoperator:
    if case == "single":
        return _sector_generator()
    if case == "u1-breaking":
        return _u1_breaking_generator(3)
    if case == "lossless-phen":  # eig returns its repeated eigenvalues' vectors near-parallel
        return phenomenological_generator(PARAMS, build_space(2), 0.0, 0.0)
    if case == "zero":  # every index is a block of its own
        return superoperator(np.zeros((4, 4)))
    model, n_max, temperature = case.split("-")
    return _thermal_generators(int(n_max), float(temperature))[model]


def _random_density(dim: int, seed: int) -> DensityMatrix:
    re, im = np.random.default_rng(seed).standard_normal((2, dim, dim))
    rho = (re + 1j * im) @ (re + 1j * im).conj().T
    return DensityMatrix(rho / np.trace(rho))


@pytest.mark.parametrize("case", _REFERENCE_CASES + ["single", "u1-breaking", "lossless-phen"])
def test_damping_basis_matches_dense_reference(case):
    liouvillian = _reference_case(case)
    got = damping_basis(liouvillian)
    vals, right, left = _dense_damping_basis(liouvillian)
    scale = max(1.0, float(np.abs(vals).max()))
    assert np.abs(got.eigenvalues - vals).max() <= 1e-13 * scale
    assert _biorthonormality_defect(got) <= 1e-10
    # trajectories and frequencies from the dense expansion, for a basis state and a full-rank
    # state that touches every block
    dim, times = liouvillian.dim, np.linspace(0.0, 20.0, 6)
    for rho0 in (pure_state(np.eye(dim)[1]), _random_density(dim, 5)):
        coeff = left @ vec(rho0.matrix)
        flat = right @ (coeff[:, None] * np.exp(np.outer(vals, times)))
        expected = np.transpose(flat.T.reshape(times.size, dim, dim), (0, 2, 1))
        assert np.abs(dense(evolve_spectral(got, rho0, times)) - expected).max() <= 1e-13 * scale
        weights, floor = np.abs(coeff), 1e-9 * max(1.0, float(np.abs(vals.imag).max()))
        excited = (vals.imag > floor) & (weights > 1e-8 * weights.max())
        frequency = vals.imag[np.argmax(np.where(excited, weights, -1.0))] if excited.any() else 0.0
        assert abs(dominant_frequency(got, rho0) - frequency) <= 1e-13 * scale


@pytest.mark.parametrize("case", ["micro-8-0.22", "phen-8-0.22", "dressed-3-0.0", "zero"])
def test_width_groups_fill_the_blocks_asked_for(case):
    liouvillian = _reference_case(case)
    blocks, mat = coupled_blocks(liouvillian), liouvillian.matrix
    positions = _blocks(liouvillian)
    for wanted in (None, np.arange(len(positions)) % 3 == 1):
        filled, widths = [], []
        for members, index, subs in width_groups(liouvillian, blocks, wanted):
            widths.append(index.shape[1])
            for b, block, sub in zip(members, index, subs):
                assert np.array_equal(block, positions[b])
                assert np.array_equal(sub, mat[np.ix_(block, block)])
            filled += members.tolist()
        assert widths == sorted(set(widths))
        expected = range(len(positions)) if wanted is None else np.flatnonzero(wanted)
        assert sorted(filled) == list(expected)


def test_damping_basis_stays_small():
    # the dense D x D right and left arrays alone took 7.5 MB of an 8.1 MB peak (D = 484)
    liouvillian = phenomenological_generator(PARAMS, build_space(10), 0.04, occupation(OMEGA0, 0.22))
    tracemalloc.start()
    try:
        damping_basis(liouvillian)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def _dense_coupled_blocks(mat: np.ndarray) -> list[np.ndarray]:
    # the blocks as a breadth-first search over the dense nonzero pattern finds them
    linked = mat != 0
    linked |= linked.T
    unseen = np.ones(mat.shape[0], dtype=bool)
    blocks = []
    for seed in range(mat.shape[0]):
        if not unseen[seed]:
            continue
        block = np.zeros_like(unseen)
        block[seed] = True
        frontier = block.copy()
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~block
            block |= frontier
        unseen &= ~block
        blocks.append(np.flatnonzero(block))
    return blocks


@pytest.mark.parametrize("case", _REFERENCE_CASES + ["u1-breaking", "lossless-phen", "zero"])
def test_coupled_blocks_match_the_dense_breadth_first_search(case):
    liouvillian = _reference_case(case)
    got = _blocks(liouvillian)
    reference = _dense_coupled_blocks(liouvillian.matrix)
    assert len(got) == len(reference)
    assert all(np.array_equal(a, b) for a, b in zip(got, reference))


@pytest.mark.parametrize("model", ["micro", "phen", "dressed"])
def test_damping_basis_diagonalizes_block_by_block(model, monkeypatch):
    liouvillian = _thermal_generators(8, 0.22)[model]
    widest = max(block.size for block in _blocks(liouvillian))
    widths = []
    for name in ("eig", "inv"):
        original = getattr(np.linalg, name)

        def recording(matrix, _original=original):
            widths.append(matrix.shape[-1])
            return _original(matrix)

        monkeypatch.setattr(np.linalg, name, recording)
    damping_basis(liouvillian)
    assert widths and max(widths) <= widest < liouvillian.matrix.shape[0]


def _hamiltonian_and_jumps(scenario) -> tuple[np.ndarray, list]:
    # the h and (operator, rate) jumps that scenario.generator() hands to _lindblad
    h, jumps, _ = model_terms(scenario.model, scenario.params, scenario.space(), scenario.bath,
                              scenario.gamma0, scenario.nbar)
    assert np.array_equal(_lindblad(h, jumps).matrix, scenario.generator().matrix)
    return h, jumps


def _joint_ground_scenario(**changes):
    return replace(scenario_from_config((CONFIGS / "rabi_joint_ground.cfg").read_text()), **changes)


# the bundled configs' two initial states, and one in the two-excitation manifold
_INITIAL_STATES = pytest.mark.parametrize(
    "initial", [("fock", 0, "e"), ("dressed", 1, +1), ("fock", 1, "e")],
    ids=["fock:0,e", "dressed:1,+", "fock:1,e"])


@pytest.mark.parametrize("n_max", [3, 8])
@pytest.mark.parametrize("model", ["micro", "phen", "dressed"])
@_INITIAL_STATES
def test_restricted_generator_reproduces_the_full_trajectory(initial, model, n_max):
    scenario = _joint_ground_scenario(initial=initial, model=model, n_max=n_max, steps=201)
    full, rho0, times = scenario.generator(), scenario.initial_state(), scenario.time_grid()
    h, jumps = _hamiltonian_and_jumps(scenario)
    restricted, rho0_cut, states = restricted_lindblad(h, jumps, rho0.matrix)
    if initial != ("fock", 1, "e"):  # the bundled configs' states stay in one excitation
        assert states.tolist() == [0, 1, 2]
    dt = rk4_step_limit(np.diag(full.matrix))
    for route in (lambda gen, rho: evolve_spectral(damping_basis(gen), rho, times),
                  lambda gen, rho: evolve_ode(gen, rho, times, dt)):
        reference = dense(route(full, rho0))
        embedded = np.zeros_like(reference)
        embedded[:, states[:, None], states[None, :]] = dense(route(restricted, rho0_cut))
        assert np.abs(embedded - reference).max() <= 1e-13


@pytest.mark.parametrize("n_max", [3, 8])
@pytest.mark.parametrize("model", ["micro", "phen", "dressed"])
@_INITIAL_STATES
def test_thermal_runs_reach_every_state(initial, model, n_max):
    scenario = _joint_ground_scenario(initial=initial, model=model, n_max=n_max,
                                      nbar=occupation(OMEGA0, 0.22))
    scenario = replace(scenario, bath=BathSpec(0.22, scenario.bath.spectrum))
    h, jumps = _hamiltonian_and_jumps(scenario)
    states = reachable_states(h, jumps, scenario.initial_state().matrix)
    assert states.tolist() == list(range(scenario.space().dim))


@pytest.mark.parametrize("temperature", [0.0, 0.22])
@pytest.mark.parametrize("model", ["micro", "phen", "dressed"])
@_INITIAL_STATES
def test_reachable_states_stop_at_the_closure(initial, model, temperature):
    for rabi in (0.2, 0.41, 0.9):
        scenario = _joint_ground_scenario(
            initial=initial, model=model, n_max=8, rabi=rabi,
            nbar=occupation(OMEGA0, temperature) if temperature else 0.0)
        scenario = replace(scenario, bath=BathSpec(temperature, scenario.bath.spectrum))
        h, jumps = _hamiltonian_and_jumps(scenario)
        rho0 = scenario.initial_state().matrix
        assert np.array_equal(reachable_states(h, jumps, rho0),
                              _reachable_reference(h, jumps, rho0))
    # sigma_x flips the atom alone: live, it breaks the excitation number and reaches every
    # state; at rate 0 it adds none
    sm, sp, _ = atomic_operators(scenario.space())
    flip = SparseOperator.from_dense(sm + sp)
    for g in (0.05, 0.0):
        for start in np.eye(h.shape[0]):
            rho0 = np.diag(start)
            states = reachable_states(h, jumps + [(flip, g)], rho0)
            assert np.array_equal(states, _reachable_reference(h, jumps + [(flip, g)], rho0))
            if g:
                assert states.size == h.shape[0]
            else:
                assert np.array_equal(states, reachable_states(h, jumps, rho0))


def test_evolve_spectral_keeps_unweighted_blocks_exactly_zero():
    space = build_space(3)
    liouvillian = phenomenological_generator(PARAMS, space, 0.08, 0.0)
    rho0 = pure_state(space.basis_state(1, "g"))  # diagonal: weight in the k = 0 block only
    series = evolve_spectral(damping_basis(liouvillian), rho0, np.linspace(0.0, 5.0, 11))
    n_exc = np.array([n + (s == "e") for n in range(4) for s in ("g", "e")])
    assert not dense(series)[:, n_exc[:, None] != n_exc[None, :]].any()


@pytest.mark.parametrize("model", ["phen", "dressed"])
@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_damping_basis_meets_the_pairing_gate_at_nmax_12(config, model):
    # the dense solve failed here for phen; recomputing eig's well-separated vectors of a
    # repeated eigenvalue from an SVD would fail from nmax 9 or 10
    scenario = replace(scenario_from_config((CONFIGS / config).read_text()),
                       model=model, n_max=12)
    rho0 = scenario.initial_state()
    series = evolve_spectral(damping_basis(scenario.generator()), rho0, np.array([0.0, 1.0]))
    assert np.abs(dense(series)[0] - rho0.matrix).max() <= 1e-10


@pytest.mark.parametrize("model", ["micro", "phen"])
def test_pairing_failure_names_its_block_and_only_its_clusters(model):
    scenario = replace(scenario_from_config((CONFIGS / "rabi_joint_ground.cfg").read_text()),
                       model=model, n_max=13)
    liouvillian = scenario.generator()
    with pytest.raises(DampingBasisError) as failure:
        damping_basis(liouvillian)
    message = str(failure.value)
    found = re.search(r"decoupled block (\d+) of (\d+) \((\d+) wide; .*cond\(R\) = (\S+)\);"
                      r" near-defective eigenvalue clusters in that block: (.*)$", message)
    assert found, message
    index, count, width = (int(found.group(k)) for k in (1, 2, 3))
    blocks = _blocks(liouvillian)
    assert len(blocks) == count and blocks[index].size == width
    assert float(found.group(4)) > 1e4
    block_vals = np.linalg.eigvals(liouvillian.matrix[np.ix_(blocks[index], blocks[index])])
    clusters = re.findall(r"(\S+) \(x(\d+)\)", found.group(5))
    assert clusters
    for value, members in clusters:
        assert np.count_nonzero(np.abs(block_vals - complex(value)) < 1e-5) >= int(members)


def _svd_every_block(blocks: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> None:
    # _span_repeated_eigenvalues without its screen: an SVD of every block's eigenvectors
    singular = np.linalg.svd(vecs, compute_uv=False)[:, -1] * RESIDUAL_TOL < np.finfo(float).eps
    for k in np.flatnonzero(singular):
        null_tol = RESIDUAL_TOL * max(1.0, float(np.abs(vals[k]).max()))
        for members in _clusters(vals[k]):
            lam = vals[k, members].mean()
            _, sing, vh = np.linalg.svd(blocks[k] - lam * np.eye(vals.shape[1]))
            if np.count_nonzero(sing <= null_tol) == members.size:
                vals[k, members] = lam
                vecs[k][:, members] = vh[-members.size:].conj().T


@pytest.mark.parametrize("case", ["lossless-phen", "phen-8-0.22", "micro-8-0.0",
                                  "dressed-10-0.22", "u1-breaking", "zero"])
def test_repeated_eigenvalue_screen_keeps_the_damping_basis_bit_identical(case, monkeypatch):
    # lossless phen has two blocks whose repeated eigenvalues eig returns near-parallel
    # vectors for; the screen must still send them to the SVD
    liouvillian = _reference_case(case)
    screened = damping_basis(liouvillian)
    monkeypatch.setattr(solver, "_span_repeated_eigenvalues", _svd_every_block)
    reference = damping_basis(liouvillian)
    assert screened.eigenvalues.tobytes() == reference.eigenvalues.tobytes()
    assert len(screened.groups) == len(reference.groups)
    for got, expected in zip(screened.groups, reference.groups):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))


def test_defective_liouvillian_raises_with_cluster():
    matrix = np.zeros((4, 4), dtype=complex)
    matrix[0, 1] = 1.0  # Jordan block: eigenvalue 0 with a single eigenvector
    matrix[2, 2] = matrix[3, 3] = -1.0  # a repeated eigenvalue split over two 1-wide blocks
    with pytest.raises(DampingBasisError,
                       match=r"block 0 of 3 \(2 wide.* clusters in that block: 0\+0j \(x2\)$"):
        damping_basis(superoperator(matrix))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in the residual products
@pytest.mark.parametrize("build", [phenomenological_generator, dressed_approx_generator])
def test_pairing_gate_refuses_a_nan_residual(build):
    # at rabi 5e307 the left/right pairing residual of the first block comes out nan; configs
    # refuse this energy scale before any build, so only a library call gets here
    liouvillian = build(JCParams(1.0, 5e307), build_space(2), 0.082, 0.0)
    with pytest.raises(DampingBasisError, match=r"^left/right pairing failed in decoupled block "
                                                r"0 of \d+ \(10 wide; residuals [^/]+/nan, "):
        damping_basis(liouvillian)


def test_mode_order_survives_last_bit_changes():
    # gamma * D[a] and D[a] at rate gamma differ in the last bits; their modes must not
    # trade places where real parts tie exactly (bell_atomic_ground, phen model)
    space, gamma0 = build_space(3), 0.082
    a = SparseOperator.from_dense(ladder_operators(space)[0])
    h = hamiltonian(JCParams(1.0, 0.41), space)
    dissipator = _lindblad(np.zeros_like(h), [(a, 1.0)]).matrix
    scaled = superoperator(_lindblad(h, []).matrix + gamma0 * dissipator)
    folded = _lindblad(h, [(a, gamma0)])
    assert np.abs(scaled.matrix - folded.matrix).max() > 0.0
    lam_scaled = damping_basis(scaled).eigenvalues
    lam_folded = damping_basis(folded).eigenvalues
    assert np.abs(lam_scaled - lam_folded).max() <= 1e-12


@pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
def test_validators_refuse_a_state_that_holds_a_nan(entry):
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[entry] = np.nan
    message = "hermiticity defect nan"  # nan - nan is nan on the diagonal too
    with pytest.raises(ValueError, match=message):
        DensityMatrix(rho).validate()
    with pytest.raises(ValueError, match=rf"sample 1 \(t = 0\.5\): {message}"):
        series_of(np.stack([np.eye(2) / 2, rho]), np.array([0.0, 0.5])).validate_states()


def test_dominant_frequency_selects_excited_mode():
    basis = damping_basis(_sector_generator())
    # excited bare atom beats at twice the coupling
    assert dominant_frequency(basis, _sector_state_excited_atom()) == pytest.approx(
        2.0 * RABI, abs=1e-12
    )
    # the pure upper doublet state excites no oscillating mode at all
    assert dominant_frequency(basis, _sector_state_upper_doublet()) == 0.0


def test_trajectory_states_validated():
    liouvillian = _sector_generator()
    series = evolve_spectral(damping_basis(liouvillian), _sector_state_excited_atom(),
                             np.linspace(0.0, 10.0, 20))
    series.validate_states()


_CORRUPTIONS = {
    "trace defect": lambda rho: rho * 1.01,
    "hermiticity defect": lambda rho: rho + np.triu(np.full_like(rho, 1e-3), 1),
    "min eigenvalue": lambda rho: np.diag([1.5, -0.5, 0.0]).astype(complex),
}


@pytest.mark.parametrize("defect", list(_CORRUPTIONS))
def test_validate_states_names_the_corrupted_sample(defect):
    liouvillian = _sector_generator()
    series = evolve_spectral(damping_basis(liouvillian), _sector_state_excited_atom(),
                             np.linspace(0.0, 50.0, 2000))
    series.validate_states()
    for k in (1234, 1900):  # the error names the first of them
        series.states[k] = vec(_CORRUPTIONS[defect](dense(series)[k]))[series.positions]
    with pytest.raises(ValueError, match=f"^sample 1234 \\(t = .*\\): {defect} "):
        series.validate_states()


def test_validate_states_trace_bound_is_state_tol():
    def state(defect):
        return np.diag([0.5 + defect, 0.5, 0.0]).astype(complex)

    series_of(np.stack([state(0.0), state(0.9e-8)]), np.array([0.0, 1.0])).validate_states()
    series = series_of(np.stack([state(0.9e-8), state(1.1e-8)]), np.array([0.0, 1.0]))
    message = r"^sample 1 \(t = 1\): trace defect 1\.100e-08 > 1\.000e-08$"
    with pytest.raises(ValueError, match=message):
        series.validate_states()


def _entry_series(case: str, route: str):
    """A validated trajectory of a bundled config on ``route``, or of a u1-breaking state."""
    if case != "u1-breaking":
        scenario = scenario_from_config((CONFIGS / case).read_text())
        return run_trajectory(replace(scenario, solver=route,
                                      dt=DT if route == "ode" else None)).series
    # |0,g> + |0,e> + |2,g> links three states at once, so its blocks are wider than 2
    liouvillian, psi = _u1_breaking_generator(3), np.eye(8)[[0, 1, 4]].sum(axis=0)
    rho0, times = pure_state(psi / np.linalg.norm(psi)), np.linspace(0.0, 12.0, 25)
    if route == "spectral":
        return evolve_spectral(damping_basis(liouvillian), rho0, times)
    return evolve_ode(liouvillian, rho0, times, rk4_step_limit(liouvillian.diagonal()))


@pytest.mark.parametrize("route", ["spectral", "ode"])
@pytest.mark.parametrize("case", sorted(p.name for p in CONFIGS.glob("*.cfg")) + ["u1-breaking"])
def test_entry_defects_match_the_dense_stack(case, route, monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    series = _entry_series(case, route)
    # the bundled configs' states split into 1x1 and 2x2 blocks; the u1-breaking state fills
    # all 8 x 8 entries, one block for eigvalsh
    assert calls == ([(series.times.size, 8, 8)] if case == "u1-breaking" else [])
    states = dense(series)
    trace_defect, herm_defect, min_eig = dense_diagnostics(states)
    assert series.trace_defect.tobytes() == trace_defect.tobytes()
    assert series.herm_defect.tobytes() == herm_defect.tobytes()
    scale = np.linalg.norm(states, axis=(1, 2))
    assert (np.abs(series.min_eigenvalue - min_eig) <= 1e-13 * scale).all()


@pytest.mark.parametrize("route, n_max, bound", [("ode", 30, 40e6), ("spectral", 10, None)])
def test_a_thermal_trajectory_holds_only_its_entries(route, n_max, bound):
    # phen at T = 0.22 from |0,e> reaches every state; at nmax 30 the (2000, 62, 62) stack of
    # all its states would take 123 MB, against 3.9 MB for the 122 entries of its one block
    scenario = replace(scenario_from_config((CONFIGS / "rabi_joint_ground.cfg").read_text()),
                       model="phen", nbar=occupation(OMEGA0, 0.22), n_max=n_max, solver=route,
                       dt=1e-4 if route == "ode" else None)
    tracemalloc.start()
    try:
        run = run_trajectory(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.reached.size == scenario.space().dim
    stack = run.series.states.shape[0] * run.reached.size ** 2 * 16  # (steps, |S|, |S|) complex
    assert peak < min(stack, bound or stack)
