import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from jcsim.acceptance import DT, _SharedRuns
from jcsim.analytic import rabi_micro_density
from jcsim.bath import BathSpec, FlatSpectrum, occupation
from jcsim.generators import (
    Superoperator,
    _lindblad,
    dressed_approx_generator,
    microscopic_generator,
    phenomenological_generator,
    single_excitation_generator,
    unvec,
    vec,
)
from jcsim.hilbert import (
    DensityMatrix,
    atomic_operators,
    build_space,
    ladder_operators,
    pure_state,
)
from jcsim.jcmodel import JCParams, dressed_states, hamiltonian
from jcsim.scenario import scenario_from_config
from jcsim.solver import (
    KERNEL_TOL,
    RESIDUAL_TOL,
    DampingBasis,
    DampingBasisError,
    KernelMultiplicityError,
    StepSizeError,
    TimeSeries,
    _coupled_blocks,
    _format_clusters,
    _tie_ranks,
    damping_basis,
    dominant_frequency,
    evolve_ode,
    evolve_spectral,
    rk4_step_limit,
    steady_state,
)

OMEGA0 = 1.0
RABI = 0.2
PARAMS = JCParams(OMEGA0, RABI)
GAMMA_A, GAMMA_B = 0.08, 0.12
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _sector_state_excited_atom() -> DensityMatrix:
    # |0,e> in the sector basis [ground, (1,-), (1,+)]
    return pure_state(np.array([0.0, -1.0, 1.0], dtype=complex) / np.sqrt(2.0))


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


@pytest.mark.parametrize("rates", [(GAMMA_A, GAMMA_B), (0.1, 0.1)])
def test_sector_spectrum_closed_form(rates):
    got = damping_basis(single_excitation_generator(PARAMS, *rates)).eigenvalues
    expected = _expected_sector_eigenvalues(*rates)
    order = np.lexsort((expected.imag, -expected.real))
    assert np.abs(got - expected[order]).max() < 1e-10


def test_damping_basis_biorthonormality_and_sorting():
    basis = damping_basis(single_excitation_generator(PARAMS, GAMMA_A, GAMMA_B))
    assert basis.eigenvalues.shape == (9,)
    assert basis.right.shape == basis.left.shape == (9, 9)
    assert np.abs(basis.left @ basis.right - np.eye(9)).max() < 1e-10
    reals = list(basis.eigenvalues.real)
    assert reals == sorted(reals, reverse=True)


def test_zero_mode_pair():
    basis = damping_basis(single_excitation_generator(PARAMS, GAMMA_A, GAMMA_B))
    (zero,) = np.flatnonzero(np.abs(basis.eigenvalues) < 1e-12)
    # the left functional is the trace: Tr{1 rho} = vec(1) . vec(rho)
    assert np.abs(basis.left[zero] - vec(np.eye(3))).max() < 1e-12
    assert np.abs(basis.right[:, zero] - vec(np.diag([1.0, 0.0, 0.0]))).max() < 1e-12


def test_damping_modes_satisfy_eigenproblems():
    liouvillian = microscopic_generator(PARAMS, build_space(2), BathSpec(0.0, FlatSpectrum(0.04)))
    basis = damping_basis(liouvillian)
    for k, lam in enumerate(basis.eigenvalues):
        right, left = basis.right[:, k], basis.left[k]
        assert np.abs(liouvillian.matrix @ right - lam * right).max() < 1e-10
        assert np.abs(left @ liouvillian.matrix - lam * left).max() < 1e-10


def test_contractivity_of_built_generators():
    cases = [
        single_excitation_generator(PARAMS, GAMMA_A, GAMMA_B),
        microscopic_generator(PARAMS, build_space(2), BathSpec(0.25, FlatSpectrum(0.04))),
        phenomenological_generator(PARAMS, build_space(2), 0.04, 0.3),
    ]
    for liouvillian in cases:
        assert damping_basis(liouvillian).eigenvalues.real.max() <= 1e-10


def test_spectral_reproduces_initial_state():
    liouvillian = single_excitation_generator(PARAMS, GAMMA_A, GAMMA_B)
    rho0 = _sector_state_excited_atom()
    series = evolve_spectral(damping_basis(liouvillian), rho0, np.array([0.0, 1.0]))
    assert np.abs(series.states[0] - rho0.matrix).max() < 1e-12


def test_spectral_matches_closed_form_density():
    liouvillian = single_excitation_generator(PARAMS, GAMMA_A, GAMMA_B)
    times = np.linspace(0.0, 30.0, 40)
    series = evolve_spectral(damping_basis(liouvillian), _sector_state_excited_atom(), times)
    for k, t in enumerate(times):
        oracle = rabi_micro_density(t, GAMMA_A, GAMMA_B, RABI, OMEGA0).matrix
        assert np.abs(series.states[k] - oracle).max() < 1e-10


def test_spectral_bell_decay_has_two_modes_only():
    liouvillian = single_excitation_generator(PARAMS, GAMMA_A, GAMMA_B)
    rho0 = pure_state(np.array([0.0, 0.0, 1.0], dtype=complex))
    times = np.linspace(0.0, 50.0, 60)
    series = evolve_spectral(damping_basis(liouvillian), rho0, times)
    for k, t in enumerate(times):
        decay = np.exp(-GAMMA_B * t / 2.0)
        expected = np.diag([1.0 - decay, 0.0, decay]).astype(complex)
        assert np.abs(series.states[k] - expected).max() < 1e-12


def test_expansion_completeness_random_states():
    liouvillian = microscopic_generator(PARAMS, build_space(2), BathSpec(0.0, FlatSpectrum(0.04)))
    basis = damping_basis(liouvillian)
    rng = np.random.default_rng(11)
    dim = liouvillian.dim
    for _ in range(5):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = x @ x.conj().T
        rho /= np.trace(rho)
        coeff = basis.left @ vec(rho)
        recon = unvec(basis.right @ coeff, dim)
        assert np.abs(recon - rho).max() < 1e-9


def test_ode_matches_spectral():
    space = build_space(2)
    liouvillian = microscopic_generator(PARAMS, space, BathSpec(0.0, FlatSpectrum(0.04)))
    rho0 = pure_state(space.basis_state(0, "e"))
    times = np.linspace(0.0, 40.0, 80)
    spectral = evolve_spectral(damping_basis(liouvillian), rho0, times)
    ode = evolve_ode(liouvillian, rho0, times, dt=2e-3)
    assert np.abs(spectral.states - ode.states).max() < 1e-8


def test_ode_unitary_limit_keeps_populations():
    space = build_space(2)
    liouvillian = phenomenological_generator(PARAMS, space, 0.0, 0.0)
    states = dressed_states(PARAMS, space)
    plus = next(s for s in states if s.label == (1, +1))
    rho0 = pure_state(plus.coefficients)
    times = np.linspace(0.0, 20.0, 30)
    series = evolve_ode(liouvillian, rho0, times, dt=2e-3)
    populations = [
        (plus.coefficients.conj() @ series.states[k] @ plus.coefficients).real
        for k in range(times.size)
    ]
    assert np.abs(np.array(populations) - 1.0).max() < 1e-10


def test_ode_trace_conservation():
    space = build_space(3)
    liouvillian = phenomenological_generator(PARAMS, space, 0.08, 0.0)
    states = dressed_states(PARAMS, space)
    plus = next(s for s in states if s.label == (1, +1))
    series = evolve_ode(liouvillian, pure_state(plus.coefficients),
                        np.linspace(0.0, 60.0, 50), dt=2e-3)
    assert abs(np.trace(series.states[-1]) - 1.0) < 1e-10


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
    scenario = _SharedRuns().scenario(key)
    liouvillian, rho0 = scenario.generator(), scenario.initial_state()
    times = scenario.time_grid()[:80]
    got = evolve_ode(liouvillian, rho0, times, DT).states
    reference = _rk4_loop_reference(liouvillian.matrix, rho0.matrix, times, DT)
    assert np.abs(got - reference).max() <= 1e-12


def test_ode_matches_loop_reference_from_a_later_first_time():
    space = build_space(3)
    liouvillian = phenomenological_generator(PARAMS, space, 0.08, 0.1)
    rho0 = pure_state(space.basis_state(1, "e"))
    times = np.linspace(0.7, 9.0, 37)  # the first interval runs from t = 0 to 0.7
    got = evolve_ode(liouvillian, rho0, times, 2e-3).states
    reference = _rk4_loop_reference(liouvillian.matrix, rho0.matrix, times, 2e-3)
    assert np.abs(got - reference).max() <= 1e-12


def test_ode_matches_loop_reference_on_merged_blocks():
    liouvillian = _u1_breaking_generator(3)
    blocks = _coupled_blocks(liouvillian.matrix)
    space = build_space(3)
    psi = space.basis_state(0, "g") + space.basis_state(0, "e") + space.basis_state(2, "g")
    rho0 = pure_state(psi / np.linalg.norm(psi))
    v0 = vec(rho0.matrix)
    assert len(blocks) == 2 and all(v0[b].any() for b in blocks)
    times = np.linspace(0.0, 12.0, 25)
    dt = rk4_step_limit(liouvillian)
    got = evolve_ode(liouvillian, rho0, times, dt).states
    reference = _rk4_loop_reference(liouvillian.matrix, rho0.matrix, times, dt)
    assert np.abs(got - reference).max() <= 1e-12


def test_ode_keeps_unweighted_blocks_exactly_zero():
    space = build_space(3)
    liouvillian = phenomenological_generator(PARAMS, space, 0.08, 0.0)
    rho0 = pure_state(space.basis_state(1, "g"))  # diagonal: weight in the k = 0 block only
    series = evolve_ode(liouvillian, rho0, np.linspace(0.0, 5.0, 11), 2e-3)
    n_exc = np.array([n + (s == "e") for n in range(4) for s in ("g", "e")])
    assert not series.states[:, n_exc[:, None] != n_exc[None, :]].any()


def test_ode_never_diagonalizes(monkeypatch):
    scenario = _SharedRuns().scenario("phen_bell")
    liouvillian, rho0 = scenario.generator(), scenario.initial_state()

    def refuse(*args, **kwargs):
        raise AssertionError("the RK4 route must not diagonalize")

    monkeypatch.setattr(np.linalg, "eig", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    series = evolve_ode(liouvillian, rho0, scenario.time_grid()[:200], DT)
    assert abs(np.trace(series.states[-1]) - 1.0) < 1e-10


def test_ode_step_size_guard():
    liouvillian = single_excitation_generator(PARAMS, GAMMA_A, GAMMA_B)
    with pytest.raises(StepSizeError):
        evolve_ode(liouvillian, _sector_state_excited_atom(), np.array([0.0, 1.0]), dt=0.5)


def test_ode_rejects_bad_grid():
    liouvillian = single_excitation_generator(PARAMS, GAMMA_A, GAMMA_B)
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
    return _lindblad(hamiltonian(PARAMS, space), [(a, 0.05), (sm + sp, 0.01)])


@pytest.mark.parametrize("model", ["micro", "phen", "dressed", "u1-breaking"])
def test_steady_state_matches_dense_reference(model):
    if model == "u1-breaking":
        liouvillian = _u1_breaking_generator(6)
        # phen at nmax 6 splits into 15 blocks; the atom flip merges them into 2
        assert len(_coupled_blocks(liouvillian.matrix)) == 2
    else:
        liouvillian = _thermal_generators(8, 0.22)[model]
    got = steady_state(liouvillian).matrix
    assert np.abs(got - _dense_steady_reference(liouvillian).matrix).max() <= 1e-12


@pytest.mark.parametrize("model", ["micro", "phen", "dressed", "single"])
def test_coupled_blocks_partition_the_generator(model):
    if model == "single":
        mat = single_excitation_generator(PARAMS, GAMMA_A, GAMMA_B).matrix
    else:
        mat = _thermal_generators(5, 0.3)[model].matrix
    blocks = _coupled_blocks(mat)
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(mat.shape[0]))
    off_block = mat.copy()
    for block in blocks:
        off_block[np.ix_(block, block)] = 0.0
    assert not off_block.any()


def test_steady_state_counts_isolated_indices_in_the_kernel():
    # every index of the zero generator is a 1x1 block with eigenvalue 0
    with pytest.raises(KernelMultiplicityError, match="kernel dimension 4 "):
        steady_state(Superoperator(np.zeros((4, 4))))


def test_steady_state_never_diagonalizes_more_than_one_block(monkeypatch):
    liouvillian = phenomenological_generator(PARAMS, build_space(16), 0.04, occupation(OMEGA0, 0.22))
    widths = []
    for name in ("eig", "eigvals"):
        original = getattr(np.linalg, name)

        def recording(matrix, _original=original):
            widths.append(matrix.shape[-1])
            return _original(matrix)

        monkeypatch.setattr(np.linalg, name, recording)
    steady_state(liouvillian)
    # the widest excitation-conserving block at nmax 16 is 1 + 4 * 16 + 1
    assert widths and max(widths) <= 66


def _dense_damping_basis(liouvillian: Superoperator) -> DampingBasis:
    # damping_basis as one dense eig and one dense inverse of the whole dim^2 x dim^2 Liouvillian
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
    return DampingBasis(vals[order], right[:, order], left[order, :])


# dressed at nmax 9 and 10 has real modes whose Re lambda tie within 1e-9 and whose
# Im lambda is rounding noise: the sort must not let that noise order them
_REFERENCE_CASES = [f"{model}-{n_max}-{temperature}" for model in ("micro", "phen", "dressed")
                    for n_max in (2, 3, 8) for temperature in (0.0, 0.22)]
_REFERENCE_CASES += ["dressed-9-0.22", "dressed-10-0.22"]


@pytest.mark.parametrize("case", _REFERENCE_CASES + ["single", "u1-breaking", "lossless-phen"])
def test_damping_basis_matches_dense_reference(case):
    if case == "single":
        liouvillian = single_excitation_generator(PARAMS, GAMMA_A, GAMMA_B)
    elif case == "u1-breaking":
        liouvillian = _u1_breaking_generator(3)
    elif case == "lossless-phen":  # eig returns its repeated eigenvalues' vectors near-parallel
        liouvillian = phenomenological_generator(PARAMS, build_space(2), 0.0, 0.0)
    else:
        model, n_max, temperature = case.split("-")
        liouvillian = _thermal_generators(int(n_max), float(temperature))[model]
    got = damping_basis(liouvillian)
    reference = _dense_damping_basis(liouvillian)
    scale = max(1.0, float(np.abs(reference.eigenvalues).max()))
    assert np.abs(got.eigenvalues - reference.eigenvalues).max() <= 1e-13 * scale
    assert np.abs(got.left @ got.right - np.eye(got.eigenvalues.size)).max() <= 1e-10


@pytest.mark.parametrize("model", ["micro", "phen", "dressed"])
def test_damping_basis_diagonalizes_block_by_block(model, monkeypatch):
    liouvillian = _thermal_generators(8, 0.22)[model]
    widest = max(block.size for block in _coupled_blocks(liouvillian.matrix))
    widths = []
    for name in ("eig", "inv"):
        original = getattr(np.linalg, name)

        def recording(matrix, _original=original):
            widths.append(matrix.shape[-1])
            return _original(matrix)

        monkeypatch.setattr(np.linalg, name, recording)
    damping_basis(liouvillian)
    assert widths and max(widths) <= widest < liouvillian.matrix.shape[0]


def test_evolve_spectral_keeps_unweighted_blocks_exactly_zero():
    space = build_space(3)
    liouvillian = phenomenological_generator(PARAMS, space, 0.08, 0.0)
    rho0 = pure_state(space.basis_state(1, "g"))  # diagonal: weight in the k = 0 block only
    series = evolve_spectral(damping_basis(liouvillian), rho0, np.linspace(0.0, 5.0, 11))
    n_exc = np.array([n + (s == "e") for n in range(4) for s in ("g", "e")])
    assert not series.states[:, n_exc[:, None] != n_exc[None, :]].any()


@pytest.mark.parametrize("model", ["phen", "dressed"])
@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_damping_basis_meets_the_pairing_gate_at_nmax_12(config, model):
    # the dense solve failed here for phen; recomputing eig's well-separated vectors of a
    # repeated eigenvalue from an SVD would fail from nmax 9 or 10
    scenario = replace(scenario_from_config((CONFIGS / config).read_text()),
                       model=model, n_max=12)
    rho0 = scenario.initial_state()
    series = evolve_spectral(damping_basis(scenario.generator()), rho0, np.array([0.0, 1.0]))
    assert np.abs(series.states[0] - rho0.matrix).max() <= 1e-10


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
    blocks = _coupled_blocks(liouvillian.matrix)
    assert len(blocks) == count and blocks[index].size == width
    assert float(found.group(4)) > 1e4
    block_vals = np.linalg.eigvals(liouvillian.matrix[np.ix_(blocks[index], blocks[index])])
    clusters = re.findall(r"(\S+) \(x(\d+)\)", found.group(5))
    assert clusters
    for value, members in clusters:
        assert np.count_nonzero(np.abs(block_vals - complex(value)) < 1e-5) >= int(members)


def test_defective_liouvillian_raises_with_cluster():
    matrix = np.zeros((4, 4), dtype=complex)
    matrix[0, 1] = 1.0  # Jordan block: eigenvalue 0 with a single eigenvector
    matrix[2, 2] = matrix[3, 3] = -1.0  # a repeated eigenvalue split over two 1-wide blocks
    with pytest.raises(DampingBasisError,
                       match=r"block 0 of 3 \(2 wide.* clusters in that block: 0\+0j \(x2\)$"):
        damping_basis(Superoperator(matrix))


def test_mode_order_survives_last_bit_changes():
    # gamma * D[a] and D[a] at rate gamma differ in the last bits; their modes must not
    # trade places where real parts tie exactly (bell_atomic_ground, phen model)
    space, gamma0 = build_space(3), 0.082
    a, _ = ladder_operators(space)
    h = hamiltonian(JCParams(1.0, 0.41), space)
    dissipator = _lindblad(np.zeros_like(h), [(a, 1.0)]).matrix
    scaled = Superoperator(_lindblad(h, []).matrix + gamma0 * dissipator)
    folded = _lindblad(h, [(a, gamma0)])
    assert np.abs(scaled.matrix - folded.matrix).max() > 0.0
    lam_scaled = damping_basis(scaled).eigenvalues
    lam_folded = damping_basis(folded).eigenvalues
    assert np.abs(lam_scaled - lam_folded).max() <= 1e-12


def test_dominant_frequency_selects_excited_mode():
    basis = damping_basis(single_excitation_generator(PARAMS, GAMMA_A, GAMMA_B))
    # excited bare atom beats at twice the coupling
    assert dominant_frequency(basis, _sector_state_excited_atom()) == pytest.approx(
        2.0 * RABI, abs=1e-12
    )
    # the pure upper doublet state excites no oscillating mode at all
    bell = pure_state(np.array([0.0, 0.0, 1.0], dtype=complex))
    assert dominant_frequency(basis, bell) == 0.0


def test_trajectory_states_validated():
    liouvillian = single_excitation_generator(PARAMS, GAMMA_A, GAMMA_B)
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
    liouvillian = single_excitation_generator(PARAMS, GAMMA_A, GAMMA_B)
    series = evolve_spectral(damping_basis(liouvillian), _sector_state_excited_atom(),
                             np.linspace(0.0, 50.0, 2000))
    series.validate_states()
    for k in (1234, 1900):  # the error names the first of them
        series.states[k] = _CORRUPTIONS[defect](series.states[k])
    with pytest.raises(ValueError, match=f"^sample 1234 \\(t = .*\\): {defect} "):
        series.validate_states()


def test_validate_states_trace_bound_is_state_tol():
    def state(defect):
        return np.diag([0.5 + defect, 0.5, 0.0]).astype(complex)

    TimeSeries(np.array([0.0, 1.0]), np.stack([state(0.0), state(0.9e-8)])).validate_states()
    series = TimeSeries(np.array([0.0, 1.0]), np.stack([state(0.9e-8), state(1.1e-8)]))
    message = r"^sample 1 \(t = 1\): trace defect 1\.100e-08 > 1\.000e-08$"
    with pytest.raises(ValueError, match=message):
        series.validate_states()
