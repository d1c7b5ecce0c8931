import tracemalloc

import numpy as np
import pytest

from jcsim import generators
from jcsim.bath import BathSpec, FlatSpectrum, OhmicSpectrum, occupation, rate
from jcsim.generators import (
    SparseOperator,
    Superoperator,
    _lindblad,
    dressed_approx_generator,
    dressed_channels,
    eigenoperators,
    microscopic_channels,
    microscopic_generator,
    model_terms,
    phenomenological_generator,
    reachable_states,
    restricted_lindblad,
    secular_margin,
    unvec,
    vec,
)
from jcsim.hilbert import build_space, ladder_operators, pure_state
from jcsim.jcmodel import JCParams, complete_eigensystem, hamiltonian
from jcsim.solver import damping_basis, evolve_spectral
from dense_operators import atomic_operators, superoperator
from stacks import dense

OMEGA0 = 1.0
RABI = 0.2  # keeps every downward transition below every upward one for n_max <= 4
GAMMA0 = 0.04
PARAMS = JCParams(OMEGA0, RABI)
COLD_BATH = BathSpec(0.0, FlatSpectrum(GAMMA0))
SECTOR_BATH = BathSpec(0.0, OhmicSpectrum(0.15, 2.0 * OMEGA0))  # unequal sideband rates


def _single_excitation_sector(n_max=2):
    # micro restricted to the states |0,e> reaches: the basis [|0,g>, |0,e>, |1,g>]
    space = build_space(n_max)
    jumps = [(op, g) for _, op, g in microscopic_channels(PARAMS, space, SECTOR_BATH)]
    excited = np.outer(space.basis_state(0, "e"), space.basis_state(0, "e").conj())
    liouvillian, _, states = restricted_lindblad(hamiltonian(PARAMS, space), jumps, excited)
    assert states.tolist() == [0, 1, 2]
    return liouvillian


def _dense(op):
    # a channel or jump operator as its dense matrix
    matrix = np.zeros((op.dim, op.dim), dtype=complex)
    matrix[op.rows, op.cols] = op.values
    return matrix


def _kron_lindblad(h, jumps):
    # reference assembly from dim^2 x dim^2 Kronecker products:
    # vec(A X B) = (B^T kron A) vec(X) for column-major vec
    idm = np.eye(h.shape[0], dtype=complex)
    mat = -1j * (np.kron(idm, h) - np.kron(h.T, idm))
    active = [(op, g) for op, g in jumps if g != 0.0]
    if active:
        stack = np.array([op for op, _ in active], dtype=complex)
        rates = np.array([g for _, g in active], dtype=float)
        d = stack.shape[1]
        sandwich = np.einsum(
            "c,cij,ckl->ikjl", rates, stack.conj(), stack, optimize=True
        ).reshape(d * d, d * d)
        weighted_ada = np.einsum("c,cij->ij", rates, np.transpose(stack.conj(), (0, 2, 1)) @ stack)
        mat += sandwich - 0.5 * np.kron(idm, weighted_ada) - 0.5 * np.kron(weighted_ada.T, idm)
    return mat


def _dressed_transform(params, space):
    system = complete_eigensystem(params, space)
    v = system.vectors
    return system, np.kron(v.T, v.conj().T), np.kron(v.conj(), v)


def _state(system, label):
    # the eigenvector labelled ``label``
    return system.vectors[:, system.labels.index(label)]


def test_eigenoperator_ground_channels():
    space = build_space(2)
    a, a_dag = ladder_operators(space)
    system = complete_eigensystem(PARAMS, space)
    channels = dict()
    for omega, op in eigenoperators(a + a_dag, system, 1e-9):
        channels[round(omega, 12)] = _dense(op)
    for branch in (+1, -1):
        omega = OMEGA0 + branch * RABI
        expected = np.outer(
            _state(system, "ground"), _state(system, (1, branch)).conj()
        ) / np.sqrt(2)
        assert np.abs(channels[round(omega, 12)] - expected).max() < 1e-14


def test_eigenoperator_manifold_weight():
    # transition weight between same-branch doublets one photon apart
    space = build_space(3)
    a, a_dag = ladder_operators(space)
    system = complete_eigensystem(PARAMS, space)
    omega = OMEGA0 + RABI * (np.sqrt(2) - 1.0)  # (2,+) -> (1,+)
    channels = eigenoperators(a + a_dag, system, 1e-9)
    op = next(_dense(o) for w, o in channels if abs(w - omega) < 1e-12)
    amplitude = _state(system, (1, +1)).conj() @ op @ _state(system, (2, +1))
    assert amplitude.real == pytest.approx((np.sqrt(2) + 1.0) / 2.0)  # 1.20711...
    assert abs(amplitude.imag) < 1e-15


def test_eigenoperator_completeness_and_conjugation():
    space = build_space(3)
    a, a_dag = ladder_operators(space)
    coupling = a + a_dag
    channels = [(omega, _dense(op)) for omega, op in
                eigenoperators(coupling, complete_eigensystem(PARAMS, space), 1e-9)]
    total = sum(op for _, op in channels)
    assert np.abs(total - coupling).max() < 1e-12
    for omega, op in channels:
        partner = next(o for w, o in channels if abs(w + omega) < 1e-9)
        assert np.abs(partner - op.conj().T).max() < 1e-12


def test_eigenoperators_group_runs_of_close_frequencies():
    # fock:1,e parameters: the dressed advisory names 1.1698 and 1.41, 0.2402 apart, as the
    # closest pair; 1.1303 lies 0.28 below 1.41, so counting from a group's first member
    # would keep the pair apart at freq_tol = 0.241
    params, space = JCParams(1.0, 0.41), build_space(3)
    system = complete_eigensystem(params, space)

    def amplitude(op, lower, upper):
        return abs(_state(system, lower).conj() @ op @ _state(system, upper))

    channels = dressed_channels(params, space, 0.082, 0.0, 0.241)
    (op,) = [_dense(op) for _, op, _ in channels
             if amplitude(_dense(op), "ground", (1, +1)) > 0.5]  # omega 1.41
    assert amplitude(op, (1, +1), (2, +1)) > 0.5  # omega 1.1698


def _dense_eigenoperators(a, eigensystem, freq_tol):
    # the channels as a loop over every (p, q) pair of eigenstates builds them, each a
    # dense matrix: pieces sorted by frequency, grouped while each lies within freq_tol
    # of the one before it, and added up in that order
    energies, v, _ = eigensystem
    a_eig = v.conj().T @ a @ v
    cut = 1e-13 * max(np.abs(a_eig).max(), 1e-300)
    entries = sorted(((energies[q] - energies[p], p, q) for p in range(energies.size)
                      for q in range(energies.size) if abs(a_eig[p, q]) > cut),
                     key=lambda e: e[0])
    channels, i = [], 0
    while i < len(entries):
        j = i + 1
        while j < len(entries) and entries[j][0] - entries[j - 1][0] <= freq_tol:
            j += 1
        op = np.zeros_like(a, dtype=complex)
        for _, p, q in entries[i:j]:
            op += a_eig[p, q] * np.outer(v[:, p], v[:, q].conj())
        channels.append((float(np.mean([e[0] for e in entries[i:j]])), op))
        i = j
    return channels


@pytest.mark.parametrize("model, rabi, n_max, temperature, spectrum, freq_tol", [
    *[(model, RABI, n_max, temperature, FlatSpectrum(GAMMA0), None)
      for model in ("micro", "dressed") for n_max in (2, 3, 8, 20)
      for temperature in (0.0, 0.22)],
    ("micro", 0.41, 8, 0.22, OhmicSpectrum(0.15, 2.0), None),
    # fock:1,e parameters: (1, +1) and (2, -1) lie 0.0102 apart, so two manifolds cross
    ("micro", 0.41, 3, 0.0, FlatSpectrum(0.082), None),
    # without coupling all 64 pieces fall on omega = +-1: two channels whose pieces share
    # bare entries, some of which cancel exactly
    ("micro", 0.0, 8, 0.22, FlatSpectrum(GAMMA0), None),
    # freq_tol merges runs of pieces: 12 of a into 8 channels
    ("dressed", 0.41, 3, 0.0, FlatSpectrum(GAMMA0), 0.241),
])
def test_channels_densify_to_the_dense_eigenoperators(model, rabi, n_max, temperature,
                                                      spectrum, freq_tol):
    params, space = JCParams(OMEGA0, rabi), build_space(n_max)
    tol = 1e-9 * OMEGA0 if freq_tol is None else freq_tol
    system = complete_eigensystem(params, space)
    a, a_dag = ladder_operators(space)
    if model == "micro":
        bath = BathSpec(temperature, spectrum)
        channels = microscopic_channels(params, space, bath, freq_tol)
        expected = [(omega, op, rate(omega, bath))
                    for omega, op in _dense_eigenoperators(a + a_dag, system, tol)]
    else:
        nbar = occupation(OMEGA0, temperature)
        channels = dressed_channels(params, space, GAMMA0, nbar, freq_tol)
        expected = [(omega, op, g)
                    for jump, g in ((a, GAMMA0 * (nbar + 1.0)), (a_dag, GAMMA0 * nbar))
                    for omega, op in _dense_eigenoperators(jump, system, tol)]
    for (omega, op, g), (omega_ref, op_ref, g_ref) in zip(channels, expected, strict=True):
        assert (omega, g) == (omega_ref, g_ref)  # bit for bit
        assert np.array_equal(_dense(op), op_ref)
        assert op.values.all() and np.all(np.diff(op.rows * space.dim + op.cols) > 0)


@pytest.mark.parametrize("n_max, limit", [(20, 4e6), (30, 8e6)])
def test_microscopic_build_peak_stays_near_its_entries(n_max, limit):
    # 160 and 236 channels whose generator entries take 0.18 and 0.39 MB; a dense d x d
    # matrix per channel, stacked, peaks at 18.1 and 58.2 MB
    params, space = JCParams(1.0, 0.2), build_space(n_max)
    bath = BathSpec(0.25, FlatSpectrum(0.02))
    tracemalloc.start()
    try:
        microscopic_generator(params, space, bath)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit


def test_eigenoperators_reject_non_orthonormal():
    space = build_space(2)
    a, _ = ladder_operators(space)
    system = complete_eigensystem(PARAMS, space)
    vectors = system.vectors.copy()
    vectors[:, 1] = vectors[:, 0]
    with pytest.raises(ValueError, match="orthonormal"):
        eigenoperators(a, system._replace(vectors=vectors), 1e-9)


def test_microscopic_action_on_upper_doublet():
    space = build_space(2)
    liouvillian = microscopic_generator(PARAMS, space, COLD_BATH)
    system = complete_eigensystem(PARAMS, space)
    plus, ground = _state(system, (1, +1)), _state(system, "ground")
    proj_plus = np.outer(plus, plus.conj())
    proj_ground = np.outer(ground, ground.conj())
    expected = (GAMMA0 / 2.0) * (proj_ground - proj_plus)
    image = unvec(liouvillian.matrix @ vec(proj_plus), space.dim)
    assert np.abs(image - expected).max() < 1e-14


@pytest.mark.parametrize("builder", ["micro", "phen", "dressed"])
def test_trace_preservation(builder):
    space = build_space(3)
    if builder == "micro":
        liouvillian = microscopic_generator(PARAMS, space, BathSpec(0.3, FlatSpectrum(GAMMA0)))
    elif builder == "phen":
        liouvillian = phenomenological_generator(PARAMS, space, GAMMA0, 0.4)
    else:
        liouvillian = dressed_approx_generator(PARAMS, space, GAMMA0, 0.4)
    assert np.abs(vec(np.eye(space.dim)) @ liouvillian.matrix).max() < 1e-12


@pytest.mark.parametrize("builder", ["micro", "phen", "dressed", "single"])
def test_hermiticity_preservation(builder):
    space = build_space(2)
    if builder == "micro":
        liouvillian = microscopic_generator(PARAMS, space, BathSpec(0.2, FlatSpectrum(GAMMA0)))
    elif builder == "phen":
        liouvillian = phenomenological_generator(PARAMS, space, GAMMA0, 0.1)
    elif builder == "dressed":
        liouvillian = dressed_approx_generator(PARAMS, space, GAMMA0, 0.1)
    else:
        liouvillian = _single_excitation_sector()
    dim = liouvillian.dim
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        x = x + x.conj().T
        image = unvec(liouvillian.matrix @ vec(x), dim)
        assert np.abs(image - image.conj().T).max() < 1e-12


def test_thermal_state_is_null_vector():
    # stationarity of exp(-H/T)/Z under the full thermal generator
    params = JCParams(1.0, 0.2)
    space = build_space(20)
    temperature = 0.25
    liouvillian = microscopic_generator(params, space, BathSpec(temperature, FlatSpectrum(0.02)))
    evals, evecs = np.linalg.eigh(hamiltonian(params, space))
    weights = np.exp(-(evals - evals.min()) / temperature)
    weights /= weights.sum()
    gibbs = (evecs * weights) @ evecs.conj().T
    assert np.abs(liouvillian.matrix @ vec(gibbs)).max() < 1e-8


def test_structured_bath_thermal_state_is_stationary():
    # detailed balance holds per channel for any spectral density, so the
    # thermal state of the Hamiltonian stays stationary for colored baths too
    from jcsim.bath import LorentzianSpectrum, OhmicSpectrum

    params = JCParams(1.0, 0.2)
    space = build_space(6)
    temperature = 0.25
    evals, evecs = np.linalg.eigh(hamiltonian(params, space))
    weights = np.exp(-(evals - evals.min()) / temperature)
    weights /= weights.sum()
    gibbs = (evecs * weights) @ evecs.conj().T
    for spectrum in (OhmicSpectrum(0.05, 2.0), LorentzianSpectrum(0.05, 1.0, 0.3)):
        liouvillian = microscopic_generator(params, space, BathSpec(temperature, spectrum))
        assert np.abs(liouvillian.matrix @ vec(gibbs)).max() < 1e-10


def test_structured_bath_channel_rates_vary_with_frequency():
    from jcsim.bath import LorentzianSpectrum

    # a narrow reservoir line damps the two sideband transitions unequally
    bath = BathSpec(0.0, LorentzianSpectrum(0.05, 1.2, 0.1))
    channels = {round(omega, 9): g for omega, _, g in
                microscopic_channels(PARAMS, build_space(2), bath)}
    lower = channels[round(OMEGA0 - RABI, 9)]
    upper = channels[round(OMEGA0 + RABI, 9)]
    assert upper > 5.0 * lower  # the line sits near omega0 + rabi


def _model_generator(model, n_max, temperature):
    space = build_space(n_max)
    nbar = occupation(OMEGA0, temperature)
    if model == "micro":
        return microscopic_generator(PARAMS, space, BathSpec(temperature, FlatSpectrum(GAMMA0)))
    if model == "phen":
        return phenomenological_generator(PARAMS, space, GAMMA0, nbar)
    if model == "dressed":
        return dressed_approx_generator(PARAMS, space, GAMMA0, nbar)
    if model == "lossless":
        return phenomenological_generator(PARAMS, space, 0.0, 0.0)
    if model == "single":
        return _single_excitation_sector(n_max)
    # sigma_minus + sigma_plus flips the atom alone and breaks the excitation count
    a, _ = ladder_operators(space)
    sm, sp, _ = atomic_operators(space)
    return generators._lindblad(hamiltonian(PARAMS, space),
                                [(SparseOperator.from_dense(a), 0.05),
                                 (SparseOperator.from_dense(sm + sp), 0.01)])


@pytest.mark.parametrize("model, n_max, temperature", [
    *[(model, n_max, temperature) for model in ("micro", "phen", "dressed")
      for n_max in (2, 3, 8) for temperature in (0.0, 0.22)],
    ("single", 2, 0.0),
    ("lossless", 3, 0.0),
    ("u1-breaking", 3, 0.0),
])
def test_lindblad_matches_kron_reference(model, n_max, temperature, monkeypatch):
    calls = []
    lindblad = generators._lindblad

    def recording(h, jumps):
        calls.append((h, jumps))
        return lindblad(h, jumps)

    monkeypatch.setattr(generators, "_lindblad", recording)
    built = _model_generator(model, n_max, temperature)
    (h, jumps), = calls
    reference = _kron_lindblad(h, [(_dense(op), g) for op, g in jumps])
    assert np.array_equal(built.matrix, reference)
    assert built.values.size == np.count_nonzero(reference)
    assert np.array_equal(built.diagonal(), np.diag(reference))


def test_generators_never_call_kron(monkeypatch):
    def refuse(*args):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", refuse)
    for model in ("micro", "phen", "dressed", "single"):
        assert np.isfinite(_model_generator(model, 3, 0.22).matrix).all()


def test_phenomenological_reduces_to_zero_temperature_form():
    space = build_space(2)
    a, _ = ladder_operators(space)
    h = hamiltonian(PARAMS, space)
    zero_t = _kron_lindblad(h, []) + GAMMA0 * _kron_lindblad(np.zeros_like(h), [(a, 1.0)])
    built = phenomenological_generator(PARAMS, space, GAMMA0, 0.0)
    assert np.array_equal(built.matrix, zero_t)


def test_model_terms_refuse_an_unknown_model():
    with pytest.raises(ValueError, match="^model must be micro, phen or dressed, got 'single'$"):
        model_terms("single", PARAMS, build_space(2), gamma0=GAMMA0, nbar=0.0)


def test_photon_loss_dissipator_action():
    space = build_space(2)
    a, _ = ladder_operators(space)
    dissipator = _lindblad(np.zeros((space.dim, space.dim)),
                           [(SparseOperator.from_dense(a), GAMMA0)]).matrix
    one_g = np.outer(space.basis_state(1, "g"), space.basis_state(1, "g").conj())
    zero_g = np.outer(space.basis_state(0, "g"), space.basis_state(0, "g").conj())
    got = unvec(dissipator @ vec(one_g), space.dim)
    assert np.abs(got - GAMMA0 * (zero_g - one_g)).max() < 1e-14
    # the excited bare atom holds no photon, so photon loss cannot touch it
    zero_e = np.outer(space.basis_state(0, "e"), space.basis_state(0, "e").conj())
    assert np.abs(dissipator @ vec(zero_e)).max() == 0.0


def test_dressed_approx_zero_damping_is_pure_commutator():
    space = build_space(3)
    comm = _kron_lindblad(hamiltonian(PARAMS, space), [])
    for built in (
        phenomenological_generator(PARAMS, space, 0.0, 0.0),
        dressed_approx_generator(PARAMS, space, 0.0, 0.0),
    ):
        assert np.abs(built.matrix - comm).max() < 1e-14


def test_dressed_approx_differs_from_phenomenological_at_first_order():
    space = build_space(3)
    phen = phenomenological_generator(PARAMS, space, GAMMA0, 0.0)
    dressed = dressed_approx_generator(PARAMS, space, GAMMA0, 0.0)
    deviation = np.abs(phen.matrix - dressed.matrix).max()
    assert 0.05 * GAMMA0 < deviation < 10.0 * GAMMA0


def _secular_projection_reference(params, space, gamma0, nbar, freq_tol=1e-9):
    # the definition: phenomenological dissipator in the dressed basis, every element
    # between coherences of different free frequency zeroed, transformed back
    comm = _kron_lindblad(hamiltonian(params, space), [])
    dissipator = phenomenological_generator(params, space, gamma0, nbar).matrix - comm
    system, to_dressed, to_bare = _dressed_transform(params, space)
    energies = system.energies
    freq = vec(energies[:, None] - energies[None, :]).real
    keep = np.abs(freq[:, None] - freq[None, :]) <= freq_tol
    return comm + to_bare @ ((to_dressed @ dissipator @ to_bare) * keep) @ to_dressed


@pytest.mark.parametrize("rabi", [0.2, 0.41, 1.0])  # rabi = omega0 puts |0,g> on (1,-)
@pytest.mark.parametrize("nbar", [0.0, 0.4])
@pytest.mark.parametrize("n_max", [2, 3, 5])
def test_dressed_approx_is_the_secular_projection(n_max, nbar, rabi):
    params, space = JCParams(OMEGA0, rabi), build_space(n_max)
    built = dressed_approx_generator(params, space, GAMMA0, nbar)
    reference = _secular_projection_reference(params, space, GAMMA0, nbar)
    assert np.abs(built.matrix - reference).max() <= 1e-13


def test_dressed_approx_matches_microscopic_for_white_noise():
    space = build_space(3)
    micro = microscopic_generator(PARAMS, space, COLD_BATH)
    dressed = dressed_approx_generator(PARAMS, space, GAMMA0, 0.0)
    system, to_dressed, to_bare = _dressed_transform(PARAMS, space)
    micro_d = to_dressed @ micro.matrix @ to_bare
    dressed_d = to_dressed @ dressed.matrix @ to_bare
    dim = space.dim
    rows = [
        i + dim * j
        for i, si in enumerate(system.labels)
        for j, sj in enumerate(system.labels)
        if isinstance(si, tuple) and isinstance(sj, tuple)
        and si[0] == sj[0]
    ]
    assert np.abs(micro_d[rows, :] - dressed_d[rows, :]).max() < 1e-12


def test_manifold_population_decay_rates():
    # white noise, T = 0: the doublet in manifold N relaxes at gamma (2N - 1)/2
    space = build_space(4)
    liouvillian = microscopic_generator(PARAMS, space, COLD_BATH)
    system, to_dressed, to_bare = _dressed_transform(PARAMS, space)
    matrix = to_dressed @ liouvillian.matrix @ to_bare
    dim = space.dim
    for i, label in enumerate(system.labels):
        k = i + dim * i
        if label == "ground":
            expected = 0.0
        elif label == "bare_top":
            expected = -GAMMA0 * space.n_max
        else:
            n = label[0]
            expected = -GAMMA0 * (2 * n - 1) / 2.0
        assert abs(matrix[k, k] - expected) < 1e-12


def test_single_excitation_matches_restricted_microscopic():
    # the sector generator is the full micro generator on operators over
    # [|0,g>, |0,e>, |1,g>], and the full one carries nothing from there elsewhere
    space = build_space(3)
    full = microscopic_generator(PARAMS, space, SECTOR_BATH).matrix
    inside = np.zeros((space.dim, space.dim))
    inside[:3, :3] = 1.0
    sector = vec(inside).real > 0
    restricted = _single_excitation_sector(3).matrix
    assert np.abs(full[np.ix_(sector, sector)] - restricted).max() <= 1e-15
    assert not full[np.ix_(~sector, sector)].any()


def test_single_excitation_trace_preservation():
    liouvillian = _single_excitation_sector()
    assert np.abs(vec(np.eye(3)) @ liouvillian.matrix).max() < 1e-14


def test_negative_rates_are_refused(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(generators, "rate", lambda omega, bath: np.full(np.shape(omega), -0.1))
        with pytest.raises(ValueError, match="negative rate"):
            microscopic_channels(PARAMS, build_space(2), COLD_BATH)
    with pytest.raises(ValueError):
        phenomenological_generator(PARAMS, build_space(2), -0.1, 0.0)
    with pytest.raises(ValueError):
        microscopic_generator(PARAMS, build_space(1), COLD_BATH)  # needs n_max >= 2


def test_one_rate_call_per_microscopic_build(monkeypatch):
    calls = []

    def counting(omega, bath):
        calls.append(np.shape(omega))
        return rate(omega, bath)

    monkeypatch.setattr(generators, "rate", counting)
    channels = microscopic_channels(PARAMS, build_space(8), BathSpec(0.5, FlatSpectrum(GAMMA0)))
    assert calls == [(len(channels),)]


def test_channel_rates_follow_the_bath():
    bath = BathSpec(0.5, FlatSpectrum(GAMMA0))
    channels = microscopic_channels(PARAMS, build_space(2), bath)
    for omega, _, g in channels:
        n = occupation(abs(omega), 0.5)
        expected = GAMMA0 * (n + 1.0) if omega > 0 else GAMMA0 * n
        assert g == pytest.approx(expected, rel=1e-12)
    # emission/absorption pairing with conjugate-transposed operators
    for omega, op, _ in channels:
        partner = next(p_op for p_omega, p_op, _ in channels if abs(p_omega + omega) < 1e-9)
        assert np.abs(_dense(partner) - _dense(op).conj().T).max() < 1e-12


def test_zero_frequency_channel_names_the_degenerate_states():
    # at rabi 0.2 and nmax 25, (25, +1) and |25, e> both sit at 25.5 omega0
    with pytest.raises(ValueError, match="zero-frequency") as info:
        microscopic_channels(JCParams(1.0, 0.2), build_space(25), COLD_BATH)
    assert "between the degenerate states (25, +1) at energy 25.5" in str(info.value)
    assert "bare_top at energy 25.5" in str(info.value)


def test_zero_frequency_channel_merged_by_freq_tol_names_freq_tol():
    # fock:1,e parameters: (1, +1) and (2, -1) lie 0.0102 apart, so freq_tol = 0.04
    # merges their two channels into omega = 0 although no states are degenerate
    with pytest.raises(ValueError, match="zero-frequency") as info:
        microscopic_channels(JCParams(1.0, 0.41), build_space(3), COLD_BATH, 0.04)
    message = str(info.value)
    assert "degenerate" not in message
    assert "freq_tol = 0.04 merged the channels at omega = 0.0102 and -0.0102" in message
    assert "between the states (1, +1) at energy 0.9" in message
    assert "and (2, -1) at energy 0.92017" in message


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the channel means overflow on the way
def test_non_finite_channel_frequency_is_refused():
    # at rabi 5e307 the Bohr frequencies are finite, but a channel's mean frequency overflows;
    # configs refuse this energy scale before any build, so only a library call gets here
    with pytest.raises(ValueError, match=r"^channel frequency -inf is not finite$"):
        microscopic_channels(JCParams(1.0, 5e307), build_space(2), COLD_BATH)


def _reached(channels, h, rho0):
    # the states a run of these channels from rho0 reaches, as the CLI hands them over
    return reachable_states(h, [(op, g) for _, op, g in channels], rho0)


def _projector(i, j, dim=3):
    op = np.zeros((dim, dim), dtype=complex)
    op[i, j] = 1.0
    return op


def _jump(*projectors):
    return SparseOperator.from_dense(sum(projectors))


@pytest.mark.parametrize("start, expected", [
    # |1> reaches |0> only; the 0.95 channel acts on |2> and the absorption is dead
    (1, (0.0, 0.1, None)),
    # |2> decays through |1>: both emission channels count, 0.05 apart
    (2, (2.0, 0.1 / 0.95, (0.95, 1.0))),
    # |0> reaches nothing: the only jump out of it has rate 0
    (0, (0.0, 0.0, None)),
])
def test_secular_margin_counts_only_reachable_live_channels(start, expected):
    channels = [
        (1.0, _jump(_projector(0, 1)), 0.1),
        (0.95, _jump(_projector(1, 2)), 0.1),
        (-1.0, _jump(_projector(1, 0)), 0.0),
    ]
    spacing_ratio, omega_ratio, pair = secular_margin(
        channels, _reached(channels, np.diag([0.0, 1.0, 1.95]), _projector(start, start))
    )
    assert spacing_ratio == pytest.approx(expected[0])
    assert omega_ratio == pytest.approx(expected[1])
    assert pair == (pytest.approx(expected[2]) if expected[2] else None)


def test_secular_margin_follows_hamiltonian_and_thermal_jumps():
    # the coupling |0> <-> |1> carries |0> into |1>; a live absorption reaches |2>
    h = np.diag([0.0, 1.0, 1.95]).astype(complex)
    h[0, 1] = h[1, 0] = 0.3
    channels = [(1.0, _jump(_projector(0, 1)), 0.1), (-0.95, _jump(_projector(2, 1)), 0.02),
                (0.95, _jump(_projector(1, 2)), 0.1)]
    spacing_ratio, omega_ratio, pair = secular_margin(
        channels, _reached(channels, h, _projector(0, 0)))
    assert pair == (pytest.approx(0.95), pytest.approx(1.0))
    assert spacing_ratio == pytest.approx(2.0) and omega_ratio == pytest.approx(0.1 / 0.95)


def test_secular_margin_follows_the_anticommutator():
    # A maps |1> and |2> both onto |0>, so -{A†A, rho}/2 feeds |2> from |1>
    # and the channel at 1.7, which acts on |2> alone, is live for the run
    h = np.diag([0.0, 1.0, 2.0]).astype(complex)
    channels = [(1.0, _jump(_projector(0, 1), _projector(0, 2)), 0.1),
                (1.7, _jump(_projector(0, 2)), 0.3)]
    jumps = [(op, g) for _, op, g in channels]
    assert reachable_states(h, jumps, _projector(1, 1)).tolist() == [0, 1, 2]
    basis = damping_basis(_lindblad(h, jumps))
    rho = dense(evolve_spectral(basis, pure_state(np.eye(3)[1]), np.array([5.0])))[0]
    assert rho[2, 2].real > 1e-3
    spacing_ratio, omega_ratio, pair = secular_margin(
        channels, _reached(channels, h, _projector(1, 1)))
    assert pair == (pytest.approx(1.0), pytest.approx(1.7))
    assert spacing_ratio == pytest.approx(0.3 / 0.7) and omega_ratio == pytest.approx(0.3)


def test_reachable_states_walk_the_entries_at_nmax_400():
    # a thermal phen run reaches all 802 states, one photon level per pass; a dense one-step
    # pattern of the d x d states and bool A†A products peak at 2.7 MB
    space = build_space(400)
    h = hamiltonian(PARAMS, space)
    jumps = model_terms("phen", PARAMS, space, gamma0=GAMMA0, nbar=occupation(OMEGA0, 0.22))[1]
    rho0 = pure_state(space.basis_state(0, "e")).matrix
    tracemalloc.start()
    try:
        states = reachable_states(h, jumps, rho0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert states.size == space.dim
    assert peak <= 0.5e6


def test_superoperator_shape_validation():
    with pytest.raises(ValueError):
        superoperator(np.ones((3, 4)))  # 1 wide: no room for column 3
    with pytest.raises(ValueError):
        superoperator(np.ones((5, 5)))  # not a square number: dim 2 holds 4 rows
    with pytest.raises(ValueError, match="1-d arrays of one length"):
        Superoperator(np.array([0, 1]), np.array([0]), np.ones(2), 2)
    with pytest.raises(ValueError, match="1-d arrays of one length"):
        Superoperator(np.array([0, 1]), np.array([0, 1]), np.ones(3), 2)
    with pytest.raises(ValueError, match="row-major order at distinct positions"):
        Superoperator(np.array([1, 0]), np.array([0, 0]), np.ones(2), 2)
    with pytest.raises(ValueError, match="row-major order at distinct positions"):
        Superoperator(np.array([0, 0]), np.array([1, 1]), np.ones(2), 2)
    matrix = np.arange(16.0).reshape(4, 4) * (1.0 - 2.0j)
    assert np.array_equal(superoperator(matrix).matrix, matrix)
    assert np.array_equal(superoperator(matrix).diagonal(), np.diag(matrix))
