from decimal import Decimal, localcontext

import numpy as np
import pytest

from jcsim.hilbert import (
    STATE_TOL,
    DensityMatrix,
    build_space,
    entry_diagnostics,
    entry_diagonal,
    ladder_operators,
    photon_numbers,
    pure_state,
)
from jcsim.jcmodel import JCParams, hamiltonian
from dense_operators import atomic_operators, excitation_number
from stacks import dense_diagnostics, series_of


@pytest.mark.parametrize("n_max,dim", [(0, 2), (1, 4), (15, 32)])
def test_dimension(n_max, dim):
    assert build_space(n_max).dim == dim


def test_index_map_is_frozen_bijection():
    space = build_space(5)
    seen = set()
    for n in range(space.n_max + 1):
        for k, s in enumerate("ge"):
            i = space.index(n, s)
            assert i == 2 * n + k
            seen.add(i)
    assert seen == set(range(space.dim))


def test_index_map_rejects_out_of_range():
    space = build_space(2)
    with pytest.raises(ValueError):
        space.index(3, "g")
    with pytest.raises(ValueError):
        space.index(0, "x")


def test_build_space_rejects_negative():
    with pytest.raises(ValueError):
        build_space(-1)


def test_ladder_matrix_elements():
    space = build_space(4)
    a, a_dag = ladder_operators(space)
    vacuum_g = space.basis_state(0, "g")
    assert np.all(a @ vacuum_g == 0)
    assert a[space.index(0, "g"), space.index(1, "g")] == 1.0
    assert a_dag[space.index(3, "e"), space.index(2, "e")] == pytest.approx(np.sqrt(3))
    assert np.array_equal(a_dag, a.conj().T)


def test_truncated_commutator_structure():
    space = build_space(3)
    a, a_dag = ladder_operators(space)
    comm = a @ a_dag - a_dag @ a
    expected = np.eye(space.dim, dtype=complex)
    for s in "ge":
        i = space.index(space.n_max, s)
        expected[i, i] = -space.n_max
    # off-diagonal entries vanish identically; diagonal ones up to sqrt(n)^2 rounding
    assert np.array_equal(comm - np.diag(np.diag(comm)), np.zeros_like(comm))
    assert np.abs(comm - expected).max() < 1e-14


def test_hard_cutoff():
    space = build_space(2)
    _, a_dag = ladder_operators(space)
    assert np.all(a_dag @ space.basis_state(2, "g") == 0)


def test_atomic_operators():
    space = build_space(2)
    sm, sp, sz = atomic_operators(space)
    assert np.array_equal(sm @ space.basis_state(0, "e"), space.basis_state(0, "g"))
    assert np.array_equal(sz @ space.basis_state(1, "g"), -space.basis_state(1, "g"))
    assert np.all(sp @ sp == 0)
    assert np.array_equal(sp, sm.conj().T)


def test_excitation_number_diagonal_integers():
    space = build_space(3)
    n_exc = excitation_number(space)
    assert np.array_equal(n_exc - np.diag(np.diag(n_exc)), np.zeros_like(n_exc))
    diag = np.diag(n_exc).real
    for i in range(space.dim):
        n, s = divmod(i, 2)
        assert diag[i] == pytest.approx(n + s, abs=1e-13)
    assert set(np.rint(diag).astype(int)) == set(range(space.n_max + 2))
    assert diag[space.index(0, "g")] == 0
    assert diag[space.index(0, "e")] == 1


@pytest.mark.parametrize("n_max", range(31))
def test_photon_numbers_are_the_product_diagonal_bit_for_bit(n_max):
    space = build_space(n_max)
    a, a_dag = ladder_operators(space)
    assert photon_numbers(space).tobytes() == np.diagonal(a_dag @ a).real.tobytes()


def test_excitation_number_commutes_with_hamiltonian():
    space = build_space(8)
    h = hamiltonian(JCParams(1.0, 0.1), space)
    n_exc = excitation_number(space)
    assert np.abs(h @ n_exc - n_exc @ h).max() < 1e-12


def test_density_matrix_diagnostics_and_validation():
    space = build_space(1)
    rho = pure_state(space.basis_state(0, "g"))
    trace_defect, herm_defect, min_eig = rho.diagnostics()
    assert trace_defect < 1e-14
    assert herm_defect < 1e-14
    assert abs(min_eig) < 1e-14
    rho.validate()

    scaled = DensityMatrix(1.01 * rho.matrix)
    assert scaled.diagnostics()[0] == pytest.approx(0.01)
    with pytest.raises(ValueError, match="trace defect"):
        scaled.validate()

    with pytest.raises(ValueError, match="hermiticity"):
        DensityMatrix(np.array([[0.5, 1e-3], [0.0, 0.5]])).validate()

    with pytest.raises(ValueError, match="min eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex)).validate()


def _held_diagnostics(states: np.ndarray) -> tuple:
    # entry_diagnostics of a dense (n, d, d) stack held as all its entries, zeros included
    series = series_of(states)
    return entry_diagnostics(series.states, series.positions, series.dim)


def test_entry_diagnostics_of_a_stack_of_invalid_states():
    # one sample per defect, each measured on its own; no validation would pass them
    rho = pure_state(build_space(1).basis_state(1, "e")).matrix
    skewed = rho.copy()
    skewed[0, 1] = 1e-3
    negative = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    trace_defect, herm_defect, min_eig = _held_diagnostics(
        np.stack([rho, 1.01 * rho, skewed, negative]))
    assert trace_defect == pytest.approx([0.0, 0.01, 0.0, 0.0], abs=1e-15)
    assert herm_defect == pytest.approx([0.0, 0.0, 1e-3, 0.0], abs=1e-15)
    assert min_eig == pytest.approx([0.0, 0.0, -5e-4, -0.5], abs=1e-15)
    # each result owns its data: a kept min_eig pins no (n, nnz) work array
    assert all(defect.base is None for defect in (trace_defect, herm_defect, min_eig))


def _block_diagonal_stack(widths: tuple, samples: int, seed: int) -> np.ndarray:
    # random non-hermitian states, block diagonal on blocks of these widths under one shuffle of
    # the basis, with entries of order 1 to 100
    rng = np.random.default_rng(seed)
    d = sum(widths)
    states = np.zeros((samples, d, d), dtype=complex)
    start = 0
    for w in widths:
        re, im = rng.standard_normal((2, samples, w, w)) * 10.0 ** rng.uniform(0, 2)
        states[:, start:start + w, start:start + w] = re + 1j * im
        start += w
    shuffle = rng.permutation(d)
    return states[:, shuffle][:, :, shuffle]


@pytest.mark.parametrize("widths", [(1, 1), (2, 1), (1, 2, 2), (2, 1, 2, 2, 1), (3, 1),
                                    (3, 2, 1, 3, 2, 1), (4,)])
def test_min_eigenvalue_by_blocks_matches_one_stacked_eigvalsh(widths):
    states = _block_diagonal_stack(widths, 200, seed=len(widths))
    herm = (states + np.conjugate(np.swapaxes(states, -2, -1))) / 2.0
    reference = np.linalg.eigvalsh(herm)
    min_eig = _held_diagnostics(states)[2]
    # eigvalsh itself is off by up to ~4 eps ||A||_F here (against an exact 2x2 answer, see
    # below), so the two agree to a few rounding steps of each sample's norm
    scale = np.linalg.norm(herm, axis=(1, 2))
    assert (np.abs(min_eig - reference[:, 0]) <= 10 * np.finfo(float).eps * scale).all()


@pytest.mark.parametrize("upper", [False, True])
@pytest.mark.parametrize("widths", [(1, 1), (2, 1, 2, 2, 1), (3, 1), (3, 2, 1, 3, 2, 1), (4,)])
def test_entry_diagnostics_match_the_dense_stack(widths, upper, monkeypatch):
    # the stack held as the entries of its nonzero pattern, in a shuffled order; with upper, only
    # those on and above the diagonal, so that no entry below it has a mirror to meet
    states = _block_diagonal_stack(widths, 200, seed=len(widths))
    if upper:
        states = np.triu(states)
    d = states.shape[-1]
    flat = np.swapaxes(states, 1, 2).reshape(200, d * d)  # vec is column-major
    positions = np.random.default_rng(5).permutation(np.flatnonzero(flat.any(axis=0)))
    assert np.array_equal(entry_diagonal(flat[:, positions], positions, d),
                          np.diagonal(states, axis1=1, axis2=2))
    trace_defect, herm_defect, min_eig = dense_diagnostics(states)
    calls = []
    original = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or original(a))
    got = entry_diagnostics(flat[:, positions], positions, d)
    assert got[0].tobytes() == trace_defect.tobytes()
    assert got[1].tobytes() == herm_defect.tobytes()
    herm = (states + np.conjugate(np.swapaxes(states, -2, -1))) / 2.0
    scale = np.linalg.norm(herm, axis=(1, 2))
    assert (np.abs(got[2] - min_eig) <= 10 * np.finfo(float).eps * scale).all()
    # one eigvalsh per block wider than 2, of that block's entries alone
    assert sorted(calls) == sorted((200, w, w) for w in widths if w > 2)
    # one state is 1-D entries, measured alike
    calls.clear()
    one = entry_diagnostics(flat[7, positions], positions, d)
    assert all(np.ndim(defect) == 0 for defect in one)
    assert one[0].tobytes() == trace_defect[7].tobytes()
    assert one[1].tobytes() == herm_defect[7].tobytes()
    assert abs(one[2] - min_eig[7]) <= 10 * np.finfo(float).eps * scale[7]
    assert calls == [(w, w) for w in widths if w > 2]


def test_two_by_two_closed_form_meets_the_exact_minimum_eigenvalue():
    # a 2x2 block beside a 1x1 block that lies above its spectrum
    states = np.zeros((500, 3, 3), dtype=complex)
    states[:, :2, :2] = _block_diagonal_stack((2,), 500, seed=3)
    states[:, 2, 2] = 1e6
    min_eig = _held_diagnostics(states)[2]
    with localcontext() as context:
        context.prec = 50
        for state, got in zip(states, min_eig):
            a, c, b = (Decimal(state[0, 0].real), Decimal(state[1, 1].real),
                       (state[0, 1] + np.conj(state[1, 0])) / 2)
            exact = (a + c) / 2 - (((a - c) / 2) ** 2 + Decimal(b.real) ** 2
                                   + Decimal(b.imag) ** 2).sqrt()
            norm = np.sqrt(float(a * a + c * c) + 2 * abs(b) ** 2)
            assert abs(got - float(exact)) <= 1e-15 * norm


def test_a_negative_eigenvalue_that_only_a_three_wide_block_shows(monkeypatch):
    # rho = [[1, x, x], [x, 1, -x], [x, -x, 1]]/3 beside an empty fourth level: every 1x1 and
    # 2x2 principal minor is positive semidefinite, but rho has eigenvalue (1 - 2x)/3 < 0
    x = 0.6
    rho = np.zeros((4, 4), dtype=complex)
    rho[:3, :3] = np.array([[1, x, x], [x, 1, -x], [x, -x, 1]]) / 3
    for pair in ([0, 1], [0, 2], [1, 2]):
        assert np.linalg.eigvalsh(rho[np.ix_(pair, pair)])[0] == pytest.approx((1 - x) / 3)
    calls = []
    original = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or original(a))
    with pytest.raises(ValueError, match=r"^min eigenvalue -6\.667e-02 < -1\.000e-08$"):
        DensityMatrix(rho).validate()
    assert calls == [(3, 3)]


def test_trace_defect_bound_is_state_tol():
    assert STATE_TOL == 1e-8
    DensityMatrix(np.diag([0.5 + 0.9e-8, 0.5]).astype(complex)).validate()
    with pytest.raises(ValueError, match=r"trace defect 1\.100e-08 > 1\.000e-08"):
        DensityMatrix(np.diag([0.5 + 1.1e-8, 0.5]).astype(complex)).validate()


def test_pure_state_normalizes_and_rejects_zero():
    v = np.array([3.0, 4.0], dtype=complex)
    rho = pure_state(v)
    assert np.trace(rho.matrix) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        pure_state(np.zeros(2))
