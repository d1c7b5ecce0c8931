import numpy as np
import pytest

from jcsim.hilbert import (
    STATE_TOL,
    DensityMatrix,
    atomic_operators,
    build_space,
    excitation_number,
    ladder_operators,
    pure_state,
)
from jcsim.jcmodel import JCParams, hamiltonian


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
