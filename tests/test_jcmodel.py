import numpy as np
import pytest

from jcsim.hilbert import build_space
from jcsim.jcmodel import (
    JCParams,
    complete_eigensystem,
    dressed_states,
    hamiltonian,
)


def test_hamiltonian_matrix_elements():
    space = build_space(2)
    omega0, rabi = 1.0, 0.3
    h = hamiltonian(JCParams(omega0, rabi), space)
    assert h[space.index(0, "g"), space.index(0, "g")] == pytest.approx(-omega0 / 2)
    assert h[space.index(0, "e"), space.index(1, "g")] == pytest.approx(rabi)
    assert np.abs(h - h.conj().T).max() == 0.0


def test_dressed_energies_first_manifold():
    params = JCParams(1.0, 0.1)
    states = dressed_states(params, build_space(4))
    by_label = {s.label: s for s in states}
    assert by_label["ground"].energy == pytest.approx(-0.5)
    assert by_label[(1, +1)].energy == pytest.approx(0.6)
    assert by_label[(1, -1)].energy == pytest.approx(0.4)
    assert by_label[(4, +1)].energy == pytest.approx(3.7)
    assert by_label[(4, -1)].energy == pytest.approx(3.3)


def test_dressed_coefficients_are_equal_superpositions():
    space = build_space(2)
    states = dressed_states(JCParams(1.0, 0.1), space)
    plus = next(s for s in states if s.label == (1, +1))
    expected = np.zeros(space.dim, dtype=complex)
    expected[space.index(1, "g")] = 1 / np.sqrt(2)
    expected[space.index(0, "e")] = 1 / np.sqrt(2)
    assert np.abs(plus.coefficients - expected).max() < 1e-15


def test_dressed_states_are_exact_eigenvectors():
    space = build_space(6)
    params = JCParams(1.0, 0.3)
    h = hamiltonian(params, space)
    for state in dressed_states(params, space):
        residual = np.linalg.norm(h @ state.coefficients - state.energy * state.coefficients)
        assert residual < 1e-12


def test_no_dressed_manifolds_at_zero_cutoff():
    with pytest.raises(ValueError, match="no dressed manifolds"):
        dressed_states(JCParams(1.0, 0.1), build_space(0))


def test_complete_eigensystem_is_orthonormal_basis():
    space = build_space(5)
    params = JCParams(1.0, 0.25)
    system = complete_eigensystem(params, space)
    assert len(system) == space.dim
    v = np.column_stack([s.coefficients for s in system])
    assert np.abs(v.conj().T @ v - np.eye(space.dim)).max() < 1e-12
    # includes the truncation-edge state at its bare energy
    top = system[-1]
    assert top.label == "bare_top"
    assert top.energy == pytest.approx((space.n_max + 0.5) * params.omega0)
    h = hamiltonian(params, space)
    assert np.linalg.norm(h @ top.coefficients - top.energy * top.coefficients) < 1e-12


def test_zero_coupling_degenerate_free_spectrum():
    states = dressed_states(JCParams(1.0, 0.0), build_space(3))
    for n in range(1, 4):
        pair = [s.energy for s in states if isinstance(s.label, tuple) and s.label[0] == n]
        assert pair[0] == pytest.approx(pair[1])
        assert pair[0] == pytest.approx((n - 0.5) * 1.0)


def test_numerical_diagonalization_oracle():
    # the top manifold is truncation-contaminated and excluded from the check
    space = build_space(6)
    params = JCParams(1.0, 0.3)
    numeric = np.linalg.eigvalsh(hamiltonian(params, space))
    analytic = sorted(
        s.energy
        for s in complete_eigensystem(params, space)
        if not (isinstance(s.label, tuple) and s.label[0] > space.n_max - 1)
        and s.label != "bare_top"
    )
    numeric_matched = [min(numeric, key=lambda x: abs(x - e)) for e in analytic]
    assert np.abs(np.array(numeric_matched) - np.array(analytic)).max() < 1e-10


def test_params_validation():
    with pytest.raises(ValueError):
        JCParams(0.0, 0.1)
    with pytest.raises(ValueError):
        JCParams(1.0, -0.1)


def test_edge_state_partner_is_outside_space():
    space = build_space(2)
    params = JCParams(1.0, 0.2)
    labels = [s.label for s in dressed_states(params, space)]
    assert "bare_top" not in labels
    assert complete_eigensystem(params, space)[-1].label == "bare_top"
