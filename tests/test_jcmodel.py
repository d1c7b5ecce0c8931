import numpy as np
import pytest

from jcsim.hilbert import build_space, ladder_operators
from jcsim.jcmodel import JCParams, complete_eigensystem, hamiltonian
from dense_operators import atomic_operators, dense_hamiltonian


def test_hamiltonian_matrix_elements():
    space = build_space(2)
    omega0, rabi = 1.0, 0.3
    h = hamiltonian(JCParams(omega0, rabi), space)
    assert h[space.index(0, "g"), space.index(0, "g")] == pytest.approx(-omega0 / 2)
    assert h[space.index(0, "e"), space.index(1, "g")] == pytest.approx(rabi)
    assert np.abs(h - h.conj().T).max() == 0.0


@pytest.mark.parametrize("omega0", [1.0, 0.7])
@pytest.mark.parametrize("rabi", [0.0, 0.2, 0.41, 1e3])
def test_hamiltonian_is_the_dense_products_bit_for_bit(omega0, rabi):
    # signed zeros and the sqrt(n)**2 rounding of a†a's diagonal count
    params = JCParams(omega0, rabi)
    for n_max in range(1, 31):
        space = build_space(n_max)
        h = hamiltonian(params, space)
        assert h.dtype == complex and h.tobytes() == dense_hamiltonian(params, space).tobytes()


def test_dressed_energies_first_manifold():
    params = JCParams(1.0, 0.1)
    energies, _, labels = complete_eigensystem(params, build_space(4))
    by_label = dict(zip(labels, energies))
    assert by_label["ground"] == pytest.approx(-0.5)
    assert by_label[(1, +1)] == pytest.approx(0.6)
    assert by_label[(1, -1)] == pytest.approx(0.4)
    assert by_label[(4, +1)] == pytest.approx(3.7)
    assert by_label[(4, -1)] == pytest.approx(3.3)


def test_dressed_coefficients_are_equal_superpositions():
    space = build_space(2)
    _, vectors, labels = complete_eigensystem(JCParams(1.0, 0.1), space)
    plus = vectors[:, labels.index((1, +1))]
    expected = np.zeros(space.dim, dtype=complex)
    expected[space.index(1, "g")] = 1 / np.sqrt(2)
    expected[space.index(0, "e")] = 1 / np.sqrt(2)
    assert np.abs(plus - expected).max() < 1e-15


def test_dressed_states_are_exact_eigenvectors():
    space = build_space(6)
    params = JCParams(1.0, 0.3)
    h = hamiltonian(params, space)
    energies, vectors, _ = complete_eigensystem(params, space)
    residual = np.linalg.norm(h @ vectors - vectors * energies, axis=0)
    assert residual.max() < 1e-12


def test_no_dressed_manifolds_at_zero_cutoff():
    with pytest.raises(ValueError, match="no dressed manifolds"):
        complete_eigensystem(JCParams(1.0, 0.1), build_space(0))


def test_complete_eigensystem_is_orthonormal_basis():
    space = build_space(5)
    params = JCParams(1.0, 0.25)
    energies, v, labels = complete_eigensystem(params, space)
    assert energies.shape == (space.dim,) and v.shape == (space.dim, space.dim)
    assert len(labels) == space.dim
    assert np.abs(v.conj().T @ v - np.eye(space.dim)).max() < 1e-12
    # includes the truncation-edge state at its bare energy
    assert labels[-1] == "bare_top"
    assert energies[-1] == pytest.approx((space.n_max + 0.5) * params.omega0)
    h = hamiltonian(params, space)
    assert np.linalg.norm(h @ v[:, -1] - energies[-1] * v[:, -1]) < 1e-12


def test_zero_coupling_degenerate_free_spectrum():
    energies, _, labels = complete_eigensystem(JCParams(1.0, 0.0), build_space(3))
    for n in range(1, 4):
        pair = [e for e, label in zip(energies, labels)
                if isinstance(label, tuple) and label[0] == n]
        assert len(pair) == 2
        assert pair[0] == pytest.approx(pair[1])
        assert pair[0] == pytest.approx((n - 0.5) * 1.0)


def test_numerical_diagonalization_oracle():
    # the top manifold is truncation-contaminated and excluded from the check
    space = build_space(6)
    params = JCParams(1.0, 0.3)
    numeric = np.linalg.eigvalsh(hamiltonian(params, space))
    energies, _, labels = complete_eigensystem(params, space)
    analytic = sorted(
        energy
        for energy, label in zip(energies, labels)
        if not (isinstance(label, tuple) and label[0] > space.n_max - 1)
        and label != "bare_top"
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
    labels = complete_eigensystem(params, space).labels
    assert "bare_top" not in labels[:-1]
    assert labels[-1] == "bare_top"
    # the last doublet is (n_max, +1); |n_max, e>'s partner would be (n_max + 1, -1)
    assert labels[-2] == (space.n_max, +1) and (space.n_max + 1, -1) not in labels


@pytest.mark.parametrize("n_max", [1, 2, 7, 16])
@pytest.mark.parametrize("rabi", [0.0, 0.2, 0.41])
def test_model_arrays_are_their_closed_forms_bit_for_bit(n_max, rabi):
    # state by state and entry by entry, in the arithmetic of the closed forms
    params, space = JCParams(1.0, rabi), build_space(n_max)
    d = space.dim
    energies, vectors, labels = complete_eigensystem(params, space)
    assert labels == ["ground", *[(n, b) for n in range(1, n_max + 1) for b in (-1, +1)],
                      "bare_top"]
    expected_v = np.zeros((d, d), dtype=complex)
    expected_e = np.zeros(d)
    expected_v[0, 0], expected_e[0] = 1.0, -0.5
    expected_v[d - 1, d - 1], expected_e[d - 1] = 1.0, n_max + 0.5
    for k, label in enumerate(labels[1:-1], start=1):
        n, branch = label
        upper, lower = space.basis_state(n, "g"), space.basis_state(n - 1, "e")
        expected_v[:, k] = (upper + branch * lower) / np.sqrt(2.0)
        expected_e[k] = (n - 0.5) * 1.0 + branch * rabi * np.sqrt(n)
    assert energies.tobytes() == expected_e.tobytes()  # signed zeros count
    assert vectors.tobytes() == expected_v.tobytes()

    a, a_dag = ladder_operators(space)
    sm, sp, sz = atomic_operators(space)
    expected_a = np.zeros((d, d), dtype=complex)
    expected_sm = np.zeros((d, d), dtype=complex)
    expected_sz = np.zeros((d, d), dtype=complex)
    for n in range(n_max + 1):
        for s in ("g", "e"):
            if n >= 1:
                expected_a[space.index(n - 1, s), space.index(n, s)] = np.sqrt(n)
        expected_sm[space.index(n, "g"), space.index(n, "e")] = 1.0
        expected_sz[space.index(n, "e"), space.index(n, "e")] = 1.0
        expected_sz[space.index(n, "g"), space.index(n, "g")] = -1.0
    for built, expected in ((a, expected_a), (a_dag, expected_a.conj().T), (sm, expected_sm),
                            (sp, expected_sm.conj().T), (sz, expected_sz)):
        assert built.dtype == complex and built.tobytes() == expected.tobytes()
