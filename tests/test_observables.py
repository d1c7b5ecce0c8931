import numpy as np
import pytest

from jcsim.analytic import rabi_micro
from jcsim.bath import BathSpec, FlatSpectrum
from jcsim.generators import microscopic_generator, phenomenological_generator
from jcsim.hilbert import build_space, ladder_operators, pure_state
from jcsim.jcmodel import JCParams, complete_eigensystem
from jcsim.observables import OBSERVABLE_NAMES, ObservableSet, evaluate
from jcsim.solver import damping_basis, evolve_ode, evolve_spectral
from dense_operators import excitation_number
from stacks import dense, series_of


def _series(states):
    """States shaped (n, d, d) as a validated series."""
    return series_of(states).validate_states()


def _one(name, rho, space):
    """A named observable of one state."""
    return evaluate(name, _series(rho[None]), space)[0]


def _doublet_plus(space, params):
    _, vectors, labels = complete_eigensystem(params, space)
    return vectors[:, labels.index((1, +1))]


def test_atomic_ground_population():
    space = build_space(2)
    params = JCParams(1.0, 0.2)
    assert _one("atomic_ground", pure_state(space.basis_state(0, "e")).matrix, space) == 0.0
    plus = _doublet_plus(space, params)
    assert _one("atomic_ground", pure_state(plus).matrix, space) \
        == pytest.approx(0.5)


def test_atomic_ground_at_half_rabi_period():
    # the full excitation has swapped onto the photon at 2 rabi t = pi
    params = JCParams(1.0, 0.2)
    space = build_space(2)
    gamma0 = 0.04
    liouvillian = microscopic_generator(params, space, BathSpec(0.0, FlatSpectrum(gamma0)))
    t_half = np.pi / (2.0 * params.rabi)
    series = evolve_spectral(damping_basis(liouvillian), pure_state(space.basis_state(0, "e")),
                             np.array([0.0, t_half]))
    got = evaluate("atomic_ground", series, space)[1]
    _, _, pg = rabi_micro(t_half, gamma0, gamma0, params.rabi)
    assert got == pytest.approx(float(pg), abs=1e-12)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_ground_plus_excited_is_unity():
    space = build_space(2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, space.dim, space.dim)) \
        + 1j * rng.standard_normal((5, space.dim, space.dim))
    rho = x @ np.swapaxes(x.conj(), 1, 2)
    rho /= np.trace(rho, axis1=1, axis2=2)[:, None, None]
    series = _series(rho)
    total = evaluate("atomic_ground", series, space) + evaluate("atomic_excited", series, space)
    assert total.shape == (5,)
    assert np.abs(total - 1.0).max() < 1e-12


def test_diagnostics_examples():
    # defects of states that fail validation: test_hilbert's entry_diagnostics tests
    space = build_space(1)
    series = _series(pure_state(space.basis_state(1, "e")).matrix[None])
    for name in ("trace_defect", "herm_defect", "min_eigenvalue"):
        value = evaluate(name, series, space)
        assert value is getattr(series, name)  # read, not recomputed
        assert abs(value[0]) < 1e-14


def test_evaluate_named_observables():
    space = build_space(2)
    rho = pure_state(space.basis_state(2, "e")).matrix
    assert _one("photon_number", rho, space) == pytest.approx(2.0)
    assert _one("excitation_number", rho, space) == pytest.approx(3.0)
    assert _one("pop_0e", rho, space) == 0.0
    assert _one("atomic_excited", rho, space) == pytest.approx(1.0)
    assert _one("trace_defect", rho, space) < 1e-14
    assert _one("min_eigenvalue", rho, space) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        _one("nonsense", rho, space)


@pytest.mark.parametrize("n_max", [1, 2, 7, 30])
def test_number_weights_are_the_product_diagonals_bit_for_bit(n_max):
    # on each basis state |i><i| the observable reads its weight at i alone
    space = build_space(n_max)
    series = _series(np.eye(space.dim, dtype=complex)[:, None, :] * np.eye(space.dim))
    a, a_dag = ladder_operators(space)
    for name, op in (("photon_number", a_dag @ a), ("excitation_number", excitation_number(space))):
        assert evaluate(name, series, space).tobytes() == np.diagonal(op).real.tobytes(), name


def _reference(name, rho, space):
    """One observable on one state, entry by entry."""
    bare = {"pop_0g": (0, "g"), "pop_1g": (1, "g"), "pop_0e": (0, "e")}
    if name in bare:
        i = space.index(*bare[name])
        return rho[i, i].real
    if name in ("atomic_ground", "atomic_excited"):
        s = "ge"[name == "atomic_excited"]
        return sum(rho[space.index(n, s), space.index(n, s)].real for n in range(space.n_max + 1))
    a, a_dag = ladder_operators(space)
    if name == "photon_number":
        return np.trace(a_dag @ a @ rho).real
    if name == "excitation_number":
        return np.trace(a_dag @ a @ rho).real + sum(
            rho[space.index(n, "e"), space.index(n, "e")].real for n in range(space.n_max + 1))
    if name == "trace_defect":
        return abs(np.trace(rho) - 1.0)
    if name == "herm_defect":
        return np.abs(rho - rho.conj().T).max()
    return np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0]


def _trajectories():
    params = JCParams(1.0, 0.41)
    space = build_space(2)
    rho0 = pure_state(space.basis_state(0, "e"))
    micro = microscopic_generator(params, space, BathSpec(0.0, FlatSpectrum(0.082)))
    phen = phenomenological_generator(params, space, 0.082, 0.0)
    times = np.linspace(0.0, 20.0, 200)
    return space, {
        "spectral": evolve_spectral(damping_basis(micro), rho0, times),
        "ode": evolve_ode(phen, rho0, times[:20], 2e-3),
    }


_POPULATION_TYPE = ("pop_0g", "pop_1g", "pop_0e", "atomic_ground", "atomic_excited")


@pytest.mark.parametrize("solver", ["spectral", "ode"])
@pytest.mark.parametrize("name", OBSERVABLE_NAMES)
def test_stacked_evaluate_matches_per_state_loop(name, solver):
    space, trajectories = _trajectories()
    series = trajectories[solver]
    states = dense(series)
    got = evaluate(name, series, space)
    expected = np.array([_reference(name, rho, space) for rho in states])
    assert got.shape == (states.shape[0],)
    if name in _POPULATION_TYPE:
        assert np.array_equal(got, expected)
    else:
        assert np.abs(got - expected).max() <= 1e-13


@pytest.mark.parametrize("name", ["pop_1g", "atomic_ground", "photon_number"])
def test_imaginary_diagonal_entry_raises(name):
    space = build_space(2)
    states = np.repeat(pure_state(space.basis_state(1, "g")).matrix[None], 3, axis=0)
    i = space.index(1, "g")
    states[1, i, i] += 1e-13j
    evaluate(name, _series(states), space)  # within the 1e-12 guard
    states[1, i, i] += 1e-11j
    with pytest.raises(ValueError, match="imaginary part"):
        evaluate(name, _series(states), space)


def test_observable_set_evaluates_a_trajectory():
    space, trajectories = _trajectories()
    series = trajectories["spectral"]
    values = ObservableSet(("atomic_ground", "pop_0g")).evaluate(series, space)
    assert list(values) == ["atomic_ground", "pop_0g"]
    assert np.array_equal(values["pop_0g"], evaluate("pop_0g", series, space))


def test_observable_set_validation():
    names = ObservableSet(("pop_0g", "atomic_ground"))
    assert names.names == ("pop_0g", "atomic_ground")
    with pytest.raises(ValueError):
        ObservableSet(())
    with pytest.raises(ValueError):
        ObservableSet(("pop_0g", "pop_0g"))
    with pytest.raises(ValueError):
        ObservableSet(("pop_0g", "bogus"))


@pytest.mark.parametrize("name", OBSERVABLE_NAMES)
def test_restricted_states_read_like_their_embedding(name):
    # states held on S = {|0,g>, |0,e>, |1,g>, |2,e>} of the nmax-3 space, with and without
    # the top Fock level's |3,g>; the basis states outside S hold nothing
    space = build_space(3)
    rng = np.random.default_rng(7)
    for basis in (np.array([0, 1, 2, 5]), np.array([0, 1, 2, 5, 6])):
        x = rng.standard_normal((4, basis.size, basis.size)) \
            + 1j * rng.standard_normal((4, basis.size, basis.size))
        states = x @ np.swapaxes(x.conj(), 1, 2)
        states /= np.trace(states, axis1=1, axis2=2)[:, None, None]
        embedded = np.zeros((4, space.dim, space.dim), dtype=complex)
        embedded[:, basis[:, None], basis[None, :]] = states
        restricted, full = _series(states), _series(embedded)
        got, expected = evaluate(name, restricted, space, basis), evaluate(name, full, space)
        assert got.shape == (4,)
        if name in ("trace_defect", "herm_defect", "min_eigenvalue", "photon_number",
                    "excitation_number"):
            assert np.abs(got - expected).max() <= 1e-15
        else:  # the same nonzero terms, summed in the same order
            assert np.array_equal(got, expected)
        assert ObservableSet((name,)).evaluate(restricted, space, basis)[name].tolist() \
            == got.tolist()
