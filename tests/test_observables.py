import numpy as np
import pytest

from jcsim.analytic import rabi_micro
from jcsim.bath import BathSpec, FlatSpectrum
from jcsim.generators import microscopic_generator, phenomenological_generator
from jcsim.hilbert import build_space, ladder_operators, pure_state
from jcsim.jcmodel import JCParams, dressed_states
from jcsim.observables import OBSERVABLE_NAMES, ObservableSet, evaluate
from jcsim.solver import damping_basis, evolve_ode, evolve_spectral


def _doublet_plus(space, params):
    return next(s for s in dressed_states(params, space) if s.label == (1, +1))


def test_atomic_ground_population():
    space = build_space(2)
    params = JCParams(1.0, 0.2)
    assert evaluate("atomic_ground", pure_state(space.basis_state(0, "e")).matrix, space) == 0.0
    plus = _doublet_plus(space, params)
    assert evaluate("atomic_ground", pure_state(plus.coefficients).matrix, space) \
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
    got = evaluate("atomic_ground", series.states, space)[1]
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
    total = evaluate("atomic_ground", rho, space) + evaluate("atomic_excited", rho, space)
    assert total.shape == (5,)
    assert np.abs(total - 1.0).max() < 1e-12


def test_diagnostics_examples():
    space = build_space(1)
    rho = pure_state(space.basis_state(1, "e")).matrix
    trace_defect, herm_defect, min_eig = (
        evaluate(name, rho, space) for name in ("trace_defect", "herm_defect", "min_eigenvalue"))
    assert trace_defect < 1e-14 and herm_defect < 1e-14 and abs(min_eig) < 1e-14
    assert evaluate("trace_defect", 1.01 * rho, space) == pytest.approx(0.01)


def test_evaluate_named_observables():
    space = build_space(2)
    rho = pure_state(space.basis_state(2, "e")).matrix
    assert evaluate("photon_number", rho, space) == pytest.approx(2.0)
    assert evaluate("excitation_number", rho, space) == pytest.approx(3.0)
    assert evaluate("pop_0e", rho, space) == 0.0
    assert evaluate("atomic_excited", rho, space) == pytest.approx(1.0)
    assert evaluate("trace_defect", rho, space) < 1e-14
    assert evaluate("min_eigenvalue", rho, space) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        evaluate("nonsense", rho, space)


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
        "spectral": evolve_spectral(damping_basis(micro), rho0, times).states,
        "ode": evolve_ode(phen, rho0, times[:20], 2e-3).states,
    }


_POPULATION_TYPE = ("pop_0g", "pop_1g", "pop_0e", "atomic_ground", "atomic_excited")


@pytest.mark.parametrize("solver", ["spectral", "ode"])
@pytest.mark.parametrize("name", OBSERVABLE_NAMES)
def test_stacked_evaluate_matches_per_state_loop(name, solver):
    space, trajectories = _trajectories()
    states = trajectories[solver]
    got = evaluate(name, states, space)
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
    evaluate(name, states, space)  # within the 1e-12 guard
    states[1, i, i] += 1e-11j
    with pytest.raises(ValueError, match="imaginary part"):
        evaluate(name, states, space)


def test_observable_set_evaluates_a_trajectory():
    space, trajectories = _trajectories()
    states = trajectories["spectral"]
    values = ObservableSet(("atomic_ground", "pop_0g")).evaluate(states, space)
    assert list(values) == ["atomic_ground", "pop_0g"]
    assert np.array_equal(values["pop_0g"], evaluate("pop_0g", states, space))


def test_observable_set_validation():
    names = ObservableSet(("pop_0g", "atomic_ground"))
    assert names.names == ("pop_0g", "atomic_ground")
    with pytest.raises(ValueError):
        ObservableSet(())
    with pytest.raises(ValueError):
        ObservableSet(("pop_0g", "pop_0g"))
    with pytest.raises(ValueError):
        ObservableSet(("pop_0g", "bogus"))
