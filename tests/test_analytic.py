import numpy as np
import pytest

from jcsim.analytic import _check_rates, bell_micro, bell_phen, rabi_micro, rabi_phen
from jcsim.bath import BathSpec, OhmicSpectrum, rate
from jcsim.generators import microscopic_channels, restricted_lindblad
from jcsim.hilbert import DensityMatrix, build_space, pure_state
from jcsim.jcmodel import JCParams, complete_eigensystem, hamiltonian
from jcsim.solver import damping_basis, evolve_spectral
from stacks import dense

RABI = 0.41
GAMMA = 0.082  # gamma / (2 rabi) = 0.1


def rabi_micro_density(t: float, gamma_a: float, gamma_b: float, rabi: float,
                       omega0: float) -> DensityMatrix:
    """Full dressed-basis density matrix for the initial state |0,e>.

    The basis is micro's one-excitation sector in the dressed basis, in
    the order [ground, (1,-), (1,+)].  The populations relax at the channel
    rates while the intra-doublet coherence precesses at twice the coupling
    under the mean decay rate; omega0 does not enter because no
    ground-excited coherence is ever populated from this initial state.
    """
    _check_rates(gamma_a, gamma_b, rabi)
    if omega0 <= 0:
        raise ValueError(f"omega0 must be positive, got {omega0}")
    ea = np.exp(-gamma_a * t / 2.0)
    eb = np.exp(-gamma_b * t / 2.0)
    coh = -0.5 * np.exp(-(gamma_a + gamma_b) * t / 4.0) * np.exp(2j * rabi * t)
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = 1.0 - ea / 2.0 - eb / 2.0
    rho[1, 1] = ea / 2.0
    rho[2, 2] = eb / 2.0
    rho[1, 2] = coh
    rho[2, 1] = np.conj(coh)
    return DensityMatrix(rho)


def test_rabi_micro_starts_from_excited_atom():
    p0g, p1g, pg = rabi_micro(0.0, 0.08, 0.12, RABI)
    assert p0g == 0.0 and p1g == 0.0 and pg == 0.0


def test_rabi_micro_equal_rates_is_single_exponential():
    t = np.linspace(0.0, 80.0, 200)
    p0g, _, _ = rabi_micro(t, GAMMA, GAMMA, RABI)
    assert np.abs(p0g - (1.0 - np.exp(-GAMMA * t / 2.0))).max() < 1e-14


def test_rabi_micro_at_half_rabi_period():
    # 2 rabi t = pi: the excitation sits fully on the photon side
    t = np.pi / (2.0 * RABI)
    p0g, p1g, pg = rabi_micro(t, GAMMA, GAMMA, RABI)
    decay = np.exp(-GAMMA * t / 2.0)
    assert pg == pytest.approx(1.0, abs=1e-14)
    assert p1g == pytest.approx(decay, abs=1e-14)
    assert p0g == pytest.approx(1.0 - decay, abs=1e-14)


def test_rabi_phen_endpoints():
    p0g, p1g, pg = rabi_phen(0.0, GAMMA, RABI)
    assert abs(p0g) < 1e-14 and abs(p1g) < 1e-14 and abs(pg) < 1e-14
    p0g, p1g, pg = rabi_phen(2000.0, GAMMA, RABI)
    assert p0g == pytest.approx(1.0, abs=1e-12)
    assert p1g == pytest.approx(0.0, abs=1e-12)
    assert pg == pytest.approx(1.0, abs=1e-12)


def test_rabi_phen_oscillation_frequency_from_exponents():
    # imaginary part of the underdamped exponents (-gamma +/- s)/2
    s = np.sqrt(complex(GAMMA**2 - 16.0 * RABI**2))
    assert s.real == 0.0
    assert s.imag / 2.0 == pytest.approx(np.sqrt(16.0 * RABI**2 - GAMMA**2) / 2.0)


def test_rabi_phen_trigonometric_rewrite():
    # second opinion: principal-branch exponentials vs real arithmetic
    t = np.linspace(0.0, 60.0, 150)
    d = 16.0 * RABI**2 - GAMMA**2
    nu = np.sqrt(d)
    envelope = np.exp(-GAMMA * t / 2.0)
    p0g_trig = (1.0 - (16.0 * RABI**2 / d) * envelope
                + envelope * ((GAMMA**2 / d) * np.cos(nu * t / 2.0)
                              - (GAMMA * nu / d) * np.sin(nu * t / 2.0)))
    p1g_trig = (8.0 * RABI**2 / d) * envelope * (1.0 - np.cos(nu * t / 2.0))
    p0g, p1g, _ = rabi_phen(t, GAMMA, RABI)
    assert np.abs(p0g - p0g_trig).max() < 1e-12
    assert np.abs(p1g - p1g_trig).max() < 1e-12


def test_phen_critical_damping_rejected():
    with pytest.raises(ValueError, match="4\\*rabi"):
        rabi_phen(1.0, 4.0 * RABI, RABI)
    with pytest.raises(ValueError, match="4\\*rabi"):
        bell_phen(1.0, 4.0 * RABI, RABI)


def test_phen_overdamped_branch_is_real():
    p0g, p1g, pg = rabi_phen(3.0, 5.0 * RABI, RABI)
    assert 0.0 <= p0g <= 1.0 and 0.0 <= p1g <= 1.0 and 0.0 <= pg <= 1.0


def test_bell_micro_values():
    p0g, p1g, pg = bell_micro(0.0, GAMMA)
    assert (p0g, p1g, pg) == (0.0, 0.5, 0.5)
    p0g, p1g, pg = bell_micro(4000.0, GAMMA)
    assert p0g == pytest.approx(1.0) and p1g == pytest.approx(0.0) and pg == pytest.approx(1.0)
    # e^{-gamma_b t / 2} = 1/2 puts a quarter of the population in flight
    t = 2.0 * np.log(2.0) / GAMMA
    assert bell_micro(t, GAMMA)[2] == pytest.approx(0.75, abs=1e-14)


def test_bell_phen_endpoints():
    p0g, p1g, pg = bell_phen(0.0, GAMMA, RABI)
    assert abs(p0g) < 1e-13
    assert p1g == pytest.approx(0.5, abs=1e-13)
    assert pg == pytest.approx(0.5, abs=1e-13)
    p0g, p1g, pg = bell_phen(2000.0, GAMMA, RABI)
    assert pg == pytest.approx(1.0, abs=1e-12)


def test_bell_phen_trigonometric_rewrite():
    t = np.linspace(0.0, 60.0, 150)
    d = 16.0 * RABI**2 - GAMMA**2
    nu = np.sqrt(d)
    envelope = np.exp(-GAMMA * t / 2.0)
    p0g_trig = 1.0 - (16.0 * RABI**2 / d) * envelope + (GAMMA**2 / d) * envelope * np.cos(nu * t / 2.0)
    p1g_trig = (8.0 * RABI**2 / d) * envelope - envelope * (
        (GAMMA**2 / (2.0 * d)) * np.cos(nu * t / 2.0)
        + (GAMMA * nu / (2.0 * d)) * np.sin(nu * t / 2.0)
    )
    p0g, p1g, _ = bell_phen(t, GAMMA, RABI)
    assert np.abs(p0g - p0g_trig).max() < 1e-12
    assert np.abs(p1g - p1g_trig).max() < 1e-12


def test_bell_models_differ_at_first_order_in_damping():
    tau = np.linspace(0.0, 100.0, 2000)
    t = tau / (2.0 * RABI)
    _, _, pg_phen = bell_phen(t, GAMMA, RABI)
    _, _, pg_micro = bell_micro(t, GAMMA)
    deviation = np.abs(pg_phen - pg_micro).max()
    assert 0.01 < deviation < 0.2


def test_phen_reduces_to_micro_for_weak_damping():
    gamma = 1e-4 * RABI
    t = np.linspace(0.0, 50.0, 300)
    for fn_phen, fn_micro in (
        (lambda: rabi_phen(t, gamma, RABI), lambda: rabi_micro(t, gamma, gamma, RABI)),
        (lambda: bell_phen(t, gamma, RABI), lambda: bell_micro(t, gamma)),
    ):
        for got, want in zip(fn_phen(), fn_micro()):
            assert np.abs(got - want).max() < 1e-3


def test_micro_density_initial_state():
    rho = rabi_micro_density(0.0, 0.08, 0.12, RABI, 1.0).matrix
    expected = np.array([
        [0.0, 0.0, 0.0],
        [0.0, 0.5, -0.5],
        [0.0, -0.5, 0.5],
    ], dtype=complex)
    assert np.abs(rho - expected).max() < 1e-15


def test_micro_density_unit_trace_and_positivity():
    for t in np.linspace(0.0, 40.0, 25):
        rho = rabi_micro_density(t, 0.08, 0.12, RABI, 1.0)
        trace_defect, herm_defect, min_eig = rho.diagnostics()
        assert trace_defect < 1e-14
        assert herm_defect < 1e-14
        assert min_eig > -1e-14


def test_micro_density_matches_sector_solver():
    # micro restricted to the states |0,e> reaches, [|0,g>, |0,e>, |1,g>], against the
    # oracle carried there from the dressed basis [ground, (1,-), (1,+)]
    params, space = JCParams(1.0, RABI), build_space(2)
    bath = BathSpec(0.0, OhmicSpectrum(0.15, 2.0))
    gamma_a, gamma_b = rate(1.0 - RABI, bath), rate(1.0 + RABI, bath)
    jumps = [(op, g) for _, op, g in microscopic_channels(params, space, bath)]
    rho0 = pure_state(space.basis_state(0, "e"))
    liouvillian, _, states = restricted_lindblad(hamiltonian(params, space), jumps, rho0.matrix)
    assert states.tolist() == [0, 1, 2]
    u = complete_eigensystem(params, build_space(1)).vectors[:3, :3]  # ground, (1, -), (1, +)
    times = np.linspace(0.0, 35.0, 30)
    series = evolve_spectral(damping_basis(liouvillian), pure_state(np.eye(3)[1]), times)
    for k, t in enumerate(times):
        oracle = u @ rabi_micro_density(t, gamma_a, gamma_b, RABI, 1.0).matrix @ u.conj().T
        assert np.abs(dense(series)[k] - oracle).max() < 1e-10


def test_sector_populations_sum_to_one():
    t = np.linspace(0.0, 60.0, 100)
    p0g, p1g, _ = rabi_micro(t, 0.08, 0.12, RABI)
    # the remaining population sits on |0,e>, read off the density matrix
    p0e = np.array([
        np.real(np.array([0, -1, 1]) / np.sqrt(2.0)
                @ rabi_micro_density(ti, 0.08, 0.12, RABI, 1.0).matrix
                @ np.array([0, -1, 1]) / np.sqrt(2.0))
        for ti in t
    ])
    total = p0g + p1g + p0e
    assert np.abs(total - 1.0).max() < 1e-12
    for values in (p0g, p1g, p0e):
        assert np.all(values > -1e-12) and np.all(values < 1.0 + 1e-12)


def test_rates_validated():
    with pytest.raises(ValueError):
        rabi_micro(1.0, -0.1, 0.1, RABI)
    with pytest.raises(ValueError):
        bell_micro(1.0, -0.1)
    with pytest.raises(ValueError):
        rabi_micro_density(1.0, 0.1, 0.1, RABI, -1.0)
