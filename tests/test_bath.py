import numpy as np
import pytest

from jcsim.bath import (
    BathSpec,
    FlatSpectrum,
    LorentzianSpectrum,
    OhmicSpectrum,
    occupation,
    rate,
)

SPECTRA = [
    FlatSpectrum(0.2),
    OhmicSpectrum(0.15, 2.0),
    LorentzianSpectrum(0.2, 1.0, 0.25),
]


def test_occupation_zero_temperature():
    assert occupation(1.0, 0.0) == 0.0
    assert occupation(1e-9, 0.0) == 0.0


def test_occupation_log2_point():
    # exp(omega/T) = 2  ->  n = 1
    assert occupation(np.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-14)


def test_occupation_small_argument_series():
    # Bernoulli series 1/x - 1/2 + x/12 - x^3/720, an independent route
    x = 1e-6
    series = 1.0 / x - 0.5 + x / 12.0 - x**3 / 720.0
    value = occupation(x, 1.0)
    assert abs(value - series) / series < 1e-9
    assert abs(value - 1e6) / 1e6 < 1e-6


def test_occupation_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        occupation(0.0, 1.0)
    with pytest.raises(ValueError):
        occupation(-1.0, 1.0)


def test_occupation_monotonicity():
    omegas = np.linspace(0.2, 3.0, 15)
    temps = np.linspace(0.1, 2.0, 15)
    for w in omegas:
        values = [occupation(w, t) for t in temps]
        assert np.all(np.diff(values) > 0)
    for t in temps:
        values = [occupation(w, t) for w in omegas]
        assert np.all(np.diff(values) < 0)


def test_flat_rate_zero_temperature():
    bath = BathSpec(0.0, FlatSpectrum(0.2))
    assert rate(1.1, bath) == pytest.approx(0.2)
    assert rate(-1.1, bath) == 0.0
    # constant across emission frequencies
    values = {rate(w, bath) for w in np.linspace(0.05, 4.0, 50)}
    assert all(v == pytest.approx(0.2) for v in values)


def test_flat_rate_matches_both_sidebands():
    omega0, rabi, gamma0 = 1.0, 0.2, 0.04
    bath = BathSpec(0.0, FlatSpectrum(gamma0))
    assert rate(omega0 - rabi, bath) == pytest.approx(gamma0)
    assert rate(omega0 + rabi, bath) == pytest.approx(gamma0)


@pytest.mark.parametrize("spectrum", SPECTRA)
def test_kms_ratio_at_log2(spectrum):
    temperature = 0.7
    omega = temperature * np.log(2.0)
    bath = BathSpec(temperature, spectrum)
    assert rate(-omega, bath) / rate(omega, bath) == pytest.approx(0.5, rel=1e-13)


@pytest.mark.parametrize("spectrum", SPECTRA)
@pytest.mark.parametrize("temperature", [0.1, 1.0])
def test_kms_detailed_balance_grid(spectrum, temperature):
    bath = BathSpec(temperature, spectrum)
    for omega in np.linspace(0.05, 3.0, 40):
        lhs = rate(-omega, bath)
        rhs = np.exp(-omega / temperature) * rate(omega, bath)
        assert abs(lhs - rhs) < 1e-12 * rate(omega, bath)


def test_occupation_is_exactly_zero_where_exp_overflows():
    # exp(omega/T) overflows past omega/T ~ 709.8; there n = 1/inf = 0 exactly, with no warning
    assert occupation(1.0, 1e-3) == 0.0
    temperature = 1e-3
    bath = BathSpec(temperature, FlatSpectrum(0.2))
    omega = np.array([0.7, 0.705, 0.71, 1.0, 5.0])  # omega/T from 700 to 5000
    absorption = rate(-omega, bath)
    assert (rate(omega, bath) == 0.2).all()
    beyond = omega / temperature > np.log(np.finfo(float).max)
    assert beyond.tolist() == [False, False, True, True, True]
    assert (absorption[beyond] == 0.0).all()
    below = np.exp(-omega[~beyond] / temperature) * 0.2
    assert (np.abs(absorption[~beyond] - below) < 1e-12 * below).all()


def test_rate_rejects_zero_frequency():
    with pytest.raises(ValueError):
        rate(0.0, BathSpec(0.0, FlatSpectrum(0.2)))


def test_spectral_density_shapes():
    ohmic = OhmicSpectrum(0.5, 2.0)
    assert ohmic.density(2.0) == pytest.approx(0.5 * 2.0 * np.exp(-1.0))
    lorentzian = LorentzianSpectrum(0.3, 1.0, 0.25)
    assert lorentzian.density(1.0) == pytest.approx(0.3)  # peak value at the center
    assert lorentzian.density(1.25) == pytest.approx(0.15)  # half maximum one halfwidth away
    for spectrum in SPECTRA:
        assert all(spectrum.density(w) >= 0 for w in np.linspace(0.01, 10.0, 100))


def test_parameter_validation():
    with pytest.raises(ValueError):
        FlatSpectrum(0.0)
    with pytest.raises(ValueError):
        OhmicSpectrum(-0.1, 1.0)
    with pytest.raises(ValueError):
        OhmicSpectrum(0.1, 0.0)
    with pytest.raises(ValueError):
        LorentzianSpectrum(0.1, -1.0, 0.2)
    with pytest.raises(ValueError):
        BathSpec(-0.5, FlatSpectrum(0.1))


@pytest.mark.parametrize("build, values, message", [
    (FlatSpectrum, (np.nan,), "gamma0 must be positive, got nan"),
    (OhmicSpectrum, (0.0, -1.0), "alpha must be positive, got 0.0"),
    (OhmicSpectrum, (0.1, np.nan), "cutoff must be positive, got nan"),
    (LorentzianSpectrum, (0.2, -1.0, 0.0), "center must be positive, got -1.0"),
    (LorentzianSpectrum, (0.2, 1.0, -0.5), "halfwidth must be positive, got -0.5"),
])
def test_every_spectrum_parameter_must_be_positive_in_field_order(build, values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(*values)


@pytest.mark.parametrize("spectrum", SPECTRA)
@pytest.mark.parametrize("temperature", [0.0, 0.22])
def test_rates_at_an_array_of_frequencies_match_each_scalar_call(spectrum, temperature):
    bath = BathSpec(temperature, spectrum)
    omegas = np.concatenate([np.linspace(-3.0, -0.01, 40), np.linspace(0.01, 3.0, 40)])
    scalar = np.array([rate(float(w), bath) for w in omegas])
    assert rate(omegas, bath).tobytes() == scalar.tobytes()
    positive = omegas[omegas > 0]
    scalar = np.array([occupation(float(w), temperature) for w in positive])
    assert occupation(positive, temperature).tobytes() == scalar.tobytes()


def test_array_rates_reject_any_zero_or_nonpositive_frequency():
    bath = BathSpec(0.22, FlatSpectrum(0.2))
    with pytest.raises(ValueError, match=r"^gamma\(0\) is undefined"):
        rate(np.array([1.0, 0.0, -1.0]), bath)
    with pytest.raises(ValueError, match=r"^occupation needs omega > 0, got -1.0$"):
        occupation(np.array([1.0, -1.0, 0.0]), 0.22)
