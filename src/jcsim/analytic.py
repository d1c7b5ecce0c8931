"""Closed-form populations for single-excitation decay at zero temperature.

Two initial conditions are covered, the excited bare atom |0,e> ("rabi")
and the upper dressed doublet state ("bell"), each under both master
equations.  The dressed-jump ("micro") forms are plain exponentials in the
two channel rates gamma_a = gamma(omega0 - rabi) and
gamma_b = gamma(omega0 + rabi); the photon-loss ("phen") forms involve the
root s = sqrt(gamma^2 - 16 rabi^2), evaluated on the principal complex
branch so the same expressions cover the underdamped regime, where s is
purely imaginary and the populations oscillate at sqrt(16 rabi^2 -
gamma^2)/2.

Every function returns the triple (p_0g, p_1g, p_g) with
p_g = p_0g + p_1g: the population of the joint ground state, of the
one-photon/ground-atom state, and of the atomic ground state.  Results
are asserted real to tight tolerance before the imaginary part is
dropped; t may be a scalar or an array.

These are the ground-truth oracles for the solver tests, so they are kept
free of any solver machinery.
"""

from __future__ import annotations

import numpy as np

_IMAG_TOL_MICRO = 1e-15
_IMAG_TOL_PHEN = 1e-12


def _real(values: np.ndarray, tol: float) -> np.ndarray:
    resid = np.abs(np.imag(values)).max() if np.ndim(values) else abs(np.imag(values))
    if resid > tol:
        raise AssertionError(f"imaginary residue {resid:.3e} exceeds {tol:.1e}")
    return np.real(values)


def _check_rates(*rates: float) -> None:
    for g in rates:
        if g < 0:
            raise ValueError(f"rates must be nonnegative, got {g}")


def _phen_root(gamma: float, rabi: float) -> complex:
    if gamma == 4.0 * rabi:
        raise ValueError("gamma = 4*rabi is a removable singularity of the closed "
                         "forms; use the solver path instead")
    return np.sqrt(complex(gamma**2 - 16.0 * rabi**2))


def rabi_micro(t, gamma_a: float, gamma_b: float, rabi: float):
    """Dressed-jump populations for the initial state |0,e>."""
    _check_rates(gamma_a, gamma_b, rabi)
    t = np.asarray(t, dtype=float)
    ea = np.exp(-gamma_a * t / 2.0)
    eb = np.exp(-gamma_b * t / 2.0)
    p0g = 1.0 - ea / 2.0 - eb / 2.0
    mean = (gamma_a + gamma_b) / 4.0
    p1g_c = 0.25 * (ea + eb
                    - np.exp((2j * rabi - mean) * t)
                    - np.exp((-2j * rabi - mean) * t))
    p1g = _real(p1g_c, _IMAG_TOL_MICRO)
    return p0g, p1g, p0g + p1g


def rabi_phen(t, gamma: float, rabi: float):
    """Photon-loss populations for the initial state |0,e>."""
    _check_rates(gamma, rabi)
    s = _phen_root(gamma, rabi)
    d = 16.0 * rabi**2 - gamma**2
    t = np.asarray(t, dtype=float)
    e0 = np.exp(-gamma * t / 2.0)
    ep = np.exp((-gamma + s) * t / 2.0)
    em = np.exp((-gamma - s) * t / 2.0)
    p0g = (1.0 - (16.0 * rabi**2 / d) * e0
           + ((gamma**2 + gamma * s) / (2.0 * d)) * ep
           + ((gamma**2 - gamma * s) / (2.0 * d)) * em)
    p1g = (8.0 * rabi**2 / d) * e0 - (4.0 * rabi**2 / d) * (ep + em)
    p0g = _real(p0g, _IMAG_TOL_PHEN)
    p1g = _real(p1g, _IMAG_TOL_PHEN)
    return p0g, p1g, p0g + p1g


def bell_micro(t, gamma_b: float):
    """Dressed-jump populations for the initial upper-doublet state."""
    _check_rates(gamma_b)
    t = np.asarray(t, dtype=float)
    eb = np.exp(-gamma_b * t / 2.0)
    return 1.0 - eb, eb / 2.0, 1.0 - eb / 2.0


def bell_phen(t, gamma: float, rabi: float):
    """Photon-loss populations for the initial upper-doublet state.

    The p_1g coefficient of the slowest root carries a spurious printed
    factor in the source formulas; the form used here restores
    p_1g(0) = 1/2 and consistency of p_g with the other two populations.
    """
    _check_rates(gamma, rabi)
    s = _phen_root(gamma, rabi)
    d = 16.0 * rabi**2 - gamma**2
    t = np.asarray(t, dtype=float)
    e0 = np.exp(-gamma * t / 2.0)
    ep = np.exp((-gamma + s) * t / 2.0)
    em = np.exp((-gamma - s) * t / 2.0)
    p0g = (1.0 - (16.0 * rabi**2 / d) * e0
           + (gamma**2 / (2.0 * d)) * (ep + em))
    p1g = ((8.0 * rabi**2 / d) * e0
           - ((gamma**2 - gamma * s) / (4.0 * d)) * ep
           - ((gamma**2 + gamma * s) / (4.0 * d)) * em)
    p0g = _real(p0g, _IMAG_TOL_PHEN)
    p1g = _real(p1g, _IMAG_TOL_PHEN)
    return p0g, p1g, p0g + p1g
