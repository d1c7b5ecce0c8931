"""Reservoir spectral densities and the thermally balanced rate function.

A bath is a temperature T (k_B = 1) plus a spectral density J(omega)
defined for omega > 0.  The signed-frequency rate used by the jump-channel
builders is the standard thermal split

    gamma(+omega) = J(omega) (n(omega, T) + 1)      emission
    gamma(-omega) = J(omega)  n(omega, T)           absorption

which satisfies detailed balance gamma(-omega) = exp(-omega/T) gamma(omega)
by construction, and vanishes on the absorption side at T = 0.  The flat
spectrum is white noise; the Ohmic and Lorentzian forms cover structured
reservoirs.  There is no zero-frequency channel: rate() rejects omega = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np


def occupation(omega: float | np.ndarray, temperature: float) -> float | np.ndarray:
    """Mean thermal quantum number 1/(exp(omega/T) - 1) at each omega; exactly 0 at T = 0."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise ValueError(f"occupation needs omega > 0, got {omega[omega <= 0].flat[0]}")
    if temperature < 0:
        raise ValueError(f"temperature must be nonnegative, got {temperature}")
    if temperature == 0:
        return np.zeros_like(omega)[()]
    # expm1 keeps full relative accuracy for omega << T
    return (1.0 / np.expm1(omega / temperature))[()]


class _PositiveParameters:
    """A spectral density: every parameter must be positive (so not nan), checked in field order."""

    def __post_init__(self):
        for name, value in vars(self).items():
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class FlatSpectrum(_PositiveParameters):
    """White noise: J(omega) = gamma0 for all omega > 0."""

    gamma0: float

    def density(self, omega: float | np.ndarray) -> float | np.ndarray:
        return np.full(np.shape(omega), self.gamma0)[()]


@dataclass(frozen=True)
class OhmicSpectrum(_PositiveParameters):
    """J(omega) = alpha * omega * exp(-omega/cutoff)."""

    alpha: float
    cutoff: float

    def density(self, omega: float | np.ndarray) -> float | np.ndarray:
        return self.alpha * omega * np.exp(-omega / self.cutoff)


@dataclass(frozen=True)
class LorentzianSpectrum(_PositiveParameters):
    """J(omega) = gamma0 * halfwidth^2 / ((omega - center)^2 + halfwidth^2)."""

    gamma0: float
    center: float
    halfwidth: float

    def density(self, omega: float | np.ndarray) -> float | np.ndarray:
        return self.gamma0 * self.halfwidth**2 / ((omega - self.center) ** 2 + self.halfwidth**2)


Spectrum = Union[FlatSpectrum, OhmicSpectrum, LorentzianSpectrum]


@dataclass(frozen=True)
class BathSpec:
    """Reservoir description: temperature plus spectral density."""

    temperature: float
    spectrum: Spectrum

    def __post_init__(self):
        for name, value in {"temperature": self.temperature, **vars(self.spectrum)}.items():
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be nonnegative, got {self.temperature}")


def rate(omega: float | np.ndarray, bath: BathSpec) -> float | np.ndarray:
    """Signed-frequency transition rate gamma(omega) for the given bath, at each omega.

    Positive frequencies are emission into the bath, negative are thermal
    absorption from it.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega == 0):
        raise ValueError("gamma(0) is undefined: no zero-frequency channel exists")
    w = np.abs(omega)
    j = bath.spectrum.density(w)
    n = occupation(w, bath.temperature)
    return np.where(omega > 0, j * (n + 1.0), j * n)[()]
