"""Measured quantities and health diagnostics extracted from density matrices.

The named observables an experiment scenario can request:

    pop_0g, pop_1g, pop_0e   bare-state populations
    atomic_ground            sum_n <n,g|rho|n,g>   (ionization-style readout)
    atomic_excited           sum_n <n,e|rho|n,e>, computed independently
    photon_number            <a†a>
    excitation_number        <a†a + (sigma_z+1)/2>
    trace_defect, herm_defect, min_eigenvalue    physicality diagnostics

Each is evaluated on a whole trajectory at once: states shaped
(..., d, d) in, values shaped (...) out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import StateSpace, density_diagnostics, excitation_number, ladder_operators

_IMAG_TOL = 1e-12


def _real(values):
    """Real part of diagonal-type values; an imaginary part above 1e-12 is an error."""
    imag = np.abs(np.imag(values)).max(initial=0.0)
    if imag > _IMAG_TOL:
        raise ValueError(f"population has imaginary part {imag:.3e}")
    return np.real(values)


OBSERVABLE_NAMES = (
    "pop_0g",
    "pop_1g",
    "pop_0e",
    "atomic_ground",
    "atomic_excited",
    "photon_number",
    "excitation_number",
    "trace_defect",
    "herm_defect",
    "min_eigenvalue",
)

_BARE_LABELS = {"pop_0g": (0, "g"), "pop_1g": (1, "g"), "pop_0e": (0, "e")}
_ATOM_LEVELS = {"atomic_ground": "g", "atomic_excited": "e"}
_DIAGNOSTICS = ("trace_defect", "herm_defect", "min_eigenvalue")


def evaluate(name: str, states: np.ndarray, space: StateSpace) -> np.ndarray:
    """One named observable on states shaped (..., d, d); returns shape (...)."""
    if name in _DIAGNOSTICS:
        return density_diagnostics(states)[_DIAGNOSTICS.index(name)]
    diag = np.diagonal(states, axis1=-2, axis2=-1)
    if name in _BARE_LABELS:
        return _real(diag[..., space.index(*_BARE_LABELS[name])])
    if name in _ATOM_LEVELS:
        s = _ATOM_LEVELS[name]
        return sum(_real(diag[..., space.index(n, s)]) for n in range(space.n_max + 1))
    if name == "photon_number":
        a, a_dag = ladder_operators(space)
        op = a_dag @ a
    elif name == "excitation_number":
        op = excitation_number(space)
    else:
        raise ValueError(f"unknown observable {name!r}")
    return _real(np.trace(op @ states, axis1=-2, axis2=-1))


@dataclass(frozen=True)
class ObservableSet:
    """Validated, ordered selection of observable names."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise ValueError("at least one observable must be selected")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate observable names in {self.names}")
        unknown = [n for n in self.names if n not in OBSERVABLE_NAMES]
        if unknown:
            raise ValueError(f"unknown observables {unknown}; valid: {OBSERVABLE_NAMES}")

    def evaluate(self, states: np.ndarray, space: StateSpace) -> dict[str, np.ndarray]:
        """Every selected observable on states shaped (..., d, d); diagnostics share one pass."""
        shared = {}
        if not set(self.names).isdisjoint(_DIAGNOSTICS):
            shared = dict(zip(_DIAGNOSTICS, density_diagnostics(states)))
        return {name: shared[name] if name in shared else evaluate(name, states, space)
                for name in self.names}
