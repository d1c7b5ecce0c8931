"""Measured quantities and health diagnostics extracted from density matrices.

The named observables an experiment scenario can request:

    pop_0g, pop_1g, pop_0e   bare-state populations
    atomic_ground            sum_n <n,g|rho|n,g>   (ionization-style readout)
    atomic_excited           sum_n <n,e|rho|n,e>, computed independently
    photon_number            <a†a>
    excitation_number        <a†a + (sigma_z+1)/2>
    trace_defect, herm_defect, min_eigenvalue    physicality diagnostics

Each is evaluated on a whole validated trajectory at once, a
:class:`~jcsim.solver.TimeSeries` of n states in and n values out; the
diagnostics read the defects its validation measured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import StateSpace, photon_numbers
from .solver import TimeSeries

_IMAG_TOL = 1e-12


def _real(values):
    """Real part of diagonal-type values; an imaginary part above 1e-12 is an error."""
    imag = np.abs(np.imag(values)).max(initial=0.0)
    if imag > _IMAG_TOL:
        raise ValueError(f"population has imaginary part {imag:.3e}")
    return np.real(values).copy()  # a view of the states would keep all of them alive


_BARE_LABELS = {"pop_0g": (0, "g"), "pop_1g": (1, "g"), "pop_0e": (0, "e")}
_ATOM_LEVELS = {"atomic_ground": 0, "atomic_excited": 1}  # s of the level
_DIAGNOSTICS = ("trace_defect", "herm_defect", "min_eigenvalue")  # TimeSeries' defect fields
OBSERVABLE_NAMES = (*_BARE_LABELS, *_ATOM_LEVELS, "photon_number", "excitation_number",
                    *_DIAGNOSTICS)


def evaluate(name: str, series: TimeSeries, space: StateSpace,
             basis: np.ndarray | None = None) -> np.ndarray:
    """One named observable of a validated series of n states on m basis states; shape (n,).

    Index k of the states is basis state ``basis[k]`` of ``space`` (by
    default all of them in order); the others hold nothing and are left
    out of every sum, and add only zero eigenvalues.  Every observable
    but the diagnostics reads only the states' diagonals.  Diagnostics read
    the defects that :meth:`TimeSeries.validate_states` measured.
    """
    basis = np.arange(space.dim) if basis is None else np.asarray(basis)
    if name in _DIAGNOSTICS:
        if name == "min_eigenvalue" and basis.size < space.dim:
            return np.minimum(series.min_eigenvalue, 0.0)
        return getattr(series, name)
    diag = series.diagonal()
    if name in _BARE_LABELS:
        held = np.flatnonzero(basis == space.index(*_BARE_LABELS[name]))
        return _real(diag[..., held[0]]) if held.size else np.zeros(diag.shape[:-1])
    if name in _ATOM_LEVELS:
        held = np.flatnonzero(basis % 2 == _ATOM_LEVELS[name])  # basis index i = 2n + s
        return sum((_real(diag[..., k]) for k in held), np.zeros(diag.shape[:-1]))
    if name not in ("photon_number", "excitation_number"):
        raise ValueError(f"unknown observable {name!r}")
    # the trace of a†a, or of a†a + (sigma_z + 1)/2, weighs the populations by n, or n + s
    weights = photon_numbers(space) + (name == "excitation_number") * (np.arange(space.dim) % 2)
    return _real((weights[basis] * diag).sum(axis=-1))


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

    def evaluate(self, series: TimeSeries, space: StateSpace,
                 basis: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Every selected observable of a validated series, as :func:`evaluate`."""
        return {name: evaluate(name, series, space, basis) for name in self.names}
