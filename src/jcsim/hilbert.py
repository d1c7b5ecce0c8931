"""Truncated atom-cavity Hilbert space and the elementary operators on it.

The space is the tensor product of a Fock ladder truncated at ``n_max``
photons and a two-level atom with states ``g`` (ground) and ``e``
(excited).  The basis ordering is frozen to ``i = 2*n + s`` with
``s(g) = 0`` and ``s(e) = 1``, so every file output and vectorized
superoperator built on top of this module is bit-reproducible.

:func:`ladder_operators` returns a and a† as dense complex ``(dim, dim)``
arrays and :func:`photon_numbers` the diagonal of a†a, both filled from
index arrays in that ordering; no atomic operator is formed.  The jump
operators the generators build hold only their nonzero entries
(``generators.SparseOperator``), and a trajectory holds its states as
the entries its blocks populate.  Every state is measured on
its entries by :func:`entry_diagnostics`: a trajectory on the entries it
holds, a single :class:`DensityMatrix` on its nonzero entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import connected_components

ATOM_LABELS = ("g", "e")

STATE_TOL = 1e-8  # bound on each density-matrix defect: hermiticity, trace, -min eigenvalue


@dataclass(frozen=True)
class StateSpace:
    """Truncated Fock ⊗ qubit product space with a frozen index map."""

    n_max: int

    def __post_init__(self):
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 0:
            raise ValueError(f"n_max must be a nonnegative integer, got {self.n_max!r}")

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1)

    def index(self, n: int, s: str) -> int:
        """Flat index of the basis state with n photons and atom state s."""
        if s not in ATOM_LABELS:
            raise ValueError(f"atom label must be 'g' or 'e', got {s!r}")
        if not 0 <= n <= self.n_max:
            raise ValueError(f"photon number {n} outside [0, {self.n_max}]")
        return 2 * n + ATOM_LABELS.index(s)

    def basis_state(self, n: int, s: str) -> np.ndarray:
        """Unit column vector for the bare basis state ``|n, s>``."""
        v = np.zeros(self.dim, dtype=complex)
        v[self.index(n, s)] = 1.0
        return v


def build_space(n_max: int) -> StateSpace:
    """Build the truncated space with photon cutoff ``n_max`` (dim = 2(n_max+1))."""
    return StateSpace(n_max)


def ladder_operators(space: StateSpace) -> tuple[np.ndarray, np.ndarray]:
    """Photon annihilation/creation pair (a, a_dag) on the truncated space.

    The cutoff is hard: ``a_dag`` maps the top Fock level to the zero
    vector, so both operators are endomorphisms of the same space.
    """
    a = np.zeros((space.dim, space.dim), dtype=complex)
    i = np.arange(2, space.dim)  # |n, s> for n >= 1, at i = 2n + s
    a[i - 2, i] = np.sqrt(np.repeat(np.arange(1.0, space.n_max + 1), 2))
    return a, a.conj().T


def photon_numbers(space: StateSpace) -> np.ndarray:
    """The diagonal of a†a: the photon number n at each basis index i = 2n + s.

    Each entry is spelled sqrt(n)**2, as the product a†a rounds it (2.0000000000000004
    at n = 2), so the Hamiltonian and the observables built on it keep their bytes.
    """
    return np.sqrt(np.arange(space.dim) // 2) ** 2


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator.

    :meth:`validate` raises as soon as one of the three defects exceeds
    :data:`STATE_TOL`, and :meth:`diagnostics` returns the measured
    defects for reporting.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def diagnostics(self) -> tuple[float, float, float]:
        """(trace defect, hermiticity defect, min eigenvalue), by :func:`entry_diagnostics`."""
        flat = self.matrix.reshape(-1, order="F")  # vec is column-major
        positions = np.flatnonzero(flat)
        defects = entry_diagnostics(flat[positions], positions, self.dim)
        return tuple(float(defect) for defect in defects)

    def validate(self) -> "DensityMatrix":
        message = defect_message(*self.diagnostics())
        if message:
            raise ValueError(message)
        return self


def entry_diagonal(entries: np.ndarray, positions: np.ndarray, dim: int) -> np.ndarray:
    """The diagonals (..., d) of states held as ``entries`` (..., nnz) at vec ``positions``.

    Entry e of a state sits at row ``positions[e] % dim`` and column
    ``positions[e] // dim`` (vec is column-major); every other entry is
    zero.  The result is contiguous and in index order.
    """
    diag = np.zeros(entries.shape[:-1] + (dim,), dtype=complex)
    on = positions % (dim + 1) == 0
    diag[..., positions[on] // (dim + 1)] = entries[..., on]
    return diag


def entry_diagnostics(entries: np.ndarray, positions: np.ndarray,
                      dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trace defects, hermiticity defects and minimum eigenvalues of states held as entries.

    The states are read as in :func:`entry_diagonal`, and each result has
    shape (...).  The trace and hermiticity defects are those of the dense
    states bit for bit: the trace sums the contiguous diagonal in index
    order, and the entry at i + d*j meets its mirror j + d*i, or zero where
    no entry sits there.  The minimum eigenvalue is that of the hermitian
    part, taken block by block (:func:`_min_eigenvalue`).
    """
    excess = entry_diagonal(entries, positions, dim).sum(axis=-1) - 1.0
    # hypot rounds like abs() of one complex number, which np.abs on a complex array may not
    trace_defect = np.hypot(excess.real, excess.imag)
    slot = np.full(dim * dim, -1)  # the column that holds each vec position; -1 reads zero
    slot[positions] = np.arange(positions.size)
    mirror = slot[positions // dim + dim * (positions % dim)]
    # One buffer holds the adjoint minus the states, then the hermitian part.
    work = _adjoint(entries, mirror)
    work -= entries
    herm_defect = np.abs(work).max(axis=-1, initial=0.0)
    _adjoint(entries, mirror, out=work)
    work += entries
    work /= 2.0
    return trace_defect, herm_defect, _min_eigenvalue(work, positions, dim, slot)


def _adjoint(entries: np.ndarray, mirror: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The adjoint's entries: each mirror entry conjugated, zero where ``mirror`` is -1."""
    out = np.take(entries, mirror, axis=-1, mode="clip", out=out)  # "clip" needs no buffer
    np.conjugate(out, out=out)
    out[..., mirror < 0] = 0.0
    return out


def _min_eigenvalue(herm: np.ndarray, positions: np.ndarray, dim: int,
                    slot: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each d x d hermitian matrix held as entries (..., nnz).

    Column e holds vec position ``positions[e]``, and ``slot`` maps each
    vec position to its column, -1 for a zero entry.  The union nonzero
    pattern splits into connected blocks; every matrix is block diagonal on
    them, so its spectrum is the union of its blocks' spectra.  A 1x1
    block's eigenvalue is its entry and a 2x2 block's smaller one is
    (a + c)/2 - hypot((a - c)/2, |b|); each wider block takes one
    ``eigvalsh`` of the sub-matrices built from its own entries.
    """
    def at(i, j):  # where no entry sits, the conjugate of the mirror entry, or zero
        column, mirror = slot[i + dim * j], slot[j + dim * i]
        adjoint = np.where(mirror >= 0, np.conjugate(herm[..., mirror]), 0.0)
        return np.where(column >= 0, herm[..., column], adjoint)

    live = positions[(herm != 0).any(axis=tuple(range(herm.ndim - 1)))]
    _, order, starts = connected_components(live % dim, live // dim, dim)
    widths = np.diff(starts, append=dim)
    i = order[starts[widths == 1]]
    min_eig = at(i, i).real.min(axis=-1, initial=np.inf)
    i, j = order[starts[widths == 2]], order[starts[widths == 2] + 1]
    a, c = at(i, i).real, at(j, j).real
    low = (a + c) / 2.0 - np.hypot((a - c) / 2.0, np.abs(at(i, j)))
    min_eig = np.minimum(min_eig, low.min(axis=-1, initial=np.inf))
    for start, width in zip(starts[widths > 2], widths[widths > 2]):
        block = order[start:start + width]
        min_eig = np.minimum(min_eig, np.linalg.eigvalsh(at(block[:, None], block))[..., 0])
    return min_eig


def defect_message(trace_defect, herm_defect, min_eig) -> str | None:
    """The first defect over STATE_TOL, checked as hermiticity, trace, positivity; else None."""
    if not herm_defect <= STATE_TOL:  # a nan defect fails
        return f"hermiticity defect {herm_defect:.3e} > {STATE_TOL:.3e}"
    if not trace_defect <= STATE_TOL:
        return f"trace defect {trace_defect:.3e} > {STATE_TOL:.3e}"
    if not min_eig >= -STATE_TOL:
        return f"min eigenvalue {min_eig:.3e} < -{STATE_TOL:.3e}"
    return None


def pure_state(vector: np.ndarray) -> DensityMatrix:
    """Projector |v><v| onto a (normalized) state vector."""
    v = np.asarray(vector, dtype=complex)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("cannot build a density matrix from the zero vector")
    v = v / norm
    return DensityMatrix(np.outer(v, v.conj()))
