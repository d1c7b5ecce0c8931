"""Truncated atom-cavity Hilbert space and the elementary operators on it.

The space is the tensor product of a Fock ladder truncated at ``n_max``
photons and a two-level atom with states ``g`` (ground) and ``e``
(excited).  The basis ordering is frozen to ``i = 2*n + s`` with
``s(g) = 0`` and ``s(e) = 1``, so every file output and vectorized
superoperator built on top of this module is bit-reproducible.

The builders below return plain dense complex ``numpy`` arrays of shape
``(dim, dim)``, filled from index arrays in that ordering.  The jump
operators the generators build from them hold only their nonzero
entries (``generators.SparseOperator``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def atomic_operators(space: StateSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Atomic operators (sigma_minus, sigma_plus, sigma_z), identity on the mode."""
    sm = np.zeros((space.dim, space.dim), dtype=complex)
    g = np.arange(0, space.dim, 2)  # |n, g>; |n, e> is g + 1
    sm[g, g + 1] = 1.0
    sz = np.diag(np.tile([-1.0 + 0j, 1.0], space.n_max + 1))
    return sm, sm.conj().T, sz


def excitation_number(space: StateSpace) -> np.ndarray:
    """Total excitation operator a†a + (sigma_z + 1)/2.

    Diagonal in the bare basis with integer eigenvalue n + s; it commutes
    with the resonant Hamiltonian, which is what makes the dressed
    manifolds well defined.
    """
    a, a_dag = ladder_operators(space)
    _, _, sz = atomic_operators(space)
    return a_dag @ a + (sz + np.eye(space.dim)) / 2.0


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
        """(trace defect, hermiticity defect, min eigenvalue)."""
        return tuple(float(defect) for defect in density_diagnostics(self.matrix))

    def validate(self) -> "DensityMatrix":
        message = defect_message(*self.diagnostics())
        if message:
            raise ValueError(message)
        return self


def density_diagnostics(states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trace defects, hermiticity defects and minimum eigenvalues of states shaped (..., d, d).

    Each result has shape (...).  The minimum eigenvalue is that of the
    hermitian part, from one ``eigvalsh`` call on the whole stack.
    """
    states = np.asarray(states, dtype=complex)
    # The contiguous copy sums each trace in ndarray.trace's order, and hypot rounds like
    # abs() of one complex number, which np.abs on a complex array may not.
    excess = np.diagonal(states, axis1=-2, axis2=-1).copy().sum(axis=-1) - 1.0
    trace_defect = np.hypot(excess.real, excess.imag)
    # One full-stack buffer holds the adjoint minus the states, then the hermitian part.
    work = np.conjugate(np.swapaxes(states, -2, -1))
    work -= states
    herm_defect = np.abs(work).max(axis=(-2, -1))
    np.conjugate(np.swapaxes(states, -2, -1), out=work)
    work += states
    work /= 2.0
    min_eig = np.linalg.eigvalsh(work)[..., 0].copy()  # a view would keep every eigenvalue
    return trace_defect, herm_defect, min_eig


def defect_message(trace_defect, herm_defect, min_eig) -> str | None:
    """The first defect over STATE_TOL, checked as hermiticity, trace, positivity; else None."""
    if herm_defect > STATE_TOL:
        return f"hermiticity defect {herm_defect:.3e} > {STATE_TOL:.3e}"
    if trace_defect > STATE_TOL:
        return f"trace defect {trace_defect:.3e} > {STATE_TOL:.3e}"
    if min_eig < -STATE_TOL:
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
