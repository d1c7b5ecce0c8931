"""Resonant atom-cavity Hamiltonian and its analytic dressed eigensystem.

On resonance the Hamiltonian

    H = (omega0/2) sigma_z + omega0 a†a + rabi (a sigma_+ + a† sigma_-)

conserves the total excitation number, so it diagonalizes manifold by
manifold: a ground state |0,g> at energy -omega0/2 and, for each photon
manifold N >= 1, the doublet (|N,g> ± |N-1,e>)/sqrt(2) at energies
(N - 1/2) omega0 ± rabi sqrt(N).

The dressed basis here is built from these closed forms rather than by
numerical diagonalization, so truncation noise never leaks into the jump
channels derived from it; numerical diagonalization is used only as a
test oracle.  One bare state, |n_max, e>, has its dressed partner outside
the truncated space.  It is still an exact eigenstate of the truncated
Hamiltonian (the coupling out of it is cut off), and closes the basis as
the truncation-edge state.  :func:`complete_eigensystem` returns all
``dim`` states as one :class:`Eigensystem` of arrays: the energies, the
eigenvectors as the columns of one matrix, and their labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .hilbert import StateSpace, photon_numbers

GROUND = "ground"
BARE_TOP = "bare_top"


@dataclass(frozen=True)
class JCParams:
    """Shared atom/cavity angular frequency and coupling strength (hbar = 1)."""

    omega0: float
    rabi: float

    def __post_init__(self):
        if not self.omega0 > 0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if self.rabi < 0:
            raise ValueError(f"rabi coupling must be nonnegative, got {self.rabi}")


class Eigensystem(NamedTuple):
    """Energy eigenstates of the truncated resonant Hamiltonian, state k in column k.

    ``labels[k]`` is ``"ground"``, a pair ``(N, branch)`` with branch ±1
    for the manifold doublets, or ``"bare_top"`` for the truncation-edge
    state |n_max, e>.
    """

    energies: np.ndarray  # (dim,)
    vectors: np.ndarray  # (dim, dim) bare-basis coefficients
    labels: list


def hamiltonian(params: JCParams, space: StateSpace) -> np.ndarray:
    """Resonant atom-cavity Hamiltonian in the bare basis, written from its closed-form entries.

    Diagonal (omega0/2)(2s - 1) + omega0 n at i = 2n + s, with n from :func:`photon_numbers`;
    coupling rabi sqrt(N) between |N - 1, e> and |N, g>, at indices 2N - 1 and 2N.
    """
    i = np.arange(space.dim)
    h = np.zeros((space.dim, space.dim), dtype=complex)
    h[i, i] = (params.omega0 / 2.0) * (2 * (i % 2) - 1) + params.omega0 * photon_numbers(space)
    upper = i[2::2]  # |N, g> at 2N for N >= 1
    h[upper - 1, upper] = h[upper, upper - 1] = params.rabi * np.sqrt(upper // 2)
    return h


def complete_eigensystem(params: JCParams, space: StateSpace) -> Eigensystem:
    """Full orthonormal eigenbasis of the truncated Hamiltonian, in a fixed order.

    State 0 is the ground state |0, g>.  For 1 <= N <= n_max, states
    2N - 1 and 2N are the doublet (N, -1) and (N, +1), both spread over
    the bare states |N - 1, e> and |N, g>, which sit at the same indices
    2N - 1 and 2N.  The last state is the truncation-edge state |n_max, e>
    at energy (n_max + 1/2) omega0.  These are exactly ``dim`` states, so
    projector sums over them resolve the identity.
    """
    if space.n_max < 1:
        raise ValueError("no dressed manifolds: n_max = 0 leaves only bare states")
    doublet = np.arange(1, space.dim - 1)  # (N, -1) at 2N - 1, (N, +1) at 2N
    upper = doublet + doublet % 2  # |N, g> at 2N; |N - 1, e> at 2N - 1
    n = np.repeat(np.arange(1.0, space.n_max + 1), 2)  # N of each doublet state
    branch = np.tile([-1.0, 1.0], space.n_max)
    energies = np.empty(space.dim)
    energies[0], energies[-1] = -params.omega0 / 2.0, (space.n_max + 0.5) * params.omega0
    energies[doublet] = (n - 0.5) * params.omega0 + branch * params.rabi * np.sqrt(n)
    vectors = np.zeros((space.dim, space.dim), dtype=complex)
    vectors[0, 0] = vectors[-1, -1] = 1.0
    vectors[upper, doublet] = 1.0 / np.sqrt(2.0)
    vectors[upper - 1, doublet] = branch / np.sqrt(2.0)
    labels = [GROUND, *product(range(1, space.n_max + 1), (-1, +1)), BARE_TOP]
    return Eigensystem(energies, vectors, labels)
