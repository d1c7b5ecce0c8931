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
Hamiltonian (the coupling out of it is cut off), and closes
:func:`complete_eigensystem` as the truncation-edge state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import StateSpace, atomic_operators, ladder_operators

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


@dataclass(frozen=True)
class DressedState:
    """Energy eigenstate of the truncated resonant Hamiltonian.

    ``label`` is ``"ground"``, a pair ``(N, branch)`` with branch ±1 for
    the manifold doublets, or ``"bare_top"`` for the truncation-edge state
    |n_max, e>.
    """

    label: str | tuple[int, int]
    energy: float
    coefficients: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.coefficients, dtype=complex)
        object.__setattr__(self, "coefficients", v)
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"dressed coefficients must be unit norm, got {norm}")


def hamiltonian(params: JCParams, space: StateSpace) -> np.ndarray:
    """Resonant atom-cavity Hamiltonian matrix in the bare basis."""
    a, a_dag = ladder_operators(space)
    sm, sp, sz = atomic_operators(space)
    return (params.omega0 / 2.0) * sz + params.omega0 * (a_dag @ a) \
        + params.rabi * (a @ sp + a_dag @ sm)


def dressed_states(params: JCParams, space: StateSpace) -> list[DressedState]:
    """Ground state plus the (N, ±) doublets for 1 <= N <= n_max.

    The truncation-edge state |n_max, e> is excluded; see
    :func:`complete_eigensystem` when a basis of the whole space is needed.
    """
    if space.n_max < 1:
        raise ValueError("no dressed manifolds: n_max = 0 leaves only bare states")
    states = [DressedState(GROUND, -params.omega0 / 2.0, space.basis_state(0, "g"))]
    for n in range(1, space.n_max + 1):
        upper = space.basis_state(n, "g")
        lower = space.basis_state(n - 1, "e")
        for branch in (-1, +1):
            vec = (upper + branch * lower) / np.sqrt(2.0)
            energy = (n - 0.5) * params.omega0 + branch * params.rabi * np.sqrt(n)
            states.append(DressedState((n, branch), energy, vec))
    return states


def complete_eigensystem(params: JCParams, space: StateSpace) -> list[DressedState]:
    """Full orthonormal eigenbasis of the truncated Hamiltonian.

    dressed_states() plus, last, the truncation-edge state |n_max, e> at
    energy (n_max + 1/2) omega0: exactly ``dim`` states, so projector sums
    over it resolve the identity.
    """
    energy = (space.n_max + 0.5) * params.omega0
    edge = DressedState(BARE_TOP, energy, space.basis_state(space.n_max, "e"))
    return dressed_states(params, space) + [edge]
