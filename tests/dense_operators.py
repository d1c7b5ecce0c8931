"""Test oracles: the atomic operators as dense arrays, the operators built from their products,
and the hand-built operators and states that several test modules share."""

import math

import numpy as np

from jcsim.generators import Superoperator
from jcsim.hilbert import StateSpace, ladder_operators
from jcsim.jcmodel import JCParams, complete_eigensystem


def atomic_operators(space: StateSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Atomic operators (sigma_minus, sigma_plus, sigma_z), identity on the mode."""
    sm = np.zeros((space.dim, space.dim), dtype=complex)
    g = np.arange(0, space.dim, 2)  # |n, g>; |n, e> is g + 1
    sm[g, g + 1] = 1.0
    sz = np.diag(np.tile([-1.0 + 0j, 1.0], space.n_max + 1))
    return sm, sm.conj().T, sz


def excitation_number(space: StateSpace) -> np.ndarray:
    """Total excitation operator a†a + (sigma_z + 1)/2, by dense products."""
    a, a_dag = ladder_operators(space)
    _, _, sz = atomic_operators(space)
    return a_dag @ a + (sz + np.eye(space.dim)) / 2.0


def dense_hamiltonian(params: JCParams, space: StateSpace) -> np.ndarray:
    """(omega0/2) sigma_z + omega0 a†a + rabi (a sigma_+ + a† sigma_-), by dense products."""
    a, a_dag = ladder_operators(space)
    sm, sp, sz = atomic_operators(space)
    return (params.omega0 / 2.0) * sz + params.omega0 * (a_dag @ a) \
        + params.rabi * (a @ sp + a_dag @ sm)


def superoperator(matrix: np.ndarray) -> Superoperator:
    """A hand-built matrix as the Superoperator of its nonzero entries."""
    rows, cols = np.nonzero(matrix)
    return Superoperator(rows, cols, matrix[rows, cols], math.isqrt(matrix.shape[0]))


def doublet_plus(params: JCParams, space: StateSpace) -> np.ndarray:
    """The dressed state (1,+) as a vector."""
    _, vectors, labels = complete_eigensystem(params, space)
    return vectors[:, labels.index((1, +1))]
