"""Test oracles: dense (n, d, d) stacks of trajectories held as entries, and their defects."""

import numpy as np

from jcsim.solver import TimeSeries


def dense(series: TimeSeries) -> np.ndarray:
    """The states of ``series`` as a dense (n, d, d) stack, zero where it holds no entry."""
    d = series.dim
    flat = np.zeros((series.states.shape[0], d * d), dtype=complex)
    flat[:, series.positions] = series.states
    return np.swapaxes(flat.reshape(-1, d, d), 1, 2)  # vec is column-major


def series_of(states: np.ndarray, times: np.ndarray | None = None) -> TimeSeries:
    """A dense (n, d, d) stack as an unvalidated series that holds every entry."""
    states = np.asarray(states, dtype=complex)
    n, d = states.shape[0], states.shape[-1]
    times = np.arange(n, dtype=float) if times is None else np.asarray(times, dtype=float)
    return TimeSeries(times, np.swapaxes(states, 1, 2).reshape(n, d * d), np.arange(d * d), d)


def dense_diagnostics(states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trace defects, hermiticity defects and minimum eigenvalues of dense states (..., d, d).

    The trace sums the contiguous diagonal in index order, the hermiticity defect is
    max|A^dagger - A|, and the minimum eigenvalue is eigvalsh's of the whole hermitian part.
    """
    states = np.asarray(states, dtype=complex)
    excess = np.diagonal(states, axis1=-2, axis2=-1).copy().sum(-1) - 1.0
    adjoint = np.conjugate(np.swapaxes(states, -2, -1))
    return (np.hypot(excess.real, excess.imag), np.abs(adjoint - states).max(axis=(-2, -1)),
            np.linalg.eigvalsh((adjoint + states) / 2.0)[..., 0])
