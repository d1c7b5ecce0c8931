"""Dense (n, d, d) stacks of trajectories that hold their states as entries, for test oracles."""

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
