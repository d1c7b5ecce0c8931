"""The decoupled blocks of a Liouvillian, stacked by width, and of any sparse pattern."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # generators imports hilbert, which imports this module
    from .generators import Superoperator


def connected_components(rows: np.ndarray, cols: np.ndarray,
                         size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The connected components of the pattern of entries (rows, cols) on ``size`` indices.

    Returns (label, order, starts).  Each pass lowers the labels of both
    ends of every entry, and of the indices those labels name, to the
    smaller of the two, then replaces labels by their own labels until
    that changes nothing; a block's labels then name its smallest index.
    The returned ``label[p]`` numbers p's block, which holds
    ``order[starts[b]:starts[b + 1]]``, ascending; blocks are ordered by
    their smallest index.  An index no entry touches is a block of its own.
    """
    label, previous = np.arange(size), None
    while not np.array_equal(label, previous):
        previous, low = label, np.minimum(label[rows], label[cols])
        label = label.copy()
        ends = np.concatenate([rows, cols, previous[rows], previous[cols]])
        np.minimum.at(label, ends, np.tile(low, 4))
        while not np.array_equal(label[label], label):
            label = label[label]
    order = np.argsort(label, kind="stable")
    first = np.diff(label[order], prepend=-1) != 0
    label[order] = np.cumsum(first) - 1
    return label, order, np.flatnonzero(first)


def coupled_blocks(liouvillian: Superoperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decoupled blocks of L: the :func:`connected_components` of its entries.

    For the Jaynes-Cummings generators these are the sectors of fixed
    N_row - N_col or finer.
    """
    return connected_components(liouvillian.rows, liouvillian.cols, liouvillian.size)


def width_groups(liouvillian: Superoperator, blocks: tuple[np.ndarray, np.ndarray, np.ndarray],
                 wanted: np.ndarray | None = None):
    """The blocks of :func:`coupled_blocks` stacked by width, widths ascending.

    Yields the m block numbers of width w, their positions (m, w) and
    sub-matrices (m, w, w), filled by one scatter of L's entries; with a
    boolean ``wanted`` per block, only those blocks.
    """
    label, order, starts = blocks
    widths = np.diff(starts, append=order.size)
    kept = widths if wanted is None else np.where(wanted, widths, 0)
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size) - np.repeat(starts, widths)
    rows, cols, values = liouvillian.rows, liouvillian.cols, liouvillian.values
    owner, row = label[rows], np.empty_like(widths)
    for width in sorted(set(kept[kept > 0].tolist())):  # np.unique's first call costs ~15 ms
        members, entries = np.flatnonzero(kept == width), np.flatnonzero(kept[owner] == width)
        row[members] = np.arange(members.size)
        subs = np.zeros((members.size, width, width), dtype=complex)
        subs[row[owner[entries]], slot[rows[entries]], slot[cols[entries]]] = values[entries]
        yield members, order[starts[members][:, None] + np.arange(width)], subs
