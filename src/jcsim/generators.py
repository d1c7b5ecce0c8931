"""Builders for the Liouvillian superoperators of the lossy atom-cavity system.

Every generator is one Lindblad form, -i[H, .] plus the dissipator of a
list of (jump operator, rate) pairs; the three models differ in their
jumps, which ``model_terms`` alone picks:

* ``phen`` damps the bare cavity mode with jump operators a and a† at
  thermally split rates;
* ``micro`` expands the cavity quadrature a + a† over the Bohr
  frequencies of the dressed spectrum and attaches a bath rate to every
  jump channel, so it is the atom-cavity eigenstates that decay;
* ``dressed`` is the secular projection of the phenomenological
  generator in the dressed basis, the standard weak-damping approximation
  that the microscopic construction reproduces for a flat
  zero-temperature bath, built from the Bohr-frequency components of a
  and a† at their photon-loss and photon-gain rates.

Each of ``phenomenological_generator``, ``microscopic_generator`` and
``dressed_approx_generator`` is ``_lindblad`` of its model's terms.

``restricted_lindblad`` cuts a run's problem down to the states
(``reachable_states``) it can populate; the CLI solves every trajectory
there.  ``secular_margin`` measures how close the micro or
dressed jump channels a run reaches come to breaking the secular
approximation behind both.

Every jump operator, and so every micro or dressed channel, is a
:class:`SparseOperator` of its nonzero entries: a dressed transition
occupies at most 2 x 2 bare entries, and no builder forms a dense
(dim x dim) matrix per channel.

A :class:`Superoperator` holds the nonzero entries of L, which acts on
column-major vectorized operators, vec(X)[i + d*j] = X[i, j]; its dense
(dim^2 x dim^2) matrix is built only on request.  The entry at row
i + d*j and column k + d*l is the weight of X[k, l] in (L X)[i, j].  The
vectorization order is frozen; every matrix literal in the tests relies
on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import BathSpec, rate
from .hilbert import DensityMatrix, StateSpace, ladder_operators
from .jcmodel import Eigensystem, JCParams, complete_eigensystem, hamiltonian


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-major (Fortran) vectorization of an operator."""
    return np.asarray(matrix, dtype=complex).reshape(-1, order="F")


def unvec(vector: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(vector, dtype=complex).reshape((dim, dim), order="F")


@dataclass(frozen=True)
class Superoperator:
    """Liouvillian on column-major vectorized operators, held as its nonzero entries.

    Entry n is ``values[n]`` at row ``rows[n]`` and column ``cols[n]`` of
    the (dim^2 x dim^2) matrix, in row-major order at distinct positions.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    dim: int

    def __post_init__(self):
        keys = self.rows * self.size + self.cols
        if not self.rows.shape == self.cols.shape == self.values.shape == (keys.size,) \
                or np.any((self.cols < 0) | (self.cols >= self.size) | (keys < 0)
                          | (keys >= self.size ** 2)) or np.any(np.diff(keys) <= 0):
            raise ValueError(f"entries are not 1-d arrays of one length inside the {self.size}-"
                             "wide superoperator, in row-major order at distinct positions")

    @property
    def size(self) -> int:
        return self.dim ** 2

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix, built on demand."""
        mat = np.zeros((self.size, self.size), dtype=complex)
        mat[self.rows, self.cols] = self.values
        return mat

    def diagonal(self) -> np.ndarray:
        """The diagonal of the matrix, entry i + d*j."""
        diag = np.zeros(self.size, dtype=complex)
        on = self.rows == self.cols
        diag[self.rows[on]] = self.values[on]
        return diag


@dataclass(frozen=True)
class SparseOperator:
    """A (dim x dim) operator held as its nonzero entries.

    Entry n is ``values[n]`` at row ``rows[n]`` and column ``cols[n]``, in
    row-major order at distinct positions.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    dim: int

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> SparseOperator:
        rows, cols = np.nonzero(matrix)
        return cls(rows, cols, np.asarray(matrix[rows, cols], dtype=complex), matrix.shape[0])


def eigenoperators(
    a: np.ndarray,
    eigensystem: Eigensystem,
    freq_tol: float,
) -> list[tuple[float, SparseOperator]]:
    """Bohr-frequency decomposition of a coupling operator.

    Sandwiches ``a`` between eigenprojectors of the provided (orthonormal)
    eigensystem and groups the pieces by transition frequency (the energy
    lost to the bath in the jump): sorted frequencies stay in one group
    while each lies within ``freq_tol`` of the one before it.  Returns
    (omega, operator) channel skeletons sorted by frequency; the channel
    builders attach the rates.

    Each operator is the sum of its group's pieces a_pq |p><q|, added in
    frequency order and then in (p, q) order, and its omega the mean of the
    group's frequencies.  A piece occupies only the nonzeros of the two
    eigenvectors, so a channel between two dressed doublets holds at most
    2 x 2 bare entries.

    The channels satisfy sum_omega A(omega) = P a P with P the projector
    onto the spanned subspace, and A(-omega) = A(omega)†.
    """
    if not freq_tol > 0:
        raise ValueError(f"freq_tol must be positive, got {freq_tol}")
    energies, v, _ = eigensystem
    if not energies.size:
        raise ValueError("empty eigensystem")
    gram = v.conj().T @ v
    ortho_defect = np.abs(gram - np.eye(v.shape[1])).max()
    if not ortho_defect <= 1e-10:
        raise ValueError(f"eigensystem is not orthonormal (defect {ortho_defect:.3e})")
    d = a.shape[0]

    a_eig = v.conj().T @ a @ v  # matrix elements in the eigenbasis
    cut = 1e-13 * max(np.abs(a_eig).max(), 1e-300)
    p, q = np.nonzero(np.abs(a_eig) > cut)
    freqs = energies[q] - energies[p]
    order = np.argsort(freqs, kind="stable")
    p, q, freqs = p[order], q[order], freqs[order]
    starts = np.flatnonzero(np.diff(freqs, prepend=-np.inf) > freq_tol)
    sizes = np.diff(starts, append=freqs.size)
    omegas = freqs[starts]
    for g in np.flatnonzero(sizes > 1):  # as np.mean, which sums over 7 terms pairwise
        omegas[g] = np.mean(freqs[starts[g]:starts[g] + sizes[g]])
    if not np.isfinite(omegas).all():  # a group's mean overflowed
        raise ValueError(f"channel frequency {omegas[~np.isfinite(omegas)][0]} is not finite")

    # piece k spreads over the count[p] x count[q] nonzeros v[i, p] conj(v[j, q]), i-major
    vec_of, bare = np.nonzero(v.T)  # every eigenvector's nonzeros, vector by vector
    count = np.bincount(vec_of, minlength=v.shape[1])
    first = np.cumsum(count) - count
    per_piece = count[p] * count[q]
    piece = np.repeat(np.arange(p.size), per_piece)
    ki, kj = np.divmod(np.arange(piece.size) - np.repeat(np.cumsum(per_piece) - per_piece,
                                                         per_piece), count[q][piece])
    i, j = bare[first[p][piece] + ki], bare[first[q][piece] + kj]
    values = a_eig[p, q][piece] * (v[i, p[piece]] * v[j, q[piece]].conj())
    # the entries of one channel at one position add up in piece order
    keys = np.repeat(np.arange(starts.size), sizes)[piece] * (d * d) + i * d + j
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    new = np.diff(keys, prepend=-1) != 0
    summed = np.zeros(np.count_nonzero(new), dtype=complex)
    np.add.at(summed, np.cumsum(new) - 1, values)
    keep = summed != 0
    (channel, pos), summed = np.divmod(keys[new][keep], d * d), summed[keep]
    bounds = np.searchsorted(channel, np.arange(starts.size + 1))
    rows, cols = np.divmod(pos, d)
    return [(float(omegas[g]), SparseOperator(rows[lo:hi], cols[lo:hi], summed[lo:hi], d))
            for g, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))]


def _closest_coupled_pair(eigensystem: Eigensystem,
                          op: SparseOperator) -> tuple[float, str]:
    """Energy gap and description of the closest-lying eigenstates ``op`` couples."""
    energies, v, labels = eigensystem
    amplitude = (v[op.rows].conj() * op.values[:, None]).T @ v[op.cols]  # <s|op|t>
    np.fill_diagonal(amplitude, 0.0)
    si, ti = np.nonzero(amplitude)
    k = int(np.argmin(np.abs(energies[si] - energies[ti])))
    s, t = si[k], ti[k]
    names = [labels[x] if isinstance(labels[x], str) else "({}, {:+d})".format(*labels[x])
             for x in (s, t)]
    return abs(energies[s] - energies[t]), (
        f"{names[0]} at energy {energies[s]} and {names[1]} at energy {energies[t]}"
    )


def default_freq_tol(omega0: float) -> float:
    """The ``freq_tol`` of a channel build that is given none: 1e-9 omega0."""
    return 1e-9 * omega0


def microscopic_channels(
    params: JCParams,
    space: StateSpace,
    bath: BathSpec,
    freq_tol: float | None = None,
) -> list[tuple[float, SparseOperator, float]]:
    """(omega, operator, rate) jump channels of the dressed-state master equation."""
    if space.n_max < 2:
        raise ValueError("microscopic generator needs n_max >= 2")
    if freq_tol is None:
        freq_tol = default_freq_tol(params.omega0)
    a, a_dag = ladder_operators(space)
    eigensystem = complete_eigensystem(params, space)
    pieces = eigenoperators(a + a_dag, eigensystem, freq_tol)
    for omega, op in pieces:
        if abs(omega) <= freq_tol:
            gap, pair = _closest_coupled_pair(eigensystem, op)
            if gap <= 1e-9 * params.omega0:
                cause = f"between the degenerate states {pair}"
            else:
                cause = (f"because freq_tol = {freq_tol} merged the channels at omega ="
                         f" {gap:.3g} and {-gap:.3g} between the states {pair} into omega = 0")
            raise ValueError(f"zero-frequency jump channel at omega = {omega} {cause}")
    rates = rate(np.array([omega for omega, _ in pieces]), bath).tolist()  # one call per build
    for (omega, _), g in zip(pieces, rates):
        if g < 0:
            raise ValueError(f"negative rate {g} at Bohr frequency {omega}")
    return [(omega, op, g) for (omega, op), g in zip(pieces, rates)]


def _entries(ops: list[SparseOperator]) -> tuple[np.ndarray, ...]:
    """The entries of ``ops`` in one run: operator index, row, column and value."""
    index = np.repeat(np.arange(len(ops)), [op.values.size for op in ops])
    rows = np.concatenate([np.empty(0, dtype=int)] + [op.rows for op in ops])
    cols = np.concatenate([np.empty(0, dtype=int)] + [op.cols for op in ops])
    values = np.concatenate([np.empty(0, dtype=complex)] + [op.values for op in ops])
    return index, rows, cols, values


def _column_blocks(index: np.ndarray, rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                   count: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`_entries` of ``count`` operators, each as a dense block on its own rows
    and columns.

    Returns the zero-padded blocks (count, r, s), at least 2 x 2 so that numpy
    multiplies them by BLAS gemm as it does d x d operators, and the operator
    column of each block column (count, s), d on padding.
    """
    row_in, col_in = np.zeros((count, d), dtype=bool), np.zeros((count, d), dtype=bool)
    row_in[index, rows] = True
    col_in[index, cols] = True
    row_at, col_at = np.cumsum(row_in, axis=1) - 1, np.cumsum(col_in, axis=1) - 1
    r = max(int(row_at[:, -1].max(initial=0)) + 1, 2)
    s = max(int(col_at[:, -1].max(initial=0)) + 1, 2)
    blocks = np.zeros((count, r, s), dtype=values.dtype)
    blocks[index, row_at[index, rows], col_at[index, cols]] = values
    columns = np.full((count, s), d)
    c, k = np.nonzero(col_in)
    columns[c, col_at[c, k]] = k
    return blocks, columns


def _lindblad(h: np.ndarray, jumps: list[tuple[SparseOperator, float]]) -> Superoperator:
    """-i[h, .] plus the dissipator of every (operator, rate) jump with nonzero rate.

    L rho = -i h_eff rho + i rho h_eff† + sum_c rate_c A_c rho A_c†, with
    h_eff = h - (i/2) sum_c rate_c A_c†A_c, has the entries rate_c A_c[i, k]
    conj(A_c[j, l]) at (i + d*j, k + d*l), then -i h_eff[i, k] at
    (i + d*m, k + d*m) and i conj(h_eff[j, l]) at (m + d*j, m + d*l) for
    every m.  Each A_c†A_c is one matrix product on A_c's own rows and
    columns, and the sum over c adds them in order; the sum over c in the
    first term is one matrix product on the positions (i, k) some A_c
    occupies.  For real-valued jumps, as every model's are, both round as
    the Kronecker-product assembly of L does; entries at one position add
    up in the order above, and exact zeros are dropped.
    """
    d = h.shape[0]
    active = [(op, g) for op, g in jumps if g != 0.0]
    rates = np.array([g for _, g in active], dtype=float)
    jump, a_rows, a_cols, a_values = _entries([op for op, _ in active])
    blocks, columns = _column_blocks(jump, a_rows, a_cols, a_values, rates.size, d)
    ada = np.transpose(blocks.conj(), (0, 2, 1)) @ blocks * rates[:, None, None]
    weighted_ada = np.zeros((d + 1, d + 1), dtype=complex)  # row and column d take the padding
    np.add.at(weighted_ada, (columns[:, :, None], columns[:, None, :]), ada)
    h_eff = h - 0.5j * weighted_ada[:d, :d]
    at = a_rows * d + a_cols
    occupied = np.zeros(d * d, dtype=bool)
    occupied[at] = True
    support = np.flatnonzero(occupied)  # i*d + k
    flat = np.zeros((rates.size, support.size), dtype=complex)
    flat[jump, (np.cumsum(occupied) - 1)[at]] = a_values
    sandwich = (flat.conj() * rates[:, None]).T @ flat  # [jl, ik]
    jl, ik = np.nonzero(sandwich)
    (j, l), (i, k) = np.divmod(support[jl], d), np.divmod(support[ik], d)
    hi, hk = np.nonzero(h_eff)
    h_vals, m = h_eff[hi, hk], np.arange(d)
    rows = [i + d * j, np.add.outer(d * m, hi).ravel(), np.add.outer(d * hi, m).ravel()]
    cols = [k + d * l, np.add.outer(d * m, hk).ravel(), np.add.outer(d * hk, m).ravel()]
    values = [sandwich[jl, ik], np.tile(-1j * h_vals, d), np.repeat(1j * h_vals.conj(), d)]

    keys = np.concatenate(rows) * (d * d) + np.concatenate(cols)
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], np.concatenate(values)[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    summed = np.add.reduceat(values, starts)
    keep = summed != 0
    rows, cols = np.divmod(keys[starts][keep], d * d)
    return Superoperator(rows, cols, summed[keep], d)


def microscopic_generator(
    params: JCParams,
    space: StateSpace,
    bath: BathSpec,
    freq_tol: float | None = None,
) -> Superoperator:
    """Liouvillian with dressed-transition jumps at bath-supplied rates.

    Emission channels (omega > 0) and thermal absorption channels
    (omega < 0) are both included; the detailed-balance relation between
    their rates makes the truncated thermal state of the Hamiltonian
    stationary.  No Lamb-shift correction is added to the commutator.
    """
    return _lindblad(*model_terms("micro", params, space, bath, freq_tol=freq_tol)[:2])


def _ladder_jumps(space: StateSpace, gamma0: float, nbar: float
                  ) -> list[tuple[np.ndarray, float]]:
    """a and a† as matrices, with their rates gamma0(nbar+1) and gamma0*nbar."""
    if gamma0 < 0:
        raise ValueError(f"gamma0 must be nonnegative, got {gamma0}")
    if nbar < 0:
        raise ValueError(f"nbar must be nonnegative, got {nbar}")
    a, a_dag = ladder_operators(space)
    return [(a, gamma0 * (nbar + 1.0)), (a_dag, gamma0 * nbar)]


def phenomenological_generator(
    params: JCParams,
    space: StateSpace,
    gamma0: float,
    nbar: float,
) -> Superoperator:
    """Liouvillian with bare photon loss/gain at rates gamma0(nbar+1), gamma0*nbar."""
    return _lindblad(*model_terms("phen", params, space, gamma0=gamma0, nbar=nbar)[:2])


def dressed_channels(
    params: JCParams,
    space: StateSpace,
    gamma0: float,
    nbar: float,
    freq_tol: float | None = None,
) -> list[tuple[float, SparseOperator, float]]:
    """(omega, operator, rate) jump channels of :func:`dressed_approx_generator`.

    The Bohr-frequency components A(omega) of a, each at the photon-loss
    rate gamma0(nbar+1), then those of a† at the photon-gain rate gamma0*nbar.
    """
    if freq_tol is None:
        freq_tol = default_freq_tol(params.omega0)
    eigensystem = complete_eigensystem(params, space)
    return [(omega, op, g) for jump, g in _ladder_jumps(space, gamma0, nbar)
            for omega, op in eigenoperators(jump, eigensystem, freq_tol)]


def dressed_approx_generator(
    params: JCParams,
    space: StateSpace,
    gamma0: float,
    nbar: float,
    freq_tol: float | None = None,
) -> Superoperator:
    """Secular projection of the phenomenological generator in the dressed basis.

    The projection keeps the dissipator's matrix elements between dressed
    coherences whose free-evolution frequencies agree within ``freq_tol``.
    That is again a Lindblad form, over the jumps of :func:`dressed_channels`;
    the commutator part is kept in full.
    """
    return _lindblad(*model_terms("dressed", params, space, gamma0=gamma0, nbar=nbar,
                                  freq_tol=freq_tol)[:2])


def model_terms(model: str, params: JCParams, space: StateSpace, bath: BathSpec | None = None,
                gamma0: float | None = None, nbar: float | None = None,
                freq_tol: float | None = None) -> tuple[np.ndarray, list, list | None]:
    """The Hamiltonian, (operator, rate) jumps and (omega, operator, rate) channels of one model:
    micro's from :func:`microscopic_channels`, dressed's from :func:`dressed_channels`, and
    phen's jumps a and a† at the rates gamma0(nbar+1) and gamma0*nbar, with channels None."""
    if model == "phen":
        jumps = [(SparseOperator.from_dense(op), g) for op, g in _ladder_jumps(space, gamma0, nbar)]
        return hamiltonian(params, space), jumps, None
    if model == "micro":
        channels = microscopic_channels(params, space, bath, freq_tol)
    elif model == "dressed":
        channels = dressed_channels(params, space, gamma0, nbar, freq_tol)
    else:
        raise ValueError(f"model must be micro, phen or dressed, got {model!r}")
    return hamiltonian(params, space), [(op, g) for _, op, g in channels], channels


def reachable_states(h: np.ndarray, jumps: list[tuple[SparseOperator, float]],
                     rho0: np.ndarray) -> np.ndarray:
    """Sorted basis indices S of the states a trajectory from ``rho0`` can populate.

    S is the closure of rho0's diagonal support under the nonzero patterns
    of ``h``, of each live jump A (rate > 0) and of A†A, so -i[h, .],
    A . A† and -{A†A, .}/2 all map operators over S to operators over S.
    Each pass walks the entries once, until S stops growing.  A†A[k, l] is
    nonzero where a row of A holds entries in columns k and l, so an entry
    in a column of S marks its (jump, row) pair, and the columns of a marked
    pair's entries, adjacent in row-major order, join S.
    """
    index, rows, cols, _ = _entries([op for op, g in jumps if g > 0])
    hi, hk = np.nonzero(h)
    pair = np.cumsum(np.diff(index * h.shape[0] + rows, prepend=-1) != 0) - 1
    marked = np.zeros(pair.size, dtype=bool)
    reached, previous = np.diag(rho0) != 0, None
    while not np.array_equal(reached, previous):
        previous = reached.copy()
        reached[hi[reached[hk]]] = True
        reached[rows[reached[cols]]] = True
        marked[pair[reached[cols]]] = True
        reached[cols[marked[pair]]] = True
    return np.flatnonzero(reached)


def restricted_lindblad(h: np.ndarray, jumps: list[tuple[SparseOperator, float]],
                        rho0: np.ndarray) -> tuple[Superoperator, DensityMatrix, np.ndarray]:
    """A run's restricted problem: the generator on S, rho0 on S, and S (:func:`reachable_states`).

    The generator is :func:`_lindblad` of ``h`` and the live jumps, both sliced to S; its
    trajectory from rho0[S, S] is the full trajectory's S x S block, which holds all of it.
    """
    states = reachable_states(h, jumps, rho0)
    at = np.full(h.shape[0], -1)
    at[states] = np.arange(states.size)
    sliced = []
    for op, g in jumps:
        if g > 0:
            rows, cols = at[op.rows], at[op.cols]
            inside = (rows >= 0) & (cols >= 0)
            sliced.append((SparseOperator(rows[inside], cols[inside], op.values[inside],
                                          states.size), g))
    cut = np.ix_(states, states)
    return _lindblad(h[cut], sliced), DensityMatrix(rho0[cut]), states


def secular_margin(
    channels: list[tuple[float, SparseOperator, float]],
    reached: np.ndarray,
) -> tuple[float, float, tuple[float, float] | None]:
    """How close a run's jump channels come to breaking the secular approximation.

    Only the live channels (rate > 0) that act on the states ``reached``
    (:func:`reachable_states` of the run) count, so the rule covers zero
    and finite temperature and crossed manifolds alike.  Returns the
    largest rate over the smallest spacing between their distinct Bohr
    frequencies, the largest rate over the smallest |omega|, and the
    closest pair of frequencies (None with fewer than two; a ratio with
    nothing to compare is 0).
    """
    on = np.zeros(max((op.dim for _, op, _ in channels), default=0), dtype=bool)
    on[reached] = True
    kept = [(omega, g) for omega, op, g in channels if g > 0 and on[op.cols].any()]
    g_max = max((g for _, g in kept), default=0.0)
    omegas = np.array(sorted({omega for omega, _ in kept}))
    nearest = np.abs(omegas).min(initial=np.inf)
    omega_ratio = g_max / nearest if nearest > 0 else np.inf
    if len(omegas) < 2:
        return 0.0, omega_ratio, None
    k = int(np.argmin(np.diff(omegas)))
    return g_max / (omegas[k + 1] - omegas[k]), omega_ratio, (omegas[k], omegas[k + 1])
