"""Solvers for rho' = L rho: spectral (damping basis), RK4, and steady state.

The generator splits into decoupled blocks, the connected components of
its nonzero pattern; for the Jaynes-Cummings generators these are the
sectors of fixed excitation difference N_row - N_col, and a coupling
that breaks the symmetry merges them.  Every solver here works block by
block and never diagonalizes or propagates the whole Liouvillian.

The damping-basis route diagonalizes each block of the Liouvillian:
right eigenoperators rho_k with L rho_k = lambda_k rho_k, left
eigenoperators rho_check_k with rho_check_k L = lambda_k rho_check_k,
normalized so that Tr{rho_check_k rho_j} = delta_kj.  Any initial state
then evolves in closed form,

    rho(t) = sum_k  Tr{rho_check_k rho(0)}  exp(lambda_k t)  rho_k,

where only the modes of the blocks rho(0) touches have nonzero weight.
:func:`damping_basis` solves each generator once and returns the
eigensystem as three arrays (:class:`DampingBasis`), with
``left @ vec(rho)`` giving the coefficients Tr{rho_check_k rho}; the
trajectory, the frequency summary and the spectrum all read that basis.

The left family of a block is obtained as the matrix inverse of its right
eigenvector matrix, which *is* the biorthonormal dual basis whenever the
block is diagonalizable.  A repeated eigenvalue whose eigenvectors come
back near-parallel is given its eigenspace from an SVD instead, while a
defective block surfaces as a residual failure and raises with the
block and its eigenvalue clusters named.

The fixed-step RK4 integrator is an independent verification path: it
never touches an eigendecomposition, so agreement between the two
solvers checks both.  On the linear ODE one RK4 step of size h is the
matrix P(hL) = I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, so a grid
interval of n uniform substeps is the power P(hL)^n.  It is formed by
repeated squaring once per distinct interval length (a linspace grid has
a dozen or so), only on the decoupled blocks where rho(0) has weight,
and with the identity kept apart so that rounding against it cannot
accumulate over the substeps.  The steady state, which needs only the
kernel, is read off the one block that holds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import Superoperator, unvec, vec
from .hilbert import STATE_TOL, DensityMatrix, defect_message, density_diagnostics

RESIDUAL_TOL = 1e-10  # eigenpair residual bound of a damping basis, relative to max(1, max|lambda|)
KERNEL_TOL = 1e-10  # |lambda| below which a Liouvillian eigenvalue counts as zero


class DampingBasisError(RuntimeError):
    """Liouvillian is defective or near-defective at working precision."""


class KernelMultiplicityError(RuntimeError):
    """The Liouvillian kernel is not one-dimensional."""


class StepSizeError(ValueError):
    """RK4 step too large for the generator's frequency scale."""


@dataclass(frozen=True)
class DampingBasis:
    """Biorthonormal eigensystem of a Liouvillian, modes in sorted order.

    Column k of ``right`` is the vec'd right eigenoperator of
    ``eigenvalues[k]``; row k of ``left`` is its dual functional, so
    ``left @ vec(rho)`` gives the expansion coefficients and
    ``left @ right`` is the identity.
    """

    eigenvalues: np.ndarray  # (D,)
    right: np.ndarray  # (D, D)
    left: np.ndarray  # (D, D)


@dataclass(frozen=True)
class TimeSeries:
    """Sampled trajectory: time grid and density matrices."""

    times: np.ndarray
    states: np.ndarray  # (n_times, dim, dim)

    def validate_states(self) -> "TimeSeries":
        """Check every stored state against the density-matrix invariants at STATE_TOL."""
        trace_defect, herm_defect, min_eig = density_diagnostics(self.states)
        bad = np.flatnonzero(
            (herm_defect > STATE_TOL) | (trace_defect > STATE_TOL) | (min_eig < -STATE_TOL)
        )
        if bad.size:
            k = bad[0]
            message = defect_message(trace_defect[k], herm_defect[k], min_eig[k])
            raise ValueError(f"sample {k} (t = {self.times[k]:.6g}): {message}")
        return self


def _tie_ranks(values: np.ndarray, tol: float) -> np.ndarray:
    """Rank of each real value; sorted neighbours no more than ``tol`` apart share a rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=int)
    ranks[order] = np.concatenate([[0], np.cumsum(np.diff(values[order]) > tol)])
    return ranks


def _clusters(values: np.ndarray, tol: float = 1e-8) -> list[np.ndarray]:
    """Index sets of the repeated values: members chained within ``tol`` in both parts."""
    cells = _tie_ranks(values.real, tol) * values.size + _tie_ranks(values.imag, tol)
    _, labels, counts = np.unique(cells, return_inverse=True, return_counts=True)
    return [np.flatnonzero(labels == c) for c in np.flatnonzero(counts > 1)]


def _format_clusters(values: np.ndarray) -> str:
    clusters = [f"{values[members[0]]:.6g} (x{members.size})" for members in _clusters(values)]
    return ", ".join(clusters) if clusters else "none"


def _span_repeated_eigenvalues(blocks: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> None:
    """Give each repeated eigenvalue of a near-singular ``eig`` basis its eigenspace, in place.

    ``blocks``, ``vals`` and ``vecs`` are stacks of equal-width blocks and
    their ``eig`` output.  ``eig`` can return the unit eigenvectors of a
    repeated, non-defective eigenvalue as near-parallel columns.  A block
    whose columns have smallest singular value s below eps /
    :data:`RESIDUAL_TOL` has cond(R) >= 1/s, too large for its inverse to
    meet the pairing gate.  In such a block, for each cluster of m
    eigenvalues with mean lam, the right singular vectors of (block - lam I)
    with singular values <= RESIDUAL_TOL * max(1, max|lambda|) span the
    eigenspace; when there are exactly m of them they become the cluster's
    eigenvectors and lam its eigenvalue.  A defective cluster has fewer
    and is left as ``eig`` returned it, for the pairing check to reject.
    Other blocks keep ``eig``'s vectors, which share one backward error
    and so keep the inverse's residual small; recomputing them from an SVD
    can break the gate.
    """
    singular = np.linalg.svd(vecs, compute_uv=False)[:, -1] * RESIDUAL_TOL < np.finfo(float).eps
    for k in np.flatnonzero(singular):
        null_tol = RESIDUAL_TOL * max(1.0, float(np.abs(vals[k]).max()))
        for members in _clusters(vals[k]):
            lam = vals[k, members].mean()
            _, sing, vh = np.linalg.svd(blocks[k] - lam * np.eye(vals.shape[1]))
            if np.count_nonzero(sing <= null_tol) == members.size:
                vals[k, members] = lam
                vecs[k][:, members] = vh[-members.size:].conj().T


def damping_basis(liouvillian: Superoperator) -> DampingBasis:
    """Full biorthonormal eigensystem of the Liouvillian, solved per decoupled block.

    Returns a :class:`DampingBasis`: ``eigenvalues`` (D,), ``right``
    (D x D) with the vec'd right eigenoperators as columns, and ``left``
    (D x D) with the dual functionals as rows.  The same basis feeds
    :func:`evolve_spectral`, :func:`dominant_frequency`, the ``spectrum``
    CSV and acceptance criterion 5.  Each block of :func:`_coupled_blocks`
    is diagonalized and inverted on its own (blocks of equal width in one
    stacked call), so every mode lives on one block and is exactly zero
    off it.  Modes are sorted by (Re lambda descending, Im lambda
    ascending), parts within 1e-9 * max(1, max|lambda|) counting as tied,
    and modes tied in both by exact Re lambda descending, so the noise in
    a real mode's Im lambda never decides the order.  The stationary right
    eigenoperators (|lambda| < :data:`KERNEL_TOL`) are normalized to unit
    trace (which pins their left partners to the identity), decaying ones
    to unit Frobenius norm with a deterministic phase.  The left/right
    residuals of every block must lie within :data:`RESIDUAL_TOL` *
    max(1, max|lambda|); L vanishes off the blocks, so this is the
    residual of the whole eigensystem.
    """
    mat = liouvillian.matrix
    trace_row = vec(np.eye(liouvillian.dim)).real  # Tr{rho} = vec(1) . vec(rho)
    blocks = _coupled_blocks(mat)
    widths = np.array([block.size for block in blocks])
    groups = {}  # width -> block numbers, stacked indices, eigenvalues, right, left
    residuals = np.empty((len(blocks), 2))
    for width in sorted(set(widths.tolist())):  # np.unique's first call costs ~15 ms
        members = np.flatnonzero(widths == width)
        index = np.stack([blocks[b] for b in members])
        subs = mat[index[:, :, None], index[:, None, :]]
        vals, right = np.linalg.eig(subs)
        _span_repeated_eigenvalues(subs, vals, right)

        traces = np.einsum("bi,bij->bj", trace_row[index], right)
        pivot_rows = np.argmax(np.abs(right), axis=1)[:, None, :]
        pivots = np.take_along_axis(right, pivot_rows, axis=1)[:, 0]
        factors = np.abs(pivots) / pivots / np.linalg.norm(right, axis=1)
        stationary = (np.abs(vals) < KERNEL_TOL) & (np.abs(traces) > 1e-8)
        factors[stationary] = 1.0 / traces[stationary]
        right *= factors[:, None, :]
        try:
            left = np.linalg.inv(right)
        except np.linalg.LinAlgError as exc:
            k = int(np.argmax(np.linalg.cond(right)))
            raise DampingBasisError(
                f"right eigenoperators of decoupled block {members[k]} of {len(blocks)} "
                f"({width} wide) are linearly dependent; eigenvalue clusters in that "
                "block: " + _format_clusters(vals[k])
            ) from exc
        residuals[members, 0] = np.abs(subs @ right - right * vals[:, None, :]).max(axis=(1, 2))
        residuals[members, 1] = np.abs(left @ subs - vals[:, :, None] * left).max(axis=(1, 2))
        groups[width] = (members, index, vals, right, left)

    vals = np.concatenate([group[2].ravel() for group in groups.values()])
    scale = max(1.0, float(np.abs(vals).max()))
    worst = int(np.argmax(residuals.max(axis=1)))
    if residuals[worst].max() > RESIDUAL_TOL * scale:
        members, _, block_vals, block_right, _ = groups[widths[worst]]
        k = np.searchsorted(members, worst)
        raise DampingBasisError(
            f"left/right pairing failed in decoupled block {worst} of {len(blocks)} "
            f"({widths[worst]} wide; residuals {residuals[worst, 0]:.3e}/"
            f"{residuals[worst, 1]:.3e}, its eigenvector matrix cond(R) = "
            f"{np.linalg.cond(block_right[k]):.3e}); near-defective eigenvalue clusters "
            "in that block: " + _format_clusters(block_vals[k])
        )

    tie = 1e-9 * scale
    order = np.lexsort((-vals.real, _tie_ranks(vals.imag, tie), _tie_ranks(-vals.real, tie)))
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    right_all = np.zeros((vals.size, vals.size), dtype=complex)
    left_all = np.zeros_like(right_all)
    start = 0
    for _, index, _, right, left in groups.values():
        modes = position[start:start + index.size].reshape(index.shape)
        right_all[index[:, :, None], modes[:, None, :]] = right
        left_all[modes[:, :, None], index[:, None, :]] = left
        start += index.size
    return DampingBasis(vals[order], right_all, left_all)


def evolve_spectral(basis: DampingBasis, rho0: DensityMatrix, times: np.ndarray) -> TimeSeries:
    """Closed-form trajectory from the damping-basis expansion, validated."""
    times = np.asarray(times, dtype=float)
    dim = rho0.dim
    coeff = basis.left @ vec(rho0.matrix)
    live = np.flatnonzero(coeff)  # modes off rho0's blocks have exactly zero weight
    coeff, right = coeff[live], basis.right[:, live]

    recon = unvec(right @ coeff, dim)
    recon_err = np.abs(recon - rho0.matrix).max()
    if recon_err > 1e-10:
        raise DampingBasisError(f"initial-state reconstruction error {recon_err:.3e}")

    propagated = right @ (coeff[:, None] * np.exp(np.outer(basis.eigenvalues[live], times)))
    states = propagated.T.reshape(len(times), dim, dim)
    states = np.transpose(states, (0, 2, 1))  # undo row-major reshape: vec is column-major
    return TimeSeries(times, states).validate_states()


def rk4_step_limit(liouvillian: Superoperator) -> float:
    """Longest RK4 step :func:`evolve_ode` accepts: 0.01 / max|diag L|."""
    return 0.01 / max(float(np.abs(np.diag(liouvillian.matrix)).max()), 1e-300)


def _rk4_step_increment(block: np.ndarray, h: float) -> np.ndarray:
    """P(hL) - I for one classical RK4 step of v' = block v: hL + ... + (hL)^4/24."""
    eye = np.eye(block.shape[0])
    hl = h * block
    return hl @ (eye + hl @ (eye + hl @ (eye + hl / 4.0) / 3.0) / 2.0)


def _power_increment(q: np.ndarray, n: int) -> np.ndarray:
    """(I + q)^n - I by repeated squaring, never rounding q against the identity."""
    result, square = np.zeros_like(q), q
    while True:
        if n & 1:
            result = result + square + result @ square
        n >>= 1
        if not n:
            return result
        square = 2.0 * square + square @ square


def evolve_ode(
    liouvillian: Superoperator,
    rho0: DensityMatrix,
    times: np.ndarray,
    dt: float,
) -> TimeSeries:
    """Fixed-step 4th-order Runge-Kutta trajectory sampled on ``times``, validated.

    Each grid interval (the first one from t = 0) is covered with
    n_sub = ceil(span / dt) uniform substeps of h = span / n_sub, so a
    uniform grid is integrated with one global step size.  One RK4 step
    is multiplication by P(hL), the 4th-order Taylor polynomial of
    exp(hL), so each interval applies P(hL)^n_sub - I, formed once per
    distinct interval length, as v <- v + (P^n_sub - I) v.  Both are
    built on each decoupled block of L in which rho0 has weight; the
    other blocks stay exactly zero.  ``dt`` must resolve the fastest
    scale of the generator: dt <= :func:`rk4_step_limit`, the diagonal of
    L carrying every Bohr frequency and decay rate.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0 or np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be a nonempty strictly increasing grid with t >= 0")
    limit = rk4_step_limit(liouvillian)
    if dt > limit:
        raise StepSizeError(f"dt = {dt:.3e} exceeds 0.01/max|diag L| = {limit:.3e}")

    mat = liouvillian.matrix
    dim = liouvillian.dim
    v0 = vec(rho0.matrix)
    lengths, interval = np.unique(np.diff(times, prepend=0.0), return_inverse=True)
    n_sub = np.maximum(1, np.ceil(lengths / dt - 1e-12).astype(int))
    flat = np.zeros((times.size, dim * dim), dtype=complex)
    for block in _coupled_blocks(mat):
        if not v0[block].any():
            continue
        sub = mat[np.ix_(block, block)]
        increments = [_power_increment(_rk4_step_increment(sub, span / n), n)
                      for span, n in zip(lengths, n_sub)]
        v = v0[block]
        trajectory = np.empty((times.size, block.size), dtype=complex)
        for k, j in enumerate(interval):
            v = v + increments[j] @ v
            trajectory[k] = v
        flat[:, block] = trajectory
    states = np.transpose(flat.reshape(times.size, dim, dim), (0, 2, 1))  # vec is column-major

    drift = abs(np.trace(states[-1]) - np.trace(rho0.matrix))
    if drift > 1e-10:
        raise RuntimeError(f"RK4 trace drift {drift:.3e} exceeds 1e-10")
    return TimeSeries(times, states).validate_states()


def dominant_frequency(basis: DampingBasis, rho0: DensityMatrix) -> float:
    """Strongest excited oscillation frequency, read off the spectrum.

    Expands the initial state in the damping basis and returns Im(lambda)
    of the positive-frequency mode with the largest coefficient magnitude
    (the first in mode order on a tie), 0.0 when no oscillating mode is
    excited.  This is a spectral statement about the generator, not a fit
    to any sampled curve.
    """
    weights = np.abs(basis.left @ vec(rho0.matrix))
    freqs = basis.eigenvalues.imag
    floor = 1e-9 * max(1.0, float(np.abs(freqs).max()))
    excited = (freqs > floor) & (weights > 1e-8 * float(weights.max()))
    if not excited.any():
        return 0.0
    return float(freqs[np.argmax(np.where(excited, weights, -1.0))])


def _coupled_blocks(mat: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the nonzero pattern of ``mat``.

    Permuting ``mat`` to these blocks makes it block-diagonal, so its
    eigenvalues are the union of the blocks' eigenvalues.  An index with
    no nonzero entry is a block of its own.
    """
    linked = mat != 0
    linked |= linked.T
    unseen = np.ones(mat.shape[0], dtype=bool)
    blocks = []
    for seed in range(mat.shape[0]):
        if not unseen[seed]:
            continue
        block = np.zeros_like(unseen)
        block[seed] = True
        frontier = block.copy()
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~block
            block |= frontier
        unseen &= ~block
        blocks.append(np.flatnonzero(block))
    return blocks


def steady_state(liouvillian: Superoperator) -> DensityMatrix:
    """Unique stationary density matrix of an ergodic generator.

    The kernel, the eigenvalues with |lambda| < :data:`KERNEL_TOL`, is
    found block by block over the decoupled blocks of the Liouvillian; its
    element, taken from the one block that holds it, is hermitized and
    normalized to unit trace.  A kernel of any other dimension raises
    :class:`KernelMultiplicityError`.
    """
    mat = liouvillian.matrix
    blocks = _coupled_blocks(mat)
    block_vals = [np.linalg.eigvals(mat[np.ix_(b, b)]) for b in blocks]
    vals = np.concatenate(block_vals)
    null = np.where(np.abs(vals) < KERNEL_TOL)[0]
    if null.size != 1:
        raise KernelMultiplicityError(
            f"kernel dimension {null.size} at tolerance {KERNEL_TOL:.1e}; "
            f"smallest |eigenvalues|: {np.sort(np.abs(vals))[:4]}"
        )
    block = next(b for b, v in zip(blocks, block_vals) if np.abs(v).min() < KERNEL_TOL)
    sub_vals, sub_vecs = np.linalg.eig(mat[np.ix_(block, block)])
    kernel = np.zeros(mat.shape[0], dtype=complex)
    kernel[block] = sub_vecs[:, np.argmin(np.abs(sub_vals))]
    rho = unvec(kernel, liouvillian.dim)
    rho = (rho + rho.conj().T) / 2.0
    trace = np.trace(rho)
    if abs(trace) < 1e-12:
        raise KernelMultiplicityError("kernel element is traceless; no stationary state")
    return DensityMatrix(rho / trace).validate()
