"""Solvers for rho' = L rho: spectral (damping basis), RK4, and steady state.

Every solver works on the decoupled blocks of :mod:`jcsim.blocks` and
never forms, diagonalizes or propagates the whole Liouvillian.  The
damping-basis route diagonalizes each block: right eigenoperators rho_k
with L rho_k = lambda_k rho_k, left eigenoperators rho_check_k with
rho_check_k L = lambda_k rho_check_k, and Tr{rho_check_k rho_j} =
delta_kj.  Any initial state then evolves in closed form,

    rho(t) = sum_k  Tr{rho_check_k rho(0)}  exp(lambda_k t)  rho_k,

where only the modes of the blocks rho(0) touches have weight.  The left
family of a block is the inverse of its right eigenvector matrix, the
dual basis whenever the block is diagonalizable.  A repeated eigenvalue
whose eigenvectors come back near-parallel gets its eigenspace from an
SVD; a defective block fails the residual gate with its eigenvalue
clusters named.

The fixed-step RK4 integrator is an independent check that never touches
an eigendecomposition.  One step of size h is the matrix P(hL) = I + hL
+ (hL)^2/2 + (hL)^3/6 + (hL)^4/24, so a grid interval of n substeps is
P(hL)^n, formed by repeated squaring once per distinct interval length
on the blocks where rho(0) has weight, with the identity kept apart so
that rounding against it cannot accumulate.  The steady state deflates
each populated block that preserves the trace: one inverse of the block
with its trace row in place of a population row certifies its one zero
eigenvalue and is the kernel element.  ``eigvals`` counts only the blocks
the deflation or an inverse bound does not clear.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .blocks import coupled_blocks, width_groups
from .generators import Superoperator, unvec, vec
from .hilbert import STATE_TOL, DensityMatrix, defect_message, density_diagnostics

RESIDUAL_TOL = 1e-10  # eigenpair residual bound of a damping basis, relative to max(1, max|lambda|)
KERNEL_TOL = 1e-10  # |lambda| below which a Liouvillian eigenvalue counts as zero


class DampingBasisError(RuntimeError):
    """Liouvillian is defective or near-defective at working precision."""


class KernelMultiplicityError(RuntimeError):
    """The Liouvillian has no unique stationary state: its kernel is not one unit-trace element."""


class StepSizeError(ValueError):
    """RK4 step too large for the generator's frequency scale."""


class BlockGroup(NamedTuple):
    """The m decoupled blocks of one width w and their modes."""

    index: np.ndarray  # (m, w) vec positions of each block
    modes: np.ndarray  # (m, w) mode number of each eigenvector
    right: np.ndarray  # (m, w, w) vec'd right eigenoperators on the block as columns
    left: np.ndarray  # (m, w, w) dual functionals as rows: left[b] @ right[b] is the identity


@dataclass(frozen=True)
class DampingBasis:
    """Biorthonormal eigensystem of a Liouvillian, held block by block.

    Mode k is ``eigenvalues[k]``; the group holding it has ``modes[b, j] == k``,
    its right eigenoperator in ``right[b][:, j]`` and its dual in ``left[b][j]``.
    """

    eigenvalues: np.ndarray  # (D,)
    groups: tuple[BlockGroup, ...]  # one per block width, widths ascending


@dataclass(frozen=True)
class TimeSeries:
    """Sampled trajectory: time grid, density matrices and, once validated, their defects."""

    times: np.ndarray
    states: np.ndarray  # (n_times, dim, dim)
    trace_defect: np.ndarray | None = None  # (n_times,) each, None until validated
    herm_defect: np.ndarray | None = None
    min_eigenvalue: np.ndarray | None = None

    def validate_states(self) -> "TimeSeries":
        """Check each state against the density-matrix invariants at STATE_TOL; keep the defects."""
        trace_defect, herm_defect, min_eig = density_diagnostics(self.states)
        ok = (herm_defect <= STATE_TOL) & (trace_defect <= STATE_TOL) & (min_eig >= -STATE_TOL)
        bad = np.flatnonzero(~ok)  # a nan defect fails
        if bad.size:
            k = bad[0]
            message = defect_message(trace_defect[k], herm_defect[k], min_eig[k])
            raise ValueError(f"sample {k} (t = {self.times[k]:.6g}): {message}")
        return replace(self, trace_defect=trace_defect, herm_defect=herm_defect,
                       min_eigenvalue=min_eig)


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
    repeated, non-defective eigenvalue as near-parallel columns.  Only a
    block with two eigenvalues within (w - 1) * 1e-8 in both parts, or a
    non-finite one, can hold a cluster, so only those get an SVD.  A block
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
    chain = (vals.shape[1] - 1) * 1e-8  # the widest a cluster chained by _clusters can spread
    near = np.abs(vals.real[:, :, None] - vals.real[:, None, :]) <= chain
    near &= np.abs(vals.imag[:, :, None] - vals.imag[:, None, :]) <= chain
    paired = np.flatnonzero((np.count_nonzero(near, axis=(1, 2)) > vals.shape[1])
                            | ~np.isfinite(vals).all(axis=1))
    eps = np.finfo(float).eps
    singular = np.linalg.svd(vecs[paired], compute_uv=False)[:, -1] * RESIDUAL_TOL < eps
    for k in paired[singular]:
        null_tol = RESIDUAL_TOL * max(1.0, float(np.abs(vals[k]).max()))
        for members in _clusters(vals[k]):
            lam = vals[k, members].mean()
            _, sing, vh = np.linalg.svd(blocks[k] - lam * np.eye(vals.shape[1]))
            if np.count_nonzero(sing <= null_tol) == members.size:
                vals[k, members] = lam
                vecs[k][:, members] = vh[-members.size:].conj().T


def damping_basis(liouvillian: Superoperator) -> DampingBasis:
    """Full biorthonormal eigensystem of the Liouvillian, solved per decoupled block.

    Returns a :class:`DampingBasis`: ``eigenvalues`` (D,) and, per block
    width, the blocks' positions, mode numbers, right eigenvectors and
    dual functionals, for :func:`evolve_spectral`, :func:`dominant_frequency`,
    the ``spectrum`` CSV and acceptance criterion 5; nothing D x D is
    formed.  Blocks of equal width are diagonalized and inverted in one
    stacked call.  Modes are sorted by (Re lambda descending, Im lambda
    ascending), parts within 1e-9 * max(1, max|lambda|) counting as tied,
    then by exact Re lambda descending, so the noise in a real mode's
    Im lambda never decides the order.  Stationary right eigenoperators
    (|lambda| < :data:`KERNEL_TOL`) have unit trace, decaying ones unit
    Frobenius norm and a deterministic phase.  Every block's left/right
    residuals must lie within :data:`RESIDUAL_TOL` * max(1, max|lambda|).
    """
    trace_row = vec(np.eye(liouvillian.dim)).real  # Tr{rho} = vec(1) . vec(rho)
    blocks = coupled_blocks(liouvillian)
    widths = np.diff(blocks[2], append=liouvillian.size)
    groups = {}  # width -> block numbers, stacked indices, eigenvalues, right, left
    residuals = np.empty((widths.size, 2))
    for members, index, subs in width_groups(liouvillian, blocks):
        width = index.shape[1]
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
                f"right eigenoperators of decoupled block {members[k]} of {widths.size} "
                f"({width} wide) are linearly dependent; eigenvalue clusters in that "
                "block: " + _format_clusters(vals[k])
            ) from exc
        residuals[members, 0] = np.abs(subs @ right - right * vals[:, None, :]).max(axis=(1, 2))
        residuals[members, 1] = np.abs(left @ subs - vals[:, :, None] * left).max(axis=(1, 2))
        groups[width] = (members, index, vals, right, left)

    vals = np.concatenate([group[2].ravel() for group in groups.values()])
    scale = max(1.0, float(np.abs(vals).max()))
    worst = int(np.argmax(residuals.max(axis=1)))
    if not residuals[worst].max() <= RESIDUAL_TOL * scale:  # a nan residual fails
        members, _, block_vals, block_right, _ = groups[widths[worst]]
        k = np.searchsorted(members, worst)
        raise DampingBasisError(
            f"left/right pairing failed in decoupled block {worst} of {widths.size} "
            f"({widths[worst]} wide; residuals {residuals[worst, 0]:.3e}/"
            f"{residuals[worst, 1]:.3e}, its eigenvector matrix cond(R) = "
            f"{np.linalg.cond(block_right[k]):.3e}); near-defective eigenvalue clusters "
            "in that block: " + _format_clusters(block_vals[k])
        )

    tie = 1e-9 * scale
    order = np.lexsort((-vals.real, _tie_ranks(vals.imag, tie), _tie_ranks(-vals.real, tie)))
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    start, basis_groups = 0, []
    for _, index, _, right, left in groups.values():
        modes = position[start:start + index.size].reshape(index.shape)
        # block sums run in mode order; "stable" reuses lexsort's int sort, quicksort adds 0.4 MB
        cols = np.argsort(modes, axis=1, kind="stable")[:, None, :]
        basis_groups.append(BlockGroup(index, np.take_along_axis(modes, cols[:, 0], 1),
                                       np.take_along_axis(right, cols, 2),
                                       np.take_along_axis(left, cols.swapaxes(1, 2), 1)))
        start += index.size
    return DampingBasis(vals[order], tuple(basis_groups))


def _touched_blocks(basis: DampingBasis, v: np.ndarray):
    """(index, modes, right, coefficients) of the blocks ``v`` touches; the rest weigh 0."""
    for index, modes, right, left in basis.groups:
        touched = np.flatnonzero(v[index].any(axis=1))
        if touched.size:
            coeff = (left[touched] @ v[index[touched], None])[..., 0]
            yield index[touched], modes[touched], right[touched], coeff


def evolve_spectral(basis: DampingBasis, rho0: DensityMatrix, times: np.ndarray) -> TimeSeries:
    """Closed-form trajectory from the modes of the blocks rho0 touches, validated."""
    times = np.asarray(times, dtype=float)
    dim = rho0.dim
    v = vec(rho0.matrix)
    recon = np.zeros_like(v)
    flat = np.zeros((times.size, v.size), dtype=complex)
    for index, modes, right, coeff in _touched_blocks(basis, v):
        recon[index] = (right @ coeff[..., None])[..., 0]
        waves = coeff[..., None] * np.exp(basis.eigenvalues[modes][..., None] * times)
        flat[:, index] = np.moveaxis(right @ waves, -1, 0)
    recon_err = np.abs(unvec(recon, dim) - rho0.matrix).max()
    if not recon_err <= 1e-10:
        raise DampingBasisError(f"initial-state reconstruction error {recon_err:.3e}")
    states = np.transpose(flat.reshape(times.size, dim, dim), (0, 2, 1))  # vec is column-major
    return TimeSeries(times, states).validate_states()


def rk4_step_limit(diagonal: np.ndarray) -> float:
    """Longest RK4 step for a generator with this diagonal: 0.01 / max|diag L|."""
    return 0.01 / max(float(np.abs(diagonal).max()), 1e-300)


def check_rk4_step(dt: float, diagonal: np.ndarray) -> None:
    """Raise :class:`StepSizeError` if ``dt`` exceeds :func:`rk4_step_limit` of ``diagonal``."""
    limit = rk4_step_limit(diagonal)
    if dt > limit:
        raise StepSizeError(f"dt = {dt:.3e} exceeds 0.01/max|diag L| = {limit:.3e}")


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
    L carrying every Bohr frequency and decay rate, and no interval may
    need more than 2**53 substeps.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0 or np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be a nonempty strictly increasing grid with t >= 0")
    check_rk4_step(dt, liouvillian.diagonal())
    dim = liouvillian.dim
    v0 = vec(rho0.matrix)
    lengths, interval = np.unique(np.diff(times, prepend=0.0), return_inverse=True)
    with np.errstate(over="ignore"):
        n_sub = np.ceil(lengths / dt - 1e-12)
    if n_sub.max() > 2 ** 53:
        raise StepSizeError(f"dt = {dt:.3e} needs {n_sub.max():.3e} RK4 substeps on one grid "
                            f"interval, more than 2**53")
    n_sub = np.maximum(1, n_sub.astype(int))
    flat = np.zeros((times.size, dim * dim), dtype=complex)
    blocks = coupled_blocks(liouvillian)
    touched = np.bincount(blocks[0][np.flatnonzero(v0)], minlength=blocks[2].size) > 0
    for _, index, subs in width_groups(liouvillian, blocks, touched):
        for block, sub in zip(index, subs):
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
    if not drift <= 1e-10:
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
    weights = np.zeros(basis.eigenvalues.size)
    for _, modes, _, coeff in _touched_blocks(basis, vec(rho0.matrix)):
        weights[modes] = np.abs(coeff)
    freqs = basis.eigenvalues.imag
    floor = 1e-9 * max(1.0, float(np.abs(freqs).max()))
    excited = (freqs > floor) & (weights > 1e-8 * float(weights.max()))
    if not excited.any():
        return 0.0
    return float(freqs[np.argmax(np.where(excited, weights, -1.0))])


def _trace_row_element(index: np.ndarray, sub: np.ndarray, dim: int) -> tuple[np.ndarray, bool]:
    """Column r of S^-1, and whether S^-1 certifies that block B holds one zero eigenvalue.

    S is the block B (``sub``, at vec positions ``index``) with its trace
    row t, positions i + d*i, in place of its first population row r.  If
    B's kernel element has unit trace and that row is redundant, column r
    of S^-1 is that element; where S is exactly singular, as for a block
    with no population (its row r is zero), the column is nan.  With G the
    identity with row r replaced by t, G B G^-1 holds tB G^-1 in row r and
    B' = B[~r, ~r] - B[~r, r] t[~r] in the others, and S G^-1 = [[1, 0],
    [B[~r, r], B']].  Where max|tB| <= :data:`KERNEL_TOL`, B has the
    eigenvalues of B' plus one zero, and S^-1[~r, ~r] = B'^-1, so
    1/||S^-1[~r, ~r]||_F > KERNEL_TOL bounds every eigenvalue of B' away
    from zero: B then holds exactly one zero eigenvalue.
    """
    system, trace_row = sub.copy(), index % (dim + 1) == 0
    r = int(np.argmax(trace_row))
    system[r] = trace_row
    try:
        inverse = np.linalg.inv(system)
    except np.linalg.LinAlgError:
        return np.full(index.size, np.nan, dtype=complex), False
    rest = np.arange(index.size) != r
    certified = (np.abs(trace_row @ sub).max() <= KERNEL_TOL  # a nan column sum fails
                 and np.linalg.norm(inverse[np.ix_(rest, rest)]) * KERNEL_TOL < 1.0)  # nan fails
    return inverse[:, r], bool(certified)


def steady_state(liouvillian: Superoperator) -> DensityMatrix:
    """Unique stationary density matrix of an ergodic generator.

    Each block B that holds a population is inverted once with its trace
    row in place of its first population row (:func:`_trace_row_element`).
    Where B meets max|tB| <= :data:`KERNEL_TOL` for its trace row t, that
    inverse certifies that B holds exactly one zero eigenvalue; the
    deflation certifies the count only where max|tB| <= KERNEL_TOL.
    ``eigvals`` counts |lambda| < KERNEL_TOL (or nan) on the populated
    blocks it does not certify and on the other blocks whose bound
    1/||B^-1||_F <= sigma_min(B) <= |lambda| does not clear KERNEL_TOL (an
    exactly singular block is counted).  The bounds are taken per block
    width, in stacks under 64 kB (or one block), so the heap does not grow
    by a whole width's inverse.  Any count but one raises
    :class:`KernelMultiplicityError`.  The kernel
    element is column r of the kernel block's inverse, nan for a block
    with no population.  It must meet max|B x| <= KERNEL_TOL max|x|: this
    fails when the replaced row is not redundant (a traceless kernel,
    say), but it does not prove that the generator preserves the trace.
    The element is then hermitized and normalized to unit trace.
    """
    blocks = coupled_blocks(liouvillian)
    d, counted = liouvillian.dim, []  # (positions, sub-matrix, kernel count, element) per block
    populated = np.bincount(blocks[0][np.arange(d) * (d + 1)], minlength=blocks[2].size) > 0
    for members, index, subs in width_groups(liouvillian, blocks):
        width = index.shape[1]
        bound = np.full(members.size, -np.inf)
        elements = np.full((members.size, width), np.nan, dtype=complex)
        for k in np.flatnonzero(populated[members]):
            elements[k], certified = _trace_row_element(index[k], subs[k], d)
            if certified:
                counted.append((index[k], subs[k], 1, elements[k]))
                bound[k] = np.inf
        screened = np.flatnonzero(~populated[members])
        for part in np.array_split(screened, screened.size * width * width // 4096 + 1):
            if not part.size:
                continue
            try:  # |lambda| >= sigma_min(B) = 1/||B^-1||_2 >= 1/||B^-1||_F
                parts = np.linalg.inv(subs[part]).view(float)  # real and imaginary parts
                bound[part] = np.einsum("bij,bij->b", parts, parts) ** -0.5
            except np.linalg.LinAlgError:  # an exactly singular block: count its part
                pass
        count = np.flatnonzero(~(bound > KERNEL_TOL))  # a nan bound is counted
        if count.size:
            stack = subs[count]
            zero = ~(np.abs(np.linalg.eigvals(stack)) >= KERNEL_TOL)
            counted += zip(index[count], stack, np.count_nonzero(zero, axis=1), elements[count])
    if sum(n for _, _, n, _ in counted) != 1:
        vals = np.concatenate([np.linalg.eigvals(group[2]).ravel()
                               for group in width_groups(liouvillian, blocks)])
        raise KernelMultiplicityError(
            f"kernel dimension {np.count_nonzero(~(np.abs(vals) >= KERNEL_TOL))} at tolerance "
            f"{KERNEL_TOL:.1e}; smallest |eigenvalues|: {np.sort(np.abs(vals))[:4]}"
        )
    index, sub, x = next((index, sub, x) for index, sub, n, x in counted if n == 1)
    kernel = np.zeros(liouvillian.size, dtype=complex)
    kernel[index] = x
    rho, residual = unvec(kernel, d), np.abs(sub @ x).max()
    rho = (rho + rho.conj().T) / 2.0
    trace = np.trace(rho)
    if not (residual <= KERNEL_TOL * np.abs(x).max() and abs(trace) > 1e-12 * np.linalg.norm(x)):
        raise KernelMultiplicityError(
            f"no kernel element of unit trace: the solve with the trace row in place of a "
            f"population row has residual {residual:.3e} (the kernel is traceless, or that row "
            "is not redundant)")
    return DensityMatrix(rho / trace).validate()
