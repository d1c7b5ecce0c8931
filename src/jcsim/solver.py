"""Solvers for rho' = L rho: spectral (damping basis), RK4, and steady state.

The damping-basis route diagonalizes the Liouvillian once: right
eigenoperators rho_k with L rho_k = lambda_k rho_k, left eigenoperators
rho_check_k with rho_check_k L = lambda_k rho_check_k, normalized so that
Tr{rho_check_k rho_j} = delta_kj.  Any initial state then evolves in
closed form,

    rho(t) = sum_k  Tr{rho_check_k rho(0)}  exp(lambda_k t)  rho_k.

The left family is obtained as the matrix inverse of the right eigenvector
matrix, which *is* the biorthonormal dual basis whenever the Liouvillian
is diagonalizable; degenerate eigenvalues need no special casing, while a
defective matrix surfaces as a residual failure and raises with the
offending eigenvalue cluster named.

The fixed-step RK4 integrator is an independent verification path: it
never touches the eigendecomposition, so agreement between the two
solvers checks both.

The steady state needs only the kernel, so it never diagonalizes the
whole Liouvillian: the generator splits into decoupled blocks (the
connected components of its nonzero pattern; for the Jaynes-Cummings
generators, the sectors of fixed excitation difference N_row - N_col),
and the kernel is found block by block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .generators import Superoperator, unvec, vec
from .hilbert import DensityMatrix, defect_message, density_diagnostics


class DampingBasisError(RuntimeError):
    """Liouvillian is defective or near-defective at working precision."""


class KernelMultiplicityError(RuntimeError):
    """The Liouvillian kernel is not one-dimensional."""


class StepSizeError(ValueError):
    """RK4 step too large for the generator's frequency scale."""


@dataclass(frozen=True)
class DampingMode:
    """One spectral mode of the Liouvillian: eigenvalue plus left/right pair."""

    eigenvalue: complex
    right: np.ndarray
    left: np.ndarray


@dataclass
class TimeSeries:
    """Sampled trajectory: time grid, density matrices, named observables."""

    times: np.ndarray
    states: np.ndarray  # (n_times, dim, dim)
    observables: dict[str, np.ndarray] = field(default_factory=dict)

    def validate_states(self, tol: float = 1e-8) -> "TimeSeries":
        """Check every stored state against the density-matrix invariants."""
        trace_defect, herm_defect, min_eig = density_diagnostics(self.states)
        bad = np.flatnonzero((herm_defect > tol) | (trace_defect > tol) | (min_eig < -tol))
        if bad.size:
            k = bad[0]
            message = defect_message(trace_defect[k], herm_defect[k], min_eig[k], tol, tol, tol)
            raise ValueError(f"sample {k} (t = {self.times[k]:.6g}): {message}")
        return self


def _tie_ranks(values: np.ndarray, tol: float) -> np.ndarray:
    """Rank of each real value; sorted neighbours no more than ``tol`` apart share a rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=int)
    ranks[order] = np.concatenate([[0], np.cumsum(np.diff(values[order]) > tol)])
    return ranks


def _format_clusters(values: np.ndarray, cluster_tol: float = 1e-8) -> str:
    cells = np.column_stack([_tie_ranks(values.real, cluster_tol),
                             _tie_ranks(values.imag, cluster_tol)])
    _, first, counts = np.unique(cells, axis=0, return_index=True, return_counts=True)
    clusters = [f"{values[k]:.6g} (x{n})" for k, n in zip(first, counts) if n > 1]
    return ", ".join(clusters) if clusters else "none"


def damping_basis(liouvillian: Superoperator, residual_tol: float = 1e-10) -> list[DampingMode]:
    """Full biorthonormal eigensystem of the Liouvillian.

    Modes are sorted by (Re lambda descending, Im lambda ascending), real
    parts within 1e-9 * max(1, max|lambda|) counting as tied.  The
    stationary right eigenoperators are normalized to unit trace (which
    pins their left partners to the identity), decaying ones to unit
    Frobenius norm with a deterministic phase.
    """
    mat = liouvillian.matrix
    dim = liouvillian.dim
    vals, right = np.linalg.eig(mat)

    for k in range(vals.size):
        col = right[:, k]
        tr = np.trace(unvec(col, dim))
        if abs(vals[k]) < 1e-10 and abs(tr) > 1e-8:
            right[:, k] = col / tr
        else:
            col = col / np.linalg.norm(col)
            pivot = col[np.argmax(np.abs(col))]
            right[:, k] = col * (abs(pivot) / pivot)

    scale = max(1.0, float(np.abs(vals).max()))
    try:
        left = np.linalg.inv(right)
    except np.linalg.LinAlgError as exc:
        raise DampingBasisError(
            "right eigenoperators are linearly dependent; eigenvalue clusters: "
            + _format_clusters(vals)
        ) from exc

    right_res = np.abs(mat @ right - right * vals[None, :]).max()
    left_res = np.abs(left @ mat - vals[:, None] * left).max()
    if max(right_res, left_res) > residual_tol * scale:
        raise DampingBasisError(
            f"left/right pairing failed (residuals {right_res:.3e}/{left_res:.3e}, "
            f"eigenvector matrix cond(R) = {np.linalg.cond(right):.3e}); "
            "near-defective eigenvalue clusters: " + _format_clusters(vals)
        )

    order = np.lexsort((vals.imag, _tie_ranks(-vals.real, 1e-9 * scale)))
    return [
        DampingMode(complex(vals[k]), unvec(right[:, k], dim), unvec(left[k, :], dim).T)
        for k in order
    ]


def _mode_matrices(modes: list[DampingMode]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lam = np.array([m.eigenvalue for m in modes])
    rmat = np.column_stack([vec(m.right) for m in modes])
    lmat = np.vstack([vec(m.left.T) for m in modes])
    return lam, rmat, lmat


def expansion_coefficients(modes: list[DampingMode], rho0: np.ndarray) -> np.ndarray:
    """c_k = Tr{rho_check_k rho0} for each damping mode."""
    _, _, lmat = _mode_matrices(modes)
    return lmat @ vec(rho0)


def evolve_spectral(
    liouvillian: Superoperator,
    rho0: DensityMatrix,
    times: np.ndarray,
    validate: bool = True,
) -> TimeSeries:
    """Closed-form trajectory from the damping-basis expansion."""
    times = np.asarray(times, dtype=float)
    modes = damping_basis(liouvillian)
    lam, rmat, lmat = _mode_matrices(modes)
    coeff = lmat @ vec(rho0.matrix)

    recon = unvec(rmat @ coeff, liouvillian.dim)
    recon_err = np.abs(recon - rho0.matrix).max()
    if recon_err > 1e-10:
        raise DampingBasisError(f"initial-state reconstruction error {recon_err:.3e}")

    propagated = rmat @ (coeff[:, None] * np.exp(np.outer(lam, times)))
    states = propagated.T.reshape(len(times), liouvillian.dim, liouvillian.dim)
    states = np.transpose(states, (0, 2, 1))  # undo row-major reshape: vec is column-major
    series = TimeSeries(times, states)
    return series.validate_states() if validate else series


def _rk4_segment(mat: np.ndarray, v: np.ndarray, span: float, max_step: float) -> np.ndarray:
    n_sub = max(1, int(np.ceil(span / max_step - 1e-12)))
    h = span / n_sub
    for _ in range(n_sub):
        k1 = mat @ v
        k2 = mat @ (v + 0.5 * h * k1)
        k3 = mat @ (v + 0.5 * h * k2)
        k4 = mat @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v


def evolve_ode(
    liouvillian: Superoperator,
    rho0: DensityMatrix,
    times: np.ndarray,
    dt: float,
    validate: bool = True,
) -> TimeSeries:
    """Fixed-step 4th-order Runge-Kutta trajectory sampled on ``times``.

    Each grid interval is covered with uniform substeps no longer than
    ``dt``, so a uniform grid is integrated with one global step size.
    ``dt`` must resolve the fastest scale of the generator:
    dt <= 0.01 / max|diag L|, the diagonal carrying every Bohr frequency
    and decay rate.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0 or np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be a nonempty strictly increasing grid with t >= 0")
    mat = liouvillian.matrix
    scale = float(np.abs(np.diag(mat)).max())
    limit = 0.01 / max(scale, 1e-300)
    if dt > limit:
        raise StepSizeError(f"dt = {dt:.3e} exceeds 0.01/max|diag L| = {limit:.3e}")

    dim = liouvillian.dim
    states = np.empty((times.size, dim, dim), dtype=complex)
    v = vec(rho0.matrix)
    t_prev = 0.0
    for k, t in enumerate(times):
        if t > t_prev:
            v = _rk4_segment(mat, v, t - t_prev, dt)
            t_prev = t
        states[k] = unvec(v, dim)

    drift = abs(np.trace(states[-1]) - np.trace(rho0.matrix))
    if drift > 1e-10:
        raise RuntimeError(f"RK4 trace drift {drift:.3e} exceeds 1e-10")
    series = TimeSeries(times, states)
    return series.validate_states() if validate else series


def dominant_frequency(liouvillian: Superoperator, rho0: DensityMatrix) -> float:
    """Strongest excited oscillation frequency, read off the spectrum.

    Expands the initial state in the damping basis and returns Im(lambda)
    of the positive-frequency mode with the largest coefficient magnitude,
    0.0 when no oscillating mode is excited.  This is a spectral
    statement about the generator, not a fit to any sampled curve.
    """
    modes = damping_basis(liouvillian)
    coeff = expansion_coefficients(modes, rho0.matrix)
    c_scale = float(np.abs(coeff).max())
    freqs = np.array([m.eigenvalue.imag for m in modes])
    floor = 1e-9 * max(1.0, float(np.abs(freqs).max()))
    best_freq, best_weight = 0.0, 0.0
    for mode, c in zip(modes, coeff):
        if mode.eigenvalue.imag > floor and abs(c) > max(1e-8 * c_scale, best_weight):
            best_freq, best_weight = mode.eigenvalue.imag, abs(c)
    return best_freq


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


def steady_state(liouvillian: Superoperator, kernel_tol: float = 1e-10) -> DensityMatrix:
    """Unique stationary density matrix of an ergodic generator.

    The kernel is found block by block over the decoupled blocks of the
    Liouvillian; its element, taken from the one block that holds it, is
    hermitized and normalized to unit trace.  A kernel of any other
    dimension raises :class:`KernelMultiplicityError`.
    """
    mat = liouvillian.matrix
    blocks = _coupled_blocks(mat)
    block_vals = [np.linalg.eigvals(mat[np.ix_(b, b)]) for b in blocks]
    vals = np.concatenate(block_vals)
    null = np.where(np.abs(vals) < kernel_tol)[0]
    if null.size != 1:
        raise KernelMultiplicityError(
            f"kernel dimension {null.size} at tolerance {kernel_tol:.1e}; "
            f"smallest |eigenvalues|: {np.sort(np.abs(vals))[:4]}"
        )
    block = next(b for b, v in zip(blocks, block_vals) if np.abs(v).min() < kernel_tol)
    sub_vals, sub_vecs = np.linalg.eig(mat[np.ix_(block, block)])
    kernel = np.zeros(mat.shape[0], dtype=complex)
    kernel[block] = sub_vecs[:, np.argmin(np.abs(sub_vals))]
    rho = unvec(kernel, liouvillian.dim)
    rho = (rho + rho.conj().T) / 2.0
    trace = np.trace(rho)
    if abs(trace) < 1e-12:
        raise KernelMultiplicityError("kernel element is traceless; no stationary state")
    return DensityMatrix(rho / trace).validate()
