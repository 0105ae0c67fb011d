"""Dense linear algebra for design systems: least squares (which also solves a
quadratic penalty stacked as extra rows), SVD with relative truncation, Thomas
tridiagonal solve, coordinate descent for L1/elastic-net.

Least squares refuses a system with a non-finite entry, then makes one LAPACK
solve on one of two column sets: every column when the singular values show
full rank, else the basic columns that QR with column pivoting would keep, so
a rank-deficient or wide system returns its basic solution."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Basis, NodeSet, NumericError


def design_matrix(nodes: NodeSet, degree: int, basis: Basis = Basis.MONOMIAL) -> np.ndarray:
    """(len(nodes)) x (degree+1) matrix; column j holds basis_j at each node's
    unit coordinate t = nodes.interval.to_unit(x)."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return basis.vander(nodes.interval.to_unit(nodes.xs), degree)


def _system(A: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A and y as float arrays, checked to form a finite system: a non-empty
    2-D matrix and one rhs entry per row."""
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("A must be a non-empty 2-D matrix")
    if y.shape != A.shape[:1]:
        raise ValueError("rhs length must match row count")
    if not (np.isfinite(A).all() and np.isfinite(y).all()):
        raise ValueError("least-squares system must be finite")
    return A, y


def lstsq(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares solution of A c = y by one LAPACK solve (``np.linalg.lstsq``).

    NaN or ±inf in A or y raises ``ValueError``; the solve would return NaN
    coefficients without a signal. With tol = max(m, n)·eps, a system of m >= n
    rows whose singular values pass sigma_min > tol·sigma_max is full rank and
    keeps all its columns. Any other (wide, rank in doubt, or an SVD that does
    not converge) is solved on the columns :func:`_basic_columns` picks, with
    zeros for the rest: the basic solution, not LAPACK's minimum-norm one
    (Golub & Van Loan, Matrix Computations, sec. 5.4-5.5). A kept-column solve
    that does not converge raises :class:`NumericError`.
    """
    A, y = _system(A, y)
    m, n = A.shape
    tol = max(m, n) * np.finfo(float).eps
    if m >= n:
        try:
            c, _, _, s = np.linalg.lstsq(A, y, rcond=tol)
        except np.linalg.LinAlgError:
            pass  # the basic columns decide
        else:
            if s[-1] > tol * s[0]:
                return c
    keep = _basic_columns(A, tol)
    c = np.zeros(n)
    if keep.size:
        try:
            c[keep] = np.linalg.lstsq(A[:, keep], y, rcond=tol)[0]
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"least squares on {keep.size} of {n} columns failed: {exc}") from exc
    return c


def _basic_columns(A: np.ndarray, tol: float) -> np.ndarray:
    """Sorted indices of the columns QR with column pivoting keeps. Each step
    takes the column whose residual, its part orthogonal to the columns taken
    so far, has the largest norm (the lowest index on a tie), and removes one
    re-orthogonalized Gram-Schmidt direction from every residual. It stops at
    the first largest residual norm <= tol times the largest column norm."""
    m, n = A.shape
    R = A.copy()
    norms = np.linalg.norm(R, axis=0)
    cut = tol * norms.max()
    Q = np.empty((m, min(m, n)))
    kept = []
    for k in range(min(m, n)):
        p = int(np.argmax(norms))
        if not norms[p] > cut:
            break
        q = R[:, p] / norms[p]
        q -= Q[:, :k] @ (Q[:, :k].T @ q)
        Q[:, k] = q / np.linalg.norm(q)
        R -= np.outer(Q[:, k], Q[:, k] @ R)
        R[:, p] = 0.0
        kept.append(p)
        norms = np.linalg.norm(R, axis=0)
    return np.sort(np.array(kept, dtype=int))


@dataclass(frozen=True)
class SvdFactors:
    U: np.ndarray
    singular_values: np.ndarray
    Vt: np.ndarray


def svd(A: np.ndarray) -> SvdFactors:
    """Thin SVD, singular values sorted non-increasing."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or min(A.shape) < 1:
        raise ValueError("A must be a non-empty 2-D matrix")
    if not np.isfinite(A).all():
        raise ValueError("matrix must be finite")
    try:
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge on {A.shape} matrix: {exc}") from exc
    return SvdFactors(U=U, singular_values=s, Vt=Vt)


def truncated_pinv_solve(A: np.ndarray, y: np.ndarray, threshold: float) -> tuple[np.ndarray, int]:
    """Pseudo-inverse solve keeping singular values with sigma/sigma_max >= threshold.

    Returns the coefficient vector and the kept rank. The system is checked as
    :func:`lstsq` checks it, before the SVD.
    """
    if not threshold >= 0:
        raise ValueError("threshold must be >= 0")
    A, y = _system(A, y)
    f = svd(A)
    s = f.singular_values
    keep = (s > 0) & (s >= threshold * float(s[0]))  # inf * 0.0 is NaN, without numpy's warning
    kept_rank = int(np.count_nonzero(keep))
    if kept_rank == 0:
        raise NumericError("fully truncated: no singular values survive the threshold")
    coeffs = f.Vt[keep].T @ ((f.U[:, keep].T @ y) / s[keep])
    return coeffs, kept_rank


def solve_tridiagonal(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Thomas algorithm for a tridiagonal system; a non-finite band entry raises
    ValueError, where the solve would return NaN without a signal. Both
    recurrences run on Python floats, which round exactly as float64 scalars
    do, without the cost of indexing numpy scalars. ``sub`` gets a leading and
    ``sup`` a trailing 0.0, so row 0 takes the loop's step too: c[-1] and
    d[-1] are still 0.0 there, and subtracting 0.0 * 0.0 is exact."""
    sub, diag, sup, rhs = (np.asarray(v, dtype=float) for v in (sub, diag, sup, rhs))
    n = len(diag)
    if len(rhs) != n or len(sub) != n - 1 or len(sup) != n - 1:
        raise ValueError("band lengths inconsistent with system size")
    if not all(np.isfinite(v).all() for v in (sub, diag, sup, rhs)):
        raise ValueError("tridiagonal system must be finite")
    sub, diag, sup, rhs = [0.0, *sub.tolist()], diag.tolist(), [*sup.tolist(), 0.0], rhs.tolist()
    c = [0.0] * n
    d = [0.0] * n
    for i in range(n):
        piv = diag[i] - sub[i] * c[i - 1]
        if piv == 0.0:
            raise NumericError(f"zero pivot in tridiagonal solve at row {i}")
        c[i] = sup[i] / piv
        d[i] = (rhs[i] - sub[i] * d[i - 1]) / piv
    for i in range(n - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return np.array(d)


# coordinate descent stops once a full sweep moves no coordinate by CD_TOL, or after CD_MAX_ITER sweeps
CD_TOL = 1e-8
CD_MAX_ITER = 100_000


@dataclass(frozen=True)
class CdResult:
    coeffs: np.ndarray
    converged: bool
    n_sweeps: int
    kkt_residual: float  # largest subgradient violation at coeffs
    objectives: np.ndarray = field(repr=False)


def elastic_net_objective(A: np.ndarray, y: np.ndarray, w: np.ndarray, alpha: float, rho: float) -> float:
    r = y - A @ w
    n = len(y)
    return float(
        0.5 / n * (r @ r)
        + alpha * rho * np.sum(np.abs(w))
        + 0.5 * alpha * (1.0 - rho) * (w @ w)
    )


def elastic_net_cd(
    A: np.ndarray,
    y: np.ndarray,
    alpha: float,
    rho: float,
    tol: float = CD_TOL,
    max_iter: int = CD_MAX_ITER,
) -> CdResult:
    """Cyclic coordinate descent on
    (1/2N)||y - Aw||^2 + alpha*rho*||w||_1 + alpha*(1-rho)/2*||w||_2^2.

    Gram form (Friedman, Hastie & Tibshirani 2010, J. Stat. Softw. 33(1),
    sec. 2.2): with G = A^T A / N, c = A^T y / N and q = G w kept current, a
    soft-threshold coordinate update costs O(p) and never touches the N rows.

    Confirmed-support polish (after Osborne, Presnell & Turlach 2000, IMA J.
    Numer. Anal. 20(3)): once a full sweep leaves the support and signs of w
    exactly as the previous full sweep left them, solve the problem on that
    support exactly and step toward the solution, dropping a coordinate at
    each sign crossing (see _polish_support). Every step is taken only if the
    objective does not rise, so ``objectives`` never increases; it gains one
    entry per full sweep and one per polish step. A polish counts as one
    sweep against max_iter.

    Stops once the largest coordinate change in a full sweep drops below tol.
    Non-convergence is reported in the result, not raised; ``kkt_residual``
    is the largest subgradient violation at the returned coefficients. The
    system is checked as :func:`lstsq` checks it; a finite system whose Gram
    form G or c, or whose objective at w = 0, overflows raises
    :class:`NumericError`.
    """
    A, y = _system(A, y)
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    if not 0 <= alpha < np.inf:
        raise ValueError("alpha must be finite and >= 0")
    n_obs, p = A.shape
    w = np.zeros(p)
    with np.errstate(over="ignore", invalid="ignore"):
        G = A.T @ A / n_obs
        c = A.T @ y / n_obs
        start = elastic_net_objective(A, y, w, alpha, rho)  # ||y||^2 / 2N
    if not (np.isfinite(G).all() and np.isfinite(c).all()):
        raise NumericError("Gram form of the elastic-net system overflows")
    if not np.isfinite(start):
        raise NumericError("objective of the elastic-net system overflows at w = 0")
    lam1 = alpha * rho
    lam2 = alpha * (1.0 - rho)
    z = G.diagonal() + lam2
    q = np.zeros(p)  # G w
    objectives = [start]
    converged = False
    sweeps = 0
    signs = None  # sign pattern of w after the previous full sweep
    while sweeps < max_iter:
        sweeps += 1
        max_delta = 0.0
        for j in range(p):
            if z[j] == 0.0:
                continue
            rho_j = c[j] - q[j] + G[j, j] * w[j]
            wj_new = np.sign(rho_j) * max(abs(rho_j) - lam1, 0.0) / z[j]
            delta = wj_new - w[j]
            if delta != 0.0:
                q += delta * G[:, j]
                w[j] = wj_new
                max_delta = max(max_delta, abs(delta))
        objectives.append(elastic_net_objective(A, y, w, alpha, rho))
        if max_delta < tol:
            converged = True
            break
        pattern = np.sign(w)
        confirmed = signs is not None and np.array_equal(signs, pattern)
        signs = pattern
        if confirmed and sweeps < max_iter:
            polished = _polish_support(A, y, G, c, w, alpha, rho, objectives)
            if polished is not None:
                sweeps += 1
                w, q = polished, G @ polished
    g = c - G @ w
    violation = np.where(
        w != 0.0, np.abs(g - lam2 * w - lam1 * np.sign(w)), np.maximum(np.abs(g) - lam1, 0.0)
    )
    return CdResult(
        coeffs=w,
        converged=converged,
        n_sweeps=sweeps,
        kkt_residual=float(np.max(violation, initial=0.0)),
        objectives=np.asarray(objectives),
    )


def _polish_support(A, y, G, c, w, alpha, rho, objectives):
    """Solve (G_SS + lam2 I) w_S = c_S - lam1 s_S on the support S of w and
    step toward that solution; at the first sign crossing, zero the crossing
    coordinate and repeat on the smaller support. A step is taken, and its
    objective appended, only if the objective does not rise (a non-finite
    step fails that test too).

    Returns the polished w, or None without trying when G_SS + lam2 I is
    numerically singular (condition number at least 1/eps; at lam2 = 0 that
    includes every support wider than the N rows). Its principal submatrices,
    the systems of the smaller supports, are then no worse conditioned.
    """
    lam1, lam2 = alpha * rho, alpha * (1.0 - rho)
    support = np.flatnonzero(w)
    system = G[np.ix_(support, support)] + lam2 * np.eye(support.size)
    try:
        if not np.linalg.cond(system) * np.finfo(float).eps < 1.0:
            return None
    except np.linalg.LinAlgError:
        return None
    while support.size:
        signs = np.sign(w[support])
        target = np.linalg.solve(system, c[support] - lam1 * signs)
        trial = w.copy()
        crossed = np.flatnonzero(np.sign(target) != signs)
        if crossed.size:
            ws = w[support[crossed]]
            k = int(np.argmin(ws / (ws - target[crossed])))
            trial[support] += (ws[k] / (ws[k] - target[crossed[k]])) * (target - w[support])
            trial[support[crossed[k]]] = 0.0
        else:
            trial[support] = target
        f = elastic_net_objective(A, y, trial, alpha, rho)
        if not f <= objectives[-1]:
            return w
        objectives.append(f)
        w = trial
        if not crossed.size:
            return w
        keep = np.flatnonzero(w[support])
        support, system = support[keep], system[np.ix_(keep, keep)]
    return w
