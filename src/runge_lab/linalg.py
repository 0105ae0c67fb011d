"""Dense linear algebra for design systems: least squares (which also solves a
quadratic penalty stacked as extra rows), SVD with relative truncation, Thomas
tridiagonal solve, coordinate descent for L1/elastic-net.

Least squares refuses a system with a non-finite entry, then takes one of two
paths. A system whose singular values show it is full rank is solved by one
LAPACK call. Any other (fewer rows than columns, rank in doubt) goes to a
Householder QR with column pivoting, written in Python, which drops the
trailing pivot columns beyond its numerical rank and so returns the basic
solution."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Basis, NodeSet


class NumericError(RuntimeError):
    """Numerical failure: singular system, non-convergence, full truncation."""


def design_matrix(nodes: NodeSet, degree: int, basis: Basis = Basis.MONOMIAL) -> np.ndarray:
    """(len(nodes)) x (degree+1) matrix; column j holds basis_j at each node's
    unit coordinate t = nodes.interval.to_unit(x)."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return basis.vander(nodes.interval.to_unit(nodes.xs), degree)


def lstsq(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares solution of A c = y, by one of two paths.

    A or y holding NaN or ±inf raises ``ValueError``: either path would
    return all-NaN coefficients without a signal.

    Full rank: a system with at least as many rows as columns is first
    solved by LAPACK (``np.linalg.lstsq``, an SVD-based solve). With
    tol = max(m, n)·eps, its solution is returned when the singular values
    pass sigma_min > tol·sigma_max. That test also certifies full rank for
    the pivoted QR below, because pivoted QR has |r_11| <= sigma_max and
    |r_kk| >= |r_nn| >= sigma_min; both then give the unique least-squares
    solution, up to rounding (Golub & Van Loan, Matrix Computations,
    sec. 5.4-5.5).

    Rank in doubt: every other system (fewer rows than columns, a failed
    sigma test, or an SVD that does not converge) goes to
    :func:`_pivoted_qr_lstsq`. There rank is decided on the diagonal of
    R with the same tol, and the trailing pivot columns beyond it get zero
    coefficients: the basic solution, not the minimum-norm one LAPACK
    would give, so a rank-deficient fit keeps the coefficients it always had.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(A).all() and np.isfinite(y).all()):
        raise ValueError("least-squares system must be finite")
    if A.ndim == 2 and y.shape == A.shape[:1] and 0 < A.shape[1] <= A.shape[0]:
        tol = max(A.shape) * np.finfo(float).eps
        try:
            c, _, _, s = np.linalg.lstsq(A, y, rcond=tol)
        except np.linalg.LinAlgError:
            pass  # the pivoted QR decides
        else:
            if s[-1] > tol * s[0]:
                return c
    return _pivoted_qr_lstsq(A, y)


def _pivoted_qr_lstsq(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares via Householder QR with column pivoting.

    Rank-deficient trailing pivot columns get zero coefficients.
    """
    if A.ndim != 2 or A.size == 0:
        raise ValueError("A must be a non-empty 2-D matrix")
    m, n = A.shape
    if len(y) != m:
        raise ValueError("rhs length must match row count")

    R = A.copy()
    b = y.copy()
    perm = np.arange(n)
    steps = min(m, n)
    for k in range(steps):
        norms = np.linalg.norm(R[k:, k:], axis=0)
        p = k + int(np.argmax(norms))
        if p != k:
            R[:, [k, p]] = R[:, [p, k]]
            perm[[k, p]] = perm[[p, k]]
        x = R[k:, k]
        alpha = -np.copysign(np.linalg.norm(x), x[0] if x[0] != 0 else 1.0)
        if alpha == 0.0:
            continue
        v = x.copy()
        v[0] -= alpha
        vnorm2 = v @ v
        if vnorm2 == 0.0:
            continue
        R[k:, k:] -= np.outer(v, (2.0 / vnorm2) * (v @ R[k:, k:]))
        b[k:] -= (2.0 * (v @ b[k:]) / vnorm2) * v
        R[k + 1:, k] = 0.0
        R[k, k] = alpha

    diag = np.abs(np.diag(R[:steps, :steps]))
    rank = steps
    if diag[0] == 0.0:
        rank = 0
    else:
        tol = max(m, n) * np.finfo(float).eps * diag[0]
        small = np.nonzero(diag <= tol)[0]
        if len(small):
            rank = int(small[0])

    c = np.zeros(n)
    if rank > 0:
        c[:rank] = np.linalg.solve(np.triu(R[:rank, :rank]), b[:rank])
    out = np.zeros(n)
    out[perm] = c
    return out


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
    try:
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge on {A.shape} matrix: {exc}") from exc
    return SvdFactors(U=U, singular_values=s, Vt=Vt)


def truncated_pinv_solve(A: np.ndarray, y: np.ndarray, threshold: float) -> tuple[np.ndarray, int]:
    """Pseudo-inverse solve keeping singular values with sigma/sigma_max >= threshold.

    Returns the coefficient vector and the kept rank.
    """
    if not threshold >= 0:
        raise ValueError("threshold must be >= 0")
    y = np.asarray(y, dtype=float)
    f = svd(A)
    if len(y) != f.U.shape[0]:
        raise ValueError("rhs length must match row count")
    s = f.singular_values
    keep = (s > 0) & (s >= threshold * float(s[0]))  # inf * 0.0 is NaN, without numpy's warning
    kept_rank = int(np.count_nonzero(keep))
    if kept_rank == 0:
        raise NumericError("fully truncated: no singular values survive the threshold")
    coeffs = f.Vt[keep].T @ ((f.U[:, keep].T @ y) / s[keep])
    return coeffs, kept_rank


def solve_tridiagonal(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Thomas algorithm for a tridiagonal system. Both recurrences run on
    Python floats, which round exactly as float64 scalars do, without the
    cost of indexing numpy scalars."""
    sub, diag, sup, rhs = (np.asarray(v, dtype=float) for v in (sub, diag, sup, rhs))
    n = len(diag)
    if len(rhs) != n or len(sub) != n - 1 or len(sup) != n - 1:
        raise ValueError("band lengths inconsistent with system size")
    sub, diag, sup, rhs = sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist()
    c = [0.0] * (n - 1)
    d = [0.0] * n
    piv = diag[0]
    if piv == 0.0:
        raise NumericError("zero pivot in tridiagonal solve at row 0")
    if n > 1:
        c[0] = sup[0] / piv
    d[0] = rhs[0] / piv
    for i in range(1, n):
        piv = diag[i] - sub[i - 1] * c[i - 1]
        if piv == 0.0:
            raise NumericError(f"zero pivot in tridiagonal solve at row {i}")
        if i < n - 1:
            c[i] = sup[i] / piv
        d[i] = (rhs[i] - sub[i - 1] * d[i - 1]) / piv
    x = d
    for i in range(n - 2, -1, -1):
        x[i] -= c[i] * x[i + 1]
    return np.array(x)


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
    is the largest subgradient violation at the returned coefficients.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 2 or A.shape[0] != len(y) or A.shape[0] < 1:
        raise ValueError("A rows must match rhs length")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    if not alpha >= 0:
        raise ValueError("alpha must be >= 0")
    n_obs, p = A.shape
    G = A.T @ A / n_obs
    c = A.T @ y / n_obs
    lam1 = alpha * rho
    lam2 = alpha * (1.0 - rho)
    z = G.diagonal() + lam2
    w = np.zeros(p)
    q = np.zeros(p)  # G w
    objectives = [elastic_net_objective(A, y, w, alpha, rho)]
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
