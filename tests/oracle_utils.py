"""Independent oracle implementations used only by the tests.

These deliberately avoid the package's code paths: extended-precision
barycentric evaluation in longdouble, brute-force nearest-point selection,
zoom grid search and plain cyclic coordinate descent for penalized
objectives, and mpmath-based spectra.
"""

import numpy as np


def barycentric_oracle(xs, ys, grid):
    """Barycentric Lagrange evaluation carried out in extended precision."""
    xs = np.asarray(xs, dtype=np.longdouble)
    ys = np.asarray(ys, dtype=np.longdouble)
    grid = np.asarray(grid, dtype=np.longdouble)
    n = len(xs)
    w = np.ones(n, dtype=np.longdouble)
    cap = (xs[-1] - xs[0]) / 4
    for j in range(n):
        for k in range(n):
            if k != j:
                w[j] /= (xs[j] - xs[k]) / cap
    out = np.empty(len(grid), dtype=np.longdouble)
    for i, x in enumerate(grid):
        diff = x - xs
        hit = np.nonzero(diff == 0)[0]
        if len(hit):
            out[i] = ys[hit[0]]
            continue
        t = w / diff
        out[i] = (t @ ys) / t.sum()
    return out


def runge_ld(x):
    x = np.asarray(x, dtype=np.longdouble)
    return 1 / (1 + 25 * x * x)


def equispaced_interp_max_error(n, grid_size=1001):
    """Sup error of equispaced Runge interpolation, fully in the oracle path."""
    xs = np.linspace(-1, 1, n).astype(np.longdouble)
    grid = np.linspace(-1, 1, grid_size).astype(np.longdouble)
    vals = barycentric_oracle(xs, runge_ld(xs), grid)
    return float(np.max(np.abs(vals - runge_ld(grid))))


def brute_force_nearest_subset(source_xs, targets):
    """Exhaustive nearest-point selection with smaller-x tie break."""
    picked = set()
    for t in targets:
        best_i, best_d = 0, abs(source_xs[0] - t)
        for i, x in enumerate(source_xs):
            d = abs(x - t)
            if d < best_d:
                best_i, best_d = i, d
        picked.add(best_i)
    return sorted(picked)


def elastic_net_objective_oracle(A, y, w, alpha, rho):
    r = y - A @ w
    return (
        0.5 / len(y) * float(r @ r)
        + alpha * rho * float(np.sum(np.abs(w)))
        + 0.5 * alpha * (1 - rho) * float(w @ w)
    )


def grid_search_elastic_net(A, y, alpha, rho, span=2.0, levels=6, points=21):
    """Zoom grid search over the coefficient space (small systems only)."""
    p = A.shape[1]
    center = np.zeros(p)
    half = span
    best_w, best_obj = center, elastic_net_objective_oracle(A, y, center, alpha, rho)
    for _ in range(levels):
        axes = [np.linspace(center[j] - half, center[j] + half, points) for j in range(p)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p)
        residuals = y[None, :] - mesh @ A.T
        objs = (
            0.5 / len(y) * np.einsum("ij,ij->i", residuals, residuals)
            + alpha * rho * np.sum(np.abs(mesh), axis=1)
            + 0.5 * alpha * (1 - rho) * np.einsum("ij,ij->i", mesh, mesh)
        )
        k = int(np.argmin(objs))
        if objs[k] < best_obj:
            best_obj, best_w = float(objs[k]), mesh[k]
        center = mesh[k]
        half = 2 * half / (points - 1)  # keep one old cell on each side
    return best_w, best_obj


def cyclic_cd_elastic_net(A, y, alpha, rho, tol=1e-8, max_iter=100_000):
    """Plain residual-form cyclic coordinate descent on the elastic-net
    objective: one soft-threshold update per coordinate against the full
    residual, stopping once a sweep's largest coordinate change is below tol.
    Returns the coefficients and their objective."""
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    n_obs, p = A.shape
    z = np.einsum("ij,ij->j", A, A) / n_obs
    lam1, lam2 = alpha * rho, alpha * (1 - rho)
    w = np.zeros(p)
    r = y.copy()
    for _ in range(max_iter):
        max_delta = 0.0
        for j in range(p):
            if z[j] + lam2 == 0.0:
                continue
            rho_j = (A[:, j] @ r) / n_obs + z[j] * w[j]
            wj_new = np.sign(rho_j) * max(abs(rho_j) - lam1, 0.0) / (z[j] + lam2)
            delta = wj_new - w[j]
            if delta != 0.0:
                r -= delta * A[:, j]
                w[j] = wj_new
                max_delta = max(max_delta, abs(delta))
        if max_delta < tol:
            break
    return w, elastic_net_objective_oracle(A, y, w, alpha, rho)


def mpmath_condition_number(A, dps=50):
    """Condition number via mpmath's extended-precision SVD."""
    import mpmath

    with mpmath.workdps(dps):
        M = mpmath.matrix([[mpmath.mpf(v) for v in row] for row in np.asarray(A)])
        s = mpmath.svd_r(M, compute_uv=False)
        vals = sorted((abs(s[i]) for i in range(len(s))), reverse=True)
        return float(vals[0] / vals[-1])
