"""Independent oracle implementations used only by the tests.

These deliberately avoid the package's code paths: extended-precision
barycentric evaluation in longdouble, brute-force nearest-point selection,
zoom grid search and plain cyclic coordinate descent for penalized
objectives, mpmath-based spectra, and the Gram-form coordinate descent on
numpy scalars that the package's Python-float sweeps must match bit for bit.
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


def numpy_scalar_elastic_net_cd(A, y, alpha, rho, tol=1e-8, max_iter=100_000):
    """The Gram-form coordinate descent of ``linalg.elastic_net_cd`` as it ran
    before its sweeps moved to Python floats: every coordinate update indexes
    numpy arrays and rounds on numpy float64 scalars, and q = G w is updated
    by one array expression. Its objective and confirmed-support polish are
    kept as they were then too. Only the input check is the package's.
    Returns a ``linalg.CdResult``."""
    from runge_lab.linalg import CdResult, _system

    A, y = _system(A, y)
    n_obs, p = A.shape
    w = np.zeros(p)
    with np.errstate(over="ignore", invalid="ignore"):
        G = A.T @ A / n_obs
        c = A.T @ y / n_obs
        start = _numpy_scalar_objective(A, y, w, alpha, rho)
    lam1 = alpha * rho
    lam2 = alpha * (1.0 - rho)
    z = G.diagonal() + lam2
    q = np.zeros(p)
    objectives = [start]
    converged = False
    sweeps = 0
    signs = None
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
        objectives.append(_numpy_scalar_objective(A, y, w, alpha, rho))
        if max_delta < tol:
            converged = True
            break
        pattern = np.sign(w)
        confirmed = signs is not None and np.array_equal(signs, pattern)
        signs = pattern
        if confirmed and sweeps < max_iter:
            polished = _numpy_scalar_polish(A, y, G, c, w, alpha, rho, objectives)
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


def _numpy_scalar_objective(A, y, w, alpha, rho):
    r = y - A @ w
    n = len(y)
    return float(
        0.5 / n * (r @ r)
        + alpha * rho * np.sum(np.abs(w))
        + 0.5 * alpha * (1.0 - rho) * (w @ w)
    )


def _numpy_scalar_polish(A, y, G, c, w, alpha, rho, objectives):
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
        f = _numpy_scalar_objective(A, y, trial, alpha, rho)
        if not f <= objectives[-1]:
            return w
        objectives.append(f)
        w = trial
        if not crossed.size:
            return w
        keep = np.flatnonzero(w[support])
        support, system = support[keep], system[np.ix_(keep, keep)]
    return w
