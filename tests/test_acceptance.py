"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Derived comparison quantities are computed through independent oracles
(extended-precision barycentric evaluation, scipy's natural spline, exhaustive
nearest-point search) before being asserted against the package's results.
"""

import time

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from scipy.interpolate import CubicSpline

from oracle_utils import (
    barycentric_oracle,
    brute_force_nearest_subset,
    equispaced_interp_max_error,
    runge_ld,
)
from runge_lab import bench
from runge_lab.core import Basis, Interval, RUNGE, SampleSet, polynomial_target
from runge_lab.interpolants import (
    BandStrategy,
    EfciConfig,
    PenaltyKind,
    TisiConfig,
    constrained_mock_chebyshev_lstsq,
    cubic_spline,
    efci_fit,
    fit_regularized,
    lagrange_interpolate,
    mock_chebyshev_interpolate,
    svd_truncated_fit,
    tikhonov_fit,
    tisi_fit,
)
from runge_lab.linalg import (
    design_matrix,
    elastic_net_cd,
    lstsq,
    svd,
    truncated_pinv_solve,
)
from runge_lab.metrics import error_report
from runge_lab.nodes import chebyshev_lobatto, chebyshev_roots, equispaced, mock_chebyshev_subset

GRID = np.linspace(-1, 1, 1001)

# regression baselines derived in-artifact (degree 12, 11 equispaced samples)
TIKHONOV_MAX_ABS_BASELINE = 0.198967146034562
UNREGULARIZED_MAX_ABS_BASELINE = 2.7216426634596447


def _max_err(approx):
    return float(np.max(np.abs(approx.evaluate(GRID) - RUNGE(GRID))))


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {label} {detail}"


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_criterion_1_runge_divergence():
    with _Timer() as t:
        errs = {
            n: _max_err(lagrange_interpolate(RUNGE.sample(equispaced(n))))
            for n in (5, 10, 15, 20)
        }
        oracle = {n: equispaced_interp_max_error(n) for n in (5, 10, 15, 20)}
    increasing = errs[10] < errs[15] < errs[20]
    factor = errs[20] / errs[10] > 5
    cross = all(abs(errs[n] - oracle[n]) <= 0.01 * oracle[n] for n in errs)
    _report(
        1,
        "equispaced divergence",
        increasing and factor and cross and t.elapsed < 1.0,
        f"errors={ {n: round(e, 4) for n, e in errs.items()} }, runtime={t.elapsed:.2f}s",
    )


def test_criterion_2_chebyshev_mitigation():
    with _Timer() as t:
        cheb = {n: _max_err(lagrange_interpolate(RUNGE.sample(chebyshev_roots(n - 1)))) for n in (5, 10, 15, 20)}
        eq20 = _max_err(lagrange_interpolate(RUNGE.sample(equispaced(20))))
        # oracle cross-check of the n=20 Chebyshev error
        xs = chebyshev_roots(19).xs
        vals = barycentric_oracle(xs, runge_ld(xs), GRID)
        oracle20 = float(np.max(np.abs(vals - runge_ld(GRID))))
    ratio = eq20 / cheb[20]
    vals_dec = cheb[5] > cheb[10] > cheb[15] > cheb[20]
    cross = abs(cheb[20] - oracle20) <= 0.01 * oracle20
    _report(
        2,
        "chebyshev mitigation",
        ratio >= 100 and vals_dec and cross and t.elapsed < 1.0,
        f"ratio={ratio:.0f}, runtime={t.elapsed:.2f}s",
    )


def test_criterion_3_spline_convergence():
    # The natural spline is O(h^4) away from the ends but O(h^2) within a few
    # knots of them, since S''(±1) = 0 while Runge's f''(±1) = 3700/17576.
    # The orders are read from node doubling from 21 nodes on: at 11 nodes
    # h = 0.2 equals the distance of Runge's poles ±i/5 from the real axis.
    interior = np.abs(GRID) <= 0.5
    regions = {"interior": interior, "ends": ~interior}
    sizes = (11, 21, 41, 81, 161)
    with _Timer() as t:
        errs = {"package": [], "scipy": []}
        for n in sizes:
            s = RUNGE.sample(equispaced(n))
            mine = np.abs(cubic_spline(s).evaluate(GRID) - RUNGE(GRID))
            oracle = CubicSpline(s.xs, s.ys, bc_type="natural")
            theirs = np.abs(oracle(GRID) - RUNGE(GRID))
            for name, d in (("package", mine), ("scipy", theirs)):
                errs[name].append({r: float(d[m].max()) for r, m in regions.items()})
            for r in regions:
                assert errs["package"][-1][r] == pytest.approx(errs["scipy"][-1][r], rel=1e-10)
        whole = [max(e.values()) for e in errs["package"]]
        ratios = {
            (source, r): [e[i][r] / e[i + 1][r] for i in range(1, len(sizes) - 1)]
            for source, e in errs.items()
            for r in regions
        }
    decreasing = all(a > b for a, b in zip(whole, whole[1:]))
    bands = {"interior": (8, 32), "ends": (2, 8)}
    in_band = all(bands[r][0] <= q <= bands[r][1] for (_, r), qs in ratios.items() for q in qs)
    _report(
        3,
        "natural spline node-doubling ratios from 21 nodes: "
        "|x|<=0.5 fourth order in [8, 32], |x|>0.5 second order in [2, 8]",
        decreasing and in_band and t.elapsed < 1.0,
        f"interior={[round(q, 2) for q in ratios['package', 'interior']]}, "
        f"ends={[round(q, 2) for q in ratios['package', 'ends']]}, runtime={t.elapsed:.2f}s",
    )


def test_criterion_4_regularization_suite():
    rng = np.random.default_rng(11)
    with _Timer() as t:
        A = design_matrix(equispaced(11), 5, Basis.MONOMIAL)
        y = RUNGE(equispaced(11).xs)
        # (a) alpha=0 coordinate descent matches QR least squares
        cd0 = elastic_net_cd(A, y, alpha=0.0, rho=0.5)
        a_ok = np.allclose(cd0.coeffs, lstsq(A, y), atol=1e-6)
        # (b) lasso all-zero at alpha >= ||A^T y||_inf / N, KKT verified
        alpha0 = float(np.max(np.abs(A.T @ y)) / len(y))
        lres = elastic_net_cd(A, y, alpha=alpha0, rho=1.0)
        kkt = np.all(np.abs(A.T @ y) / len(y) <= alpha0 * (1 + 1e-12))
        b_ok = np.allclose(lres.coeffs, 0.0) and kkt
        # (c) ridge norm non-increasing over increasing alphas
        s = RUNGE.sample(equispaced(11))
        norms = [
            np.linalg.norm(fit_regularized(s, 5, PenaltyKind.RIDGE, alpha=a).coeffs)
            for a in (0.0, 0.01, 0.1, 1.0, 10.0)
        ]
        c_ok = all(nb <= na + 1e-12 for na, nb in zip(norms, norms[1:]))
        # (d) elastic-net objective non-increasing per sweep
        B = rng.normal(size=(40, 8))
        z = rng.normal(size=40)
        res = elastic_net_cd(B, z, alpha=0.03, rho=0.4)
        d_ok = np.all(np.diff(res.objectives) <= 1e-14)
    _report(
        4,
        "regularization suite",
        a_ok and b_ok and c_ok and d_ok and t.elapsed < 5.0,
        f"a={a_ok} b={b_ok} c={c_ok} d={d_ok}, runtime={t.elapsed:.2f}s",
    )


def test_criterion_5_tikhonov():
    with _Timer() as t:
        s = RUNGE.sample(equispaced(11))
        zero_lam = tikhonov_fit(s, 8, 0.0)
        plain = fit_regularized(s, 8, PenaltyKind.NONE)
        zero_ok = np.allclose(zero_lam.coeffs, plain.coeffs, atol=1e-9)
        e_tik = _max_err(tikhonov_fit(s, 12, 0.01))
        e_raw = _max_err(fit_regularized(s, 12, PenaltyKind.NONE))
        frozen_ok = (
            e_tik == pytest.approx(TIKHONOV_MAX_ABS_BASELINE, rel=1e-6)
            and e_raw == pytest.approx(UNREGULARIZED_MAX_ABS_BASELINE, rel=1e-6)
        )
        beat = np.isfinite(e_tik) and e_tik < e_raw
    _report(
        5,
        "tikhonov regularization",
        zero_ok and beat and frozen_ok and t.elapsed < 1.0,
        f"tik={e_tik:.4f} raw={e_raw:.4f}, runtime={t.elapsed:.2f}s",
    )


def test_criterion_6_efci():
    with _Timer() as t:
        s = RUNGE.sample(equispaced(11))
        approx, pos, _ = efci_fit(
            s, RUNGE, EfciConfig(degree=10, m=4, epsilon=0.1, weight=10.0)
        )
        d2 = P.polyder(approx.coeffs, 2)
        curvature_ok = np.all(
            np.abs(P.polyval(pos, d2)) < 1e-3 * np.max(np.abs(P.polyval(GRID, d2)))
        )
        sweep_cfg = EfciConfig(degree=10, epsilon=0.1, search=True, weight=10.0)
        _, pos1, obj1 = efci_fit(s, RUNGE, sweep_cfg)
        _, pos2, obj2 = efci_fit(s, RUNGE, sweep_cfg)
        deterministic = obj1 == obj2 and np.array_equal(pos1, pos2)
        candidates = [
            efci_fit(s, RUNGE, EfciConfig(degree=10, m=m, epsilon=0.1, weight=10.0))[2]
            for m in (2, 4, 6, 8, 10)
        ]
        winner_ok = all(obj1 <= c + 1e-15 for c in candidates)
    _report(
        6,
        "efci curvature and m-sweep",
        bool(curvature_ok) and deterministic and winner_ok and t.elapsed < 2.0,
        f"winner m={len(pos1)}, runtime={t.elapsed:.2f}s",
    )


def test_criterion_7_mock_chebyshev():
    with _Timer() as t:
        src = equispaced(20)
        sel = mock_chebyshev_subset(src, 10)
        oracle_idx = brute_force_nearest_subset(src.xs, chebyshev_lobatto(10).xs)
        idx_ok = list(sel) == oracle_idx
        full = RUNGE.sample(src)
        e_mock = _max_err(mock_chebyshev_interpolate(full, 10))
        e_full = _max_err(lagrange_interpolate(full))
        beat = e_full >= 10 * e_mock
    _report(
        7,
        "mock-chebyshev subset",
        idx_ok and beat and t.elapsed < 1.0,
        f"indices={list(sel)}, ratio={e_full / e_mock:.1f}, runtime={t.elapsed:.2f}s",
    )


def test_criterion_8_constrained_mock_chebyshev():
    rng = np.random.default_rng(5)
    with _Timer() as t:
        ok = True
        for _ in range(20):
            coeffs = rng.uniform(-1, 1, size=rng.integers(2, 7))
            target = polynomial_target(coeffs)
            full = target.sample(equispaced(20))
            fit = constrained_mock_chebyshev_lstsq(full, 10, ls_degree=12)
            idx = list(mock_chebyshev_subset(full.nodes, 10))
            resid = np.max(np.abs(fit.evaluate(full.xs[idx]) - full.ys[idx]))
            mock = mock_chebyshev_interpolate(full, 10)
            ssq_fit = np.sum((fit.evaluate(full.xs) - full.ys) ** 2)
            ssq_mock = np.sum((mock.evaluate(full.xs) - full.ys) ** 2)
            ok &= resid < 1e-9 and ssq_fit <= ssq_mock + 1e-12
    _report(8, "constrained mock-chebyshev least squares", ok and t.elapsed < 2.0,
            f"runtime={t.elapsed:.2f}s")


def test_criterion_9_svd_truncation():
    rng = np.random.default_rng(99)
    with _Timer() as t:
        A = design_matrix(equispaced(11), 10, Basis.MONOMIAL)
        y = RUNGE(equispaced(11).xs)
        ranks = [truncated_pinv_solve(A, y, th)[1] for th in (1e-15, 1e-10, 1e-5, 1e-2)]
        rank_ok = all(rb <= ra for ra, rb in zip(ranks, ranks[1:]))
        B = design_matrix(equispaced(11), 6, Basis.LEGENDRE)
        c0, _ = truncated_pinv_solve(B, y, 0.0)
        zero_ok = np.allclose(c0, lstsq(B, y), atol=1e-8)
        inv_ok = True
        for _ in range(200):
            m, n = rng.integers(1, 31), rng.integers(1, 31)
            M = rng.normal(size=(m, n))
            f = svd(M)
            r = len(f.singular_values)
            inv_ok &= bool(np.all(np.diff(f.singular_values) <= 0))
            inv_ok &= np.allclose(f.U.T @ f.U, np.eye(r), atol=1e-8)
            inv_ok &= np.allclose(f.Vt @ f.Vt.T, np.eye(r), atol=1e-8)
            recon = f.U @ np.diag(f.singular_values) @ f.Vt
            inv_ok &= np.linalg.norm(recon - M) <= 1e-8 * max(np.linalg.norm(M), 1e-30)
    _report(
        9,
        "svd truncation",
        rank_ok and zero_ok and inv_ok and t.elapsed < 5.0,
        f"ranks(1e-15..1e-2)={ranks}, runtime={t.elapsed:.2f}s",
    )


def test_criterion_10_tisi():
    with _Timer() as t:
        approx = tisi_fit(
            RUNGE, Interval(), TisiConfig(center=BandStrategy.LAGRANGE_CHEB, epsilon=0.2, nodes_per_interval=11)
        )
        cont_ok = True
        for i in (1, 2):
            b = approx.breakpoints[i]
            left = approx.pieces[i - 1].evaluate(np.array([b]))[0]
            right = approx.pieces[i].evaluate(np.array([b]))[0]
            cont_ok &= abs(left - right) < 1e-10
        glob = lagrange_interpolate(RUNGE.sample(equispaced(33)))
        beat = _max_err(approx) < _max_err(glob)
    _report(10, "tisi continuity and accuracy", cont_ok and beat and t.elapsed < 1.0,
            f"tisi={_max_err(approx):.4f}, runtime={t.elapsed:.2f}s")


def test_criterion_11_harness_determinism(tmp_path):
    ok = True
    details = []
    for fid in bench.SUPPORTED_FIGURES:
        t0 = time.perf_counter()
        bundle = bench.run_figure(fid)
        csv_path = tmp_path / f"f{fid}.csv"
        bench.emit_csv(bundle, csv_path)
        curves = bench.read_curve_csv(csv_path)
        for written, original in zip(curves, bundle.curves):
            ok &= np.array_equal(written.ys, original.ys)
        p1, p2 = tmp_path / f"f{fid}_a.svg", tmp_path / f"f{fid}_b.svg"
        bench.emit_svg(bundle, p1)
        bench.emit_svg(bench.run_figure(fid), p2)
        ok &= p1.read_bytes() == p2.read_bytes()
        elapsed = time.perf_counter() - t0
        ok &= elapsed < 60.0
        details.append(f"{fid}:{elapsed:.2f}s")
    _report(11, "harness determinism", ok, " ".join(details))
