import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runge_lab import bench
from runge_lab.core import Basis, BasisPoly, Interval, NumericError, RUNGE, TargetFunction
from runge_lab.interpolants import cubic_spline, lagrange_interpolate
from runge_lab.metrics import chebyshev_bound, error_report, grid_report
from runge_lab.nodes import chebyshev_roots, equispaced


def test_error_report_zero_for_identical():
    one = TargetFunction("one", lambda x: np.ones_like(x))
    r = error_report(BasisPoly(Basis.MONOMIAL, [1.0]), one)
    assert r.max_abs == 0.0 and r.rms == 0.0 and r.endpoint_max_abs == 0.0


def test_error_report_zero_poly_vs_runge():
    r = error_report(BasisPoly(Basis.MONOMIAL, [0.0]), RUNGE)
    assert r.max_abs == pytest.approx(1.0)
    assert r.argmax_x == pytest.approx(0.0, abs=1e-12)


def test_error_report_argmax_near_endpoints_for_equispaced():
    approx = lagrange_interpolate(RUNGE.sample(equispaced(11)))
    r = error_report(approx, RUNGE)
    assert min(abs(r.argmax_x - 1.0), abs(r.argmax_x + 1.0)) < 0.1


def test_error_report_invariants():
    approx = lagrange_interpolate(RUNGE.sample(equispaced(11)))
    r = error_report(approx, RUNGE)
    assert r.max_abs >= r.rms >= 0.0
    assert -1.0 <= r.argmax_x <= 1.0
    with pytest.raises(bench.UsageError, match="^grid_size must be at least 2, got 1$"):
        error_report(approx, RUNGE, grid_size=1)
    one = np.zeros(1)
    with pytest.raises(ValueError, match="^grid_size must be at least 2, got 1$"):
        grid_report(one, one, one, Interval(), approx.n_params)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_report_refuses_a_non_finite_value(bad):
    xs = np.linspace(-1.0, 1.0, 5)
    values = RUNGE(xs)
    values[[1, 3]] = bad
    want = "values of fit [3] are not finite at 2 of the 5 grid point(s), first at x = -0.5"
    with pytest.raises(NumericError, match=f"^{re.escape(want)}$"):
        grid_report(xs, RUNGE(xs), values, Interval(), 3, "fit [3]")
    overflows = BasisPoly(Basis.MONOMIAL, [1e308, 1e308])  # inf at x = 1 alone
    want = "monomial polynomial of degree 1 leaves the float range at x = 1.0: 1 of the 5 point(s) are not finite"
    with pytest.raises(NumericError, match=f"^{re.escape(want)}$"):
        error_report(overflows, RUNGE, grid_size=5)


def test_error_report_grid_refinement_stable():
    for approx in (
        lagrange_interpolate(RUNGE.sample(equispaced(11))),
        lagrange_interpolate(RUNGE.sample(chebyshev_roots(10))),
        cubic_spline(RUNGE.sample(equispaced(11))),
    ):
        a = error_report(approx, RUNGE, grid_size=1001).max_abs
        b = error_report(approx, RUNGE, grid_size=4001).max_abs
        assert abs(a - b) <= 0.05 * max(a, b)


def test_chebyshev_bound_examples():
    assert chebyshev_bound(0, 2.0) == 2.0
    assert chebyshev_bound(3, 16.0) == 0.5


def test_chebyshev_bound_keeps_its_bits_and_stays_finite_at_large_n():
    for n in range(60):
        for M in (0.1, 1.0, 3.7, 1e300):
            assert chebyshev_bound(n, M) == M / (2.0**n * (n + 1))  # the textbook formula, bit for bit
    # 2.0**n * (n + 1) overflows from n = 1015, and 2.0**n raises from n = 1024
    bounds = [chebyshev_bound(n, 1.0) for n in (1013, 1015, 1024, 3000)]
    assert all(math.isfinite(b) and b >= 0.0 for b in bounds)
    assert bounds == sorted(bounds, reverse=True)
    assert bounds[1] > 0.0  # about 2.8e-309, not the 0.0 of an overflowed denominator


@pytest.mark.parametrize("M", [math.nan, math.inf, -1.0])
def test_chebyshev_bound_refuses_a_non_finite_or_negative_m(M):
    with pytest.raises(ValueError, match="finite and >= 0"):
        chebyshev_bound(5, M)


@given(M=st.floats(0.1, 100), n=st.integers(0, 30))
@settings(max_examples=40, deadline=None)
def test_chebyshev_bound_monotone_in_n(M, n):
    assert chebyshev_bound(n + 1, M) < chebyshev_bound(n, M)


def test_chebyshev_bound_validates_sine():
    # all derivatives of sin are bounded by 1
    sine = TargetFunction("sin", np.sin)
    approx = lagrange_interpolate(sine.sample(chebyshev_roots(5)))
    r = error_report(approx, sine)
    assert r.max_abs <= chebyshev_bound(5, 1.0)


def test_convergence_study_equispaced_diverges():
    entries = bench.sweep("lagrange", [5, 10, 15, 20])  # Lagrange on equispaced nodes
    errs = [e.report.max_abs for e in entries]
    assert errs[1] < errs[2] < errs[3]


def test_convergence_study_chebyshev_converges():
    entries = bench.sweep("chebyshev", [5, 10, 15, 20])  # Lagrange on n Chebyshev roots
    errs = [e.report.max_abs for e in entries]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_convergence_study_records_failures(monkeypatch):
    real_fit = bench._fit

    def flaky(spec, f, interval):
        if spec.n_samples == 2:
            raise ValueError("boom")
        return real_fit(spec, f, interval)

    monkeypatch.setattr(bench, "_fit", flaky)
    entries = bench.sweep("lagrange", [2, 5])
    assert entries[0].report is None and entries[0].error == "ValueError: boom"
    assert entries[1].report is not None and entries[1].report.method == "lagrange[5]"
    with pytest.raises(bench.UsageError, match="at least one sample count"):
        bench.sweep("lagrange", [])
    # a grid that cannot score any row is refused up front, as an empty one is
    for size in (1, 0, -1):
        with pytest.raises(bench.UsageError, match=f"^grid_size must be at least 2, got {size}$"):
            bench.sweep("lagrange", [5, 11], grid_size=size)
