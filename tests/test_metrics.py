import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runge_lab.core import Basis, BasisPoly, RUNGE, TargetFunction
from runge_lab.interpolants import cubic_spline, lagrange_interpolate
from runge_lab.metrics import chebyshev_bound, convergence_study, error_report
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
    with pytest.raises(ValueError):
        error_report(approx, RUNGE, grid_size=1)


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
    handle = lambda f, n: lagrange_interpolate(f.sample(equispaced(n)))
    entries = convergence_study(handle, RUNGE, [5, 10, 15, 20])
    errs = [e.report.max_abs for e in entries]
    assert errs[1] < errs[2] < errs[3]


def test_convergence_study_chebyshev_converges():
    handle = lambda f, n: lagrange_interpolate(f.sample(chebyshev_roots(n - 1)))
    entries = convergence_study(handle, RUNGE, [5, 10, 15, 20])
    errs = [e.report.max_abs for e in entries]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_convergence_study_records_failures():
    def flaky(f, n):
        if n == 2:
            raise ValueError("boom")
        return lagrange_interpolate(f.sample(equispaced(n)))

    entries = convergence_study(flaky, RUNGE, [2, 5])
    assert entries[0].report is None and "boom" in entries[0].error
    assert entries[1].report is not None
    with pytest.raises(ValueError):
        convergence_study(flaky, RUNGE, [])
