import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from oracle_utils import barycentric_oracle, runge_ld
from runge_lab import linalg
from runge_lab.core import (
    Basis,
    BasisPoly,
    Interval,
    NodeSet,
    RUNGE,
    TargetFunction,
    polynomial_target,
    runge,
)
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
from runge_lab.nodes import chebyshev_roots, equispaced

GRID = np.linspace(-1, 1, 1001)
rng = np.random.default_rng(7)


def _max_err(approx, f, grid=GRID):
    return np.max(np.abs(approx.evaluate(grid) - f(grid)))


# ---------------------------------------------------------------------------
# Lagrange / Chebyshev


def test_lagrange_linear_reproduction():
    line = polynomial_target([0.0, 1.0])
    b = lagrange_interpolate(line.sample(equispaced(2)))
    xs = np.array([-1, -0.4, 0.0, 0.7, 1.0])
    assert np.allclose(b.evaluate(xs), xs, atol=1e-12)


def test_lagrange_runge_divergence_at_edges():
    b = lagrange_interpolate(RUNGE.sample(equispaced(21)))
    vals = b.evaluate(np.array([-0.99, 0.99]))
    assert np.all(np.abs(vals) > 10)
    # cross-check against the extended-precision oracle
    xs = equispaced(21).xs
    oracle = barycentric_oracle(xs, runge_ld(xs), [-0.99, 0.99])
    assert np.allclose(vals, np.asarray(oracle, dtype=float), rtol=1e-6)


def test_lagrange_reproduces_t5_on_its_roots():
    t5 = TargetFunction("t5", lambda x: np.cos(5 * np.arccos(np.clip(x, -1, 1))))
    b = lagrange_interpolate(t5.sample(chebyshev_roots(5)))
    assert _max_err(b, t5) < 1e-10


def test_chebyshev_interpolate_constant():
    one = TargetFunction("one", lambda x: np.ones_like(x))
    for n in (1, 4, 9):
        assert _max_err(lagrange_interpolate(one.sample(chebyshev_roots(n))), one) < 1e-13


def test_chebyshev_interpolate_needs_two_roots():
    with pytest.raises(ValueError, match="at least two"):
        lagrange_interpolate(RUNGE.sample(chebyshev_roots(0)))


def test_chebyshev_interpolate_cubic_exact():
    cubic = polynomial_target([0.0, 0.0, 0.0, 1.0])
    assert _max_err(lagrange_interpolate(cubic.sample(chebyshev_roots(3))), cubic) < 1e-12


def test_chebyshev_beats_equispaced_100x_at_n20():
    eq = lagrange_interpolate(RUNGE.sample(equispaced(21)))
    ch = lagrange_interpolate(RUNGE.sample(chebyshev_roots(20)))
    assert _max_err(eq, RUNGE) > 100 * _max_err(ch, RUNGE)


# ---------------------------------------------------------------------------
# Cubic spline


def test_spline_linear_data_stays_linear():
    line = polynomial_target([0.5, 2.0])
    s = cubic_spline(line.sample(equispaced(7)))
    assert _max_err(s, line) < 1e-12
    for piece in s.pieces:
        assert np.allclose(P.polyder(piece.coeffs, 2), 0.0, atol=1e-12)


def test_spline_runge_error_small():
    s = cubic_spline(RUNGE.sample(equispaced(11)))
    assert _max_err(s, RUNGE) < 0.03


def test_spline_c2_at_interior_knots():
    s = cubic_spline(RUNGE.sample(equispaced(11)))
    d2 = [P.polyder(p.coeffs, 2) for p in s.pieces]
    max_d2 = max(np.max(np.abs(P.polyval(GRID, c))) for c in d2)
    for i in range(1, len(s.pieces)):
        knot = s.breakpoints[i]
        for order in (0, 1, 2):
            left = P.polyval(knot, P.polyder(s.pieces[i - 1].coeffs, order)) if order else P.polyval(knot, s.pieces[i - 1].coeffs)
            right = P.polyval(knot, P.polyder(s.pieces[i].coeffs, order)) if order else P.polyval(knot, s.pieces[i].coeffs)
            assert abs(left - right) < 1e-8 * max(max_d2, 1.0)


def test_spline_matches_scipy_on_many_jittered_knots():
    from scipy.interpolate import CubicSpline

    n = 1000
    knots = np.linspace(-1, 1, n)
    gaps = np.diff(knots)
    knots[1:-1] += np.random.default_rng(11).uniform(-0.3, 0.3, n - 2) * np.minimum(gaps[:-1], gaps[1:])
    for centre in (0.0, 101.0):  # the same knots on [-1, 1] and on [100, 102]
        xk = knots + centre
        f = TargetFunction("runge", lambda x: runge(x - centre))
        s = cubic_spline(f.sample(NodeSet(Interval(centre - 1, centre + 1), xk)))
        want = CubicSpline(xk, f(xk), bc_type="natural")
        xs = np.concatenate([np.linspace(centre - 1, centre + 1, 2001), xk, 0.5 * (xk[:-1] + xk[1:])])
        assert np.max(np.abs(s.evaluate(xs) - want(xs))) <= 1e-9


def _per_piece(s, xs):
    """Each point evaluated by its own piece's ``BasisPoly.evaluate``, the
    piece picked by the left-closed rule with the last piece closed."""
    flat = np.ravel(xs)
    piece = np.minimum(np.searchsorted(s.breakpoints, flat, side="right") - 1, len(s.pieces) - 1)
    out = np.empty_like(flat)
    for i in set(piece.tolist()):
        at = np.flatnonzero(piece == i)
        out[at] = s.pieces[i].evaluate(flat[at])
    return out.reshape(np.shape(xs))


def _jittered_knots(n, interval):
    xs = np.linspace(interval.lo, interval.hi, n + 2)[1:-1]  # knots inside the interval, not on its ends
    gaps = np.diff(xs)
    xs[1:-1] += np.random.default_rng(13).uniform(-0.3, 0.3, n - 2) * np.minimum(gaps[:-1], gaps[1:])
    return NodeSet(interval, xs)


@pytest.mark.parametrize(
    "make_nodes",
    [lambda: equispaced(5000), lambda: _jittered_knots(997, Interval(-3.0, 2.0))],
    ids=["equispaced5000", "jittered997"],
)
def test_spline_table_evaluation_is_bit_identical_to_its_pieces(make_nodes):
    s = cubic_spline(RUNGE.sample(make_nodes()))
    knots = s.breakpoints
    xs = np.concatenate([np.linspace(knots[0], knots[-1], 20_001), knots, [knots[0], knots[-1]]])
    np.random.default_rng(17).shuffle(xs)
    want = _per_piece(s, xs)
    assert np.array_equal(s.evaluate(xs), want)
    assert np.array_equal(s.evaluate(xs[:20_000].reshape(100, 200)), want[:20_000].reshape(100, 200))
    for empty in (np.array([]), np.empty((0, 3))):
        assert s.evaluate(empty).shape == empty.shape


def test_spline_table_builds_no_piece_to_count_or_evaluate(monkeypatch):
    s = cubic_spline(RUNGE.sample(equispaced(201)))
    assert s.pieces[0].coeffs.shape == (4,) and np.array_equal(s.pieces[-1].coeffs, s.pieces[199].coeffs)

    def refuse(*args):
        raise AssertionError("a piece was built or evaluated")

    monkeypatch.setattr(BasisPoly, "__post_init__", refuse)
    monkeypatch.setattr(BasisPoly, "evaluate", refuse)
    assert len(s.pieces) == 200 and s.n_params == 800
    assert np.all(np.isfinite(s.evaluate(GRID)))


def test_spline_needs_three_samples():
    with pytest.raises(ValueError):
        cubic_spline(RUNGE.sample(equispaced(2)))


# ---------------------------------------------------------------------------
# Regularized fits


def test_unpenalized_square_system_interpolates():
    s = RUNGE.sample(equispaced(7))
    fit = fit_regularized(s, degree=6, penalty=PenaltyKind.NONE)
    assert np.allclose(fit.evaluate(s.xs), s.ys, atol=1e-6)


def test_lasso_above_zero_threshold_gives_zero_poly():
    s = RUNGE.sample(equispaced(11))
    from runge_lab.linalg import design_matrix

    A = design_matrix(s.nodes, 10, Basis.MONOMIAL)
    alpha = np.max(np.abs(A.T @ s.ys)) / len(s)
    fit = fit_regularized(s, 10, PenaltyKind.LASSO, alpha=alpha * 1.01)
    assert np.allclose(fit.coeffs, 0.0)


@pytest.mark.parametrize("penalty", [PenaltyKind.LASSO, PenaltyKind.ELASTIC_NET], ids=lambda p: p.value)
def test_unconverged_coordinate_descent_warns(penalty, recwarn, monkeypatch):
    s = RUNGE.sample(equispaced(41))
    with monkeypatch.context() as m:  # fit_regularized looks the solver up on linalg at call time
        m.setattr(linalg, "elastic_net_cd", functools.partial(linalg.elastic_net_cd, max_iter=1))
        with pytest.warns(RuntimeWarning, match=rf"{penalty.value} .* 1 sweeps \(tol=1e-08\)"):
            fit_regularized(s, 20, penalty, alpha=1e-3)
    recwarn.clear()
    fit_regularized(s, 20, penalty, alpha=1e-3)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_ridge_shrinks_endpoint_blowup():
    s = RUNGE.sample(equispaced(11))
    raw = fit_regularized(s, 10, PenaltyKind.NONE)
    shrunk = fit_regularized(s, 10, PenaltyKind.RIDGE, alpha=0.1)
    assert np.max(np.abs(shrunk.evaluate(GRID))) < np.max(np.abs(raw.evaluate(GRID)))


@pytest.mark.parametrize("n, degree", [(5, 4), (11, 10), (21, 20), (41, 12)])
def test_ridge_is_tikhonov_with_scaled_identity(n, degree):
    # (1/2N)||Ac - y||^2 + (alpha/2)||c||^2 is ||Ac - y||^2 + ||sqrt(N alpha) c||^2 over 2N
    s = RUNGE.sample(equispaced(n))
    for a in (1e-4, 0.01, 1.0):
        ridge = fit_regularized(s, degree, "ridge", alpha=a)
        assert np.array_equal(ridge.coeffs, tikhonov_fit(s, degree, lam=np.sqrt(len(s) * a)).coeffs)


def test_non_finite_parameters_are_rejected():
    s = RUNGE.sample(equispaced(11))
    fits = [
        lambda: fit_regularized(s, 10, PenaltyKind.RIDGE, alpha=np.nan),
        lambda: fit_regularized(s, 10, PenaltyKind.LASSO, alpha=np.nan),
        # an infinite penalty would turn the stacked rows into inf * 0 = nan
        lambda: fit_regularized(s, 10, PenaltyKind.RIDGE, alpha=np.inf),
        lambda: tikhonov_fit(s, 10, lam=np.nan),
        lambda: tikhonov_fit(s, 10, lam=np.inf),
        lambda: EfciConfig(epsilon=np.nan),
        lambda: EfciConfig(weight=np.nan),
        lambda: EfciConfig(weight=np.inf),
        lambda: TisiConfig(epsilon=np.nan),
    ]
    for fit in fits:
        with pytest.raises(ValueError, match="must be"):
            fit()


@given(
    coeffs=st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=11),
)
@settings(max_examples=40, deadline=None)
def test_polynomial_reproduction_by_exact_methods(coeffs):
    target = polynomial_target(coeffs)
    n = len(coeffs) - 1
    deg = max(n, 1)
    samples = target.sample(equispaced(deg + 1))
    assert _max_err(lagrange_interpolate(samples), target) < 1e-8
    assert _max_err(fit_regularized(samples, deg, PenaltyKind.NONE), target) < 1e-8
    assert _max_err(tikhonov_fit(samples, deg, 0.0), target) < 1e-8
    assert _max_err(svd_truncated_fit(samples, deg, 0.0, Basis.LEGENDRE), target) < 1e-8


# ---------------------------------------------------------------------------
# Tikhonov


def test_tikhonov_zero_lambda_equals_lstsq():
    s = RUNGE.sample(equispaced(11))
    a = tikhonov_fit(s, 8, 0.0)
    b = fit_regularized(s, 8, PenaltyKind.NONE)
    assert np.allclose(a.coeffs, b.coeffs, atol=1e-9)


def test_tikhonov_tames_degree12_fit():
    s = RUNGE.sample(equispaced(11))
    tik = tikhonov_fit(s, 12, 0.01)
    raw = fit_regularized(s, 12, PenaltyKind.NONE)
    e_tik, e_raw = _max_err(tik, RUNGE), _max_err(raw, RUNGE)
    assert np.isfinite(e_tik) and e_tik < e_raw


def test_tikhonov_huge_lambda_kills_coeffs():
    s = RUNGE.sample(equispaced(11))
    fit = tikhonov_fit(s, 8, 1e9)
    assert np.linalg.norm(fit.coeffs) < 1e-6


def test_tikhonov_second_difference_operator():
    s = RUNGE.sample(equispaced(11))
    fit = tikhonov_fit(s, 12, 0.01, operator="second_difference")
    assert np.isfinite(_max_err(fit, RUNGE))


# ---------------------------------------------------------------------------
# EFCI


def test_efci_linear_target_free_constraints():
    line = polynomial_target([0.3, -1.2])
    s = line.sample(equispaced(11))
    approx, _, _ = efci_fit(s, line, EfciConfig(degree=3, m=4))
    assert _max_err(approx, line) < 1e-8


def test_efci_flattens_curvature_at_positions():
    s = RUNGE.sample(equispaced(11))
    approx, pos, _ = efci_fit(s, RUNGE, EfciConfig(degree=10, m=4, epsilon=0.1, weight=10.0))
    d2 = P.polyder(approx.coeffs, 2)
    at_pos = np.abs(P.polyval(pos, d2))
    assert np.all(at_pos < 1e-3 * np.max(np.abs(P.polyval(GRID, d2))))


def test_efci_search_deterministic_and_optimal():
    s = RUNGE.sample(equispaced(11))
    cfg = EfciConfig(degree=10, epsilon=0.1, search=True, weight=10.0)
    approx, pos, obj = efci_fit(s, RUNGE, cfg)
    winner_m = len(pos)
    objs = {}
    for m in (2, 4, 6, 8, 10):
        _, _, o = efci_fit(s, RUNGE, EfciConfig(degree=10, m=m, epsilon=0.1, weight=10.0))
        objs[m] = o
    assert obj == pytest.approx(objs[winner_m], abs=1e-10)
    assert all(obj <= o + 1e-15 for o in objs.values())


def test_efci_weight_to_zero_approaches_unconstrained():
    s = RUNGE.sample(equispaced(11))
    base = fit_regularized(s, 10, PenaltyKind.NONE)
    dists = []
    # coefficient distance decreases through the stated weights, but the
    # degree-10 system is so ill-conditioned that it only collapses to zero
    # a few decades further down
    for w in (1e-2, 1e-4, 1e-6, 1e-10, 1e-14):
        approx, _, _ = efci_fit(s, RUNGE, EfciConfig(degree=10, m=4, weight=w))
        dists.append(np.linalg.norm(approx.coeffs - base.coeffs))
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 1e-2 * np.linalg.norm(base.coeffs)


def test_efci_config_validation():
    with pytest.raises(ValueError):
        EfciConfig(m=3)
    with pytest.raises(ValueError):
        EfciConfig(epsilon=-0.1)
    s = RUNGE.sample(equispaced(5))
    with pytest.raises(ValueError):
        efci_fit(s, RUNGE, EfciConfig(degree=1))


def test_config_counts_must_be_integers():
    # a float count used to pass the range checks and fail later inside numpy
    for make, message in (
        (lambda: EfciConfig(m=4.0), "m must be an integer, got 4.0"),
        (lambda: EfciConfig(degree=10.0), "degree must be an integer, got 10.0"),
        (lambda: TisiConfig(nodes_per_interval=5.5), "nodes_per_interval must be an integer, got 5.5"),
        (lambda: TisiConfig(nodes_per_interval="11"), "nodes_per_interval must be an integer, got '11'"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()
    # numpy integers stay accepted and fit as Python ints do
    s = RUNGE.sample(equispaced(11))
    a = efci_fit(s, RUNGE, EfciConfig(degree=np.int64(8), m=np.int32(4)))[0]
    assert np.array_equal(a.coeffs, efci_fit(s, RUNGE, EfciConfig(degree=8, m=4))[0].coeffs)
    b = tisi_fit(RUNGE, Interval(), TisiConfig(nodes_per_interval=np.int64(7)))
    xs = np.linspace(-1.0, 1.0, 51)
    assert np.array_equal(b.evaluate(xs), tisi_fit(RUNGE, Interval(), TisiConfig(nodes_per_interval=7)).evaluate(xs))


# ---------------------------------------------------------------------------
# Mock-Chebyshev methods


def test_mock_chebyshev_beats_full_grid():
    full = RUNGE.sample(equispaced(20))
    mock = mock_chebyshev_interpolate(full, 10)
    eq = lagrange_interpolate(full)
    assert _max_err(eq, RUNGE) > 10 * _max_err(mock, RUNGE)


def test_mock_chebyshev_polynomial_exactness():
    target = polynomial_target(rng.uniform(-1, 1, size=6))
    full = target.sample(equispaced(20))
    mock = mock_chebyshev_interpolate(full, 10)
    assert _max_err(mock, target) < 1e-9


def test_mock_chebyshev_m1_is_line_through_endpoints():
    full = RUNGE.sample(equispaced(9))
    mock = mock_chebyshev_interpolate(full, 1)
    assert mock.n_params == 2
    assert np.allclose(mock.nodes.xs, [-1, 1])


def test_constrained_mock_fully_determined_matches_interpolant():
    full = RUNGE.sample(equispaced(20))
    mock = mock_chebyshev_interpolate(full, 10)
    k = mock.n_params
    fit = constrained_mock_chebyshev_lstsq(full, 10, ls_degree=k - 1)
    assert np.max(np.abs(fit.evaluate(GRID) - mock.evaluate(GRID))) < 1e-8


def test_constrained_mock_residuals_and_optimality():
    full = RUNGE.sample(equispaced(21))
    fit = constrained_mock_chebyshev_lstsq(full, 10, ls_degree=13)
    from runge_lab.nodes import mock_chebyshev_subset

    idx = list(mock_chebyshev_subset(full.nodes, 10))
    assert np.max(np.abs(fit.evaluate(full.xs[idx]) - full.ys[idx])) < 1e-9
    mock = mock_chebyshev_interpolate(full, 10)
    ssq_fit = np.sum((fit.evaluate(full.xs) - full.ys) ** 2)
    ssq_mock = np.sum((mock.evaluate(full.xs) - full.ys) ** 2)
    assert ssq_fit <= ssq_mock + 1e-12


def test_constrained_mock_degree_bounds():
    full = RUNGE.sample(equispaced(10))
    with pytest.raises(ValueError):
        constrained_mock_chebyshev_lstsq(full, 5, ls_degree=2)


# ---------------------------------------------------------------------------
# TISI


def test_tisi_linear_exact():
    line = polynomial_target([1.0, -0.5])
    approx = tisi_fit(line, Interval(), TisiConfig())
    assert _max_err(approx, line) < 1e-10


def test_tisi_continuity_at_breakpoints():
    approx = tisi_fit(RUNGE, Interval(), TisiConfig(center=BandStrategy.LAGRANGE_CHEB))
    for b in approx.breakpoints[1:-1]:
        i = list(approx.breakpoints).index(b)
        left = approx.pieces[i - 1].evaluate(np.array([b]))[0]
        right = approx.pieces[i].evaluate(np.array([b]))[0]
        assert abs(left - right) < 1e-10


def test_tisi_improved_beats_global_equispaced():
    approx = tisi_fit(
        RUNGE, Interval(), TisiConfig(center=BandStrategy.LAGRANGE_CHEB, epsilon=0.2, nodes_per_interval=11)
    )
    glob = lagrange_interpolate(RUNGE.sample(equispaced(33)))
    assert _max_err(approx, RUNGE) < _max_err(glob, RUNGE)


def test_tisi_spline_band():
    cfg = TisiConfig(center=BandStrategy.SPLINE_LOCAL)
    approx = tisi_fit(RUNGE, Interval(), cfg)
    assert np.isfinite(_max_err(approx, RUNGE))


def test_tisi_config_takes_band_strategy_values():
    by_value = TisiConfig(left="spline_local", center="lagrange_cheb", right="lagrange_equispaced")
    by_member = TisiConfig(
        left=BandStrategy.SPLINE_LOCAL, center=BandStrategy.LAGRANGE_CHEB, right=BandStrategy.LAGRANGE_EQUISPACED
    )
    assert by_value == by_member
    got = tisi_fit(RUNGE, Interval(), by_value).evaluate(GRID)
    assert np.array_equal(got, tisi_fit(RUNGE, Interval(), by_member).evaluate(GRID))
    with pytest.raises(ValueError):
        TisiConfig(center="bogus")


def test_tisi_fit_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, which every fresh `figure all` would pay for
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    probe = "import sys, numpy; sys.exit('numpy.ma' in sys.modules)"
    if subprocess.run([sys.executable, "-c", probe], env=env).returncode:
        pytest.skip("import numpy already loads numpy.ma")
    code = """if True:
        import sys
        from runge_lab import RUNGE, Interval, interpolants
        for center in interpolants.BandStrategy:
            interpolants.tisi_fit(RUNGE, Interval(), interpolants.TisiConfig(center=center))
        sys.exit('numpy.ma' in sys.modules)
    """
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_tisi_config_validation():
    with pytest.raises(ValueError):
        TisiConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        tisi_fit(RUNGE, Interval(), TisiConfig(epsilon=1.5))


# ---------------------------------------------------------------------------
# Truncated SVD fits


def test_svd_fit_zero_threshold_interpolates():
    s = RUNGE.sample(equispaced(11))
    fit = svd_truncated_fit(s, 10, 0.0, Basis.LEGENDRE)
    assert np.max(np.abs(fit.evaluate(s.xs) - s.ys)) < 1e-6


def test_svd_fit_takes_the_basis_by_value():
    s = RUNGE.sample(equispaced(11))
    for basis in Basis:
        by_value = svd_truncated_fit(s, 10, 1e-10, basis.value)
        assert by_value.basis is basis
        assert np.array_equal(by_value.coeffs, svd_truncated_fit(s, 10, 1e-10, basis).coeffs)
    with pytest.raises(ValueError):
        svd_truncated_fit(s, 10, 1e-10, "bogus")


def test_svd_fit_magnitude_monotone_in_threshold():
    s = RUNGE.sample(equispaced(11))
    maxima = [
        np.max(np.abs(svd_truncated_fit(s, 10, t, Basis.LEGENDRE).evaluate(GRID)))
        for t in (1e-15, 1e-10, 1e-5, 1e-2)
    ]
    assert all(b <= a + 1e-9 for a, b in zip(maxima, maxima[1:]))


def test_svd_fit_chebyshev_nodes_beat_uniform():
    uni = RUNGE.sample(equispaced(11))
    cheb = RUNGE.sample(chebyshev_roots(10))
    e_uni = _max_err(svd_truncated_fit(uni, 10, 1e-15, Basis.LEGENDRE), RUNGE)
    e_cheb = _max_err(svd_truncated_fit(cheb, 10, 1e-15, Basis.LEGENDRE), RUNGE)
    assert e_cheb < e_uni


def test_runge_divergence_ordering():
    errs = [
        _max_err(lagrange_interpolate(RUNGE.sample(equispaced(n))), RUNGE)
        for n in (5, 10, 15, 20)
    ]
    assert errs[1] < errs[2] < errs[3]
