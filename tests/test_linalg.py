import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import cyclic_cd_elastic_net, grid_search_elastic_net, mpmath_condition_number
from runge_lab.core import RUNGE, Basis, SampleSet
from runge_lab import linalg
from runge_lab.interpolants import PenaltyKind, fit_regularized
from runge_lab.linalg import (
    NumericError,
    design_matrix,
    elastic_net_cd,
    elastic_net_objective,
    lstsq,
    solve_tridiagonal,
    svd,
    truncated_pinv_solve,
)
from runge_lab.nodes import equispaced
from runge_lab.core import Interval, NodeSet

rng = np.random.default_rng(20240817)


def _nodes(xs):
    return NodeSet(Interval(min(-1.0, min(xs)), max(1.0, max(xs))), xs)


def test_design_matrix_monomial():
    A = design_matrix(_nodes([-1.0, 0.0, 1.0]), 1, Basis.MONOMIAL)
    assert np.allclose(A, [[1, -1], [1, 0], [1, 1]])


def test_design_matrix_legendre_at_one():
    A = design_matrix(NodeSet(Interval(), [1.0]), 3, Basis.LEGENDRE)
    assert np.allclose(A, [[1, 1, 1, 1]])


def test_lstsq_identity():
    assert np.allclose(lstsq(np.eye(3), [1, 2, 3]), [1, 2, 3])


def test_lstsq_mean():
    assert np.allclose(lstsq(np.array([[1.0], [1.0]]), [0.0, 2.0]), [1.0])


def test_lstsq_exact_quadratic():
    ns = equispaced(5)
    A = design_matrix(ns, 2, Basis.MONOMIAL)
    c = lstsq(A, ns.xs**2)
    assert np.allclose(c, [0, 0, 1], atol=1e-10)


def test_lstsq_empty_errors():
    with pytest.raises(ValueError):
        lstsq(np.zeros((0, 0)), [])


def test_lstsq_residual_orthogonality():
    for _ in range(20):
        m, n = rng.integers(5, 30), rng.integers(1, 5)
        A = rng.normal(size=(m, n))
        y = rng.normal(size=m)
        c = lstsq(A, y)
        r = A @ c - y
        bound = 1e-8 * np.linalg.norm(A) * np.linalg.norm(y)
        assert np.max(np.abs(A.T @ r)) <= bound


def test_lstsq_rank_deficient_zero_fill():
    A = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    c = lstsq(A, [1.0, 2.0, 3.0])
    # one column carries the fit, its duplicate gets a zero coefficient
    assert np.isclose(min(abs(c)), 0.0)
    assert np.allclose(A @ c, [1, 2, 3], atol=1e-12)


def _pivoted_qr_support(A):
    """Sorted columns that scipy's QR with column pivoting keeps before its first
    |r_kk| <= max(m, n)·eps·|r_11|."""
    _, R, perm = scipy.linalg.qr(A, mode="economic", pivoting=True)
    d = np.abs(np.diag(R))
    small = np.flatnonzero(d <= max(A.shape) * np.finfo(float).eps * d[0])
    return np.sort(perm[: small[0] if small.size else d.size])


def _basic_solution_residual(A, y, c):
    """Assert that c is exactly zero off scipy's pivoted-QR support and nonzero
    on it; return max |A_k^T r| over the kept columns A_k, r = A c - y, which
    is zero up to rounding when c solves least squares on them."""
    keep = _pivoted_qr_support(A)
    assert np.array_equal(np.flatnonzero(c), keep)
    return np.max(np.abs(A[:, keep].T @ (A @ c - y)), initial=0.0)


def _backward_stable_bound(A, y, c):
    # what a backward-stable solve leaves of A_k^T r on an ill-conditioned A_k
    Ak = A[:, np.flatnonzero(c)]
    return np.finfo(float).eps * np.linalg.norm(Ak) * (np.linalg.norm(Ak) * np.linalg.norm(c) + np.linalg.norm(y))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    extra_rows=st.integers(0, 30),
    log_cond=st.floats(0.0, 8.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_full_rank_lstsq_matches_the_pivoted_qr(n, extra_rows, log_cond, seed):
    # A = U diag(s) V^T with singular values spread over 10^log_cond; random y
    # leaves a residual. LAPACK's complete orthogonal factorization (gelsy, a
    # QR with column pivoting) is the reference. Both solvers are backward
    # stable, so each is within the least-squares perturbation bound of the
    # true solution: eps * cond * (|c| + cond * |r| / sigma_max), up to a
    # modest factor.
    g = np.random.default_rng(seed)
    m = n + extra_rows
    U, _ = np.linalg.qr(g.normal(size=(m, n)))
    V, _ = np.linalg.qr(g.normal(size=(n, n)))
    s = np.logspace(0.0, -log_cond, n)
    A = (U * s) @ V.T
    y = g.normal(size=m)
    want = scipy.linalg.lstsq(A, y, lapack_driver="gelsy")[0]
    with mock.patch.object(linalg, "_basic_columns", side_effect=AssertionError("took the basic-columns path")):
        got = lstsq(A, y)
    cond = s[0] / s[-1]
    r = np.linalg.norm(A @ want - y)
    bound = 10 * m * np.finfo(float).eps * cond * (np.linalg.norm(want) + cond * r / s[0])
    assert np.linalg.norm(got - want) <= bound


def test_rank_deficient_tall_design_keeps_the_basic_solution():
    # solvers' tall.lstsq: 201 equispaced samples, degree-100 monomials, cond ~ 3e17
    samples = RUNGE.sample(equispaced(201))
    A = design_matrix(samples.nodes, 100, Basis.MONOMIAL)
    c = lstsq(A, samples.ys)
    assert np.count_nonzero(c) == 49
    assert _basic_solution_residual(A, samples.ys, c) <= _backward_stable_bound(A, samples.ys, c)
    # the columns beyond the numerical rank get exact zeros, where LAPACK's
    # minimum-norm solution would spread weight over every column
    assert np.count_nonzero(c == 0.0) >= A.shape[1] - np.linalg.matrix_rank(A)
    assert np.count_nonzero(np.linalg.lstsq(A, samples.ys)[0] == 0.0) == 0


def test_wide_system_takes_the_pivoted_path():
    samples = RUNGE.sample(equispaced(5))
    A = design_matrix(samples.nodes, 10, Basis.MONOMIAL)
    assert A.shape == (5, 11)
    c = lstsq(A, samples.ys)
    assert np.count_nonzero(c) == 5
    assert _basic_solution_residual(A, samples.ys, c) <= _backward_stable_bound(A, samples.ys, c)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 25),
    n=st.integers(1, 25),
    rank_short=st.integers(0, 5),
    log_cond=st.floats(0.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_deficient_and_wide_lstsq_keep_the_pivoted_qr_support(m, n, rank_short, log_cond, seed):
    # A = U diag(s) V^T of rank r, singular values spread over 10^log_cond: r is
    # below min(m, n) for a tall or square design, and at most m for a wide one
    if m >= n:
        r = n - 1 - min(rank_short, n - 1)
    else:
        r = m - min(rank_short, m - 1)
    g = np.random.default_rng(seed)
    U, _ = np.linalg.qr(g.normal(size=(m, max(r, 1))))
    V, _ = np.linalg.qr(g.normal(size=(n, max(r, 1))))
    s = np.logspace(0.0, -log_cond, r)
    A = (U[:, :r] * s) @ V[:, :r].T
    y = g.normal(size=m)
    bound = 1e-8 * np.linalg.norm(A) * np.linalg.norm(y)  # as in test_lstsq_residual_orthogonality
    assert _basic_solution_residual(A, y, lstsq(A, y)) <= bound


def test_a_kept_column_solve_that_does_not_converge_raises():
    A = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with mock.patch.object(np.linalg, "lstsq", side_effect=np.linalg.LinAlgError("SVD did not converge")):
        with pytest.raises(NumericError, match="least squares on 1 of 2 columns failed"):
            lstsq(A, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["A", "y"])
def test_non_finite_system_takes_the_pivoted_path(bad, where, capfd):
    for rows, cols in ((11, 5), (5, 11)):  # a system for each path: both refuse it
        samples = RUNGE.sample(equispaced(rows))
        A = design_matrix(samples.nodes, cols - 1, Basis.MONOMIAL)
        y = samples.ys.copy()
        if where == "A":
            A[3, 2] = bad
        else:
            y[3] = bad
        with pytest.raises(ValueError, match="must be finite"):
            lstsq(A, y)
    assert capfd.readouterr() == ("", "")  # LAPACK prints a complaint about a NaN matrix


def test_svd_diagonal():
    f = svd(np.diag([3.0, 2.0]))
    assert np.allclose(f.singular_values, [3.0, 2.0])


def test_svd_zero_matrix():
    f = svd(np.zeros((2, 2)))
    assert np.allclose(f.singular_values, [0.0, 0.0])


def test_svd_invariants_random():
    # 200 random matrices up to 30x30
    for _ in range(200):
        m, n = rng.integers(1, 31), rng.integers(1, 31)
        A = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-3, 4)
        f = svd(A)
        r = len(f.singular_values)
        assert np.all(np.diff(f.singular_values) <= 0)
        assert np.all(f.singular_values >= 0)
        assert np.allclose(f.U.T @ f.U, np.eye(r), atol=1e-8)
        assert np.allclose(f.Vt @ f.Vt.T, np.eye(r), atol=1e-8)
        recon = f.U @ np.diag(f.singular_values) @ f.Vt
        denom = max(np.linalg.norm(A), 1e-300)
        assert np.linalg.norm(recon - A) / denom < 1e-8


def test_svd_condition_number_vs_extended_precision():
    A = design_matrix(equispaced(11), 10, Basis.MONOMIAL)
    f = svd(A)
    cond = f.singular_values[0] / f.singular_values[-1]
    oracle = mpmath_condition_number(A)
    assert cond == pytest.approx(oracle, rel=0.01)


def test_truncated_solve_matches_lstsq_at_zero_threshold():
    A = design_matrix(equispaced(9), 4, Basis.LEGENDRE)
    y = rng.normal(size=9)
    c, rank = truncated_pinv_solve(A, y, 0.0)
    assert rank == 5
    assert np.allclose(c, lstsq(A, y), atol=1e-8)


def test_truncated_solve_drops_small_singular_value():
    A = np.diag([1.0, 1e-6])
    c, rank = truncated_pinv_solve(A, [1.0, 1.0], 1e-3)
    assert rank == 1
    assert np.allclose(c, [1.0, 0.0])


def test_truncated_solve_rank_monotone_in_threshold():
    A = design_matrix(equispaced(11), 10, Basis.MONOMIAL)
    y = rng.normal(size=11)
    ranks = [truncated_pinv_solve(A, y, t)[1] for t in (1e-2, 1e-5, 1e-10, 1e-15)]
    assert ranks == sorted(ranks)


def test_truncated_solve_fully_truncated():
    with pytest.raises(NumericError):
        truncated_pinv_solve(np.zeros((2, 2)), [1.0, 1.0], 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf * 0 is NaN, which keeps nothing, and warns of nothing
        for threshold in (0.0, np.inf):
            with pytest.raises(NumericError):
                truncated_pinv_solve(np.zeros((2, 2)), [1.0, 1.0], threshold)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["A", "y"])
def test_non_finite_system_is_refused_before_the_svd(bad, where, capfd):
    samples = RUNGE.sample(equispaced(11))
    A = design_matrix(samples.nodes, 4, Basis.LEGENDRE)
    y = samples.ys.copy()
    if where == "A":
        A[3, 2] = bad
    else:
        y[3] = bad
    with pytest.raises(ValueError, match="must be finite"):
        truncated_pinv_solve(A, y, 0.1)
    with pytest.raises(ValueError, match="must be finite"):
        svd(np.column_stack([A, y]))  # not NumericError("SVD failed to converge")
    with pytest.raises(ValueError, match="must be finite"):
        elastic_net_cd(A, y, 0.1, 0.5)  # not NaN coefficients marked converged
    assert capfd.readouterr() == ("", "")


def test_truncated_solve_checks_the_rhs_length_before_the_svd():
    with mock.patch.object(linalg, "svd", side_effect=AssertionError("ran the SVD")):
        with pytest.raises(ValueError, match="rhs length must match row count"):
            truncated_pinv_solve(np.eye(3), [1.0, 2.0], 0.1)


def test_tridiagonal_identity():
    rhs = np.array([1.0, -2.0, 3.0])
    x = solve_tridiagonal([0, 0], [1, 1, 1], [0, 0], rhs)
    assert np.allclose(x, rhs)


def test_tridiagonal_symmetric_2x2():
    assert np.allclose(solve_tridiagonal([1.0], [2.0, 2.0], [1.0], [3.0, 3.0]), [1.0, 1.0])


def test_tridiagonal_vs_dense_oracle():
    n = 50
    sub = rng.normal(size=n - 1)
    sup = rng.normal(size=n - 1)
    diag = np.abs(rng.normal(size=n)) + np.abs(sub).max() + np.abs(sup).max() + 1
    rhs = rng.normal(size=n)
    T = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
    expect = np.linalg.solve(T, rhs)  # dense LU oracle
    x = solve_tridiagonal(sub, diag, sup, rhs)
    assert np.max(np.abs(x - expect)) < 1e-10
    assert np.max(np.abs(T @ x - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def _numpy_scalar_thomas(sub, diag, sup, rhs):
    """The Thomas recurrences on numpy float64 scalars, indexed one by one."""
    n = len(diag)
    c, d = np.zeros(n - 1), np.zeros(n)
    d[0] = rhs[0] / diag[0]
    if n > 1:
        c[0] = sup[0] / diag[0]
    for i in range(1, n):
        piv = diag[i] - sub[i - 1] * c[i - 1]
        if i < n - 1:
            c[i] = sup[i] / piv
        d[i] = (rhs[i] - sub[i - 1] * d[i - 1]) / piv
    for i in range(n - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return d


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-6, 1e6))
def test_tridiagonal_python_floats_match_numpy_scalars_bit_for_bit(n, seed, scale):
    g = np.random.default_rng(seed)
    sub, sup = g.normal(size=n - 1) * scale, g.normal(size=n - 1) * scale
    off = np.abs(np.concatenate([[0.0], sub])) + np.abs(np.concatenate([sup, [0.0]]))
    diag = (off + g.uniform(0.1, 2.0, n) * scale) * g.choice([-1.0, 1.0], n)  # diagonally dominant
    rhs = g.normal(size=n) * scale
    x = solve_tridiagonal(sub, diag, sup, rhs)
    assert x.dtype == np.float64 and x.shape == (n,)
    assert np.array_equal(x, _numpy_scalar_thomas(sub, diag, sup, rhs))


def test_tridiagonal_zero_pivot():
    with pytest.raises(NumericError, match="row 0"):
        solve_tridiagonal([1.0], [0.0, 1.0], [1.0], [1.0, 1.0])
    with pytest.raises(NumericError, match="row 1"):
        solve_tridiagonal([1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0], [1.0, 1.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("band", range(4))
def test_tridiagonal_refuses_a_non_finite_band(bad, band):
    bands = [[1.0], [2.0, 2.0], [1.0], [3.0, 3.0]]
    bands[band][0] = bad
    with pytest.raises(ValueError, match="^tridiagonal system must be finite$"):
        solve_tridiagonal(*bands)


def test_cd_alpha_zero_matches_lstsq():
    A = design_matrix(equispaced(11), 4, Basis.MONOMIAL)
    y = rng.normal(size=11)
    res = elastic_net_cd(A, y, alpha=0.0, rho=0.5)
    assert res.converged
    assert np.allclose(res.coeffs, lstsq(A, y), atol=1e-6)


def test_lasso_zero_at_large_alpha_with_kkt():
    A = design_matrix(equispaced(11), 6, Basis.MONOMIAL)
    y = np.sin(equispaced(11).xs)
    n = len(y)
    alpha = np.max(np.abs(A.T @ y)) / n
    res = elastic_net_cd(A, y, alpha=alpha, rho=1.0)
    assert np.allclose(res.coeffs, 0.0)
    # KKT at w = 0: |A_j^T y| / N <= alpha for every column
    assert np.all(np.abs(A.T @ y) / n <= alpha * (1 + 1e-12))


def test_cd_objective_non_increasing():
    A = rng.normal(size=(30, 6))
    y = rng.normal(size=30)
    res = elastic_net_cd(A, y, alpha=0.05, rho=0.4)
    assert np.all(np.diff(res.objectives) <= 1e-14)


def test_cd_vs_grid_search_oracle():
    A = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    alpha, rho = 0.1, 0.6
    res = elastic_net_cd(A, y, alpha, rho)
    _, obj_oracle = grid_search_elastic_net(A, y, alpha, rho)
    obj_cd = elastic_net_objective(A, y, res.coeffs, alpha, rho)
    assert obj_cd <= obj_oracle + 1e-5


def test_cd_input_validation():
    with pytest.raises(ValueError):
        elastic_net_cd(np.eye(2), [1.0, 1.0], alpha=0.1, rho=1.5)
    with pytest.raises(ValueError):
        elastic_net_cd(np.eye(2), [1.0, 1.0], alpha=-1.0, rho=0.5)


@pytest.mark.parametrize("where", ["A", "y"])
def test_cd_refuses_a_finite_system_whose_gram_form_overflows(where):
    # every entry is finite, but A^T A overflows (A of 1e200) or only A^T y does (A of 1e100, y of 1e250)
    A, y = rng.normal(size=(10, 3)), rng.normal(size=10)
    if where == "A":
        A *= 1e200
    else:
        A *= 1e100
        y *= 1e250
    with pytest.raises(NumericError, match="Gram form"):
        elastic_net_cd(A, y, alpha=0.1, rho=0.5)


def test_cd_refuses_a_system_whose_objective_overflows():
    # the Gram form is finite, but ||y||^2 / 2N, the objective at w = 0, is not
    A, y = rng.normal(size=(10, 3)), rng.normal(size=10) * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="objective of the elastic-net system overflows"):
            elastic_net_cd(A, y, alpha=0.1, rho=0.5)


@pytest.mark.parametrize("alpha", [np.inf, np.nan, -1.0])
def test_cd_refuses_an_alpha_that_is_not_finite_and_non_negative(alpha):
    # inf * ||0||_1 is NaN, which read as an overflowing objective before this check
    with pytest.raises(ValueError, match=r"^alpha must be finite and >= 0$"):
        elastic_net_cd(np.ones((3, 2)), [1.0, 2.0, 3.0], alpha, 0.5)


def test_cd_non_convergence_flagged():
    A = rng.normal(size=(10, 4))
    y = rng.normal(size=10)
    res = elastic_net_cd(A, y, alpha=0.0, rho=1.0, tol=1e-15, max_iter=2)
    assert not res.converged


def _tall_system():
    """The tall fits of the solver benchmark: 41 equispaced Runge samples,
    degree 20 monomials (cond 2.6e7)."""
    s = RUNGE.sample(equispaced(41))
    return design_matrix(s.nodes, 20, Basis.MONOMIAL), s.ys


@pytest.mark.parametrize("rho", [1.0, 0.5], ids=["lasso", "elastic_net"])
def test_cd_tall_fits_converge_in_few_sweeps(rho):
    # plain residual-form cyclic CD needs 4155 (lasso) and 1233 (elastic net)
    A, y = _tall_system()
    res = elastic_net_cd(A, y, alpha=1e-3, rho=rho)
    assert res.converged
    assert res.n_sweeps <= 25


@pytest.mark.parametrize("rho", [1.0, 0.5], ids=["lasso", "elastic_net"])
def test_cd_kkt_residual_certifies_the_optimum(rho):
    A, y = _tall_system()
    alpha = 1e-3
    scale = np.max(np.abs(A.T @ y)) / len(y)
    res = elastic_net_cd(A, y, alpha, rho)
    assert res.kkt_residual <= 1e-6 * scale
    early = elastic_net_cd(A, y, alpha, rho, max_iter=1)
    assert not early.converged
    assert early.kkt_residual > 1e-6 * scale
    # the same subgradient violation, taken from the rows rather than from G
    w = early.coeffs
    g = A.T @ (y - A @ w) / len(y)
    on = w != 0
    expect = max(
        np.max(np.abs(g - alpha * (1 - rho) * w - alpha * rho * np.sign(w))[on], initial=0.0),
        np.max(np.maximum(np.abs(g) - alpha * rho, 0.0)[~on], initial=0.0),
    )
    assert early.kkt_residual == pytest.approx(expect, rel=1e-6)


@given(
    n_obs=st.integers(3, 40),
    p=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)),
    rho=st.sampled_from([0.0, 0.3, 1.0]),
)
@settings(max_examples=30, deadline=None)
def test_cd_never_above_plain_cyclic_cd(n_obs, p, seed, alpha, rho):
    g = np.random.default_rng(seed)
    A = g.normal(size=(n_obs, p)) * 10.0 ** g.uniform(-2, 2, size=p)
    y = g.normal(size=n_obs)
    # the same tol and sweep budget for both; the budget keeps the oracle quick
    res = elastic_net_cd(A, y, alpha, rho, max_iter=500)
    _, f_cyclic = cyclic_cd_elastic_net(A, y, alpha, rho, max_iter=500)
    f0 = elastic_net_objective(A, y, np.zeros(p), alpha, rho)
    assert np.all(np.diff(res.objectives) <= 1e-14)
    assert res.objectives[-1] == elastic_net_objective(A, y, res.coeffs, alpha, rho)
    assert res.objectives[-1] <= f_cyclic + 1e-12 * f0


def test_cd_singular_support_stays_finite():
    # p > N at alpha = 0: every support wider than N has a singular G_SS
    A = rng.normal(size=(5, 12))
    y = rng.normal(size=5)
    res = elastic_net_cd(A, y, alpha=0.0, rho=1.0)
    assert np.all(np.isfinite(res.coeffs))
    assert np.isfinite(res.kkt_residual)
    assert np.all(np.diff(res.objectives) <= 1e-14)


def test_cd_skips_polish_on_numerically_singular_support():
    # two columns within 1e-9 of each other: G_SS has a condition number
    # beyond 1/eps, and an exact solve on it lands above plain cyclic CD
    for seed in range(40):
        g = np.random.default_rng(seed)
        a = g.normal(size=10)
        A = np.column_stack([a, a + 1e-9 * g.normal(size=10), g.normal(size=10)])
        y = g.normal(size=10)
        for alpha in (0.0, 1e-3):
            res = elastic_net_cd(A, y, alpha, rho=1.0, max_iter=500)
            _, f_cyclic = cyclic_cd_elastic_net(A, y, alpha, rho=1.0, max_iter=500)
            assert np.all(np.diff(res.objectives) <= 1e-14)
            assert res.objectives[-1] <= f_cyclic + 1e-12 * elastic_net_objective(A, y, np.zeros(3), alpha, 1.0)


def _ridge(nodes, y, alpha, degree):
    """Ridge coefficients of the samples y at the nodes: fit_regularized solves
    it as least squares with the rows sqrt(N*alpha)*I stacked under A."""
    return fit_regularized(SampleSet(nodes, np.asarray(y)), degree, "ridge", alpha=alpha).coeffs


def test_ridge_alpha_zero_matches_lstsq():
    A = design_matrix(equispaced(11), 4, Basis.MONOMIAL)
    y = rng.normal(size=11)
    assert np.allclose(_ridge(equispaced(11), y, 0.0, 4), lstsq(A, y), atol=1e-9)


def test_ridge_large_alpha_shrinks_to_zero():
    y = rng.normal(size=11)
    c = _ridge(equispaced(11), y, 1e12, 4)
    assert np.linalg.norm(c) < 1e-6


def test_ridge_norm_non_increasing_in_alpha():
    y = rng.normal(size=11)
    norms = [np.linalg.norm(_ridge(equispaced(11), y, a, 6)) for a in (0.0, 0.01, 0.1, 1.0, 10.0)]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


@pytest.mark.parametrize("n, degree", [(11, 4), (11, 10), (3, 8)], ids=["tall", "square", "rank-deficient"])
def test_ridge_alpha_zero_is_the_unregularized_fit(n, degree):
    # 3 samples and 9 monomials: A^T A is singular, and the fit is still the
    # unregularized least-squares one, bit for bit
    s = RUNGE.sample(equispaced(n))
    ridge = fit_regularized(s, degree, PenaltyKind.RIDGE, alpha=0.0)
    assert np.array_equal(ridge.coeffs, fit_regularized(s, degree, PenaltyKind.NONE).coeffs)
