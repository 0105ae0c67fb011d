"""Mitigation methods for the Runge phenomenon, each returning an approximant.

Exact interpolation (barycentric Lagrange, Chebyshev-node, cubic spline,
mock-Chebyshev subset), penalized fits (ridge/lasso/elastic net, Tikhonov),
curvature-constrained fits near the endpoints, three-interval piecewise
strategies, and truncated-SVD solves.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .core import (
    Approximant,
    Barycentric,
    Basis,
    BasisPoly,
    Interval,
    NodeSet,
    NumericError,
    Piecewise,
    SampleSet,
    TargetFunction,
    _integer,
)
from .nodes import chebyshev_roots, equispaced, mock_chebyshev_subset


# ---------------------------------------------------------------------------
# Exact interpolation


def lagrange_interpolate(samples: SampleSet) -> Barycentric:
    """Barycentric Lagrange interpolant through every sample."""
    return Barycentric.fit(samples)


def cubic_spline(samples: SampleSet) -> Piecewise:
    """Natural cubic spline through the samples via the tridiagonal moment system.

    The natural end condition sets S'' = 0 at both ends. For a smooth target
    the error is O(h^4) in the interior, but O(h^2) within a few knots of an
    end where f'' != 0 there, so node doubling divides the interior error by
    about 16 and the error near such an end by about 4. The breakpoints are
    the knots in x; each piece is a cubic in the unit coordinate t of the
    knots' span [xs[0], xs[-1]], the only range the spline evaluates on, so
    the samples' interval beyond the knots does not change a bit.

    Cost model: the fit is O(n), one tridiagonal solve for the moments and one
    vectorized closed form for the (n - 1) x 4 table of monomial coefficients,
    which the returned ``Piecewise`` holds as its pieces without building a
    per-piece object. Evaluating m points is one ``searchsorted`` and one
    Horner pass over the gathered rows, O(m log n).
    """
    if len(samples) < 3:
        raise ValueError("cubic spline needs at least three samples")
    t = Interval(float(samples.xs[0]), float(samples.xs[-1])).to_unit(samples.xs)
    y = samples.ys
    h = np.diff(t)
    n = len(t)
    # interior second-derivative moments; natural ends are zero; the system is symmetric
    diag = (h[:-1] + h[1:]) / 3.0
    off = h[1:-1] / 6.0
    rhs = np.diff(y[1:]) / h[1:] - np.diff(y[:-1]) / h[:-1]
    m = np.zeros(n)
    m[1:-1] = linalg.solve_tridiagonal(off, diag, off, rhs)
    # Expand m0 (x1-X)^3/6h + m1 (X-x0)^3/6h + a (x1-X) + b (X-x0) on every
    # piece [x0, x1] of t at once into monomial coefficients c0 + c1 X + c2 X^2 + c3 X^3.
    x0, x1, m0, m1 = t[:-1], t[1:], m[:-1], m[1:]
    a = y[:-1] / h - m0 * h / 6.0
    b = y[1:] / h - m1 * h / 6.0
    coeffs = np.column_stack(
        [
            (m0 * x1**3 - m1 * x0**3) / (6.0 * h) + a * x1 - b * x0,
            (m1 * x0**2 - m0 * x1**2) / (2.0 * h) + b - a,
            (m0 * x1 - m1 * x0) / (2.0 * h),
            (m1 - m0) / (6.0 * h),
        ]
    )
    return Piecewise(breakpoints=samples.xs, pieces=coeffs)


# ---------------------------------------------------------------------------
# Penalized polynomial fits


def _stacked_fit(samples: SampleSet, degree: int, rows: np.ndarray | None = None) -> BasisPoly:
    """Monomial fit minimizing ||A c - y||^2 + ||rows c||^2, A the design matrix of the unit
    coordinate t, by one ``linalg.lstsq`` solve of [A; rows] c = [y; 0]. A zero row adds
    nothing and is dropped, so zero or no rows give exactly the plain least-squares fit."""
    A = linalg.design_matrix(samples.nodes, degree, Basis.MONOMIAL)
    if rows is not None:
        A = np.vstack([A, rows[rows.any(axis=1)]])
    coeffs = linalg.lstsq(A, np.concatenate([samples.ys, np.zeros(len(A) - len(samples))]))
    return BasisPoly(Basis.MONOMIAL, coeffs, samples.interval)


class PenaltyKind(enum.Enum):
    NONE = "none"
    RIDGE = "ridge"
    LASSO = "lasso"
    ELASTIC_NET = "elastic_net"


def fit_regularized(
    samples: SampleSet,
    degree: int,
    penalty: PenaltyKind | str = PenaltyKind.NONE,
    alpha: float = 0.01,
    rho: float = 0.5,
) -> BasisPoly:
    """Monomial fit of the given degree under the chosen penalty.

    With no penalty this is the plain (overfit-prone) least-squares baseline;
    ridge, (1/2N)||A c - y||^2 + (alpha/2)||c||^2, is tikhonov_fit with
    lam = sqrt(N*alpha); lasso and elastic net run coordinate descent and warn
    (RuntimeWarning) when they stop after linalg.CD_MAX_ITER sweeps unconverged.
    The monomials and ``alpha`` act in the unit coordinate t (see BasisPoly).
    """
    degree = _integer("degree", degree)
    penalty = PenaltyKind(penalty)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    if not 0 <= alpha < np.inf:
        raise ValueError("alpha must be finite and >= 0")
    if penalty is PenaltyKind.NONE:
        return _stacked_fit(samples, degree)
    if penalty is PenaltyKind.RIDGE:
        return _stacked_fit(samples, degree, np.sqrt(len(samples) * alpha) * np.eye(degree + 1))
    # lasso is the elastic net with rho = 1
    rho = 1.0 if penalty is PenaltyKind.LASSO else rho
    A = linalg.design_matrix(samples.nodes, degree, Basis.MONOMIAL)
    result = linalg.elastic_net_cd(A, samples.ys, alpha, rho=rho)
    if not result.converged:
        warnings.warn(
            f"{penalty.value} coordinate descent did not converge in {result.n_sweeps} sweeps "
            f"(tol={linalg.CD_TOL:g})",
            RuntimeWarning,
            stacklevel=2,
        )
    return BasisPoly(Basis.MONOMIAL, result.coeffs, samples.interval)


class TikhonovOperator(enum.Enum):
    IDENTITY = "identity"
    SECOND_DIFFERENCE = "second_difference"


def tikhonov_fit(
    samples: SampleSet,
    degree: int,
    lam: float = 0.01,
    operator: TikhonovOperator | str = TikhonovOperator.IDENTITY,
) -> BasisPoly:
    """Stacked least squares [A; L] c = [y; 0] with L = lam*I or lam*D2, where
    c holds the monomial coefficients of the unit coordinate t."""
    degree = _integer("degree", degree)
    operator = TikhonovOperator(operator)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if not 0 <= lam < np.inf:
        raise ValueError("lambda must be finite and >= 0")
    eye = np.eye(degree + 1)
    L = lam * (eye if operator is TikhonovOperator.IDENTITY else np.diff(eye, 2, axis=0))
    return _stacked_fit(samples, degree, L)


# ---------------------------------------------------------------------------
# External fake-constraint interpolation (curvature pinned near the endpoints)


@dataclass(frozen=True)
class EfciConfig:
    """``epsilon`` is each end band's width in x units; ``weight``
    weights the curvature d^2p/dt^2 in the unit coordinate t."""

    degree: int = 10
    m: int = 4
    epsilon: float = 0.1
    search: bool = False
    weight: float = 10.0

    def __post_init__(self):
        if _integer("degree", self.degree) < 2:
            raise ValueError("degree must be >= 2 to carry curvature constraints")
        if not isinstance(self.search, (bool, np.bool_)):
            raise ValueError(f"search must be a bool, got {self.search!r}")
        if _integer("m", self.m) < 2 or self.m % 2:
            raise ValueError("m must be an even integer >= 2")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if not 0 < self.weight < np.inf:
            raise ValueError("weight must be finite and > 0")


def _efc_positions(interval: Interval, m: int, epsilon: float) -> np.ndarray:
    half = m // 2
    left = np.linspace(interval.lo, interval.lo + epsilon, half)
    right = np.linspace(interval.hi - epsilon, interval.hi, half)
    return np.concatenate([left, right])


def _efci_single(samples: SampleSet, f: TargetFunction, cfg: EfciConfig, m: int):
    interval = samples.interval
    positions = _efc_positions(interval, m, cfg.epsilon)
    j = np.arange(cfg.degree + 1)  # C[i, j] = d^2/dt^2 of t^j at the i-th position
    C = j * (j - 1) * interval.to_unit(positions)[:, None] ** np.maximum(j - 2, 0)
    approx = _stacked_fit(samples, cfg.degree, np.sqrt(cfg.weight) * C)
    data_term = float(np.sum((approx.evaluate(samples.xs) - samples.ys) ** 2))
    efc_term = float(np.sum((approx.evaluate(positions) - f(positions)) ** 2))
    return approx, positions, data_term + efc_term


def efci_fit(samples: SampleSet, f: TargetFunction, cfg: EfciConfig):
    """Fit a polynomial matching the samples while flattening its curvature at
    auxiliary points inside the two epsilon-wide end bands.

    Curvature conditions enter as weighted penalty rows. With cfg.search the
    external-point count sweeps {2,4,6,8,10} and the candidate with the
    smallest two-term objective (data mismatch plus deviation from f at the
    auxiliary points) wins; ties go to the smaller count.

    Returns (approximant, efc_positions, objective).
    """
    if cfg.epsilon >= samples.interval.width / 2:
        raise ValueError("epsilon must be smaller than half the interval width")
    counts = (2, 4, 6, 8, 10) if cfg.search else (cfg.m,)
    return min((_efci_single(samples, f, cfg, m) for m in counts), key=lambda candidate: candidate[2])


# ---------------------------------------------------------------------------
# Mock-Chebyshev subset methods


def mock_chebyshev_interpolate(full: SampleSet, m: int = 10) -> Barycentric:
    """Interpolate on the subset of the full grid nearest the Lobatto targets."""
    idx = list(mock_chebyshev_subset(full.nodes, m))
    if len(idx) < 2:
        raise ValueError("mock-Chebyshev subset collapsed below two nodes")
    subset = NodeSet(full.interval, full.xs[idx])
    return Barycentric.fit(SampleSet(subset, full.ys[idx]))


def constrained_mock_chebyshev_lstsq(
    full: SampleSet,
    m: int = 10,
    ls_degree: int | None = None,
) -> BasisPoly:
    """Least squares over the full grid, constrained to interpolate exactly on
    the mock-Chebyshev subset; solved through the KKT system of the
    equality-constrained problem in the monomial basis.

    ls_degree defaults to |subset| + (|full| - |subset|) // 2.
    """
    idx = list(mock_chebyshev_subset(full.nodes, m))
    k = len(idx)
    ls_degree = k + (len(full) - k) // 2 if ls_degree is None else _integer("ls_degree", ls_degree)
    if not (k <= ls_degree + 1 <= len(full)):
        raise ValueError(
            f"need subset size ({k}) <= ls_degree+1 ({ls_degree + 1}) <= grid size ({len(full)})"
        )
    A = linalg.design_matrix(full.nodes, ls_degree, Basis.MONOMIAL)
    C = A[idx]
    d = full.ys[idx]
    kkt = np.block([[2.0 * A.T @ A, C.T], [C, np.zeros((k, k))]])
    rhs = np.concatenate([2.0 * A.T @ full.ys, d])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError("singular KKT system in constrained least squares") from exc
    return BasisPoly(Basis.MONOMIAL, sol[: ls_degree + 1], full.interval)


# ---------------------------------------------------------------------------
# Three-interval strategies


class BandStrategy(enum.Enum):
    LAGRANGE_EQUISPACED = "lagrange_equispaced"
    LAGRANGE_CHEB = "lagrange_cheb"
    SPLINE_LOCAL = "spline_local"


@dataclass(frozen=True)
class TisiConfig:
    """``left``, ``center`` and ``right`` are the strategies of the three bands,
    given as members or their values; center=LAGRANGE_CHEB is the improved TISI."""

    epsilon: float = 0.2
    left: BandStrategy | str = BandStrategy.LAGRANGE_EQUISPACED
    center: BandStrategy | str = BandStrategy.LAGRANGE_EQUISPACED
    right: BandStrategy | str = BandStrategy.LAGRANGE_EQUISPACED
    nodes_per_interval: int = 11

    def __post_init__(self):
        for band in ("left", "center", "right"):
            object.__setattr__(self, band, BandStrategy(getattr(self, band)))
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if _integer("nodes_per_interval", self.nodes_per_interval) < 2:
            raise ValueError("nodes_per_interval must be >= 2")
        if self.nodes_per_interval < 3 and BandStrategy.SPLINE_LOCAL in (self.left, self.center, self.right):
            raise ValueError("spline band needs nodes_per_interval >= 3")


def _band_nodes(band: Interval, strategy: BandStrategy, n: int) -> NodeSet:
    if strategy is BandStrategy.LAGRANGE_CHEB:
        # Chebyshev clustering inside the band, with both band endpoints forced
        # in so adjacent pieces share a node and the join stays continuous. The
        # roots lie strictly inside the band in increasing order, as NodeSet
        # checks; no np.unique, whose first call imports numpy.ma.
        interior = chebyshev_roots(n - 3, band).xs if n >= 3 else np.array([])
        xs = np.concatenate([[band.lo], interior, [band.hi]])
        return NodeSet(band, xs)
    return equispaced(n, band)


def _fit_band(f: TargetFunction, band: Interval, strategy: BandStrategy, n: int) -> Approximant:
    samples = f.sample(_band_nodes(band, strategy, n))
    return cubic_spline(samples) if strategy is BandStrategy.SPLINE_LOCAL else Barycentric.fit(samples)


def tisi_fit(f: TargetFunction, interval: Interval, cfg: TisiConfig) -> Piecewise:
    """Split the interval into [lo, lo+eps], [lo+eps, hi-eps], [hi-eps, hi] and
    fit each band independently by its configured strategy, sampling f fresh in
    each band. Shared band-endpoint nodes make the result continuous."""
    if cfg.epsilon >= interval.width / 2:
        raise ValueError("epsilon must be smaller than half the interval width")
    breaks = np.array([interval.lo, interval.lo + cfg.epsilon, interval.hi - cfg.epsilon, interval.hi])
    strategies = (cfg.left, cfg.center, cfg.right)
    pieces = tuple(
        _fit_band(f, Interval(float(breaks[i]), float(breaks[i + 1])), strategies[i], cfg.nodes_per_interval)
        for i in range(3)
    )
    return Piecewise(breakpoints=breaks, pieces=pieces)


# ---------------------------------------------------------------------------
# Truncated-SVD fits


def svd_truncated_fit(
    samples: SampleSet,
    degree: int,
    threshold: float = 1e-10,
    basis: Basis | str = Basis.LEGENDRE,
) -> BasisPoly:
    """Design matrix in the chosen basis of the unit coordinate t, solved
    through the relative-threshold truncated pseudo-inverse."""
    basis = Basis(basis)
    A = linalg.design_matrix(samples.nodes, degree, basis)
    coeffs, _ = linalg.truncated_pinv_solve(A, samples.ys, threshold)
    return BasisPoly(basis, coeffs, samples.interval)
