"""Error measurement on dense grids and the Chebyshev error bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Approximant, Interval, NumericError, TargetFunction, UsageError, _integer

DEFAULT_GRID_SIZE = 1001


@dataclass(frozen=True)
class ErrorReport:
    method: str
    n_params: int
    max_abs: float
    rms: float
    argmax_x: float
    endpoint_max_abs: float


@dataclass(frozen=True)
class StudyEntry:
    param: int
    report: ErrorReport | None
    error: str | None = None


def error_report(
    approx: Approximant,
    f: TargetFunction,
    interval: Interval = Interval(),
    grid_size: int = DEFAULT_GRID_SIZE,
    method: str = "",
) -> ErrorReport:
    """Sup/RMS error of the approximant against f on an equispaced grid, with
    the max location and the max over the outer 10% bands at each endpoint.
    Cost is one call of f and one evaluate of the approximant on the grid,
    then grid_report's vector passes."""
    xs, truth = _scoring_grid(f, interval, grid_size)
    return grid_report(xs, truth, approx.evaluate(xs), interval, approx.n_params, method)


def _scoring_grid(f: TargetFunction, interval: Interval, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The equispaced grid of grid_size points on `interval` and f on it; a
    grid_size that is not an integer or is below 2 raises UsageError."""
    if _integer("grid_size", grid_size) < 2:
        raise UsageError(f"grid_size must be at least 2, got {grid_size}")
    xs = np.linspace(interval.lo, interval.hi, grid_size)
    return xs, f(xs)


def grid_report(
    xs: np.ndarray, truth: np.ndarray, values: np.ndarray, interval: Interval, n_params: int, method: str = ""
) -> ErrorReport:
    """error_report's figures for `values` against `truth`, both taken on the
    equispaced grid `xs` over `interval`, so a caller that already holds them
    scores a fit without evaluating it or the target again. Cost is a few
    vector passes over the grid and no call of either.

    A non-finite value, from any approximant, raises NumericError naming the
    first such x and how many of the grid's points are not finite: a score of
    such values would read inf or NaN, or a finite endpoint error beside them."""
    if len(xs) < 2:
        raise ValueError(f"grid_size must be at least 2, got {len(xs)}")
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise NumericError(
            f"values of {method or 'the fit'} are not finite at {len(bad)} of the {len(xs)} grid point(s), "
            f"first at x = {float(xs[bad[0]])!r}"
        )
    err = np.abs(truth - values)
    i_max = int(np.argmax(err))
    band = 0.1 * interval.width
    edge = (xs <= interval.lo + band) | (xs >= interval.hi - band)
    return ErrorReport(
        method=method,
        n_params=n_params,
        max_abs=float(err[i_max]),
        rms=float(np.sqrt(np.mean(err**2))),
        argmax_x=float(xs[i_max]),
        endpoint_max_abs=float(err[edge].max()),
    )


def chebyshev_bound(n: int, M: float) -> float:
    """Sup-norm interpolation error bound M / (2^n * (n+1)) on Chebyshev roots,
    where M bounds |f^(n+1)| on the interval."""
    if (n := _integer("n", n)) < 0:  # a Python int: math.ldexp takes no numpy integer
        raise ValueError("n must be >= 0")
    if not 0 <= M < math.inf:
        raise ValueError("M must be finite and >= 0")
    return math.ldexp(M / (n + 1), -n)  # no 2.0**n, which overflows from n = 1024
