"""Error measurement on dense grids, the Chebyshev error bound, and
convergence studies across a parameter grid."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Approximant, Interval, TargetFunction

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
    the max location and the max over the outer 10% bands at each endpoint."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    xs = np.linspace(interval.lo, interval.hi, grid_size)
    err = np.abs(f(xs) - approx.evaluate(xs))
    i_max = int(np.argmax(err))
    band = 0.1 * interval.width
    edge = (xs <= interval.lo + band) | (xs >= interval.hi - band)
    return ErrorReport(
        method=method,
        n_params=approx.n_params,
        max_abs=float(err[i_max]),
        rms=float(np.sqrt(np.mean(err**2))),
        argmax_x=float(xs[i_max]),
        endpoint_max_abs=float(err[edge].max()),
    )


def chebyshev_bound(n: int, M: float) -> float:
    """Sup-norm interpolation error bound M / (2^n * (n+1)) on Chebyshev roots,
    where M bounds |f^(n+1)| on the interval."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0 <= M < math.inf:
        raise ValueError("M must be finite and >= 0")
    return math.ldexp(M / (n + 1), -n)  # no 2.0**n, which overflows from n = 1024


def convergence_study(
    method_handle: Callable[[TargetFunction, int], Approximant],
    f: TargetFunction,
    param_grid: Sequence[int],
    interval: Interval = Interval(),
    grid_size: int = DEFAULT_GRID_SIZE,
    method_name: str = "",
) -> list[StudyEntry]:
    """One error report per parameter value on a shared evaluation grid.

    A failing fit is recorded in its entry instead of aborting the study.
    """
    if not len(param_grid):
        raise ValueError("param grid must be non-empty")
    entries = []
    for p in param_grid:
        label = f"{method_name}[{p}]" if method_name else str(p)
        try:
            approx = method_handle(f, p)
            entries.append(StudyEntry(param=p, report=error_report(approx, f, interval, grid_size, method=label)))
        except Exception as exc:  # record, keep going
            entries.append(StudyEntry(param=p, report=None, error=f"{type(exc).__name__}: {exc}"))
    return entries
