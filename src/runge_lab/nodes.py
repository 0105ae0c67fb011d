"""Node-family generators and subset selection on equispaced grids."""

from __future__ import annotations

import numpy as np

from .core import Interval, NodeFamily, NodeSet


def equispaced(n: int, interval: Interval = Interval()) -> NodeSet:
    """n uniformly spaced nodes including both endpoints."""
    if n < 2:
        raise ValueError("equispaced grid needs n >= 2")
    return NodeSet(interval, np.linspace(interval.lo, interval.hi, n), NodeFamily.EQUISPACED)


def chebyshev_roots(n: int, interval: Interval = Interval()) -> NodeSet:
    """Roots of T_{n+1} mapped onto the interval, in increasing order."""
    if n < 0:
        raise ValueError("chebyshev_roots needs n >= 0")
    k = np.arange(n + 1)
    xs = np.cos((2 * k + 1) * np.pi / (2 * n + 2))[::-1]
    return NodeSet(interval, interval.from_unit(xs), NodeFamily.CHEBYSHEV_ROOTS)


def chebyshev_lobatto(n: int, interval: Interval = Interval()) -> NodeSet:
    """n+1 Chebyshev extrema cos(k pi / n) mapped onto the interval; the
    endpoints are pinned exactly to the interval endpoints."""
    if n < 1:
        raise ValueError("chebyshev_lobatto needs n >= 1")
    xs = np.cos(np.arange(n, -1, -1) * np.pi / n)
    mapped = interval.from_unit(xs)
    mapped[0], mapped[-1] = interval.lo, interval.hi
    return NodeSet(interval, mapped, NodeFamily.CHEBYSHEV_LOBATTO)


def mock_chebyshev_subset(source: NodeSet, m: int) -> tuple[int, ...]:
    """Increasing indices of the source nodes nearest each of the m+1
    Chebyshev-Lobatto targets.

    Ties break toward the smaller abscissa; duplicate picks collapse, so the
    result may be shorter than the target list on coarse grids.
    """
    if len(source) < 2:
        raise ValueError("source grid needs at least two nodes")
    if m < 1:
        raise ValueError("need m >= 1 targets")
    targets = chebyshev_lobatto(m, source.interval).xs
    picked = [int(np.argmin(np.abs(source.xs - t))) for t in targets]  # argmin ties -> first = smaller x
    return tuple(sorted(set(picked)))
