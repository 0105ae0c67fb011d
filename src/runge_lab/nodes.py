"""Node-family generators and subset selection on equispaced grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Interval, NodeFamily, NodeSet


@dataclass(frozen=True)
class SubsetSelection:
    """Indices into a source grid picked to track a list of target abscissae."""

    source: NodeSet
    indices: tuple[int, ...]
    targets: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.targets, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "targets", t)
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        idx = np.asarray(self.indices)
        if len(idx) and (np.any(np.diff(idx) <= 0) or idx[0] < 0 or idx[-1] >= len(self.source)):
            raise ValueError("indices must be strictly increasing valid source indices")
        if len(idx) > len(self.targets):
            raise ValueError("more indices than targets")

    @property
    def xs(self) -> np.ndarray:
        return self.source.xs[list(self.indices)]

    def node_set(self) -> NodeSet:
        return NodeSet(self.source.interval, self.xs, NodeFamily.MOCK_CHEBYSHEV_SUBSET)


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


def mock_chebyshev_subset(source: NodeSet, m: int) -> SubsetSelection:
    """Pick the source node nearest each of the m+1 Chebyshev-Lobatto targets.

    Ties break toward the smaller abscissa; duplicate picks collapse, so the
    result may be shorter than the target list on coarse grids.
    """
    if len(source) < 2:
        raise ValueError("source grid needs at least two nodes")
    if m < 1:
        raise ValueError("need m >= 1 targets")
    targets = chebyshev_lobatto(m, source.interval).xs
    picked = [int(np.argmin(np.abs(source.xs - t))) for t in targets]  # argmin ties -> first = smaller x
    indices = sorted(set(picked))
    return SubsetSelection(source=source, indices=tuple(indices), targets=targets)


def every_other_subset(source: NodeSet) -> SubsetSelection:
    """Every second grid point starting from the left endpoint."""
    if len(source) < 3:
        raise ValueError("source grid needs at least three nodes")
    indices = tuple(range(0, len(source), 2))
    return SubsetSelection(source=source, indices=indices, targets=source.xs[list(indices)])
