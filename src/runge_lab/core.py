"""Core value types: intervals, node sets, samples, target functions, approximants.

Everything here is an immutable value object; construction validates, evaluation
never mutates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import legendre as _leg
from numpy.polynomial import polynomial as _poly


class NodeFamily(enum.Enum):
    EQUISPACED = "equispaced"
    CHEBYSHEV_ROOTS = "chebyshev_roots"
    CHEBYSHEV_LOBATTO = "chebyshev_lobatto"
    MOCK_CHEBYSHEV_SUBSET = "mock_chebyshev_subset"
    CUSTOM = "custom"


class Basis(enum.Enum):
    MONOMIAL = "monomial"
    CHEBYSHEV_T = "chebyshev_t"
    LEGENDRE = "legendre"

    def vander(self, t, degree: int) -> np.ndarray:
        """Column j holds basis function j at the unit coordinates t."""
        return _BASIS_FUNCTIONS[self][0](t, degree)

    def val(self, t, coeffs) -> np.ndarray:
        """Sum of coeffs[j] times basis function j at the unit coordinates t."""
        return _BASIS_FUNCTIONS[self][1](t, coeffs)


_BASIS_FUNCTIONS = {  # basis -> (vander, val)
    Basis.MONOMIAL: (_poly.polyvander, _poly.polyval),
    Basis.CHEBYSHEV_T: (_cheb.chebvander, _cheb.chebval),
    Basis.LEGENDRE: (_leg.legvander, _leg.legval),
}


@dataclass(frozen=True)
class Interval:
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def to_unit(self, x):
        """Affine map of x from [lo, hi] onto [-1, 1]; exactly the identity on [-1, 1]."""
        return (np.asarray(x, dtype=float) - (self.lo + self.hi) / 2.0) * (2.0 / self.width)

    def from_unit(self, t):
        """Inverse of :meth:`to_unit`."""
        return self.lo + (np.asarray(t, dtype=float) + 1.0) * self.width / 2.0

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - 1e-12) and np.all(x <= self.hi + 1e-12))  # rounding slack


def _frozen_array(values) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class NodeSet:
    """Ordered abscissae on an interval, tagged with the generating family.

    A single node is permitted so degenerate generators (a single Chebyshev
    root) stay representable; interpolation routines impose their own minimum
    counts.
    """

    interval: Interval
    xs: np.ndarray
    family: NodeFamily = NodeFamily.CUSTOM

    def __post_init__(self):
        object.__setattr__(self, "xs", _frozen_array(self.xs))
        if self.xs.ndim != 1 or len(self.xs) < 1:
            raise ValueError("node set needs at least one abscissa")
        if not np.all(np.isfinite(self.xs)):
            raise ValueError("node abscissae must be finite")
        if np.any(np.diff(self.xs) <= 0):
            raise ValueError("node abscissae must be strictly increasing")
        if not self.interval.contains(self.xs):
            raise ValueError("node abscissae must lie within the interval")

    def __len__(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class SampleSet:
    """Paired abscissae/ordinates sampled from some target function."""

    nodes: NodeSet
    ys: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ys", _frozen_array(self.ys))
        if len(self.ys) != len(self.nodes):
            raise ValueError("ys must match node count")
        if not np.all(np.isfinite(self.ys)):
            raise ValueError("sample ordinates must be finite")

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def xs(self) -> np.ndarray:
        return self.nodes.xs

    @property
    def interval(self) -> Interval:
        return self.nodes.interval


@dataclass(frozen=True)
class TargetFunction:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def sample(self, nodes: NodeSet) -> SampleSet:
        return SampleSet(nodes=nodes, ys=self(nodes.xs))


def runge(x):
    """The classic 1/(1 + 25 x^2) bump."""
    x = np.asarray(x, dtype=float)
    return 1.0 / (1.0 + 25.0 * x * x)


RUNGE = TargetFunction("runge", runge)


def polynomial_target(coeffs: Sequence[float], name: str | None = None) -> TargetFunction:
    """Target polynomial with the given monomial coefficients (low to high)."""
    c = np.asarray(coeffs, dtype=float)
    return TargetFunction(name or f"poly_deg{len(c) - 1}", lambda x: _poly.polyval(x, c))


class Approximant:
    """Base class for evaluable approximations."""

    def evaluate(self, xs) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def n_params(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class BasisPoly(Approximant):
    """Polynomial in a fixed basis of the unit coordinate t = interval.to_unit(x), so
    its coefficients and the penalties fits put on them mean the same on any interval."""

    basis: Basis
    coeffs: np.ndarray
    interval: Interval = field(default_factory=Interval)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen_array(self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("coefficient vector must be non-empty")

    def evaluate(self, xs) -> np.ndarray:
        return self.basis.val(self.interval.to_unit(xs), self.coeffs)

    @property
    def n_params(self) -> int:
        return len(self.coeffs)


def barycentric_weights(xs: np.ndarray) -> np.ndarray:
    """Classic product-form barycentric weights, capacity-rescaled so the
    products stay in range for a few dozen nodes."""
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    if n < 2:
        raise ValueError("barycentric weights need at least two nodes")
    cap = (xs[-1] - xs[0]) / 4.0
    diffs = (xs[:, None] - xs[None, :]) / cap
    np.fill_diagonal(diffs, 1.0)
    return 1.0 / np.prod(diffs, axis=1)


# Evaluation points x nodes elements per block of Barycentric.evaluate: big
# enough that paper-size calls are one block, small enough to stay in cache.
_EVAL_BLOCK = 1 << 18


@dataclass(frozen=True)
class Barycentric(Approximant):
    """Second-form barycentric Lagrange interpolant.

    Node hits are detected by exact floating equality, returning the stored
    ordinate, which sidesteps the 0/0 case without a fuzzy epsilon.

    Cost model: evaluating m points is O(m n) arithmetic, done in blocks of
    ``max(1, _EVAL_BLOCK // n)`` points, so temporary memory is O(block n)
    rather than O(m n). Each point's value depends only on that point.
    """

    nodes: NodeSet
    ys: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ys", _frozen_array(self.ys))
        object.__setattr__(self, "weights", _frozen_array(self.weights))
        if len(self.ys) != len(self.nodes) or len(self.weights) != len(self.nodes):
            raise ValueError("ys and weights must match node count")
        if np.any(self.weights == 0.0):
            raise ValueError("barycentric weights must be nonzero")

    @classmethod
    def fit(cls, samples: SampleSet) -> "Barycentric":
        if len(samples) < 2:
            raise ValueError("need at least two samples to interpolate")
        return cls(samples.nodes, samples.ys, barycentric_weights(samples.xs))

    @property
    def interval(self) -> Interval:
        return self.nodes.interval

    def evaluate(self, xs) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        flat = xs.ravel()
        out = np.empty_like(flat)
        block = max(1, _EVAL_BLOCK // len(self.nodes))
        for start in range(0, len(flat), block):
            diff = flat[start : start + block, None] - self.nodes.xs[None, :]
            hit_rows, hit_cols = np.nonzero(diff == 0.0)
            diff[hit_rows, hit_cols] = 1.0  # dummy, overwritten below
            terms = self.weights[None, :] / diff
            part = (terms @ self.ys) / terms.sum(axis=1)
            part[hit_rows] = self.ys[hit_cols]
            out[start : start + block] = part
        return out.reshape(xs.shape)

    @property
    def n_params(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class Piecewise(Approximant):
    """Piecewise approximant dispatching on subinterval: left-closed/right-open
    pieces, the last piece closed on both ends.

    Cost model: evaluating m points locates them with one ``searchsorted``,
    sorts them by piece once, and calls each piece that received points once
    on its contiguous slice, so the work is O(m log m) plus one call per piece
    hit, not one pass over the points per piece. The natural cubic spline
    stays a ``Piecewise`` of monomial pieces rather than a kind of its own:
    its knots are the breakpoints, each gap's coefficients stay readable as
    ``pieces[i]``, and a point on a knot goes to the piece on its right by the
    same rule as every other piecewise approximant.
    """

    breakpoints: np.ndarray
    pieces: tuple[Approximant, ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", _frozen_array(self.breakpoints))
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if np.any(np.diff(self.breakpoints) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if len(self.pieces) != len(self.breakpoints) - 1:
            raise ValueError("need exactly one piece per breakpoint gap")

    @property
    def interval(self) -> Interval:
        return Interval(float(self.breakpoints[0]), float(self.breakpoints[-1]))

    def evaluate(self, xs) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        lo, hi = self.breakpoints[0], self.breakpoints[-1]
        if np.any(xs < lo) or np.any(xs > hi):
            raise ValueError(f"evaluation point outside span [{lo}, {hi}]")
        flat = xs.ravel()
        idx = np.searchsorted(self.breakpoints, flat, side="right") - 1
        idx = np.clip(idx, 0, len(self.pieces) - 1)
        order = np.argsort(idx, kind="stable")
        bounds = np.searchsorted(idx[order], np.arange(len(self.pieces) + 1)).tolist()
        out = np.empty_like(flat)
        for i in np.flatnonzero(np.diff(bounds)).tolist():
            rows = order[bounds[i] : bounds[i + 1]]
            out[rows] = self.pieces[i].evaluate(flat[rows])
        return out.reshape(xs.shape)

    @property
    def n_params(self) -> int:
        return sum(p.n_params for p in self.pieces)
