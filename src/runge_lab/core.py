"""Core value types: intervals, node sets, samples, target functions, approximants.

Everything here is an immutable value object; construction validates, evaluation
never mutates.
"""

from __future__ import annotations

import enum
import math
import operator
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial import legendre as _leg
from numpy.polynomial import polynomial as _poly


class NumericError(RuntimeError):
    """Numerical failure: singular system, non-convergence, full truncation,
    barycentric weights or values outside the float range."""


class UsageError(ValueError):
    """Bad command-line, configuration or count input; maps to exit code 2."""


def _integer(name: str, value) -> int:
    """`value` as an int: a Python or numpy integer passes, anything else
    (a bool, a float, a string) raises UsageError."""
    try:
        if isinstance(value, (bool, np.bool_)):  # operator.index(True) is 1
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None


class NodeFamily(enum.Enum):
    EQUISPACED = "equispaced"
    CHEBYSHEV_ROOTS = "chebyshev_roots"
    CHEBYSHEV_LOBATTO = "chebyshev_lobatto"
    CUSTOM = "custom"


class Basis(enum.Enum):
    MONOMIAL = "monomial"
    LEGENDRE = "legendre"

    def vander(self, t, degree: int) -> np.ndarray:
        """Column j holds basis function j at the unit coordinates t."""
        return _BASIS_FUNCTIONS[self][0](t, degree)

    def val(self, t, coeffs) -> np.ndarray:
        """Sum of coeffs[j] times basis function j at the unit coordinates t.

        Monomials take :func:`_horner`: for degree d, 2d in-place ufunc calls
        on one array of t's shape. Legendre takes numpy's ``legval``, which
        allocates new arrays at each Clenshaw step; numpy 1.x and 2 round
        those steps differently, so no rewrite could match both."""
        return _BASIS_FUNCTIONS[self][1](t, coeffs)


def _horner(t, coeffs):
    """Sum of coeffs[j] * t**j by Horner's rule, bit for bit what numpy's
    ``polyval`` returns (with ``tensor=False`` when coeffs is a table whose
    rows broadcast against t): start from ``t * 0 + coeffs[-1]``, so a
    non-finite t gives NaN and a zero leading coefficient keeps its sign,
    then multiply by t and add the next coefficient down, both in place on
    that one array, where ``polyval`` allocates two new arrays per step. A
    0-d t gives a numpy scalar, as ``polyval`` does."""
    out = t * 0
    out += coeffs[-1]
    for c in coeffs[-2::-1]:
        out *= t
        out += c
    return out


_BASIS_FUNCTIONS = {  # basis -> (vander, val)
    Basis.MONOMIAL: (_poly.polyvander, _horner),
    Basis.LEGENDRE: (_leg.legvander, _leg.legval),
}


@dataclass(frozen=True)
class Interval:
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")
        if not all(map(math.isfinite, (self.lo, self.hi, float(self.hi) - float(self.lo)))):
            raise ValueError(f"interval requires finite ends and width, got [{self.lo}, {self.hi}]")

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
        slack = 1e-12 * min(1.0, self.width / 2)  # rounding slack, scaled down on intervals narrower than 2
        return bool(np.all(x >= self.lo - slack) and np.all(x <= self.hi + slack))


def _frozen_array(values) -> np.ndarray:
    """A read-only float copy of `values`: the caller's array stays writable,
    and writing to it (or to the array it views) changes nothing validated here."""
    a = np.array(values, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class NodeSet:
    """Ordered abscissae on an interval, tagged with the generating family.

    ``Barycentric.fit`` takes the closed-form weights of a Chebyshev family
    from the tag, so a set of other abscissae must not carry that tag.

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
    """The classic 1/(1 + 25 x^2) bump. For |x| beyond about 2e153 the square
    overflows to inf and the value is 0.0, the correct float, without a warning."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + 25.0 * x * x)


RUNGE = TargetFunction("runge", runge)


def _coefficient_vector(coeffs) -> np.ndarray:
    """coeffs as a read-only float vector; anything but a non-empty 1-D
    vector raises ValueError."""
    c = _frozen_array(coeffs)
    if c.ndim != 1 or len(c) == 0:
        raise ValueError(f"coefficients must be a non-empty 1-D vector, got shape {c.shape}")
    return c


def polynomial_target(coeffs: Sequence[float], name: str | None = None) -> TargetFunction:
    """Target polynomial with the given monomial coefficients (low to high), a
    non-empty 1-D vector. A call evaluates it by :func:`_horner`, in place,
    with ``polyval``'s float operations: NaN at a non-finite x."""
    c = _coefficient_vector(coeffs)
    return TargetFunction(name or f"poly_deg{len(c) - 1}", lambda x: _horner(x, c))


def _finite(values, xs, kind: str):
    """values, if every one is finite. Else NumericError naming `kind`, how
    many values are not finite and the first x at which one is not; xs holds
    the points in the order of values."""
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise NumericError(
            f"{kind} leaves the float range at x = {float(np.ravel(xs)[bad[0]])!r}: "
            f"{len(bad)} of the {np.size(values)} point(s) are not finite"
        )
    return values


class Approximant:
    """Base class for evaluable approximations."""

    def evaluate(self, xs) -> np.ndarray:  # pragma: no cover - abstract
        """Values at the points xs, in xs's shape (a scalar gives a 0-d value). A
        non-finite point raises ValueError. ``BasisPoly`` and ``Barycentric``
        extrapolate outside their interval; ``Piecewise`` raises ValueError for
        a point outside its span. Every kind raises NumericError, naming the
        first x at which it happens, for a value outside the float range, and
        no numpy float warning comes before it."""
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
        object.__setattr__(self, "coeffs", _coefficient_vector(self.coeffs))

    def evaluate(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if not np.isfinite(xs).all():
            raise ValueError("evaluation points must be finite")
        with np.errstate(over="ignore", invalid="ignore"):  # a value out of range raises below instead
            values = self.basis.val(self.interval.to_unit(xs), self.coeffs)
        return _finite(values, xs, f"{self.basis.value} polynomial of degree {len(self.coeffs) - 1}")

    @property
    def n_params(self) -> int:
        return len(self.coeffs)


# Elements per block of _blockwise (points x nodes): big enough that paper-size
# calls are one block. A block is 2 MiB of float64: the whole per-core L2 of the
# 2-vCPU Xeon VM the benchmarks ran on, so it does not stay in cache between
# phases. The block bounds fix the results, so this is not a tuning knob: a new
# size moves large evaluations by a rounding.
_EVAL_BLOCK = 1 << 18

# Threads that run the blocks of one call: one per CPU this process may use.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _blockwise(points: np.ndarray, nodes: np.ndarray, finish) -> None:
    """Call ``finish(start, diffs)`` once per block of ``max(1, _EVAL_BLOCK // n)``
    points, with ``diffs[i, j] = points[start + i] - nodes[j]``, which
    ``finish`` may overwrite.

    Cost model: O(m n) arithmetic for m points and n nodes. Each worker reuses
    one (block x n) buffer, so temporary memory is O(workers x _EVAL_BLOCK)
    rather than O(m n). The block bounds, not the number of workers, fix every
    result bit for bit.

    The differences are formed with numpy's ufunc buffer cut to one row. When
    three or more rows fit in numpy's buffer (8192 elements by default, so for
    rows of up to about 2700), numpy copies both broadcast operands through
    it, and the subtract takes 1.2-1.8 ns per element against 0.3-0.5 ns
    unbuffered (buffered, it was 39-47% of one thread's evaluation of Lobatto
    n = 1000 on 20 000 points). Each element is one correctly rounded
    subtraction whatever the loop order, so the buffer cannot change a bit.
    Rows shorter than about 35 are slower unbuffered: at n = 11 a 1001-point
    evaluation takes about 170 us against 105 us. The buffer size is numpy's
    per thread (1.x) or per context (2.x), and it is restored even if the
    subtract raises, so the caller keeps its own.

    The caller is one worker and starts min(_WORKERS, blocks) - 1 helper
    threads for the call, so one block starts no thread. Each worker claims
    the starts no worker has claimed yet, one at a time, so a worker slowed by
    another thread on its CPU takes fewer blocks instead of holding up the
    call. A helper runs under the caller's float-error settings (numpy keeps
    them per thread or per context, and neither reaches a new thread). The
    blocks only call numpy ufuncs and BLAS, which release the GIL, so the
    workers run in parallel.

    Once a block raises, on a helper or on the caller, no worker claims
    another block: the blocks already claimed run to their end, every helper
    that started is joined, and the exception of the lowest block that raised
    re-raises here. Blocks are claimed in order, so that block always runs,
    and which error a call raises does not depend on the number of workers or
    on their timing. A helper that fails to start stops the call the same
    way, and its error wins.
    """
    m, n = len(points), len(nodes)
    block = max(1, _EVAL_BLOCK // n)
    starts = range(0, m, block)
    unclaimed, lock = iter(starts), threading.Lock()
    saved = {**np.geterr(), "call": np.geterrcall()}
    failed = []  # (start, exception) per raise; a start of -1 is no block's

    def claim():
        with lock:
            return None if failed else next(unclaimed, None)

    def run():
        start = -1
        try:
            buf = np.empty((min(block, m), n))
            for start in iter(claim, None):
                diffs = buf[: min(block, m - start)]
                old = np.setbufsize(16)
                try:
                    np.subtract(points[start : start + block, None], nodes, out=diffs)
                finally:
                    np.setbufsize(old)
                finish(start, diffs)
        except BaseException as e:
            failed.append((start, e))

    def helper():
        with np.errstate(**saved):
            run()

    started = []
    try:
        for _ in range(min(_WORKERS, len(starts)) - 1):
            t = threading.Thread(target=helper, name="runge_lab")
            t.start()
            started.append(t)
        run()
    except BaseException as e:  # a helper that did not start; run() keeps its own
        failed.append((-1, e))
    finally:
        for t in started:
            t.join()
    if failed:
        try:
            raise min(failed, key=lambda f: f[0])[1]
        finally:
            failed.clear()  # no cycle through this frame keeps the blocks' buffers alive


def barycentric_weights(xs: np.ndarray) -> np.ndarray:
    """Classic product-form barycentric weights, capacity-rescaled so the
    products stay in range for a few dozen nodes.

    O(n^2) arithmetic, in the row blocks of :func:`_blockwise`. Each row's
    product is taken in the same order as over the whole matrix, so the
    weights do not depend on the block size or on the number of workers.

    The products leave the float range for large n: equispaced sets from
    1116 nodes on give zero weights. Each block checks the weights it
    wrote, and the first block holding one that is zero, subnormal, ±inf or
    NaN raises :class:`NumericError` naming n, its failing rows and the range
    of representable magnitudes; no block starts after it. That error is the
    only signal: the products and reciprocals raise no numpy float warning.
    It is the fallback of :meth:`Barycentric.fit` for node sets without a
    closed form: equispaced, custom and mock-Chebyshev subset nodes.
    """
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    if n < 2:
        raise ValueError("barycentric weights need at least two nodes")
    cap = (xs[-1] - xs[0]) / 4.0
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    w = np.empty(n)

    def finish(start, diffs):
        stop = start + len(diffs)
        with np.errstate(all="ignore"):  # an out-of-range weight raises below instead
            np.divide(diffs, cap, out=diffs)
            rows = np.arange(len(diffs))
            diffs[rows, start + rows] = 1.0
            np.divide(1.0, np.prod(diffs, axis=1), out=w[start:stop])
        mag = np.abs(w[start:stop])
        bad = np.flatnonzero(~((mag >= tiny) & (mag <= huge)))  # NaN fails both
        if len(bad):
            bad = (start + bad).tolist()
            listed = ", ".join(map(str, bad[:3])) + (", ..." if len(bad) > 3 else "")
            raise NumericError(
                f"product-form barycentric weights of {n} nodes leave the float range in {len(bad)} row(s) "
                f"({listed}): |w| must lie in [{tiny:.4g}, {huge:.4g}]"
            )

    _blockwise(xs, xs, finish)
    return w


def _alternating(w: np.ndarray) -> np.ndarray:
    w[1::2] *= -1.0
    return w


# Closed-form barycentric weights of the n nodes of a Chebyshev family in
# increasing order, up to a common factor (Salzer 1972; Berrut & Trefethen
# 2004, SIAM Rev. 46(3)): O(n), never zero, and the same on every interval.
_CLOSED_FORM_WEIGHTS = {
    NodeFamily.CHEBYSHEV_ROOTS: lambda n: _alternating(np.sin((2 * np.arange(n) + 1) * np.pi / (2 * n))),
    NodeFamily.CHEBYSHEV_LOBATTO: lambda n: _alternating(np.concatenate([[0.5], np.ones(n - 2), [0.5]])),
}


@dataclass(frozen=True)
class Barycentric(Approximant):
    """Second-form barycentric Lagrange interpolant.

    Node hits are detected by exact floating equality, returning the stored
    ordinate, which sidesteps the 0/0 case without a fuzzy epsilon.

    Cost model: evaluating m points is O(m n) arithmetic, in the point blocks
    of :func:`_blockwise`; before the blocks, only the least and the greatest
    point are taken (see below). Each block is divided in place, and a node
    hit needs no search of its own: at x = x_j the difference is 0, so
    w_j / 0 is ±inf (w_j is finite and nonzero), the matrix-vector product
    and the row sum are ±inf or NaN in that row, and its value is never
    finite. After the sums, each block looks up only its non-finite rows,
    with one ``searchsorted`` on the increasing abscissae, and gives each
    point that equals a node that node's ordinate. Unbuffered differences
    leave the divide the largest phase of one thread's call for Lobatto
    n = 1000 on 20 000 points (43-47%), then the subtract and the row sum
    (20-22% each) and the matrix-vector product (12-14%).
    The arithmetic is kept on purpose: ``w / (x - x_j)`` per pair, then
    ``(terms @ ys) / terms.sum(axis=1)``. Folding the denominator into the
    matrix product (one GEMM against ``[ys, 1]``) was no faster, and it moves
    results by a rounding, which shows in figure reports that sit at
    round-off. Each point's value is computed from that point alone, but the
    BLAS matrix-vector product may round it differently, in the last bits,
    with the number of points in its block.

    Finite nodes, weights and ordinates can still give a value outside the
    float range: from about a hundred equispaced nodes on, the weighted sums
    at some points overflow to inf, and inf / inf is NaN (n = 104 is the first
    such set on 1001 points of [-1, 1]). The first block holding a value that
    is still not finite once its node hits have their ordinates raises
    :class:`NumericError` naming n, the first such x and how many points of
    that block are affected. No block starts after it (see
    :func:`_blockwise`), so the rest of the grid costs nothing, and the error
    cannot give a count over the whole grid. That error is the only signal:
    the divide and the sums raise no numpy float warning.

    A finite point can also lie so far from the nodes that its difference
    from one overflows, on intervals about 1e308 wide. The nodes increase, so
    every x - x_j lies between min(x) - x_{n-1} and max(x) - x_0; when one of
    those two is not finite, evaluate raises :class:`NumericError` naming n
    and the first such x, before any block starts and with no float warning.
    """

    nodes: NodeSet
    ys: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ys", _frozen_array(self.ys))
        object.__setattr__(self, "weights", _frozen_array(self.weights))
        if len(self.ys) != len(self.nodes) or len(self.weights) != len(self.nodes):
            raise ValueError("ys and weights must match node count")
        if not np.all(np.isfinite(self.weights) & (self.weights != 0.0)):
            raise ValueError("barycentric weights must be finite and nonzero")

    @classmethod
    def fit(cls, samples: SampleSet) -> "Barycentric":
        """Interpolant through the samples, with the closed-form weights of
        the node family where it has one, else the product form, which raises
        :class:`NumericError` once its weights leave the float range (see
        :func:`barycentric_weights`)."""
        if len(samples) < 2:
            raise ValueError("need at least two samples to interpolate")
        closed_form = _CLOSED_FORM_WEIGHTS.get(samples.nodes.family)
        weights = closed_form(len(samples)) if closed_form else barycentric_weights(samples.xs)
        return cls(samples.nodes, samples.ys, weights)

    @property
    def interval(self) -> Interval:
        return self.nodes.interval

    def evaluate(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        flat = xs.ravel()
        nodes = self.nodes.xs
        with np.errstate(over="ignore", invalid="ignore"):  # a point out of reach raises below instead
            reach = (flat.min(initial=nodes[-1]) - nodes[-1], flat.max(initial=nodes[0]) - nodes[0])
            if not np.isfinite(reach).all():
                if not np.isfinite(flat).all():
                    raise ValueError("evaluation points must be finite")
                far = flat[np.isinf(flat - nodes[0]) | np.isinf(flat - nodes[-1])][0]
                raise NumericError(
                    f"barycentric interpolant of {len(nodes)} nodes cannot reach x = {float(far)!r}: "
                    "its difference from a node leaves the float range"
                )
        out = np.empty_like(flat)

        def finish(start, terms):
            stop = start + len(terms)
            with np.errstate(all="ignore"):  # a node hit or a non-finite value is handled below
                np.divide(self.weights, terms, out=terms)
                out[start:stop] = (terms @ self.ys) / terms.sum(axis=1)
            bad = start + np.flatnonzero(~np.isfinite(out[start:stop]))
            col = np.minimum(np.searchsorted(nodes, flat[bad]), len(nodes) - 1)
            hit = nodes[col] == flat[bad]
            out[bad[hit]] = self.ys[col[hit]]
            bad = bad[~np.isfinite(out[bad])]
            if len(bad):
                raise NumericError(
                    f"barycentric interpolant of {len(nodes)} nodes leaves the float range at "
                    f"x = {float(flat[bad[0]])!r}: {len(bad)} of the {stop - start} point(s) "
                    "of that evaluation block are not finite, and evaluation stops there"
                )

        _blockwise(flat, nodes, finish)
        return out.reshape(xs.shape)

    @property
    def n_params(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class Piecewise(Approximant):
    """Piecewise approximant dispatching on subinterval: left-closed/right-open
    pieces, the last piece closed on both ends.

    The pieces are a tuple of approximants (TISI's bands) or one 2-D table,
    the pp-form of the natural cubic spline: row i holds the monomial
    coefficients of piece i in the unit coordinate of ``interval``, the span
    of the breakpoints.

    Cost model: evaluating m points locates them with one ``searchsorted``.
    A table is then evaluated by one in-place Horner pass (:func:`_horner`)
    over all m points with each point's row gathered, so the work is
    O(m log k) for k pieces, with no call per piece and no new array per
    Horner step. It does, point by point, the float operations of
    ``BasisPoly(Basis.MONOMIAL, row, interval).evaluate``, so the result is
    the same bit for bit. Tuple pieces are called once per piece hit, on its
    points in input order as one comparison of all m piece indices finds
    them: O(m k).
    """

    breakpoints: np.ndarray
    pieces: tuple[Approximant, ...] | np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", _frozen_array(self.breakpoints))
        table = isinstance(self.pieces, np.ndarray)
        object.__setattr__(self, "pieces", _frozen_array(self.pieces) if table else tuple(self.pieces))
        if table and self.pieces.ndim != 2:
            raise ValueError("coefficient table must be 2-D")
        if self.breakpoints.ndim != 1 or len(self.breakpoints) < 2 or not np.isfinite(self.breakpoints).all():
            raise ValueError("breakpoints must be a 1-D array of at least two finite values")
        if np.any(np.diff(self.breakpoints) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if len(self.pieces) != len(self.breakpoints) - 1:
            raise ValueError("need exactly one piece per breakpoint gap")

    @property
    def interval(self) -> Interval:
        return Interval(float(self.breakpoints[0]), float(self.breakpoints[-1]))

    def evaluate(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        lo, hi = self.breakpoints[0], self.breakpoints[-1]
        if not np.all((xs >= lo) & (xs <= hi)):  # NaN fails both comparisons
            raise ValueError(f"evaluation point outside span [{lo}, {hi}]")
        flat = xs.ravel()
        idx = np.searchsorted(self.breakpoints, flat, side="right") - 1
        idx = np.clip(idx, 0, len(self.pieces) - 1)
        if isinstance(self.pieces, np.ndarray):
            rows = np.take(self.pieces.T, idx, axis=1)  # contiguous (4, m): row j holds t^j's coefficients
            with np.errstate(over="ignore", invalid="ignore"):  # a value out of range raises below instead
                values = _horner(self.interval.to_unit(flat), rows)
            return _finite(values, flat, f"piecewise polynomial of {len(self.pieces)} pieces").reshape(xs.shape)
        out = np.empty_like(flat)
        for i, piece in enumerate(self.pieces):
            rows = np.flatnonzero(idx == i)
            if rows.size:
                out[rows] = piece.evaluate(flat[rows])
        return out.reshape(xs.shape)

    @property
    def n_params(self) -> int:
        if isinstance(self.pieces, np.ndarray):
            return self.pieces.size
        return sum(p.n_params for p in self.pieces)
