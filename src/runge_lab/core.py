"""Core value types: intervals, node sets, samples, target functions, approximants.

Everything here is an immutable value object; construction validates, evaluation
never mutates.
"""

from __future__ import annotations

import enum
import functools
import operator
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

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


# Elements per block of Barycentric.evaluate (points x nodes) and of
# barycentric_weights (rows x nodes): big enough that paper-size calls are one
# block. A block is 2 MiB of float64: the whole per-core L2 of the 2-vCPU Xeon
# VM the benchmarks ran on, so it does not stay in cache between phases.
# The block bounds fix the results, so this is not a tuning knob: a new size
# moves large evaluations by a rounding.
_EVAL_BLOCK = 1 << 18

# Threads that run the blocks of one call: one per CPU this process may use.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def _pool():
    from concurrent.futures import ThreadPoolExecutor  # ~7 ms, so not on the import path

    return ThreadPoolExecutor(thread_name_prefix="runge_lab")


if hasattr(os, "register_at_fork"):  # a forked child inherits the pool but none of its threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _run_blocks(task, starts: range) -> None:
    """Run ``task(starts)``, which computes the blocks at the starts it is
    given, on k = min(_WORKERS, len(starts)) worker threads.

    With one worker the task runs inline in the caller, over every start.
    Otherwise each of k pool threads (the pool is made on first use) runs the
    task over an iterator that hands out the starts no worker has claimed
    yet, one at a time, so a worker slowed by another thread on its CPU takes
    fewer blocks instead of holding up the call. Each runs under the caller's
    float-error settings (numpy keeps them per thread or per context, and
    neither reaches a pool thread), and the first exception re-raises here
    once every worker has ended. The tasks only call numpy ufuncs and BLAS,
    which release the GIL, so the workers run in parallel.
    """
    k = min(_WORKERS, len(starts))
    if k <= 1:
        task(starts)
        return
    saved = {**np.geterr(), "call": np.geterrcall()}
    unclaimed, lock = iter(starts), threading.Lock()

    def claim():
        with lock:
            return next(unclaimed, None)

    def work():
        with np.errstate(**saved):
            task(iter(claim, None))

    futures = [_pool().submit(work) for _ in range(k)]
    for f in futures:
        f.exception()  # every worker ends before an exception reaches the caller
    for f in futures:
        f.result()


def _differences(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``out[i, j] = a[i] - b[j]``, with numpy's ufunc buffer cut to one row.

    When three or more rows of ``out`` fit in numpy's buffer (8192 elements
    by default, so for rows of up to about 2700), numpy copies both broadcast
    operands through it, and the subtract takes 1.2-1.8 ns per element
    against 0.3-0.5 ns unbuffered. Each element is one correctly rounded
    subtraction whatever the loop order, so the buffer cannot change a bit.
    Rows shorter than about 35 are slower unbuffered: at n = 11 a 1001-point
    evaluation takes about 170 us against 105 us. The buffer size is numpy's
    per thread (1.x) or per context (2.x), and it is restored even if the
    subtract raises, so a pool thread never keeps it into its next task.
    """
    old = np.setbufsize(16)
    try:
        np.subtract(a[:, None], b, out=out)
    finally:
        np.setbufsize(old)


def barycentric_weights(xs: np.ndarray) -> np.ndarray:
    """Classic product-form barycentric weights, capacity-rescaled so the
    products stay in range for a few dozen nodes.

    O(n^2) arithmetic, done in blocks of ``max(1, _EVAL_BLOCK // n)`` rows,
    which :func:`_run_blocks` spreads over the available CPUs. Each worker
    reuses one (block x n) buffer, so temporary memory is
    O(workers x _EVAL_BLOCK) rather than O(n^2). Each block's differences
    come from :func:`_differences`, unbuffered: at n = 1000 one worker's call
    takes 3.1 ms against 4.2 ms buffered, and from n = 2700 on, where numpy
    does not buffer, the two are the same. Each row's product is taken in
    the same order as over the whole matrix, so the weights do not depend on
    the block size or on the number of workers. The products leave the float
    range for large n. It is the fallback of :meth:`Barycentric.fit` for node
    sets without a closed form: equispaced, custom and mock-Chebyshev subset
    nodes.
    """
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    if n < 2:
        raise ValueError("barycentric weights need at least two nodes")
    cap = (xs[-1] - xs[0]) / 4.0
    w = np.empty(n)
    block = max(1, _EVAL_BLOCK // n)

    def fill(starts):
        buf = np.empty((min(block, n), n))
        for start in starts:
            diffs = buf[: min(block, n - start)]
            _differences(xs[start : start + block], xs, diffs)
            np.divide(diffs, cap, out=diffs)
            rows = np.arange(len(diffs))
            diffs[rows, start + rows] = 1.0
            np.divide(1.0, np.prod(diffs, axis=1), out=w[start : start + block])

    _run_blocks(fill, range(0, n, block))
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

    Cost model: evaluating m points is O(m n) arithmetic, done in blocks of
    ``max(1, _EVAL_BLOCK // n)`` points, which :func:`_run_blocks` spreads
    over the available CPUs. The node hits are found once for all m points, by
    one ``searchsorted`` on the increasing abscissae, and each worker reuses
    one (block x n) buffer, written and divided in place, so temporary memory
    is O(workers x block x n) rather than O(m n). The block bounds, not the
    number of workers, fix every result bit for bit.
    Each block's ``x - x_j`` come from :func:`_differences`, with numpy's
    operand buffering off. Buffered, that subtract was the largest phase:
    on one thread, for Lobatto n = 1000 on 20 000 points, 39-47% of the call
    against 28-34% for the divide, 15-17% for the row sum and 9-10% for the
    matrix-vector product. Unbuffered, the same call takes a third less
    time, and the divide is the largest phase (43-47%), then the subtract
    and the row sum (20-22% each) and the product (12-14%).
    The arithmetic is kept on purpose: ``w / (x - x_j)`` per pair, then
    ``(terms @ ys) / terms.sum(axis=1)``. Folding the denominator into the
    matrix product (one GEMM against ``[ys, 1]``) was no faster, and it moves
    results by a rounding, which shows in figure reports that sit at
    round-off. Each point's value is computed from that point alone, but the
    BLAS matrix-vector product may round it differently, in the last bits,
    with the number of points in its block.
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
        """Interpolant through the samples, with the closed-form weights of
        the node family where it has one, else the product form."""
        if len(samples) < 2:
            raise ValueError("need at least two samples to interpolate")
        closed_form = _CLOSED_FORM_WEIGHTS.get(samples.nodes.family)
        weights = closed_form(len(samples)) if closed_form else barycentric_weights(samples.xs)
        return cls(samples.nodes, samples.ys, weights)

    @property
    def interval(self) -> Interval:
        return self.nodes.interval

    def evaluate(self, xs) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if not np.isfinite(xs).all():
            raise ValueError("evaluation points must be finite")
        flat = xs.ravel()
        nodes, m, n = self.nodes.xs, len(flat), len(self.nodes)
        col = np.minimum(np.searchsorted(nodes, flat), n - 1)
        hit_at = np.flatnonzero(nodes[col] == flat)
        hit_col = col[hit_at]
        out = np.empty_like(flat)
        block = max(1, _EVAL_BLOCK // n)

        def fill(starts):
            buf = np.empty((min(block, m), n))
            for start in starts:
                terms = buf[: min(block, m - start)]
                _differences(flat[start : start + block], nodes, terms)
                lo, hi = np.searchsorted(hit_at, (start, start + block))
                terms[hit_at[lo:hi] - start, hit_col[lo:hi]] = 1.0  # dummy, overwritten below
                np.divide(self.weights, terms, out=terms)
                out[start : start + block] = (terms @ self.ys) / terms.sum(axis=1)

        _run_blocks(fill, range(0, m, block))
        out[hit_at] = self.ys[hit_col]
        return out.reshape(xs.shape)

    @property
    def n_params(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class MonomialTable(Sequence):
    """Pieces stored as one table: row i holds the monomial coefficients, in
    the unit coordinate of ``interval``, of piece i. As a sequence it reads as
    ``BasisPoly`` views of its rows, built on access; its length comes from
    the table's shape, so counting the pieces builds none."""

    coeffs: np.ndarray
    interval: Interval

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen_array(self.coeffs))
        if self.coeffs.ndim != 2:
            raise ValueError("coefficient table must be 2-D")

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, i) -> BasisPoly:
        return BasisPoly(Basis.MONOMIAL, self.coeffs[operator.index(i)], self.interval)


@dataclass(frozen=True)
class Piecewise(Approximant):
    """Piecewise approximant dispatching on subinterval: left-closed/right-open
    pieces, the last piece closed on both ends.

    Cost model: evaluating m points locates them with one ``searchsorted``.
    Pieces given as a :class:`MonomialTable` (the natural cubic spline) are
    then evaluated by one Horner pass over all m points with each point's row
    of the table gathered, so the work is O(m log k) for k pieces, with no
    call per piece. It does, point by point, the float operations of that
    row's ``BasisPoly.evaluate``, so the result is the same bit for bit. Any
    other pieces (TISI's bands) are called once each: the points are sorted
    by piece once and each piece that received points evaluates its
    contiguous slice, so the work is O(m log m) plus one call per piece hit.
    """

    breakpoints: np.ndarray
    pieces: tuple[Approximant, ...] | MonomialTable

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", _frozen_array(self.breakpoints))
        if not isinstance(self.pieces, MonomialTable):
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
        if not np.all((xs >= lo) & (xs <= hi)):  # NaN fails both comparisons
            raise ValueError(f"evaluation point outside span [{lo}, {hi}]")
        flat = xs.ravel()
        idx = np.searchsorted(self.breakpoints, flat, side="right") - 1
        idx = np.clip(idx, 0, len(self.pieces) - 1)
        if isinstance(self.pieces, MonomialTable):
            t = self.pieces.interval.to_unit(flat)
            rows = np.take(self.pieces.coeffs.T, idx, axis=1)  # contiguous (4, m): row j holds t^j's coefficients
            return _poly.polyval(t, rows, tensor=False).reshape(xs.shape)
        order = np.argsort(idx, kind="stable")
        bounds = np.searchsorted(idx[order], np.arange(len(self.pieces) + 1)).tolist()
        out = np.empty_like(flat)
        for i in np.flatnonzero(np.diff(bounds)).tolist():
            rows = order[bounds[i] : bounds[i + 1]]
            out[rows] = self.pieces[i].evaluate(flat[rows])
        return out.reshape(xs.shape)

    @property
    def n_params(self) -> int:
        if isinstance(self.pieces, MonomialTable):
            return self.pieces.coeffs.size
        return sum(p.n_params for p in self.pieces)
