import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

import runge_lab
from runge_lab import core, linalg
from runge_lab.core import (
    Barycentric,
    Basis,
    BasisPoly,
    Interval,
    NodeSet,
    NumericError,
    Piecewise,
    SampleSet,
    RUNGE,
    barycentric_weights,
    runge,
)
from runge_lab.interpolants import (
    BandStrategy,
    TisiConfig,
    cubic_spline,
    fit_regularized,
    mock_chebyshev_interpolate,
    tisi_fit,
)
from runge_lab.metrics import error_report
from runge_lab.nodes import chebyshev_lobatto, chebyshev_roots, equispaced

SRC = Path(__file__).resolve().parents[1] / "src"


def test_runge_values():
    assert runge(0.0) == 1.0
    assert runge(1.0) == pytest.approx(1 / 26)
    assert runge(-0.2) == pytest.approx(0.5)


def test_runge_on_a_wide_interval_is_zero_without_a_warning():
    # 25 x^2 overflows for |x| beyond about 2e153; 1 / inf = 0.0 is the correct float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = RUNGE.sample(equispaced(5, Interval(-1e300, 1e300)))
        assert samples.ys.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]
        assert runge(-1e300) == 0.0 and runge(1e150) == 1.0 / (1.0 + 25.0 * 1e150 * 1e150)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, -2.0)
    assert Interval().width == 2.0


@pytest.mark.parametrize("lo, hi", [(0.0, np.inf), (-np.inf, 0.0), (-1e308, 1e308)])
def test_interval_refuses_infinite_ends_and_width(lo, hi):
    # a width of inf would map every point of [lo, hi] to +-0 in the unit coordinate
    with pytest.raises(ValueError, match="finite"):
        Interval(lo, hi)


def test_interval_takes_a_wide_finite_span():
    iv = Interval(-1e307, 1e307)
    assert np.array_equal(iv.to_unit([-1e307, 0.0, 1e307]), [-1.0, 0.0, 1.0])


def test_interval_slack_shrinks_on_a_narrow_interval():
    # on [-1, 1] the slack is 1e-12; on a narrow interval it shrinks with the width
    assert NodeSet(Interval(), [-1.0 - 1e-12, 0.0]).xs[0] == -1.0 - 1e-12
    with pytest.raises(ValueError, match="within the interval"):
        NodeSet(Interval(), [-1.0 - 2e-12, 0.0])
    with pytest.raises(ValueError, match="within the interval"):
        NodeSet(Interval(0.0, 1e-14), [-9e-13, 0.0])


def test_interval_maps_roundtrip():
    iv = Interval(0.0, 4.0)
    x = np.array([0.0, 1.0, 4.0])
    assert np.allclose(iv.from_unit(iv.to_unit(x)), x)
    assert np.allclose(iv.to_unit(x), [-1.0, -0.5, 1.0])
    unit = np.array([-1.0, -0.5, 0.1, -0.1, 1e-17, 0.0, 1.0])
    assert np.array_equal(Interval().to_unit(unit), unit)  # exactly the identity on [-1, 1]


def test_nodeset_validation():
    iv = Interval()
    with pytest.raises(ValueError):
        NodeSet(iv, [0.0, 0.0])
    with pytest.raises(ValueError):
        NodeSet(iv, [0.5, -0.5])
    with pytest.raises(ValueError):
        NodeSet(iv, [-2.0, 0.0])


def test_sampleset_validation():
    ns = NodeSet(Interval(), [-1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        SampleSet(ns, [1.0, 2.0])
    with pytest.raises(ValueError):
        SampleSet(ns, [1.0, np.inf, 2.0])


def test_constant_basis_poly():
    p = BasisPoly(Basis.MONOMIAL, [1.0])
    assert np.all(p.evaluate([-1.0, 0.3, 1.0]) == 1.0)


@pytest.mark.parametrize("coeffs", [[], [[1.0, 2.0], [3.0, 4.0]], 1.0], ids=["empty", "2-D", "0-d"])
def test_coefficients_must_be_a_non_empty_vector(coeffs):
    # a 2-D table used to evaluate to a 2 x m array, and an empty target to
    # raise IndexError at every call
    with pytest.raises(ValueError, match="^coefficients must be a non-empty 1-D vector"):
        BasisPoly(Basis.MONOMIAL, coeffs)
    with pytest.raises(ValueError, match="^coefficients must be a non-empty 1-D vector"):
        core.polynomial_target(coeffs)


@given(
    degree=st.integers(0, 12),
    negative_zero_lead=st.booleans(),
    shape=st.sampled_from([(), (0,), (7,), (2, 3)]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_monomial_horner_matches_polyval_byte_for_byte(degree, negative_zero_lead, shape, seed):
    g = np.random.default_rng(seed)
    c = g.normal(size=degree + 1)
    if negative_zero_lead:
        c[-1] = -0.0
    t = g.uniform(-1.5, 1.5, size=shape)
    want = P.polyval(t, c)
    for got in (core._horner(t, c), BasisPoly(Basis.MONOMIAL, c).evaluate(t)):
        assert np.shape(got) == shape and np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # a target also takes non-finite points: NaN wherever t is not finite
    if t.size:
        t.flat[g.integers(0, t.size, size=3)] = g.choice([np.inf, -np.inf, np.nan], size=3)
    with np.errstate(invalid="ignore"):
        want, got = P.polyval(t, c), core.polynomial_target(c)(t)
    assert np.shape(got) == shape and np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # the spline's table rows, as polyval evaluates them with tensor=False
    spline = cubic_spline(RUNGE.sample(equispaced(degree + 3)))
    xs = g.uniform(-1.0, 1.0, size=shape)
    flat = xs.ravel()
    piece = np.clip(np.searchsorted(spline.breakpoints, flat, side="right") - 1, 0, len(spline.pieces) - 1)
    rows = spline.pieces[piece].T
    want = P.polyval(spline.interval.to_unit(flat), rows, tensor=False)
    got = spline.evaluate(xs)
    assert got.shape == shape and got.tobytes() == want.tobytes()


def test_legendre_at_one():
    p = BasisPoly(Basis.LEGENDRE, [0.0, 0.0, 0.0, 1.0])
    assert p.evaluate([1.0])[0] == pytest.approx(1.0, abs=1e-14)


def test_barycentric_node_hit_exact():
    ns = NodeSet(Interval(), [-1.0, 0.0, 1.0])
    b = Barycentric.fit(SampleSet(ns, [0.3, -2.0, 7.5]))
    out = b.evaluate([0.0])
    assert out[0] == -2.0  # bit-exact node hit


@given(
    ys=st.lists(st.floats(-10, 10, allow_nan=False), min_size=4, max_size=12),
)
@settings(max_examples=50, deadline=None)
def test_barycentric_reproduces_all_ordinates_bit_exactly(ys):
    xs = np.linspace(-1, 1, len(ys))
    b = Barycentric.fit(SampleSet(NodeSet(Interval(), xs), ys))
    out = b.evaluate(xs)
    assert np.array_equal(out, np.asarray(ys, dtype=float))


def test_barycentric_blocks_keep_node_hits_and_match_scipy():
    from scipy.interpolate import BarycentricInterpolator

    n = 1000
    xs = chebyshev_lobatto(n - 1).xs
    b = Barycentric.fit(SampleSet(NodeSet(Interval(), xs), runge(xs)))
    block = max(1, core._EVAL_BLOCK // n)
    grid = np.linspace(-0.999, 0.999, 4 * block)  # at least three blocks
    hit_at = [5, block + 7, 3 * block + 1]  # node abscissae in three different blocks
    hit_nodes = [3, 500, 998]
    grid[hit_at] = xs[hit_nodes]
    out = b.evaluate(grid)
    assert np.array_equal(out[hit_at], b.ys[hit_nodes])
    rest = np.setdiff1d(np.arange(len(grid)), hit_at)
    want = BarycentricInterpolator(xs, b.ys)(grid[rest])
    assert np.max(np.abs(out[rest] - want)) <= 1e-9
    assert np.array_equal(b.evaluate(grid.reshape(4, block)), out.reshape(4, block))
    empty = b.evaluate(np.array([]))
    assert empty.shape == (0,)


def _seed_evaluate(b, xs):
    """The seed's barycentric arithmetic, written out: the full (block x n)
    w / (x - x_j), exact node hits found by equality, then
    (terms @ ys) / terms.sum(1). The points are split at the evaluator's block
    bounds, as the seed split them, because BLAS's matrix-vector product may
    round a row differently with the number of rows in the call."""
    flat = np.atleast_1d(np.asarray(xs, dtype=float)).ravel()
    block = max(1, core._EVAL_BLOCK // len(b.nodes))
    parts = [np.empty(0)]
    for start in range(0, len(flat), block):
        diff = flat[start : start + block, None] - b.nodes.xs[None, :]
        rows, cols = np.nonzero(diff == 0.0)
        diff[rows, cols] = 1.0
        terms = b.weights[None, :] / diff
        part = (terms @ b.ys) / terms.sum(1)
        part[rows] = b.ys[cols]
        parts.append(part)
    return np.concatenate(parts).reshape(np.shape(xs))


def _jittered_lobatto(n):
    xs = chebyshev_lobatto(n - 1).xs.copy()
    gaps = np.diff(xs)
    room = 0.3 * np.minimum(gaps[:-1], gaps[1:])
    xs[1:-1] += np.random.default_rng(5).uniform(-1.0, 1.0, n - 2) * room
    return NodeSet(Interval(), xs)


_EVAL_NODE_SETS = {
    "equispaced": lambda: equispaced(41),
    "custom": lambda: _jittered_lobatto(300),
    "tisi_band": lambda: tisi_fit(RUNGE, Interval(), TisiConfig(center=BandStrategy.LAGRANGE_CHEB)).pieces[1].nodes,
    "chebyshev_roots": lambda: chebyshev_roots(200, Interval(2.0, 5.0)),
}


@pytest.mark.parametrize("name", sorted(_EVAL_NODE_SETS))
def test_barycentric_evaluate_keeps_the_seed_arithmetic(name):
    ns = _EVAL_NODE_SETS[name]()
    b = Barycentric.fit(RUNGE.sample(ns))
    block = max(1, core._EVAL_BLOCK // len(ns))
    grid = np.linspace(ns.interval.lo, ns.interval.hi, 3 * block + 17)  # four blocks, the last one short
    hit_at = [block - 1, block + 3, 2 * block + 5, 3 * block + 2]  # a node in each block
    hit_nodes = [1, len(ns) // 3, len(ns) // 2, len(ns) - 2]
    grid[hit_at] = ns.xs[hit_nodes]
    with np.errstate(all="raise"):  # no float error escapes: _blockwise's subtract runs under the caller's settings
        out = b.evaluate(grid)
    assert np.array_equal(out, _seed_evaluate(b, grid))
    assert np.array_equal(out[hit_at], b.ys[hit_nodes])
    square = grid[: 3 * block].reshape(3, block)
    assert np.array_equal(b.evaluate(square), _seed_evaluate(b, square))
    for empty in (np.array([]), np.empty((0, 3))):
        assert b.evaluate(empty).shape == empty.shape


def test_blocks_give_the_same_bits_on_any_number_of_workers(monkeypatch):
    ns = _jittered_lobatto(300)
    b = Barycentric.fit(RUNGE.sample(ns))
    block = max(1, core._EVAL_BLOCK // len(ns))
    grid = np.linspace(-1.0, 1.0, 3 * block + 17)  # four blocks, the last one short
    grid[[block - 1, block + 3, 2 * block + 5, 3 * block + 2]] = ns.xs[[1, 100, 150, 298]]  # a node in each block
    node_sets = (_jittered_lobatto(1000).xs, equispaced(1000).xs)  # in range; 4 row blocks each
    weights = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(core, "_WORKERS", workers)
        assert np.array_equal(b.evaluate(grid), _seed_evaluate(b, grid))
        with monkeypatch.context() as m:
            m.setattr(core, "_EVAL_BLOCK", 1 << 14)  # 16 rows, so 63 row blocks each
            weights[workers] = [barycentric_weights(xs).tobytes() for xs in node_sets]
        assert weights[workers] == [barycentric_weights(xs).tobytes() for xs in node_sets]
    assert weights[1] == weights[2] == weights[3]


def test_workers_keep_the_callers_float_error_settings(monkeypatch):
    monkeypatch.setattr(core, "_WORKERS", 2)
    monkeypatch.setattr(core, "_EVAL_BLOCK", 1)  # one point per block: two blocks, one per worker
    seen, both = [], threading.Event()

    def finish(start, diffs):
        try:
            np.divide(1.0, diffs * 0.0, out=diffs)  # divides by zero
            seen.append((threading.get_ident(), "quiet"))
        except FloatingPointError:
            seen.append((threading.get_ident(), "raised"))
        if len({ident for ident, _ in seen}) == 2:
            both.set()
        both.wait(5)  # so the other worker claims the other block

    for settings, want in (("raise", "raised"), ("ignore", "quiet")):
        seen.clear()
        both.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a worker under numpy's default settings would warn
            with np.errstate(all=settings):
                core._blockwise(np.arange(2.0), np.zeros(1), finish)
        assert len({ident for ident, _ in seen}) == 2  # the caller and a helper each ran a block
        assert [outcome for _, outcome in seen] == [want, want]


def test_a_worker_exception_re_raises_in_the_caller(monkeypatch):
    monkeypatch.setattr(core, "_WORKERS", 2)
    monkeypatch.setattr(core, "_EVAL_BLOCK", 1)  # one point per block
    started, second = [], threading.Event()

    def finish(start, diffs):
        started.append(start)
        if start == 1:  # the block the second worker claims
            second.set()
            raise KeyError("block 1")
        second.wait(5)
        threading.Event().wait(0.05)  # so block 1 has raised before block 0 ends

    with pytest.raises(KeyError, match="block 1"):
        core._blockwise(np.arange(4.0), np.zeros(1), finish)
    assert sorted(started) == [0, 1]  # the worker of block 0 claimed no block after block 1 raised


def test_the_lowest_block_that_raises_gives_the_error(monkeypatch):
    monkeypatch.setattr(core, "_WORKERS", 2)
    monkeypatch.setattr(core, "_EVAL_BLOCK", 1)  # one point per block
    second = threading.Event()

    def finish(start, diffs):
        if start == 0:
            second.wait(5)
            threading.Event().wait(0.05)  # so block 1 has raised first
        second.set()
        raise KeyError(f"block {start}")

    for _ in range(3):  # whichever worker runs block 0
        with pytest.raises(KeyError, match="block 0"):
            core._blockwise(np.arange(4.0), np.zeros(1), finish)
        second.clear()


@pytest.mark.parametrize("workers, on_caller", [(1, True), (2, True), (2, False), (3, True), (3, False)])
def test_no_block_starts_after_a_block_raises(monkeypatch, workers, on_caller):
    monkeypatch.setattr(core, "_WORKERS", workers)
    monkeypatch.setattr(core, "_EVAL_BLOCK", 1)  # one point per block
    caller, started, raised = threading.current_thread(), [], []

    def finish(start, diffs):
        started.append(start)
        if (threading.current_thread() is caller) == on_caller and not raised:
            raised.append(start)
            raise KeyError(start)
        threading.Event().wait(0.02)  # so the other workers are inside a block when it raises

    with pytest.raises(KeyError):
        core._blockwise(np.arange(24.0), np.zeros(1), finish)
    # claimed in order: the blocks up to the failing one, and at most one more per other worker in flight
    assert sorted(started) == list(range(len(started)))
    assert len(started) <= min(raised) + workers


def test_the_lowest_failing_block_wins_under_fast_thread_switching(monkeypatch):
    monkeypatch.setattr(core, "_WORKERS", 4)  # more workers than a small machine has CPUs
    monkeypatch.setattr(core, "_EVAL_BLOCK", 1)  # one point per block
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(20):
            failing = set(np.random.default_rng(trial).choice(200, 5, replace=False).tolist())
            started = []

            def finish(start, diffs):
                started.append(start)
                if start in failing:
                    raise KeyError(start)

            with pytest.raises(KeyError) as info:
                core._blockwise(np.arange(200.0), np.zeros(1), finish)
            assert info.value.args == (min(failing),)  # a lost failure would let a later block's error win
            assert sorted(started) == list(range(len(started)))  # each block once, claimed in order
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [2, 3])
def test_no_thread_outlives_a_call(monkeypatch, workers):
    monkeypatch.setattr(core, "_WORKERS", workers)
    monkeypatch.setattr(core, "_EVAL_BLOCK", 1)  # one point per block
    points, nodes = np.arange(6.0), np.zeros(1)
    caller, before = threading.current_thread(), threading.active_count()

    def slow(start, diffs):
        threading.Event().wait(0.01)  # so every worker claims a block

    core._blockwise(points, nodes, slow)
    assert threading.active_count() == before
    for on_caller in (True, False):

        def finish(start, diffs):
            slow(start, diffs)
            if (threading.current_thread() is caller) == on_caller:
                raise KeyError("block")

        with pytest.raises(KeyError):
            core._blockwise(points, nodes, finish)
        assert threading.active_count() == before

    real_start, started = threading.Thread.start, []

    def start(thread):  # the last helper fails to start: the second start with three workers
        if len(started) == workers - 2:
            raise RuntimeError("can't start new thread")
        real_start(thread)
        started.append(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    with pytest.raises(RuntimeError, match="can't start"):
        core._blockwise(points, nodes, slow)
    assert not any(t.is_alive() for t in started)  # every helper that started ended before the raise
    assert threading.active_count() == before


@pytest.mark.parametrize("n", [1, 5, 21, 201, 1000, 2000, 3000])  # numpy buffers the broadcast up to n ~ 2700
def test_differences_match_the_broadcast_subtract(n):
    rng = np.random.default_rng(n)
    rows = max(1, core._EVAL_BLOCK // n)  # the kernels' rows per block
    a, b = rng.uniform(-1.0, 1.0, 2 * rows + 3), np.sort(rng.uniform(-1.0, 1.0, n))  # two blocks and a short one
    a[: min(rows, 4)] = [0.0, -0.0, 0.0, -0.0][: min(rows, 4)]  # signed zeros against signed zeros
    b[0] = -0.0 if n % 2 else 0.0
    got, starts = np.full((len(a), n), np.nan), []

    def finish(start, diffs):
        assert np.getbufsize() == 8192  # the cut buffer covers the subtract alone
        got[start : start + len(diffs)] = diffs
        starts.append(start)

    core._blockwise(a, b, finish)
    assert sorted(starts) == [0, rows, 2 * rows]
    assert got.tobytes() == (a[:, None] - b).tobytes()  # bit for bit, so the sign of every zero too


def test_differences_leave_the_callers_buffer_size(monkeypatch):
    monkeypatch.setattr(core, "_WORKERS", 2)
    ns = _jittered_lobatto(1000)
    b, xs = Barycentric.fit(RUNGE.sample(ns)), ns.xs
    grid = np.linspace(-1.0, 1.0, 1200)  # five blocks
    for size in (np.getbufsize(), 4096):
        # seterr, not errstate: leaving an errstate restores the buffer size too (numpy 2)
        old, old_err = np.setbufsize(size), np.seterr(invalid="raise")
        try:
            b.evaluate(grid)
            assert np.getbufsize() == size
            barycentric_weights(xs)
            assert np.getbufsize() == size
            for points in (np.full(1, np.inf), np.full(1200, np.inf)):  # on the caller alone, then with a helper
                with pytest.raises(FloatingPointError):
                    core._blockwise(points, np.append(xs[:-1], np.inf), lambda start, diffs: None)  # inf - inf
                assert np.getbufsize() == size
        finally:
            np.seterr(**old_err)
            np.setbufsize(old)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 3000),
    m=st.integers(1, 5000),
    hits=st.integers(0, 20),
)
@settings(max_examples=30, deadline=None)
def test_barycentric_evaluate_keeps_the_seed_arithmetic_at_any_size(seed, n, m, hits):
    rng = np.random.default_rng(seed)
    xs = np.unique(rng.uniform(-1.0, 1.0, n))
    weights = rng.uniform(0.5, 2.0, len(xs)) * np.where(np.arange(len(xs)) % 2, -1.0, 1.0)
    b = Barycentric(NodeSet(Interval(), xs), rng.standard_normal(len(xs)), weights)
    grid = rng.uniform(-1.0, 1.0, m)
    grid[rng.integers(0, m, hits)] = xs[rng.integers(0, len(xs), hits)]
    with np.errstate(all="raise"):
        assert np.array_equal(b.evaluate(grid), _seed_evaluate(b, grid))


def test_importing_the_cli_leaves_the_worker_pool_unloaded():
    code = "import sys, runge_lab.cli; sys.exit('concurrent.futures' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_evaluates_on_its_own_threads():
    code = """if True:
        import os, signal
        import numpy as np
        from runge_lab import core, nodes
        core._WORKERS = 2
        b = core.Barycentric.fit(core.RUNGE.sample(nodes.chebyshev_lobatto(999)))
        grid = np.linspace(-1.0, 1.0, 1200)
        want = b.evaluate(grid)
        pid = os.fork()
        if pid == 0:
            signal.alarm(30)  # a child that hangs, say on a thread it did not inherit, fails instead of stalling
            os._exit(0 if np.array_equal(b.evaluate(grid), want) else 1)
        os._exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    """
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)}, check=True, timeout=60)


@pytest.mark.parametrize("interval", [Interval(), Interval(2.0, 5.0)], ids=["unit", "shifted"])
@pytest.mark.parametrize("family", [chebyshev_roots, chebyshev_lobatto])
def test_closed_form_weights_interpolate_at_n3000(family, interval):
    from scipy.interpolate import BarycentricInterpolator

    ns = family(2999, interval)
    b = Barycentric.fit(RUNGE.sample(ns))
    assert error_report(b, RUNGE, interval, grid_size=1001).max_abs <= 1e-12
    xs = np.linspace(interval.lo, interval.hi, 1001)
    assert np.max(np.abs(b.evaluate(xs) - BarycentricInterpolator(ns.xs, b.ys)(xs))) <= 1e-9


@pytest.mark.parametrize("interval", [Interval(), Interval(2.0, 5.0)], ids=["unit", "shifted"])
@pytest.mark.parametrize("family", [chebyshev_roots, chebyshev_lobatto])
def test_closed_form_weights_match_the_product_form(family, interval):
    for n in range(2, 22):
        ns = family(n - 1, interval)
        closed, product = Barycentric.fit(RUNGE.sample(ns)).weights, barycentric_weights(ns.xs)
        np.testing.assert_allclose(closed / closed[0], product / product[0], rtol=1e-13, atol=0)


def test_other_node_sets_keep_the_product_weights():
    full = RUNGE.sample(equispaced(101))
    fits = [
        Barycentric.fit(full),
        Barycentric.fit(RUNGE.sample(_jittered_lobatto(50))),
        mock_chebyshev_interpolate(full),
        Barycentric.fit(RUNGE.sample(NodeSet(Interval(), chebyshev_roots(20).xs))),  # Chebyshev roots tagged CUSTOM
    ]
    for b in fits:
        assert np.array_equal(b.weights, barycentric_weights(b.nodes.xs))


def _one_shot_product_weights(xs):
    """The product-form weights over the whole n x n difference matrix at once."""
    cap = (xs[-1] - xs[0]) / 4.0
    diffs = (xs[:, None] - xs[None, :]) / cap
    np.fill_diagonal(diffs, 1.0)
    return 1.0 / np.prod(diffs, axis=1)


@pytest.mark.parametrize("n", [11, 201, 1000, 3000])
def test_barycentric_weights_in_row_blocks_keep_the_one_shot_products(n):
    rng = np.random.default_rng(n)
    for xs in (np.linspace(-1.0, 1.0, n), np.sort(rng.uniform(-1.0, 1.0, n))):
        if n <= 1000:
            assert np.array_equal(barycentric_weights(xs), _one_shot_product_weights(xs))
        else:  # the known defect: the weights leave the float range
            with pytest.raises(NumericError, match=f"weights of {n} nodes leave the float range"):
                barycentric_weights(xs)
    if n == 3000:
        with pytest.raises(NumericError):
            Barycentric.fit(RUNGE.sample(equispaced(n)))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_out_of_range_weights_name_n_the_rows_and_the_range(monkeypatch, workers):
    monkeypatch.setattr(core, "_WORKERS", workers)
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    want = f"1200 nodes leave the float range in 40 row(s) (1160, 1161, 1162, ...): |w| must lie in [{tiny:.4g}, {huge:.4g}]"
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")  # the error is the only signal: no float warning, none raised
        with pytest.raises(NumericError, match=re.escape(want)):
            barycentric_weights(equispaced(1200).xs)
        with pytest.raises(NumericError, match=re.escape("3000 nodes leave the float range in 87 row(s) (0, 1, 2, ...)")):
            barycentric_weights(equispaced(3000).xs)  # the first block, on any number of workers
    assert NumericError is linalg.NumericError is runge_lab.NumericError


def _blown_up_message(n, grid_size):
    b = Barycentric.fit(RUNGE.sample(equispaced(n)))
    with pytest.raises(NumericError) as caught:
        b.evaluate(np.linspace(-1.0, 1.0, grid_size))
    return str(caught.value)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_blown_up_evaluation_raises_the_same_error_on_any_number_of_workers(monkeypatch, workers):
    monkeypatch.setattr(core, "_WORKERS", workers)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")  # the error is the only signal: no float warning, none raised
        got = _blown_up_message(201, 1001)
    # n, the first non-finite x as a Python float and the count within its block (here the whole grid)
    assert got == (
        "barycentric interpolant of 201 nodes leaves the float range at x = -0.996: "
        "20 of the 1001 point(s) of that evaluation block are not finite, and evaluation stops there"
    )
    assert _blown_up_message(1000, 20_000).startswith(
        "barycentric interpolant of 1000 nodes leaves the float range at x = -0.9312965648282414: "
        "1 of the 262 point(s)"
    )


def test_a_blown_up_evaluation_leaves_no_float_warning_from_core():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for n, grid_size in ((201, 1001), (1000, 20_000)):
            _blown_up_message(n, grid_size)
    assert not [w for w in caught if w.filename == core.__file__]


def test_a_blown_up_evaluation_stops_at_the_first_block_it_leaves_the_float_range(monkeypatch):
    monkeypatch.setattr(core, "_WORKERS", 1)
    real, starts = core._blockwise, []

    def counted(points, nodes, finish):
        def spy(start, diffs):
            starts.append(start)
            finish(start, diffs)

        real(points, nodes, spy)

    b = Barycentric.fit(RUNGE.sample(equispaced(1000)))
    monkeypatch.setattr(core, "_blockwise", counted)
    with pytest.raises(NumericError):
        b.evaluate(np.linspace(-1.0, 1.0, 20_000))  # 77 blocks of 262 points; point 687 is the first non-finite one
    assert starts == [0, 262, 524]


def test_a_blown_up_interpolant_at_its_own_nodes_gives_its_ordinates():
    # the sums of four node rows overflow before the node hits overwrite them
    b = Barycentric.fit(RUNGE.sample(equispaced(201)))
    assert np.array_equal(b.evaluate(b.nodes.xs), b.ys)


@pytest.mark.parametrize(
    "ns", [equispaced(11), chebyshev_lobatto(20), equispaced(201)], ids=["equispaced11", "lobatto21", "equispaced201"]
)
def test_a_node_hit_keeps_the_bits_of_its_ordinate(ns):
    # a hit row is never finite, so it is found among the non-finite rows; a
    # BLAS that skipped the zero ordinates in terms @ ys would leave a finite
    # 0.0 there, and the sign of a -0.0 ordinate would be lost
    ys = RUNGE(ns.xs)
    ys[::3], ys[1::3] = 0.0, -0.0
    b = Barycentric.fit(SampleSet(ns, ys))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = b.evaluate(ns.xs)
    assert out.tobytes() == ys.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_point_whose_difference_from_a_node_overflows_is_refused(monkeypatch, workers):
    monkeypatch.setattr(core, "_WORKERS", workers)
    ns = NodeSet(Interval(0.0, 1e308), np.linspace(0.0, 1e308, 5))
    b = Barycentric.fit(SampleSet(ns, np.arange(5.0)))  # the line 4 x / 1e308
    want = "barycentric interpolant of 5 nodes cannot reach x = -1e+308: its difference from a node leaves the float range"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error is the only signal: no float warning comes before it
        assert b.evaluate([-0.5e308, 0.5e308]) == pytest.approx([-2.0, 2.0], rel=1e-12)  # every x - x_j is finite
        with pytest.raises(NumericError, match=f"^{re.escape(want)}$"):
            b.evaluate(np.append(np.linspace(-0.5e308, 0.5e308, 120_000), [-1e308, -1.5e308]))  # three blocks
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="^evaluation points must be finite$"):
                b.evaluate([-1e308, bad])


def test_polynomials_and_spline_tables_refuse_a_value_outside_the_float_range():
    table = Piecewise(np.array([-1.0, 0.0, 1.0]), np.array([[0.0, 1.0, 0.0, 0.0], [1e308, 1e308, 1e308, 1e308]]))
    cases = (  # 1e308 (1 + x) overflows from x = 0.8; 1e308 (1 + t + t^2 + t^3) from t = 0.44
        (BasisPoly(Basis.MONOMIAL, [1e308, 1e308]), "monomial polynomial of degree 1 leaves the float range at x = 0.9: 2"),
        (BasisPoly(Basis.LEGENDRE, [1e308, 1e308]), "legendre polynomial of degree 1 leaves the float range at x = 0.9: 2"),
        (table, "piecewise polynomial of 2 pieces leaves the float range at x = 0.5: 3"),
    )
    for approx, want in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the error is the only signal: no float warning comes before it
            assert approx.evaluate([-0.5, 0.0]).tolist() == ([-0.5, 1e308] if approx is table else [0.5e308, 1e308])
            with pytest.raises(NumericError, match=f"^{re.escape(want)} of the 4 point\\(s\\) are not finite$"):
                approx.evaluate([-0.5, 0.5, 0.9, 1.0])


def test_a_node_set_keeps_its_own_copy_of_the_callers_array():
    xs = np.linspace(-1.0, 1.0, 5)
    ns = NodeSet(Interval(), xs)
    xs[0] = -0.5  # the caller's array stays writable
    assert ns.xs.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0] and not ns.xs.flags.writeable


def test_writing_the_base_of_a_validated_view_changes_no_value_object():
    base = np.linspace(-1.0, 1.0, 5)
    ns = NodeSet(Interval(), base[:])
    samples = SampleSet(ns, base[:])
    table = Piecewise(base[:], base[:4, None] * np.ones((4, 4)))
    fits = (BasisPoly(Basis.MONOMIAL, base[:]), Barycentric(ns, base[:], base[:] + 2.0))
    base[1] = 0.9  # past the validation: no longer increasing
    want = [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert ns.xs.tolist() == samples.ys.tolist() == table.breakpoints.tolist() == want
    assert table.pieces[:, 0].tolist() == want[:4]
    assert fits[0].coeffs.tolist() == fits[1].ys.tolist() == want
    assert fits[1].weights.tolist() == [1.0, 1.5, 2.0, 2.5, 3.0]


@pytest.mark.parametrize("bad", [0.0, np.inf, -np.inf, np.nan])
def test_barycentric_refuses_zero_and_non_finite_weights(bad):
    ns = NodeSet(Interval(), [-1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="finite and nonzero"):
        Barycentric(ns, [1.0, 2.0, 3.0], [0.5, bad, 0.5])


def test_barycentric_weight_invariants():
    xs = np.linspace(-1, 1, 21)
    w = barycentric_weights(xs)
    assert np.all(w != 0)
    # equispaced weights alternate in sign
    assert np.all(np.sign(w[1:]) == -np.sign(w[:-1]))


def test_piecewise_dispatch_and_domain_error():
    left = BasisPoly(Basis.MONOMIAL, [0.0, 1.0])   # x
    right = BasisPoly(Basis.MONOMIAL, [1.0])       # 1
    pw = Piecewise(np.array([-1.0, 0.0, 1.0]), (left, right))
    out = pw.evaluate([-0.5, 0.0, 1.0])
    assert out == pytest.approx([-0.5, 1.0, 1.0])  # 0.0 belongs to the right piece
    with pytest.raises(ValueError):
        pw.evaluate([1.5])

    # Shuffled points in every piece, on every breakpoint and at the right
    # endpoint, against a point-by-point dispatch. The pieces differ on either
    # side of every breakpoint, so a point sent to the wrong piece shows.
    breaks = np.array([-1.0, -0.4, 0.1, 0.5, 1.0])
    pieces = tuple(BasisPoly(Basis.MONOMIAL, [10.0 * i, 1.0 + i]) for i in range(len(breaks) - 1))
    pw = Piecewise(breaks, pieces)
    xs = np.concatenate([np.linspace(-1.0, 1.0, 37), breaks, breaks, [1.0]])
    np.random.default_rng(3).shuffle(xs)

    def pointwise(x):
        # left-closed/right-open pieces, the last one closed at the right endpoint
        i = min(int(np.flatnonzero(breaks <= x)[-1]), len(pieces) - 1)
        return pieces[i].evaluate(np.array([x]))[0]

    want = [pointwise(x) for x in xs]
    assert np.array_equal(pw.evaluate(xs), want)
    assert np.array_equal(pw.evaluate(xs.reshape(3, -1)), np.reshape(want, (3, -1)))


def test_piecewise_with_a_nested_table_spline_keeps_the_grouped_dispatch():
    # TISI with spline bands around a barycentric one: the outer pieces are
    # mixed, so they go through the grouped path, and each spline band
    # evaluates its own coefficient table.
    cfg = TisiConfig(left=BandStrategy.SPLINE_LOCAL, center=BandStrategy.LAGRANGE_CHEB, right=BandStrategy.SPLINE_LOCAL)
    pw = tisi_fit(RUNGE, Interval(), cfg)
    assert isinstance(pw.pieces, tuple) and isinstance(pw.pieces[0].pieces, np.ndarray)
    assert pw.pieces[0].pieces.shape == pw.pieces[2].pieces.shape == (cfg.nodes_per_interval - 1, 4)
    assert pw.n_params == 2 * 4 * (cfg.nodes_per_interval - 1) + cfg.nodes_per_interval
    breaks = pw.breakpoints
    knots = np.concatenate([pw.pieces[0].breakpoints, pw.pieces[2].breakpoints])
    xs = np.concatenate([np.linspace(-1.0, 1.0, 401), breaks, knots, [1.0]])
    np.random.default_rng(4).shuffle(xs)
    # point-by-point choice of band; each band then evaluates its points in
    # their given order, as the grouped path does
    band = np.array([min(int(np.flatnonzero(breaks <= x)[-1]), 2) for x in xs])
    want = np.empty_like(xs)
    for i in range(3):
        want[band == i] = pw.pieces[i].evaluate(xs[band == i])
    assert np.array_equal(pw.evaluate(xs), want)
    # a table spline gives each point the same value alone as in a batch
    spline_at = np.flatnonzero(band != 1)
    alone = [pw.pieces[band[k]].evaluate(xs[k : k + 1])[0] for k in spline_at]
    assert np.array_equal(want[spline_at], alone)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_refused(bad):
    # NaN fails every comparison, so a span check written as "any point below
    # or above" lets it through to the last piece; it must raise instead.
    spline = cubic_spline(RUNGE.sample(equispaced(11)))
    tisi = tisi_fit(RUNGE, Interval(), TisiConfig())
    bary = Barycentric.fit(RUNGE.sample(equispaced(11)))
    poly = fit_regularized(RUNGE.sample(equispaced(11)), 4)
    grid = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    for approx in (spline, tisi, bary, poly):
        # one shape rule: the values have the points' shape, a scalar gives a 0-d value
        assert np.ndim(approx.evaluate(0.5)) == 0
        assert approx.evaluate(0.5) == approx.evaluate([0.5])[0]
        assert np.array_equal(approx.evaluate(grid), approx.evaluate(grid.ravel()).reshape(2, 3))
        with pytest.raises(ValueError):
            approx.evaluate([bad, 0.0])
        with pytest.raises(ValueError):
            approx.evaluate([bad])
        for empty in (np.empty(0), np.empty((2, 0))):
            assert approx.evaluate(empty).shape == empty.shape


def test_piecewise_validation():
    p = BasisPoly(Basis.MONOMIAL, [1.0])
    with pytest.raises(ValueError):
        Piecewise(np.array([0.0, 0.0]), (p,))
    with pytest.raises(ValueError):
        Piecewise(np.array([0.0, 1.0, 2.0]), (p,))
    for breakpoints, pieces in (([0.0], ()), ([0.0, np.nan, 1.0], (p, p)), ([0.0, 1.0, np.inf], (p, p))):
        with pytest.raises(ValueError):
            Piecewise(np.array(breakpoints), pieces)
    with pytest.raises(ValueError):
        Piecewise(np.array([[0.0, 1.0], [2.0, 3.0]]), (p,))  # not 1-D
