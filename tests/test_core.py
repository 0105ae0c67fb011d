import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runge_lab import core
from runge_lab.core import (
    Barycentric,
    Basis,
    BasisPoly,
    Interval,
    NodeSet,
    Piecewise,
    SampleSet,
    barycentric_weights,
    evaluate,
    runge,
)
from runge_lab.nodes import chebyshev_lobatto


def test_runge_values():
    assert runge(0.0) == 1.0
    assert runge(1.0) == pytest.approx(1 / 26)
    assert runge(-0.2) == pytest.approx(0.5)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, -2.0)
    assert Interval().width == 2.0


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
    assert np.all(evaluate(p, [-1.0, 0.3, 1.0]) == 1.0)


def test_chebyshev_t1_at_half():
    p = BasisPoly(Basis.CHEBYSHEV_T, [0.0, 1.0])
    assert evaluate(p, [0.5])[0] == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("n", [1, 3, 7, 12, 20])
def test_chebyshev_extrema_values(n):
    # T_n at its extrema cos(k pi / n) alternates +-1
    coeffs = np.zeros(n + 1)
    coeffs[-1] = 1.0
    p = BasisPoly(Basis.CHEBYSHEV_T, coeffs)
    for k in range(n + 1):
        x = np.cos(k * np.pi / n)
        assert evaluate(p, [x])[0] == pytest.approx((-1.0) ** k, abs=1e-12)


def test_legendre_at_one():
    p = BasisPoly(Basis.LEGENDRE, [0.0, 0.0, 0.0, 1.0])
    assert evaluate(p, [1.0])[0] == pytest.approx(1.0, abs=1e-14)


def test_barycentric_node_hit_exact():
    ns = NodeSet(Interval(), [-1.0, 0.0, 1.0])
    b = Barycentric.fit(SampleSet(ns, [0.3, -2.0, 7.5]))
    out = evaluate(b, [0.0])
    assert out[0] == -2.0  # bit-exact node hit


@given(
    ys=st.lists(st.floats(-10, 10, allow_nan=False), min_size=4, max_size=12),
)
@settings(max_examples=50, deadline=None)
def test_barycentric_reproduces_all_ordinates_bit_exactly(ys):
    xs = np.linspace(-1, 1, len(ys))
    b = Barycentric.fit(SampleSet(NodeSet(Interval(), xs), ys))
    out = evaluate(b, xs)
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
    out = evaluate(b, grid)
    assert np.array_equal(out[hit_at], b.ys[hit_nodes])
    rest = np.setdiff1d(np.arange(len(grid)), hit_at)
    want = BarycentricInterpolator(xs, b.ys)(grid[rest])
    assert np.max(np.abs(out[rest] - want)) <= 1e-9
    assert np.array_equal(evaluate(b, grid.reshape(4, block)), out.reshape(4, block))
    empty = evaluate(b, np.array([]))
    assert empty.shape == (0,)


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
    out = evaluate(pw, [-0.5, 0.0, 1.0])
    assert out == pytest.approx([-0.5, 1.0, 1.0])  # 0.0 belongs to the right piece
    with pytest.raises(ValueError):
        evaluate(pw, [1.5])

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
    assert np.array_equal(evaluate(pw, xs), want)
    assert np.array_equal(evaluate(pw, xs.reshape(3, -1)), np.reshape(want, (3, -1)))


def test_piecewise_validation():
    p = BasisPoly(Basis.MONOMIAL, [1.0])
    with pytest.raises(ValueError):
        Piecewise(np.array([0.0, 0.0]), (p,))
    with pytest.raises(ValueError):
        Piecewise(np.array([0.0, 1.0, 2.0]), (p,))
