import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import brute_force_nearest_subset
from runge_lab.core import Interval
from runge_lab.nodes import chebyshev_lobatto, chebyshev_roots, equispaced, mock_chebyshev_subset


def test_equispaced_examples():
    assert np.allclose(equispaced(3).xs, [-1, 0, 1])
    assert np.allclose(equispaced(2).xs, [-1, 1])
    xs = equispaced(11).xs
    assert np.allclose(np.diff(xs), 0.2)
    assert 0.0 in xs
    with pytest.raises(ValueError):
        equispaced(1)


def test_chebyshev_roots_examples():
    assert np.allclose(chebyshev_roots(0).xs, [0.0], atol=1e-15)
    s2 = np.sqrt(2) / 2
    assert np.allclose(chebyshev_roots(1).xs, [-s2, s2])
    s3 = np.sqrt(3) / 2
    assert np.allclose(chebyshev_roots(2).xs, [-s3, 0.0, s3], atol=1e-15)
    with pytest.raises(ValueError):
        chebyshev_roots(-1)


def test_chebyshev_lobatto_examples():
    assert np.allclose(chebyshev_lobatto(2).xs, [-1, 0, 1], atol=1e-15)
    s2 = np.sqrt(2) / 2
    assert np.allclose(chebyshev_lobatto(4).xs, [-1, -s2, 0, s2, 1], atol=1e-15)
    assert np.allclose(chebyshev_lobatto(1).xs, [-1, 1])


def test_lobatto_endpoints_exact():
    iv = Interval(-2.5, 3.75)
    xs = chebyshev_lobatto(9, iv).xs
    assert xs[0] == iv.lo and xs[-1] == iv.hi


@given(n=st.integers(1, 40), lo=st.floats(-5, 0.9), width=st.floats(0.1, 10))
@settings(max_examples=60, deadline=None)
def test_generators_increasing_and_contained(n, lo, width):
    iv = Interval(lo, lo + width)
    for ns in (equispaced(n + 1, iv), chebyshev_roots(n, iv), chebyshev_lobatto(n, iv)):
        assert np.all(np.diff(ns.xs) > 0)
        assert ns.xs[0] >= iv.lo - 1e-12 and ns.xs[-1] <= iv.hi + 1e-12


@given(n=st.integers(1, 30))
@settings(max_examples=30, deadline=None)
def test_chebyshev_roots_symmetric(n):
    iv = Interval(-1, 1)
    xs = chebyshev_roots(n, iv).xs
    assert np.all(np.abs(xs + xs[::-1]) < 1e-15)


def test_mock_subset_examples():
    sel = mock_chebyshev_subset(equispaced(5), 2)
    assert sel == (0, 2, 4)
    sel = mock_chebyshev_subset(equispaced(2), 4)
    assert sel == (0, 1)


def test_mock_subset_20_grid_matches_oracle():
    src = equispaced(20)
    sel = mock_chebyshev_subset(src, 10)
    targets = chebyshev_lobatto(10).xs
    expect = brute_force_nearest_subset(src.xs, targets)
    assert list(sel) == expect
    # clustering: index gaps shrink toward the ends
    gaps = np.diff(sel)
    assert gaps[0] <= gaps[len(gaps) // 2] and gaps[-1] <= gaps[len(gaps) // 2]


@given(n=st.integers(2, 50), m=st.integers(1, 20))
@settings(max_examples=80, deadline=None)
def test_mock_subset_oracle_equivalence(n, m):
    src = equispaced(n)
    sel = mock_chebyshev_subset(src, m)
    expect = brute_force_nearest_subset(src.xs, chebyshev_lobatto(m).xs)
    assert list(sel) == expect


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (-3.0, 2.0), (100.0, 102.0)])
def test_every_other_node_of_21_equispaced_is_the_11_point_grid(lo, hi):
    # figure 9's every-other subset is drawn as the 11-point grid on this identity
    iv = Interval(lo, hi)
    assert equispaced(21, iv).xs[::2].tobytes() == equispaced(11, iv).xs.tobytes()
