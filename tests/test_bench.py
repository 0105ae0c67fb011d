import dataclasses
import os
import re
import stat
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from runge_lab import (
    RUNGE,
    Basis,
    ErrorReport,
    Interval,
    NodeFamily,
    TargetFunction,
    bench,
    chebyshev_roots,
    equispaced,
    error_report,
    interpolants,
    runge,
)
from runge_lab.bench import (
    Curve,
    FitSpec,
    ReportBundle,
    UsageError,
    emit_csv,
    emit_svg,
    read_curve_csv,
    run_experiment,
    run_figure,
)
from runge_lab.metrics import StudyEntry


def _tiny_bundle(curves, markers=()):
    return ReportBundle(curves=curves, reports=[], node_markers=list(markers))


def test_run_experiment_lagrange_through_samples():
    bundle = run_experiment(FitSpec("lagrange", "lagrange", n_samples=3), grid_size=11)
    xs = bundle.curves[1].xs
    ys = bundle.curves[1].ys
    for x, y in [(-1.0, 1 / 26), (0.0, 1.0), (1.0, 1 / 26)]:
        assert ys[np.argmin(np.abs(xs - x))] == pytest.approx(y, abs=1e-12)


def test_run_experiment_svd_zero_threshold_matches_lagrange():
    svd_fit = FitSpec("svd", "svd", {"threshold": "0"}, n_samples=11, degree=10)
    lag_fit = FitSpec("lagrange", "lagrange", n_samples=11)
    a = run_experiment(svd_fit).curves[1].ys
    b = run_experiment(lag_fit).curves[1].ys
    assert np.max(np.abs(a - b)) < 1e-6


def test_run_experiment_rejects_unknown_method_and_params():
    with pytest.raises(UsageError):
        run_experiment(FitSpec("nope", "nope"))
    with pytest.raises(UsageError, match="alpha"):
        run_experiment(FitSpec("lagrange", "lagrange", {"alpha": "1"}))
    with pytest.raises(UsageError, match="threshold"):
        run_experiment(FitSpec("svd", "svd", {"threshold": "abc"}))



@pytest.mark.parametrize(
    "method,params",
    [
        ("tisi", {"nodes_per_interval": 11.9}),
        ("efci", {"m": True}),
        ("efci", {"search": 2}),
        ("ridge", {"alpha": True}),
        ("mock_chebyshev", {"m": 4.0}),
    ],
)
def test_coerce_params_refuses_a_value_its_type_would_change(method, params):
    with pytest.raises(UsageError, match=next(iter(params))):
        bench._coerce_params(bench.METHODS[method], params)


@pytest.mark.parametrize("m", [4.0, True])
def test_an_int_parameter_is_refused_unless_it_is_an_integer(m):
    # the one integer rule of core._integer: 4.0 fitted 5 nodes, while a FitSpec
    # refused n_samples=21.0; True was refused with a message of its own
    with pytest.raises(UsageError, match=r"^parameter 'm' for method 'mock_chebyshev' must be int$"):
        run_experiment(FitSpec("m", "mock_chebyshev", {"m": m}, n_samples=21))


@pytest.mark.parametrize(
    "method,params,want",
    [
        ("ridge", {"alpha": 1}, {"alpha": 1.0}),
        ("efci", {"m": 6, "search": True}, {"m": 6, "search": True}),
        ("tisi", {"nodes_per_interval": "11", "epsilon": "0.3"}, {"nodes_per_interval": 11, "epsilon": 0.3}),
        ("efci", {"search": "1", "m": "4"}, {"search": True, "m": 4}),
        ("mock_chebyshev", {"m": np.int64(6)}, {"m": 6}),
    ],
)
def test_coerce_params_keeps_exact_values_and_strings(method, params, want):
    got = bench._coerce_params(bench.METHODS[method], params)
    assert got == want and [type(v) for v in got.values()] == [type(want[k]) for k in got]


@pytest.mark.parametrize(
    "method,key,member",
    [
        ("tisi", "center", interpolants.BandStrategy.LAGRANGE_CHEB),
        ("tikhonov", "operator", interpolants.TikhonovOperator.SECOND_DIFFERENCE),
        ("svd", "basis", Basis.MONOMIAL),
    ],
)
def test_coerce_params_takes_an_enum_member_as_itself(method, key, member):
    assert bench._coerce_params(bench.METHODS[method], {key: member}) == {key: member}
    by_member = run_experiment(FitSpec(method, method, {key: member}), grid_size=101)
    by_value = run_experiment(FitSpec(method, method, {key: member.value}), grid_size=101)
    assert np.array_equal(by_member.curves[1].ys, by_value.curves[1].ys)


def test_coerce_params_refuses_a_member_outside_the_choices():
    # an enum parameter takes the members of its own enum, or their values, and nothing else
    with pytest.raises(UsageError, match="basis"):
        bench._coerce_params(bench.METHODS["svd"], {"basis": interpolants.PenaltyKind.RIDGE})
    with pytest.raises(UsageError, match="center"):
        bench._coerce_params(bench.METHODS["tisi"], {"center": Basis.MONOMIAL})


@pytest.mark.parametrize("n", [2, 11, 21])
def test_node_families_are_keyed_by_the_tag_of_the_nodes_they_make(n):
    assert set(bench.NODE_FAMILIES) == set(NodeFamily) - {NodeFamily.CUSTOM}
    for family, generate in bench.NODE_FAMILIES.items():
        nodes = generate(n, Interval(-3.0, 2.0))
        assert len(nodes) == n and nodes.family is family


_S11 = RUNGE.sample(equispaced(11))

# Each registered method's library function on the samples a default FitSpec
# draws (11 equispaced samples, degree 10), with only its required arguments.
LIBRARY_CALLS = {
    "lagrange": lambda: interpolants.lagrange_interpolate(_S11),
    "chebyshev": lambda: interpolants.lagrange_interpolate(RUNGE.sample(chebyshev_roots(10))),
    "spline": lambda: interpolants.cubic_spline(_S11),
    "unregularized": lambda: interpolants.fit_regularized(_S11, 10),
    "ridge": lambda: interpolants.fit_regularized(_S11, 10, "ridge"),
    "lasso": lambda: interpolants.fit_regularized(_S11, 10, "lasso"),
    "elastic_net": lambda: interpolants.fit_regularized(_S11, 10, "elastic_net"),
    "tikhonov": lambda: interpolants.tikhonov_fit(_S11, 10),
    "efci": lambda: interpolants.efci_fit(_S11, RUNGE, interpolants.EfciConfig())[0],
    "mock_chebyshev": lambda: interpolants.mock_chebyshev_interpolate(_S11),
    "constrained_mock_chebyshev": lambda: interpolants.constrained_mock_chebyshev_lstsq(_S11),
    "tisi": lambda: interpolants.tisi_fit(RUNGE, Interval(), interpolants.TisiConfig()),
    "svd": lambda: interpolants.svd_truncated_fit(_S11, 10),
}


@pytest.mark.parametrize("method", sorted(bench.METHODS))
def test_registry_states_no_default_of_its_own(method):
    curve = run_experiment(FitSpec(method, method)).curves[1]
    assert np.array_equal(curve.ys, LIBRARY_CALLS[method]().evaluate(curve.xs))


def test_chebyshev_samples_the_target_once():
    calls = []

    def counted(x):
        calls.append(len(x))
        return runge(x)

    approx, _ = bench._fit(FitSpec("chebyshev", "chebyshev"), TargetFunction("runge", counted), Interval())
    assert calls == [11]
    assert np.array_equal(approx.nodes.xs, chebyshev_roots(10).xs)


def test_run_marks_only_the_nodes_the_fit_used():
    [marker] = run_experiment(FitSpec("chebyshev", "chebyshev")).node_markers
    assert np.array_equal(marker.xs, chebyshev_roots(10).xs)
    # TISI samples each band on its own grid, so there is no one sample set to mark
    assert run_experiment(FitSpec("tisi", "tisi")).node_markers == []


# EFCI's and TISI's epsilon is a band width in x; every other parameter acts in
# the unit coordinate of the interval, so only epsilon scales with the interval.
_EPSILON = {"efci": interpolants.EfciConfig().epsilon, "tisi": interpolants.TisiConfig().epsilon}
_INVARIANCE_CASES = [pytest.param(method, {}, id=method) for method in sorted(bench.METHODS)] + [
    pytest.param("efci", {"search": True}, id="efci-search"),
    pytest.param("tisi", {"center": "lagrange_cheb"}, id="tisi-improved"),
    pytest.param("svd", {"basis": "monomial"}, id="svd-monomial"),
]


def _max_abs_on(interval, method, params):
    """Max error of the registered fit of Runge stretched onto the interval."""
    half = interval.width / 2
    centre = interval.lo + half
    f = TargetFunction("runge", lambda x: runge((x - centre) / half))
    if method in _EPSILON:
        params = {**params, "epsilon": _EPSILON[method] * half}
    approx, _ = bench._fit(bench.FitSpec(method, method, params), f, interval)
    return error_report(approx, f, interval).max_abs


@pytest.mark.parametrize("method,params", _INVARIANCE_CASES)
@given(shift=st.floats(-1e3, 1e3), width=st.floats(1e-3, 1e3))
@settings(max_examples=10, deadline=None)
def test_fit_is_shift_and_scale_invariant(method, params, shift, width):
    want = _max_abs_on(Interval(), method, params)
    assert _max_abs_on(Interval(shift, shift + width), method, params) == pytest.approx(want, rel=1e-6)


def test_figure_8_is_improved_tisi():
    improved = interpolants.TisiConfig(center=interpolants.BandStrategy.LAGRANGE_CHEB)
    [spec] = bench.FIGURES[8].fits
    assert interpolants.TisiConfig(**bench._coerce_params(bench.METHODS["tisi"], spec.params)) == improved
    curve = run_figure(8).curves[1]
    assert np.array_equal(curve.ys, interpolants.tisi_fit(RUNGE, Interval(), improved).evaluate(curve.xs))


class _CountedFit:
    """An approximant that counts its evaluate calls."""

    def __init__(self, approx):
        self.approx, self.n_params, self.calls = approx, approx.n_params, 0

    def evaluate(self, x):
        self.calls += 1
        return self.approx.evaluate(x)


def _spy(monkeypatch):
    """Make each fit's approximant count its evaluate calls and the target
    record the length of each call; returns the counted fits and the lengths."""
    fits, target_calls = [], []
    real_fit = bench._fit

    def fit(spec, f, interval):
        approx, points = real_fit(spec, f, interval)
        fits.append(_CountedFit(approx))
        return fits[-1], points

    def target(x):
        target_calls.append(len(x))
        return runge(x)

    monkeypatch.setattr(bench, "_fit", fit)
    monkeypatch.setattr(bench, "RUNGE", TargetFunction("runge", target))
    return fits, target_calls


def _spied_figure(monkeypatch, figure_id, grid_size):
    """run_figure under _spy; returns the bundle, the counted fits and the
    length of each target call."""
    fits, target_calls = _spy(monkeypatch)
    return run_figure(figure_id, grid_size=grid_size), fits, target_calls


@pytest.mark.parametrize("figure_id", bench.SUPPORTED_FIGURES)
def test_run_figure_evaluates_each_fit_and_the_target_once(monkeypatch, figure_id):
    _, fits, target_calls = _spied_figure(monkeypatch, figure_id, grid_size=257)
    assert len(fits) == len(bench.FIGURES[figure_id].fits)
    assert [fit.calls for fit in fits] == [1] * len(fits)
    assert target_calls.count(257) == 1  # no fit samples the target at 257 points


def test_run_figures_calls_the_target_on_the_grid_once_for_every_figure(monkeypatch):
    fits, target_calls = _spy(monkeypatch)
    bundles = [bundle for _, bundle in bench.run_figures(bench.SUPPORTED_FIGURES, grid_size=257)]
    assert target_calls.count(257) == 1  # no fit samples the target at 257 points
    assert [fit.calls for fit in fits] == [1] * len(fits)
    xs, truth = bundles[0].curves[0].xs, bundles[0].curves[0].ys
    assert not xs.flags.writeable and not truth.flags.writeable  # shared by every bundle
    assert all(b.curves[0].xs is xs and b.curves[0].ys is truth for b in bundles)
    assert [b.reports for b in bundles] == [run_figure(fid, grid_size=257).reports for fid in bench.SUPPORTED_FIGURES]


@pytest.mark.parametrize("figure_id", bench.SUPPORTED_FIGURES)
def test_run_figure_reports_what_error_report_reports(monkeypatch, figure_id):
    bundle, fits, _ = _spied_figure(monkeypatch, figure_id, grid_size=301)
    specs = bench.FIGURES[figure_id].fits
    want = [error_report(fit.approx, RUNGE, Interval(), 301, method=spec.label) for fit, spec in zip(fits, specs)]
    assert [dataclasses.astuple(r) for r in bundle.reports] == [dataclasses.astuple(r) for r in want]


@pytest.mark.parametrize("figure_id", bench.SUPPORTED_FIGURES)
def test_every_figure_marker_names_a_fit_and_a_point_set_it_returns(figure_id):
    figure = bench.FIGURES[figure_id]
    specs = {spec.label: spec for spec in figure.fits}
    for legend, label, name in figure.markers:
        assert label in specs, (legend, label)
        _, points = bench._fit(specs[label], RUNGE, Interval())
        assert name in points, (legend, name)


def test_run_figure_unsupported_lists_ids():
    with pytest.raises(UsageError, match="supported"):
        run_figure(10)
    with pytest.raises(UsageError):
        run_figure(14)


def test_run_figure_1_curve_count_and_divergence():
    bundle = run_figure(1)
    assert len(bundle.curves) == 5
    errs = [r.max_abs for r in bundle.reports]
    assert errs[1] < errs[2] < errs[3]


def test_run_figure_4_tikhonov_beats_unregularized():
    bundle = run_figure(4)
    assert len(bundle.curves) == 2
    assert np.isfinite(bundle.reports[0].max_abs)
    # unregularized degree-12 comparison
    from runge_lab import RUNGE, equispaced, fit_regularized, error_report

    raw = error_report(fit_regularized(RUNGE.sample(equispaced(11)), 12), RUNGE)
    assert bundle.reports[0].max_abs < raw.max_abs


def test_run_figure_11_has_five_curves():
    bundle = run_figure(11)
    assert len(bundle.curves) == 5


def test_run_figure_deterministic():
    a = run_figure(5)
    b = run_figure(5)
    for ca, cb in zip(a.curves, b.curves):
        assert ca.label == cb.label
        assert np.array_equal(ca.ys, cb.ys)


def test_bundle_rejects_duplicate_labels():
    xs = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        _tiny_bundle([Curve("a", xs, xs), Curve("a", xs, xs)])


def test_emit_csv_row_count(tmp_path):
    xs = np.array([0.0, 1.0])
    bundle = _tiny_bundle([Curve("c", xs, np.array([2.0, 3.0]))])
    path = tmp_path / "t.csv"
    emit_csv(bundle, path)
    lines = path.read_text().split("\n")
    assert lines[0] == "x,c"
    assert len([l for l in lines if l]) == 3
    assert (tmp_path / "t.csv.report.csv").exists()


def test_emit_csv_quotes_commas(tmp_path):
    xs = np.array([0.0])
    bundle = _tiny_bundle([Curve("a,b", xs, np.array([1.0]))])
    path = tmp_path / "q.csv"
    emit_csv(bundle, path)
    assert '"a,b"' in path.read_text().splitlines()[0]


def test_emit_csv_empty_curves(tmp_path):
    bundle = _tiny_bundle([])
    path = tmp_path / "e.csv"
    emit_csv(bundle, path)
    assert path.read_text() == "x\n"


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(3)
    xs = np.linspace(-1, 1, 101)
    ys1 = rng.normal(size=101) * 1e-7
    ys2 = rng.normal(size=101) * 1e9
    bundle = _tiny_bundle([Curve("tiny", xs, ys1), Curve("huge", xs, ys2)])
    path = tmp_path / "rt.csv"
    emit_csv(bundle, path)
    curves = read_curve_csv(path)
    assert np.array_equal(curves[0].xs, xs)
    assert np.array_equal(curves[0].ys, ys1)
    assert np.array_equal(curves[1].ys, ys2)


def test_csv_round_trip_of_labels_with_commas_and_quotes(tmp_path):
    labels = ["a,b", 'say "hi"', '"quoted, too"', "tisi[eps=0.2,n=11]"]
    path = tmp_path / "labels.csv"
    xs = np.linspace(-1, 1, 5)
    emit_csv(_tiny_bundle([Curve(label, xs, xs * i) for i, label in enumerate(labels)]), path)
    back = read_curve_csv(path)
    assert [c.label for c in back] == labels
    for i, c in enumerate(back):
        assert c.xs.tobytes() == xs.tobytes() and c.ys.tobytes() == (xs * i).tobytes()
    # a header-only file gives the labelled curves, empty
    emit_csv(_tiny_bundle([Curve(label, np.empty(0), np.empty(0)) for label in labels]), path)
    back = read_curve_csv(path)
    assert [c.label for c in back] == labels and all(c.xs.size == c.ys.size == 0 for c in back)


def _old_csv_body(curves) -> str:
    """The curve table as emit_csv wrote it when it formatted cell by cell."""
    xs = curves[0].xs if curves else np.empty(0)  # a bundle without curves has no grid to write
    rows = np.column_stack([xs, *(c.ys for c in curves)]).astype(float).tolist()
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf, 1e16, -1e16, 1e-5, 0.1, -2.5]
# NaN only as numpy's own: CSV text "nan" reads back as it, whatever the sign or payload written
_floats = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=False))


@st.composite
def _tables(draw):
    """A grid and curves of one length, some curves repeated, some integer-dtype,
    some holding NaN, the grid too."""
    n = draw(st.integers(0, 6))
    floats = st.lists(_floats, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float))
    with_nan = st.lists(st.one_of(_floats, st.just(np.nan)), min_size=n, max_size=n).map(np.array)
    ints = st.lists(st.integers(-(2**53), 2**53), min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64))
    distinct = draw(st.lists(st.one_of(floats, with_nan, ints), min_size=1, max_size=4))
    return draw(st.one_of(floats, with_nan, ints)), draw(st.lists(st.sampled_from(distinct), max_size=6))


@settings(max_examples=150, deadline=None)
@given(first=_tables(), second=_tables())
def test_emit_csv_matches_cell_by_cell_formatting(tmp_path_factory, first, second):
    tmp = tmp_path_factory.mktemp("csv")
    column_text = {}
    for name, (xs, ys) in (("a", first), ("b", second), ("a", first)):
        curves = [Curve(f"c{i}", xs, y) for i, y in enumerate(ys)]
        path = tmp / f"{name}.csv"
        emit_csv(_tiny_bundle(curves), path, column_text=column_text)
        header, body = path.read_text().split("\n", 1)
        assert header == ",".join(["x", *(c.label for c in curves)])
        assert body == _old_csv_body(curves)
        back = read_curve_csv(path)
        for want, got in zip(ys, back):
            assert got.ys.tobytes() == np.asarray(want, dtype=float).tobytes()
        if back:
            assert back[0].xs.tobytes() == np.asarray(xs, dtype=float).tobytes()


def test_emit_csv_keeps_the_sign_of_zero_in_a_shared_dict(tmp_path):
    column_text = {}
    for name, zero in (("pos", 0.0), ("neg", -0.0)):
        xs = np.full(3, zero)
        emit_csv(_tiny_bundle([Curve("z", xs, xs)]), tmp_path / f"{name}.csv", column_text=column_text)
    assert (tmp_path / "pos.csv").read_text() == "x,z\n" + "0.0,0.0\n" * 3
    assert (tmp_path / "neg.csv").read_text() == "x,z\n" + "-0.0,-0.0\n" * 3
    assert len(column_text) == 2


def test_emit_csv_takes_grids_equal_up_to_nan_as_shared(tmp_path):
    grid = [0.0, np.nan]
    bundle = _tiny_bundle([Curve("a", np.array(grid), np.array([1.0, 2.0])), Curve("b", np.array(grid), np.zeros(2))])
    emit_csv(bundle, tmp_path / "n.csv")
    assert (tmp_path / "n.csv").read_text() == "x,a,b\n0.0,1.0,0.0\nnan,2.0,0.0\n"
    with pytest.raises(ValueError, match="shared grid"):
        emit_csv(_tiny_bundle([*bundle.curves, Curve("c", np.array([0.0, 1.0]), np.zeros(2))]), tmp_path / "m.csv")


def test_emit_csv_formats_a_repeated_column_once(tmp_path, monkeypatch):
    formatted = []
    real = bench._format_column
    monkeypatch.setattr(bench, "_format_column", lambda col: formatted.append(col) or real(col))
    xs = np.linspace(-1, 1, 5)
    bundle = _tiny_bundle([Curve(f"c{i}", xs, xs**2) for i in range(4)])
    emit_csv(bundle, tmp_path / "a.csv")
    assert len(formatted) == 2  # the grid and one curve, by default within one call
    emit_csv(bundle, tmp_path / "b.csv")
    assert len(formatted) == 4  # a call without a dict starts from nothing
    column_text = {}
    emit_csv(bundle, tmp_path / "c.csv", column_text=column_text)
    emit_csv(bundle, tmp_path / "d.csv", column_text=column_text)
    assert len(formatted) == 6
    assert len({(tmp_path / f"{n}.csv").read_bytes() for n in "abcd"}) == 1


def test_emit_svg_deterministic(tmp_path):
    xs = np.linspace(-1, 1, 50)
    bundle = _tiny_bundle(
        [Curve("f", xs, np.sin(xs))],
        markers=[Curve("nodes", xs[::10], np.sin(xs[::10]))],
    )
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg(bundle, p1)
    emit_svg(bundle, p2)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.startswith('<?xml version="1.0"')
    assert "<polyline" in text and "<circle" in text


def test_emit_svg_flat_curve_padding(tmp_path):
    xs = np.linspace(0, 1, 5)
    bundle = _tiny_bundle([Curve("flat", xs, np.full(5, 2.0))])
    path = tmp_path / "flat.svg"
    emit_svg(bundle, path)  # must not divide by zero
    assert "3.00" in path.read_text()  # padded y max label


def test_emit_svg_leaves_non_finite_points_out(tmp_path):
    xs = np.linspace(0.0, 1.0, 5)
    bundle = _tiny_bundle(
        [
            Curve("truth", xs, xs),
            Curve("blown up", xs, np.array([np.inf, 0.5, np.nan, -np.inf, 2.0])),
        ],
        markers=[Curve("nodes", np.array([0.0, np.nan, 1.0]), np.array([0.0, 1.0, -np.inf]))],
    )
    path = tmp_path / "nf.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        emit_svg(bundle, path)
    text = path.read_text()
    assert "nan" not in text and "inf" not in text
    # the axes span the finite values alone: x in [0, 1], y in [0, 2]
    labels = re.findall(r">(-?\d+\.\d\d)</text>", text)
    assert labels == ["-0.05", "1.05", "2.10", "-0.10"]
    polylines = re.findall(r'<polyline [^>]* points="([^"]*)"', text)
    assert [len(p.split()) for p in polylines] == [5, 2]
    assert text.count('r="3" fill="#1f77b4" stroke="none"') == 1  # the one finite node


def test_emit_svg_with_no_finite_point(tmp_path):
    xs = np.linspace(0.0, 1.0, 3)
    bundle = _tiny_bundle([Curve("nan", xs, np.full(3, np.nan))])
    path = tmp_path / "none.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        emit_svg(bundle, path)
    text = path.read_text()
    assert re.findall(r">(-?\d+\.\d\d)</text>", text) == ["-1.00", "1.00", "1.00", "-1.00"]
    assert re.findall(r'<polyline [^>]* points="([^"]*)"', text) == [""]


def test_emit_svg_scales_a_range_wider_than_the_float_range(tmp_path):
    big = np.finfo(float).max
    bundle = _tiny_bundle(
        [Curve("wide", np.array([-1.0, 0.0, 1.0]), np.array([-1e308, 0.0, 1e308]))],
        markers=[Curve("widest", np.array([-big, big]), np.array([big, -big]))],
    )
    path = tmp_path / "wide.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        emit_svg(bundle, path)
        emit_svg(_tiny_bundle(bundle.curves), tmp_path / "curve.svg")
    text = path.read_text()
    assert "nan" not in text and "inf" not in text
    # both axes reach 1.1 times the largest float, past the float range, and their labels say so
    x_lo, x_hi, y_hi, y_lo = (int(v) for v in re.findall(r">(-?\d+)\.00</text>", text))
    assert x_hi == y_hi == -x_lo == -y_lo and abs(10 * x_hi - 11 * int(big)) < int(big) >> 40
    assert re.findall(r'points="([^"]*)"', text) == ["420.00,351.25 420.00,240.00 420.00,128.75"]
    assert re.findall(r'<circle cx="([^"]*)" cy="([^"]*)" r="3" fill="#d62728" stroke', text) == [
        ("92.73", "40.00"),
        ("747.27", "440.00"),
    ]
    curve = (tmp_path / "curve.svg").read_text()
    labels = re.findall(r">(-?\d+\.\d\d)</text>", curve)
    assert labels[:2] == ["-1.10", "1.10"]
    assert [float(v) for v in labels[2:]] == [pytest.approx(1.1e308, rel=1e-15), pytest.approx(-1.1e308, rel=1e-15)]
    assert re.findall(r'points="([^"]*)"', curve) == ["92.73,440.00 420.00,240.00 747.27,40.00"]


def _old_svg_text(bundle) -> str:
    """The SVG as emit_svg wrote it when it scaled, filtered and formatted
    each series on its own."""
    series = [*bundle.curves, *bundle.node_markers]
    xys = [np.column_stack([s.xs, s.ys]) for s in series]
    xys = [xy[np.isfinite(xy).all(axis=1)] for xy in xys]
    finite = np.concatenate(xys)

    def padded(v):
        lo, hi = (float(v.min()), float(v.max())) if v.size else (0.0, 0.0)
        pad = 1.0 if hi == lo else 0.05 * (hi - lo)
        return lo - pad, hi + pad

    (x_lo, x_hi), (y_lo, y_hi) = padded(finite[:, 0]), padded(finite[:, 1])
    origin, span = np.array([x_lo, y_hi]), np.array([x_hi - x_lo, y_lo - y_hi])
    shapes = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="800" height="500" viewBox="0 0 800 500">\n',
        '<rect x="60" y="20" width="720" height="440" fill="white" stroke="#333333" stroke-width="1"/>\n',
        f'<text x="60" y="490" font-size="12" font-family="monospace">{x_lo:.2f}</text>\n',
        f'<text x="740" y="490" font-size="12" font-family="monospace">{x_hi:.2f}</text>\n',
        f'<text x="5" y="32" font-size="12" font-family="monospace">{y_hi:.2f}</text>\n',
        f'<text x="5" y="460" font-size="12" font-family="monospace">{y_lo:.2f}</text>\n',
    ]
    legend = []
    for i, (s, xy) in enumerate(zip(series, xys)):
        color, ly = bench._PALETTE[i % len(bench._PALETTE)], 34 + 16 * i
        pts = tuple(((60, 20) + (xy - origin) / span * (720, 440)).ravel().tolist())
        if i < len(bundle.curves):
            dash = bench._DASHES[i % len(bench._DASHES)]
            dash_attr = "" if dash == "none" else f' stroke-dasharray="{dash}"'
            points = " ".join(["%.2f,%.2f"] * len(xy)) % pts
            shapes.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash_attr} points="{points}"/>\n'
            )
            legend.append(
                f'<line x1="560" y1="{ly - 4}" x2="590" y2="{ly - 4}" stroke="{color}" '
                f'stroke-width="1.5"{dash_attr}/>\n'
            )
        else:
            shapes.append(f'<circle cx="%.2f" cy="%.2f" r="3" fill="{color}" stroke="none"/>\n' * len(xy) % pts)
            legend.append(f'<circle cx="575" cy="{ly - 4}" r="3" fill="{color}"/>\n')
        label = s.label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        legend.append(f'<text x="596" y="{ly}" font-size="12" font-family="monospace">{label}</text>\n')
    return "".join([*shapes, *legend, "</svg>\n"])


# finite values within 1e300 of zero, where the per-series code does not overflow
_SVG_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-5, 0.1, -2.5, 1e16, -1e16, 1e300, -1e300]
_svg_floats = st.one_of(
    st.sampled_from([*_SVG_SPECIAL, np.inf, -np.inf, np.nan]), st.floats(-1e300, 1e300)
)


def _points(n):
    """n values: float64 ones that may be non-finite, one flat value, or int64 ones."""
    floats = st.lists(_svg_floats, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float))
    flat = _svg_floats.map(lambda v: np.full(n, v))
    ints = st.lists(st.integers(-(2**62), 2**62), min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64))
    return st.one_of(floats, flat, ints)


def _repeat(xs, ys, how):
    """A curve's points again: as they are, copied, or with float64 values
    reread as the int64 values of the same bytes."""
    if how == "copy":
        return xs.copy(), ys.copy()
    if how == "bytes" and ys.dtype == float:
        return xs, ys.view(np.int64)
    return xs, ys


@st.composite
def _plots(draw):
    """Curves of one length, some repeated as the same arrays, as copies or as
    the same bytes in another dtype, and up to two marker sets of their own lengths."""
    n = draw(st.integers(0, 6))
    pool = draw(st.lists(st.tuples(_points(n), _points(n)), min_size=1, max_size=3))
    hows = st.sampled_from(["same", "copy", "bytes"])
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), hows), min_size=1, max_size=6))
    curves = [Curve(f"c{i}", *_repeat(xs, ys, how)) for i, ((xs, ys), how) in enumerate(picks)]
    sizes = draw(st.lists(st.integers(0, 4), max_size=2))
    markers = [Curve(f"m{i}", *draw(st.tuples(_points(k), _points(k)))) for i, k in enumerate(sizes)]
    return _tiny_bundle(curves, markers)


@settings(max_examples=200, deadline=None)
@given(bundle=_plots())
def test_emit_svg_matches_per_series_drawing(tmp_path_factory, bundle):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            want = _old_svg_text(bundle)
        except RuntimeWarning:
            # the per-series code divided by a zero span, and wrote nan, on a
            # constant axis too large for its padding of 1 to move the bounds
            assume(False)
        path = tmp_path_factory.mktemp("svg") / "p.svg"
        emit_svg(bundle, path)
    assert path.read_text() == want


def _check_point_text(view):
    """bench._point_text of `view` is its rows written by "%.2f,%.2f ", each
    starting at its offset."""
    view = np.asarray(view, dtype=float).reshape(-1, 2)
    rows = ["%.2f,%.2f " % (x, y) for x, y in view.tolist()]
    text, offsets = bench._point_text(view)
    assert text == "".join(rows)
    assert offsets.tolist() == [0, *np.cumsum([len(row) for row in rows], dtype=int).tolist()]


def _near_ties(k):
    """(k + 1/2) / 100 as a float, and its neighbours one ulp either side."""
    tie = (k + 0.5) / 100
    return [np.nextafter(tie, -np.inf), tie, np.nextafter(tie, np.inf)]


# exact binary ties ((k + 1/2) / 100 a float: 0.125, 436.875, 779.875) and
# decimal ones that are not (2.675, 20.005, 779.995)
_TIES = [0.125, 2.675, 20.005, 779.995, 436.875, 430.625, 779.875]
_FORMAT_SPECIAL = [0.0, -0.0, -0.004, 999.995, 999.99, 1000.0, 1e300, 5e-324, -5e-324, 2.0**-1030, 2.2e-308]


def test_outputs_get_the_mode_a_plain_open_gives(tmp_path):
    bundle = run_experiment(FitSpec("spline", "spline", n_samples=5), grid_size=11)
    for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
        out = tmp_path / oct(umask)
        old = os.umask(umask)
        try:
            out.mkdir()
            (out / "plain").write_bytes(b"")
            emit_csv(bundle, out / "fit.csv")
            emit_svg(bundle, out / "fit.svg")
        finally:
            os.umask(old)
        written = sorted(out.iterdir())
        assert [p.name for p in written] == ["fit.csv", "fit.csv.report.csv", "fit.svg", "plain"]  # no temporary file
        assert [stat.S_IMODE(p.stat().st_mode) for p in written] == [mode] * 4


@pytest.mark.parametrize(
    "v",
    [
        *_TIES,
        *_FORMAT_SPECIAL,
        *(v for k in (0, 1, 12, 267, 2000, 43687, 77999, 99998, 99999) for v in _near_ties(k)),
    ],
)
def test_point_text_writes_each_coordinate_as_percent_format(v):
    _check_point_text([[v, 1.0], [1.0, v], [v, v], [420.5, 12.25]])


def test_point_text_splices_several_fallback_rows_in_order():
    values = [*_TIES, *_FORMAT_SPECIAL, 60.0, 780.0, 8.0, 99.5]
    _check_point_text(np.column_stack([values, values[::-1]]))
    _check_point_text(np.empty((0, 2)))


_format_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(0.0, 1001.0),
    st.integers(0, 10**5).flatmap(lambda k: st.sampled_from(_near_ties(k))),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_format_floats, _format_floats), max_size=12))
def test_point_text_matches_percent_format(rows):
    _check_point_text(rows)


def test_emit_svg_writes_a_view_coordinate_on_a_tie_as_percent_format(tmp_path, monkeypatch):
    # y spans [0, 32], so the view maps y to about 20 + (33.6 - y) * 12.5, and
    # most quarters not a half land on an exact binary tie such as 436.875
    ys = np.arange(0.0, 32.25, 0.25)
    bundle = _tiny_bundle([Curve("c", ys, ys)], [Curve("m", ys[:9], ys[:9])])
    views = []
    point_text = bench._point_text
    monkeypatch.setattr(bench, "_point_text", lambda view: views.append(view) or point_text(view))
    emit_svg(bundle, tmp_path / "tie.svg")
    ties = views[0][:, 1] * 200
    assert ((ties % 2 == 1) & (ties == np.round(ties))).sum() > 40 and 436.875 in views[0][:, 1]
    text = (tmp_path / "tie.svg").read_text()
    assert text == _old_svg_text(bundle)
    assert ",436.88 " in text and 'cy="436.88"' in text  # 436.875 rounds half to even


def test_emit_svg_pads_a_constant_too_large_for_one(tmp_path):
    bundle = _tiny_bundle([Curve("flat", np.full(2, 1e16), np.array([-2.0**60, 2.0**60]))])
    path = tmp_path / "flat.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        emit_svg(bundle, path)
    text = path.read_text()
    assert re.findall(r">(-?\d+\.\d\d)</text>", text)[:2] == ["9500000000000000.00", "10500000000000000.00"]
    assert re.findall(r'points="([^"]*)"', text) == ["420.00,440.00 420.00,40.00"]


def test_emit_svg_needs_curves():
    with pytest.raises(ValueError):
        emit_svg(_tiny_bundle([]), "x.svg")


_GOLDEN_SVG = """\
<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="800" height="500" viewBox="0 0 800 500">
<rect x="60" y="20" width="720" height="440" fill="white" stroke="#333333" stroke-width="1"/>
<text x="60" y="490" font-size="12" font-family="monospace">-0.05</text>
<text x="740" y="490" font-size="12" font-family="monospace">1.05</text>
<text x="5" y="32" font-size="12" font-family="monospace">2.25</text>
<text x="5" y="460" font-size="12" font-family="monospace">-3.25</text>
<polyline fill="none" stroke="#000000" stroke-width="1.5" points="92.73,200.00 747.27,40.00"/>
<polyline fill="none" stroke="#d62728" stroke-width="1.5" stroke-dasharray="8 4" points="92.73,120.00 747.27,440.00"/>
<circle cx="92.73" cy="200.00" r="3" fill="#1f77b4" stroke="none"/>
<circle cx="747.27" cy="40.00" r="3" fill="#1f77b4" stroke="none"/>
<circle cx="420.00" cy="120.00" r="3" fill="#2ca02c" stroke="none"/>
<line x1="560" y1="30" x2="590" y2="30" stroke="#000000" stroke-width="1.5"/>
<text x="596" y="34" font-size="12" font-family="monospace">truth</text>
<line x1="560" y1="46" x2="590" y2="46" stroke="#d62728" stroke-width="1.5" stroke-dasharray="8 4"/>
<text x="596" y="50" font-size="12" font-family="monospace">fit, &lt;a&gt; &amp; b</text>
<circle cx="575" cy="62" r="3" fill="#1f77b4"/>
<text x="596" y="66" font-size="12" font-family="monospace">nodes</text>
<circle cx="575" cy="78" r="3" fill="#2ca02c"/>
<text x="596" y="82" font-size="12" font-family="monospace">efc &lt;pos&gt;</text>
</svg>
"""


def test_emit_golden_bytes(tmp_path):
    # integer-dtype curves, a label that needs CSV quoting and SVG escaping, two marker sets
    xs = np.array([0, 1])
    label = "fit, <a> & b"
    bundle = ReportBundle(
        curves=[Curve("truth", xs, np.array([0, 2])), Curve(label, xs, np.array([1, -3]))],
        reports=[ErrorReport(label, 3, 0.75, 0.5, 1.0, 0.25)],
        node_markers=[
            Curve("nodes", np.array([0.0, 1.0]), np.array([0.0, 2.0])),
            Curve("efc <pos>", np.array([0.5]), np.array([1.0])),
        ],
    )
    emit_csv(bundle, tmp_path / "g.csv")
    emit_svg(bundle, tmp_path / "g.svg")
    assert (tmp_path / "g.csv").read_bytes() == b'x,truth,"fit, <a> & b"\n0.0,0.0,1.0\n1.0,2.0,-3.0\n'
    assert (tmp_path / "g.csv.report.csv").read_bytes() == (
        b'method,n_params,max_abs,rms,argmax_x,endpoint_max_abs\n"fit, <a> & b",3,0.75,0.5,1.0,0.25\n'
    )
    assert (tmp_path / "g.svg").read_bytes() == _GOLDEN_SVG.encode()


def test_emit_sweep_csv_quotes_errors(tmp_path):
    entries = [
        StudyEntry(5, ErrorReport("s[5]", 5, 0.5, 0.25, 1.0, 0.125)),
        StudyEntry(7, None, 'ValueError: bad "m", odd'),
    ]
    bench.emit_sweep_csv(entries, tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_bytes() == (
        b'param,max_abs,rms,endpoint_max_abs,error\n5,0.5,0.25,0.125,\n7,,,,"ValueError: bad ""m"", odd"\n'
    )


def test_sweep_and_unknown_method():
    entries = bench.sweep("chebyshev", [5, 10])
    assert len(entries) == 2 and entries[1].report.max_abs < entries[0].report.max_abs
    with pytest.raises(UsageError):
        bench.sweep("nope", [5])
    with pytest.raises(UsageError, match="samples the target itself"):
        bench.sweep("tisi", [5, 11])  # TISI samples each band itself


@pytest.mark.parametrize("method", [m for m, info in bench.METHODS.items() if "n_samples" in info.inputs])
def test_sweep_evaluates_each_fit_and_the_target_once(monkeypatch, method):
    fits, target_calls = _spy(monkeypatch)
    entries = bench.sweep(method, [5, 11, 21], grid_size=257)
    assert target_calls.count(257) == 1  # no fit samples the target at 257 points
    scored = [e for e in entries if e.report is not None]  # a fit that raises leaves no approximant
    assert len(scored) >= 2 and [fit.calls for fit in fits] == [1] * len(scored)
    want = [
        error_report(fit.approx, RUNGE, Interval(), 257, method=f"{method}[{e.param}]") for fit, e in zip(fits, scored)
    ]
    assert [dataclasses.astuple(e.report) for e in scored] == [dataclasses.astuple(r) for r in want]


def test_sweep_refuses_a_one_sample_count_before_any_fit(monkeypatch):
    fits = []
    monkeypatch.setattr(bench, "_fit", lambda *args: fits.append(args))
    for grid in ([1, 5], [5, 1]):
        with pytest.raises(UsageError, match="^n_samples must be at least 2, got 1$"):
            bench.sweep("chebyshev", grid)
    assert fits == []


def test_default_output_dir_env(monkeypatch):
    monkeypatch.setenv("RUNGE_LAB_OUT", "/tmp/somewhere")
    assert bench.default_output_dir() == "/tmp/somewhere"
    monkeypatch.delenv("RUNGE_LAB_OUT")
    assert bench.default_output_dir() == "out"
