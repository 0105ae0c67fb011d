import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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
    ],
)
def test_coerce_params_refuses_a_value_its_type_would_change(method, params):
    with pytest.raises(UsageError, match=next(iter(params))):
        bench._coerce_params(bench.METHODS[method], params)


@pytest.mark.parametrize(
    "method,params,want",
    [
        ("ridge", {"alpha": 1}, {"alpha": 1.0}),
        ("efci", {"m": 6, "search": True}, {"m": 6, "search": True}),
        ("tisi", {"nodes_per_interval": "11", "epsilon": "0.3"}, {"nodes_per_interval": 11, "epsilon": 0.3}),
        ("efci", {"search": "1", "m": "4"}, {"search": True, "m": 4}),
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
    some holding NaN; the grid holds no NaN, which emit_csv's shared-grid check refuses."""
    n = draw(st.integers(0, 6))
    floats = st.lists(_floats, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float))
    with_nan = st.lists(st.one_of(_floats, st.just(np.nan)), min_size=n, max_size=n).map(np.array)
    ints = st.lists(st.integers(-(2**53), 2**53), min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64))
    distinct = draw(st.lists(st.one_of(floats, with_nan, ints), min_size=1, max_size=4))
    return draw(st.one_of(floats, ints)), draw(st.lists(st.sampled_from(distinct), max_size=6))


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


def test_sweep_records_a_one_root_chebyshev_fit_as_failed():
    one, five = bench.sweep("chebyshev", [1, 5])
    assert one.report is None and "need at least two samples" in one.error
    assert five.report is not None


def test_default_output_dir_env(monkeypatch):
    monkeypatch.setenv("RUNGE_LAB_OUT", "/tmp/somewhere")
    assert bench.default_output_dir() == "/tmp/somewhere"
    monkeypatch.delenv("RUNGE_LAB_OUT")
    assert bench.default_output_dir() == "out"
