"""Benchmark harness: the method registry, the paper-style figures as data,
and deterministic CSV/SVG emission."""

from __future__ import annotations

import csv
import dataclasses
import enum
import io
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import interpolants, metrics, nodes
from .core import Basis, Interval, NodeFamily, RUNGE, TargetFunction
from .interpolants import BandStrategy, EfciConfig, PenaltyKind, TikhonovOperator, TisiConfig
from .metrics import DEFAULT_GRID_SIZE, ErrorReport, error_report

UNSUPPORTED_FIGURE_NOTE = {10: "not reproducible - undefined in source"}
SVD_THRESHOLDS = (1e-2, 1e-5, 1e-10, 1e-15)


class UsageError(ValueError):
    """Bad command-line or configuration input; maps to exit code 2."""


@dataclass(frozen=True)
class Curve:
    label: str
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError("curve xs/ys length mismatch")


@dataclass
class ReportBundle:
    curves: list[Curve]
    reports: list[ErrorReport]
    node_markers: list[Curve] = field(default_factory=list)

    def __post_init__(self):
        labels = [c.label for c in self.curves]
        if len(set(labels)) != len(labels):
            raise ValueError("curve labels must be unique")


def _figure_error(fid) -> str:
    msg = f"unsupported figure id {fid}; supported: {', '.join(map(str, SUPPORTED_FIGURES))}"
    if fid in UNSUPPORTED_FIGURE_NOTE:
        msg += f" (figure {fid}: {UNSUPPORTED_FIGURE_NOTE[fid]})"
    return msg


# ---------------------------------------------------------------------------
# Method registry
#
# A builder takes (samples, f, degree, interval, **params) and returns the
# approximant together with the point sets it was fitted to, by name: "nodes"
# for the samples of f it was fitted to. It passes on only the parameters a
# user or a figure sets, so every default is the library function's or config
# dataclass's.

# Node family -> (sample count, interval) -> NodeSet. Each generator is
# looked up on the nodes module at call time, so a wrapper installed on the
# module attribute sees every call.
NODE_FAMILIES = {
    NodeFamily.EQUISPACED: lambda n, iv: nodes.equispaced(n, iv),
    NodeFamily.CHEBYSHEV_ROOTS: lambda n, iv: nodes.chebyshev_roots(n - 1, iv),
    NodeFamily.CHEBYSHEV_LOBATTO: lambda n, iv: nodes.chebyshev_lobatto(n - 1, iv),
}


@dataclass(frozen=True)
class MethodInfo:
    name: str
    params: dict  # key -> python type of the value; an enum class takes its members or their values
    build: Callable
    inputs: tuple[str, ...] = ("n_samples",)  # run inputs it reads; without n_samples it samples f itself
    family: NodeFamily = NodeFamily.EQUISPACED  # nodes its n_samples samples are drawn on


def _coerce_params(info: MethodInfo, raw: dict) -> dict:
    out = {}
    for key, value in raw.items():
        if key not in info.params:
            raise UsageError(
                f"unknown parameter {key!r} for method {info.name!r}; "
                f"allowed: {sorted(info.params) or 'none'}"
            )
        typ = info.params[key]
        try:
            if typ is bool and isinstance(value, str):
                if value.lower() not in ("true", "false", "1", "0"):
                    raise ValueError(value)
                out[key] = value.lower() in ("true", "1")
            else:
                out[key] = typ(value)
        except (TypeError, ValueError):
            want = f"one of {[m.value for m in typ]}" if issubclass(typ, enum.Enum) else typ.__name__
            raise UsageError(f"parameter {key!r} for method {info.name!r} must be {want}")
        if typ is float and not np.isfinite(out[key]):
            raise UsageError(f"parameter {key!r} for method {info.name!r} must be finite, got {value}")
        # a value given other than as a string must be exact: no rounding, and a bool only for a bool
        if not isinstance(value, str) and (out[key] != value or (typ is bool) != isinstance(value, bool)):
            raise UsageError(
                f"parameter {key!r} for method {info.name!r} must be {typ.__name__}, got {value!r}"
            )
    return out


def _nodes(samples) -> dict:
    return {"nodes": (samples.xs, samples.ys)}


def _lagrange(s, f, degree, interval):
    return interpolants.lagrange_interpolate(s), _nodes(s)


def _penalized(kind: PenaltyKind) -> Callable:
    return lambda s, f, degree, iv, **p: (interpolants.fit_regularized(s, degree, kind, **p), _nodes(s))


def _efci(s, f, degree, interval, **p):
    approx, positions, _ = interpolants.efci_fit(s, f, EfciConfig(degree=degree, **p))
    return approx, {**_nodes(s), "efc positions": (positions, f(positions))}


_FITTED = ("n_samples", "degree")  # the run inputs a least-squares or penalized fit reads
METHODS: dict[str, MethodInfo] = {
    info.name: info
    for info in (
        MethodInfo("lagrange", {}, _lagrange),
        # Chebyshev interpolation is Lagrange interpolation at the Chebyshev roots
        MethodInfo("chebyshev", {}, _lagrange, family=NodeFamily.CHEBYSHEV_ROOTS),
        MethodInfo("spline", {}, lambda s, f, d, iv: (interpolants.cubic_spline(s), _nodes(s))),
        MethodInfo("unregularized", {}, _penalized(PenaltyKind.NONE), _FITTED),
        MethodInfo("ridge", {"alpha": float}, _penalized(PenaltyKind.RIDGE), _FITTED),
        MethodInfo("lasso", {"alpha": float}, _penalized(PenaltyKind.LASSO), _FITTED),
        MethodInfo(
            "elastic_net", {"alpha": float, "rho": float}, _penalized(PenaltyKind.ELASTIC_NET), _FITTED
        ),
        MethodInfo(
            "tikhonov",
            {"lam": float, "operator": TikhonovOperator},
            lambda s, f, d, iv, **p: (interpolants.tikhonov_fit(s, d, **p), _nodes(s)),
            _FITTED,
        ),
        MethodInfo("efci", {"m": int, "epsilon": float, "weight": float, "search": bool}, _efci, _FITTED),
        MethodInfo(
            "mock_chebyshev",
            {"m": int},
            lambda s, f, d, iv, **p: (interpolants.mock_chebyshev_interpolate(s, **p), _nodes(s)),
        ),
        MethodInfo(
            "constrained_mock_chebyshev",
            {"m": int, "ls_degree": int},
            lambda s, f, d, iv, **p: (interpolants.constrained_mock_chebyshev_lstsq(s, **p), _nodes(s)),
        ),
        MethodInfo(
            "tisi",
            {
                "epsilon": float,
                "left": BandStrategy,
                "center": BandStrategy,
                "right": BandStrategy,
                "nodes_per_interval": int,
            },
            lambda s, f, d, iv, **p: (interpolants.tisi_fit(f, iv, TisiConfig(**p)), {}),
            inputs=(),
        ),
        MethodInfo(
            "svd",
            {"threshold": float, "basis": Basis},
            lambda s, f, d, iv, **p: (interpolants.svd_truncated_fit(s, d, **p), _nodes(s)),
            _FITTED,
        ),
    )
}


def _method(name: str) -> MethodInfo:
    info = METHODS.get(name)
    if info is None:
        raise UsageError(f"unknown method {name!r}; known: {sorted(METHODS)}")
    return info


def check_inputs(name: str, given) -> None:
    """Raise UsageError unless `name` is a registered method that reads each
    run input (FitSpec's n_samples, degree) named in `given`."""
    inputs = _method(name).inputs
    if "n_samples" in given and "n_samples" not in inputs:
        raise UsageError(f"method {name!r} samples the target itself and takes no sample count")
    if "degree" in given and "degree" not in inputs:
        raise UsageError(f"method {name!r} takes no degree; its nodes or its parameters set it")


# ---------------------------------------------------------------------------
# Figures as data


@dataclass(frozen=True)
class FitSpec:
    """One labelled fit: a registered method with the parameters set for it,
    fitted to n_samples samples of a node family."""

    label: str
    method: str
    params: dict = field(default_factory=dict)
    n_samples: int = 11
    degree: int | None = 10  # None: _fit's default degree for n_samples
    family: NodeFamily | None = None  # None: the method's own


@dataclass(frozen=True)
class FigureSpec:
    fits: tuple[FitSpec, ...]
    markers: tuple[tuple[str, str, str], ...] = ()  # (legend label, fit label, point set name)
    resizable: bool = False  # a sample-count override applies to every fit


def _svd_figure(resizable=False, **sampling) -> FigureSpec:
    """Truncated-SVD fits of one sample set at each of SVD_THRESHOLDS."""
    fits = tuple(
        FitSpec(f"svd threshold={t:g}", "svd", {"threshold": t}, **sampling) for t in SVD_THRESHOLDS
    )
    return FigureSpec(fits, (("sample nodes", fits[0].label, "nodes"),), resizable)


FIGURES: dict[int, FigureSpec] = {
    1: FigureSpec(tuple(FitSpec(f"equispaced n={n}", "lagrange", n_samples=n) for n in (5, 10, 15, 20))),
    2: FigureSpec(
        (FitSpec("chebyshev", "chebyshev"), FitSpec("spline", "spline")),
        (("equispaced nodes", "spline", "nodes"), ("chebyshev nodes", "chebyshev", "nodes")),
    ),
    3: FigureSpec(
        (
            FitSpec("no regularization", "unregularized"),
            FitSpec("ridge", "ridge"),
            FitSpec("lasso", "lasso"),
            FitSpec("elastic net", "elastic_net"),
        ),
        (("sample nodes", "ridge", "nodes"),),
    ),
    4: FigureSpec(
        (FitSpec("tikhonov lambda=0.01", "tikhonov", degree=12),),
        (("sample nodes", "tikhonov lambda=0.01", "nodes"),),
    ),
    5: FigureSpec(
        (FitSpec("efci", "efci", {"search": True}),),
        (("sample nodes", "efci", "nodes"), ("efc positions", "efci", "efc positions")),
    ),
    6: FigureSpec(
        (
            FitSpec("least squares", "unregularized", n_samples=20),
            FitSpec("mock-chebyshev", "mock_chebyshev", n_samples=20),
        ),
        (("grid points", "least squares", "nodes"),),
    ),
    7: FigureSpec((FitSpec("tisi", "tisi"),)),
    8: FigureSpec((FitSpec("tisi improved", "tisi", {"center": "lagrange_cheb"}),)),
    9: FigureSpec(
        (
            FitSpec("equispaced", "lagrange", n_samples=21),
            FitSpec("chebyshev-lobatto", "lagrange", n_samples=21, family=NodeFamily.CHEBYSHEV_LOBATTO),
            # every other node of the 21-point grid is the 11-point grid, bit for bit
            FitSpec("every-other subset", "lagrange", n_samples=11),
        )
    ),
    11: _svd_figure(),
    12: _svd_figure(resizable=True, n_samples=21, degree=None),
    13: _svd_figure(family=NodeFamily.CHEBYSHEV_ROOTS),
}
SUPPORTED_FIGURES = tuple(FIGURES)


# ---------------------------------------------------------------------------
# Experiment and figure runners


def _fit(spec: FitSpec, f: TargetFunction, interval: Interval):
    """(approximant, named point sets) of one fit spec; an unset degree is max(n_samples - 1, 1)."""
    info = _method(spec.method)
    params = _coerce_params(info, spec.params)
    family = NODE_FAMILIES[spec.family or info.family]
    samples = f.sample(family(spec.n_samples, interval)) if "n_samples" in info.inputs else None
    degree = max(spec.n_samples - 1, 1) if spec.degree is None else spec.degree
    return info.build(samples, f, degree, interval, **params)


def _bundle(figure: FigureSpec, f: TargetFunction, interval: Interval, grid_size: int) -> ReportBundle:
    """Truth + one curve and error report per fit, and the figure's markers."""
    xs = np.linspace(interval.lo, interval.hi, grid_size)
    curves, reports, points = [Curve(f.name, xs, f(xs))], [], {}
    for spec in figure.fits:
        approx, points[spec.label] = _fit(spec, f, interval)
        curves.append(Curve(spec.label, xs, approx.evaluate(xs)))
        reports.append(error_report(approx, f, interval, grid_size, method=spec.label))
    markers = [
        Curve(legend, *points[label][name]) for legend, label, name in figure.markers if name in points[label]
    ]
    return ReportBundle(curves=curves, reports=reports, node_markers=markers)


def run_experiment(
    fit: FitSpec,
    grid_size: int = DEFAULT_GRID_SIZE,
    output_dir: str | None = None,
    emit_svg_file: bool = False,
) -> ReportBundle:
    """One fit of the Runge function as a one-fit figure on [-1, 1], marking the
    nodes it was fitted to; the files are named after its method."""
    figure = FigureSpec((fit,), (("sample nodes", fit.label, "nodes"),))
    bundle = _bundle(figure, RUNGE, Interval(), grid_size)
    _maybe_write(bundle, output_dir, emit_svg_file, name=fit.method)
    return bundle


def run_figure(
    figure_id: int,
    grid_size: int = DEFAULT_GRID_SIZE,
    n_samples: int | None = None,
    output_dir: str | None = None,
    emit_svg_file: bool = False,
) -> ReportBundle:
    """Reproduce one of the paper-style figures as curves plus error reports;
    `n_samples` resizes every fit of a resizable figure."""
    if figure_id not in SUPPORTED_FIGURES:
        raise UsageError(_figure_error(figure_id))
    figure = FIGURES[figure_id]
    if n_samples is not None:
        if not figure.resizable:
            resizable = ", ".join(str(fid) for fid, spec in FIGURES.items() if spec.resizable)
            raise UsageError(f"figure {figure_id} has fixed sample counts; resizable: {resizable}")
        fits = tuple(dataclasses.replace(spec, n_samples=n_samples) for spec in figure.fits)
        figure = dataclasses.replace(figure, fits=fits)
    bundle = _bundle(figure, RUNGE, Interval(), grid_size)
    _maybe_write(bundle, output_dir, emit_svg_file, name=f"figure{figure_id}")
    return bundle


# ---------------------------------------------------------------------------
# Output emission


def default_output_dir() -> str:
    return os.environ.get("RUNGE_LAB_OUT", "out")


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise OSError(f"failed writing {path}: {exc}") from exc


def _maybe_write(bundle: ReportBundle, output_dir: str | None, svg: bool, name: str) -> None:
    if output_dir is None:
        return
    out = Path(output_dir)
    emit_csv(bundle, out / f"{name}.csv")
    if svg:
        emit_svg(bundle, out / f"{name}.svg")


def _write_csv(path: Path, rows, body: str = "") -> None:
    """Atomically write `rows` through csv.writer, which quotes labels and
    messages as needed and writes a float as its shortest round-trip repr,
    followed by the preformatted `body`."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    buf.write(body)
    _atomic_write(path, buf.getvalue().encode("utf-8"))


def emit_csv(bundle: ReportBundle, path) -> None:
    """Curve table `x,<label>,...` with shortest round-trip decimals, plus a
    sibling `<path>.report.csv` carrying the error reports.

    One pass: the table is one `column_stack` of the grid and every curve,
    converted to Python floats at once, and each row is its cells' `repr`
    joined by commas; only the header and the report rows go through
    csv.writer. Cost is one repr per cell and one join per row."""
    path = Path(path)
    xs = bundle.curves[0].xs if bundle.curves else np.empty(0)
    if any(not np.array_equal(c.xs, xs) for c in bundle.curves[1:]):
        raise ValueError("emit_csv requires all curves on a shared grid")
    # astype(float): an integer-dtype curve is written as 2.0, not 2
    table = np.column_stack([xs, *(c.ys for c in bundle.curves)]).astype(float).tolist()
    body = "".join(",".join(map(repr, row)) + "\n" for row in table)
    _write_csv(path, [["x", *(c.label for c in bundle.curves)]], body)
    header = [f.name for f in dataclasses.fields(ErrorReport)]
    reports = map(dataclasses.astuple, bundle.reports)
    _write_csv(path.with_name(path.name + ".report.csv"), [header, *reports])


def emit_sweep_csv(entries: list[metrics.StudyEntry], path) -> None:
    """One row `param,max_abs,rms,endpoint_max_abs,error` per sweep entry; a
    failed fit leaves the metrics empty and carries its error message."""
    rows = [
        [e.param, e.report.max_abs, e.report.rms, e.report.endpoint_max_abs, ""]
        if e.report is not None
        else [e.param, "", "", "", e.error]
        for e in entries
    ]
    _write_csv(Path(path), [["param", "max_abs", "rms", "endpoint_max_abs", "error"], *rows])


_PALETTE = ("#000000", "#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")
_DASHES = ("none", "8 4", "2 3", "8 4 2 4", "4 4", "1 3", "10 2", "6 2 2 2")

_VIEW_W, _VIEW_H = 800, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 20, 20, 40


def _padded(v: np.ndarray) -> tuple[float, float]:
    """(min, max) of v widened by 5% of its range a side, or by 1 if v is constant."""
    lo, hi = float(v.min()), float(v.max())
    pad = 1.0 if hi == lo else 0.05 * (hi - lo)
    return lo - pad, hi + pad


def emit_svg(bundle: ReportBundle, path) -> None:
    """Standalone SVG 1.1, 800x500, axes auto-scaled with 5% padding, one
    polyline per curve, legend, circle markers for sample nodes. Byte output is
    deterministic for identical input.

    One pass per curve and marker set: its points are scaled to the view by
    one numpy expression and written by one %-format of the whole polyline or
    circle set, together with its legend entry. Cost is one float format per
    coordinate."""
    if not bundle.curves:
        raise ValueError("emit_svg needs at least one curve")
    series = [*bundle.curves, *bundle.node_markers]
    x_lo, x_hi = _padded(np.concatenate([s.xs for s in series]))
    y_lo, y_hi = _padded(np.concatenate([s.ys for s in series]))
    plot_w = _VIEW_W - _MARGIN_L - _MARGIN_R
    plot_h = _VIEW_H - _MARGIN_T - _MARGIN_B
    # x maps [x_lo, x_hi] onto [0, plot_w] and y maps [y_hi, y_lo] onto [0, plot_h]:
    # (y - y_hi) / (y_lo - y_hi) negates both terms of (y_hi - y) / (y_hi - y_lo), exactly.
    origin, span = np.array([x_lo, y_hi]), np.array([x_hi - x_lo, y_lo - y_hi])

    shapes = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_VIEW_W}" height="{_VIEW_H}" '
        f'viewBox="0 0 {_VIEW_W} {_VIEW_H}">\n',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="white" stroke="#333333" stroke-width="1"/>\n',
        f'<text x="{_MARGIN_L}" y="{_VIEW_H - 10}" font-size="12" font-family="monospace">{x_lo:.2f}</text>\n',
        f'<text x="{_VIEW_W - _MARGIN_R - 40}" y="{_VIEW_H - 10}" font-size="12" '
        f'font-family="monospace">{x_hi:.2f}</text>\n',
        f'<text x="5" y="{_MARGIN_T + 12}" font-size="12" font-family="monospace">{y_hi:.2f}</text>\n',
        f'<text x="5" y="{_VIEW_H - _MARGIN_B}" font-size="12" font-family="monospace">{y_lo:.2f}</text>\n',
    ]
    legend = []
    lx = _VIEW_W - _MARGIN_R - 220  # legend, top-right inside the plot area
    for i, s in enumerate(series):
        color, ly = _PALETTE[i % len(_PALETTE)], _MARGIN_T + 14 + 16 * i
        xy = np.column_stack([s.xs, s.ys])
        pts = tuple(((_MARGIN_L, _MARGIN_T) + (xy - origin) / span * (plot_w, plot_h)).ravel().tolist())
        if i < len(bundle.curves):
            dash = _DASHES[i % len(_DASHES)]
            dash_attr = "" if dash == "none" else f' stroke-dasharray="{dash}"'
            points = " ".join(["%.2f,%.2f"] * len(xy)) % pts
            shapes.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash_attr} points="{points}"/>\n'
            )
            legend.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 30}" y2="{ly - 4}" stroke="{color}" '
                f'stroke-width="1.5"{dash_attr}/>\n'
            )
        else:
            circle = f'<circle cx="%.2f" cy="%.2f" r="3" fill="{color}" stroke="none"/>\n'
            shapes.append(circle * len(xy) % pts)
            legend.append(f'<circle cx="{lx + 15}" cy="{ly - 4}" r="3" fill="{color}"/>\n')
        label = s.label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        legend.append(f'<text x="{lx + 36}" y="{ly}" font-size="12" font-family="monospace">{label}</text>\n')
    _atomic_write(Path(path), "".join([*shapes, *legend, "</svg>\n"]).encode("utf-8"))


def read_curve_csv(path) -> list[Curve]:
    """Parse a curve CSV written by emit_csv back into curves."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    cols = [[] for _ in header]
    for row in rows[1:]:
        for i, v in enumerate(row):
            cols[i].append(float(v))
    xs = np.asarray(cols[0])
    return [Curve(header[i], xs, np.asarray(cols[i])) for i in range(1, len(header))]


def sweep(method: str, grid, grid_size: int = DEFAULT_GRID_SIZE) -> list[metrics.StudyEntry]:
    """Convergence study of a registered method on the Runge function over sample counts."""
    check_inputs(method, ("n_samples",))

    def handle(f, n):
        return _fit(FitSpec(method, method, n_samples=n, degree=None), f, Interval())[0]

    return metrics.convergence_study(handle, RUNGE, list(grid), grid_size=grid_size, method_name=method)
