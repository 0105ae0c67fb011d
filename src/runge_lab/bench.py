"""Benchmark harness: the method registry, the paper-style figures as data,
and deterministic CSV/SVG emission."""

from __future__ import annotations

import csv
import dataclasses
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import interpolants, metrics, nodes
from .core import Basis, Interval, RUNGE, TargetFunction
from .interpolants import BandStrategy, EfciConfig, PenaltyKind, TikhonovOperator, TisiConfig
from .metrics import ErrorReport, error_report

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
class ExperimentConfig:
    method: str = "lagrange"
    interval: Interval = field(default_factory=Interval)
    n_samples: int = 11
    degree: int = 10
    method_params: dict = field(default_factory=dict)
    grid_size: int = 1001
    output_dir: str | None = None
    emit_svg: bool = False


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

# Node family name -> (sample count, interval) -> NodeSet. Each generator is
# looked up on the nodes module at call time, so a wrapper installed on the
# module attribute sees every call.
NODE_FAMILIES = {
    "equispaced": lambda n, iv: nodes.equispaced(n, iv),
    "chebyshev_roots": lambda n, iv: nodes.chebyshev_roots(n - 1, iv),
    "chebyshev_lobatto": lambda n, iv: nodes.chebyshev_lobatto(n - 1, iv),
    "every_other": lambda n, iv: nodes.every_other_subset(nodes.equispaced(n, iv)).node_set(),
}


@dataclass(frozen=True)
class MethodInfo:
    name: str
    params: dict  # key -> python type of the value, or the tuple of allowed enum members
    build: Callable
    family: str | None = "equispaced"  # nodes it is fitted to; None: it samples f itself


def _coerce_params(info: MethodInfo, raw: dict) -> dict:
    out = {}
    for key, value in raw.items():
        if key not in info.params:
            raise UsageError(
                f"unknown parameter {key!r} for method {info.name!r}; "
                f"allowed: {sorted(info.params) or 'none'}"
            )
        typ = info.params[key]
        if isinstance(typ, tuple):
            choices = {member.value: member for member in typ}
            if str(value) not in choices:
                raise UsageError(
                    f"parameter {key!r} for method {info.name!r} must be one of {list(choices)}"
                )
            out[key] = choices[str(value)]
            continue
        try:
            if typ is bool and isinstance(value, str):
                if value.lower() not in ("true", "false", "1", "0"):
                    raise ValueError(value)
                out[key] = value.lower() in ("true", "1")
            else:
                out[key] = typ(value)
        except (TypeError, ValueError):
            raise UsageError(f"parameter {key!r} for method {info.name!r} must be {typ.__name__}")
    return out


def _nodes(samples) -> dict:
    return {"nodes": (samples.xs, samples.ys)}


def _renamed(params: dict, **names) -> dict:
    """Registry parameter names -> library keyword names."""
    return {names.get(key, key): value for key, value in params.items()}


def _penalized(kind: PenaltyKind) -> Callable:
    return lambda s, f, degree, iv, **p: (interpolants.fit_regularized(s, degree, kind, **p), _nodes(s))


def _chebyshev(s, f, degree, interval):
    approx = interpolants.chebyshev_interpolate(f, len(s) - 1, interval)
    return approx, {"nodes": (approx.nodes.xs, approx.ys)}


def _efci(s, f, degree, interval, **p):
    cfg = EfciConfig(degree=degree, **_renamed(p, weight="constraint_weight"))
    approx, positions, _ = interpolants.efci_fit(s, f, cfg)
    return approx, {**_nodes(s), "efc positions": (positions, f(positions))}


_TISI_BANDS = {"left": "left_strategy", "center": "center_strategy", "right": "right_strategy"}


def _tisi(s, f, degree, interval, improved=False, **p):
    if improved:  # the improved variant fixes its band strategies
        cfg = TisiConfig.improved(**{key: value for key, value in p.items() if key not in _TISI_BANDS})
    else:
        cfg = TisiConfig(**_renamed(p, **_TISI_BANDS))
    return interpolants.tisi_fit(f, interval, cfg), {}


METHODS: dict[str, MethodInfo] = {
    info.name: info
    for info in (
        MethodInfo("lagrange", {}, lambda s, f, d, iv: (interpolants.lagrange_interpolate(s), _nodes(s))),
        MethodInfo("chebyshev", {}, _chebyshev, family="chebyshev_roots"),
        MethodInfo("spline", {}, lambda s, f, d, iv: (interpolants.cubic_spline(s), _nodes(s))),
        MethodInfo("unregularized", {}, _penalized(PenaltyKind.NONE)),
        MethodInfo("ridge", {"alpha": float}, _penalized(PenaltyKind.RIDGE)),
        MethodInfo("lasso", {"alpha": float}, _penalized(PenaltyKind.LASSO)),
        MethodInfo("elastic_net", {"alpha": float, "rho": float}, _penalized(PenaltyKind.ELASTIC_NET)),
        MethodInfo(
            "tikhonov",
            {"lam": float, "operator": tuple(TikhonovOperator)},
            lambda s, f, d, iv, **p: (interpolants.tikhonov_fit(s, d, **p), _nodes(s)),
        ),
        MethodInfo("efci", {"m": int, "epsilon": float, "weight": float, "search": bool}, _efci),
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
                "left": tuple(BandStrategy),
                "center": tuple(BandStrategy),
                "right": tuple(BandStrategy),
                "nodes_per_interval": int,
                "improved": bool,
            },
            _tisi,
            family=None,
        ),
        MethodInfo(
            "svd",
            {"threshold": float, "basis": (Basis.MONOMIAL, Basis.LEGENDRE)},
            lambda s, f, d, iv, **p: (interpolants.svd_truncated_fit(s, d, **p), _nodes(s)),
        ),
    )
}


def _method(name: str) -> MethodInfo:
    info = METHODS.get(name)
    if info is None:
        raise UsageError(f"unknown method {name!r}; known: {sorted(METHODS)}")
    return info


# ---------------------------------------------------------------------------
# Figures as data


@dataclass(frozen=True)
class FitSpec:
    """One labelled fit: a registered method with the parameters set for it,
    fitted to n samples of a node family."""

    label: str
    method: str
    params: dict = field(default_factory=dict)
    n: int = 11
    degree: int | None = 10  # None: n - 1
    family: str | None = None  # None: the method's own


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
    1: FigureSpec(tuple(FitSpec(f"equispaced n={n}", "lagrange", n=n) for n in (5, 10, 15, 20))),
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
        (FitSpec("least squares", "unregularized", n=20), FitSpec("mock-chebyshev", "mock_chebyshev", n=20)),
        (("grid points", "least squares", "nodes"),),
    ),
    7: FigureSpec((FitSpec("tisi", "tisi"),)),
    8: FigureSpec((FitSpec("tisi improved", "tisi", {"improved": True}),)),
    9: FigureSpec(
        (
            FitSpec("equispaced", "lagrange", n=21),
            FitSpec("chebyshev-lobatto", "lagrange", n=21, family="chebyshev_lobatto"),
            FitSpec("every-other subset", "lagrange", n=21, family="every_other"),
        )
    ),
    11: _svd_figure(),
    12: _svd_figure(resizable=True, n=21, degree=None),
    13: _svd_figure(family="chebyshev_roots"),
}
SUPPORTED_FIGURES = tuple(FIGURES)


# ---------------------------------------------------------------------------
# Experiment and figure runners


def _fit(spec: FitSpec, f: TargetFunction, interval: Interval):
    """(approximant, named point sets) of one fit spec."""
    info = _method(spec.method)
    params = _coerce_params(info, spec.params)
    family = spec.family or info.family
    samples = f.sample(NODE_FAMILIES[family](spec.n, interval)) if family else None
    degree = spec.n - 1 if spec.degree is None else spec.degree
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


def run_experiment(cfg: ExperimentConfig, f: TargetFunction = RUNGE) -> ReportBundle:
    """One registered method as a one-fit figure, marking the nodes it was fitted to."""
    fit = FitSpec(cfg.method, cfg.method, cfg.method_params, n=cfg.n_samples, degree=cfg.degree)
    figure = FigureSpec((fit,), (("sample nodes", cfg.method, "nodes"),))
    bundle = _bundle(figure, f, cfg.interval, cfg.grid_size)
    _maybe_write(bundle, cfg.output_dir, cfg.emit_svg, name=cfg.method)
    return bundle


def run_figure(
    figure_id: int,
    grid_size: int = 1001,
    n_samples: int | None = None,
    output_dir: str | None = None,
    emit_svg_file: bool = False,
) -> ReportBundle:
    """Reproduce one of the paper-style figures as curves plus error reports."""
    if figure_id not in SUPPORTED_FIGURES:
        raise UsageError(_figure_error(figure_id))
    figure = FIGURES[figure_id]
    if figure.resizable and n_samples:
        fits = tuple(dataclasses.replace(spec, n=n_samples) for spec in figure.fits)
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


def emit_csv(bundle: ReportBundle, path) -> None:
    """Curve table `x,<label>,...` with shortest round-trip decimals, plus a
    sibling `<path>.report.csv` carrying the error reports."""
    path = Path(path)
    curves = bundle.curves
    if curves:
        base_xs = curves[0].xs
        for c in curves[1:]:
            if len(c.xs) != len(base_xs) or not np.array_equal(c.xs, base_xs):
                raise ValueError("emit_csv requires all curves on a shared grid")
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x"] + [c.label for c in curves])
    if curves:
        for i in range(len(base_xs)):
            writer.writerow([repr(float(base_xs[i]))] + [repr(float(c.ys[i])) for c in curves])
    _atomic_write(path, buf.getvalue().encode("utf-8"))

    rbuf = io.StringIO()
    writer = csv.writer(rbuf, lineterminator="\n")
    writer.writerow(["method", "n_params", "max_abs", "rms", "argmax_x", "endpoint_max_abs"])
    for r in bundle.reports:
        writer.writerow(
            [r.method, r.n_params, repr(r.max_abs), repr(r.rms), repr(r.argmax_x), repr(r.endpoint_max_abs)]
        )
    _atomic_write(path.with_name(path.name + ".report.csv"), rbuf.getvalue().encode("utf-8"))


_PALETTE = ("#000000", "#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")
_DASHES = ("none", "8 4", "2 3", "8 4 2 4", "4 4", "1 3", "10 2", "6 2 2 2")

_VIEW_W, _VIEW_H = 800, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 20, 20, 40


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def emit_svg(bundle: ReportBundle, path) -> None:
    """Standalone SVG 1.1, 800x500, axes auto-scaled with 5% padding, one
    polyline per curve, legend, circle markers for sample nodes. Byte output is
    deterministic for identical input."""
    if not bundle.curves:
        raise ValueError("emit_svg needs at least one curve")
    path = Path(path)
    all_x = np.concatenate([c.xs for c in bundle.curves] + [m.xs for m in bundle.node_markers])
    all_y = np.concatenate([c.ys for c in bundle.curves] + [m.ys for m in bundle.node_markers])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    else:
        pad = 0.05 * (x_hi - x_lo)
        x_lo, x_hi = x_lo - pad, x_hi + pad
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    else:
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _VIEW_W - _MARGIN_L - _MARGIN_R
    plot_h = _VIEW_H - _MARGIN_T - _MARGIN_B

    def sx(v):
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_VIEW_W}" height="{_VIEW_H}" '
        f'viewBox="0 0 {_VIEW_W} {_VIEW_H}">\n',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="white" stroke="#333333" stroke-width="1"/>\n',
        f'<text x="{_MARGIN_L}" y="{_VIEW_H - 10}" font-size="12" font-family="monospace">{_fmt(x_lo)}</text>\n',
        f'<text x="{_VIEW_W - _MARGIN_R - 40}" y="{_VIEW_H - 10}" font-size="12" '
        f'font-family="monospace">{_fmt(x_hi)}</text>\n',
        f'<text x="5" y="{_MARGIN_T + 12}" font-size="12" font-family="monospace">{_fmt(y_hi)}</text>\n',
        f'<text x="5" y="{_VIEW_H - _MARGIN_B}" font-size="12" font-family="monospace">{_fmt(y_lo)}</text>\n',
    ]
    for i, c in enumerate(bundle.curves):
        color = _PALETTE[i % len(_PALETTE)]
        dash = _DASHES[i % len(_DASHES)]
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(c.xs, c.ys))
        dash_attr = "" if dash == "none" else f' stroke-dasharray="{dash}"'
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash_attr} points="{pts}"/>\n'
        )
    for j, mk in enumerate(bundle.node_markers):
        color = _PALETTE[(len(bundle.curves) + j) % len(_PALETTE)]
        for x, y in zip(mk.xs, mk.ys):
            parts.append(
                f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" fill="{color}" stroke="none"/>\n'
            )
    # legend, top-right inside the plot area
    lx = _VIEW_W - _MARGIN_R - 220
    ly = _MARGIN_T + 14
    entries = [(c.label, _PALETTE[i % len(_PALETTE)], _DASHES[i % len(_DASHES)], "line")
               for i, c in enumerate(bundle.curves)]
    entries += [
        (m.label, _PALETTE[(len(bundle.curves) + j) % len(_PALETTE)], "none", "dot")
        for j, m in enumerate(bundle.node_markers)
    ]
    for label, color, dash, kind in entries:
        if kind == "line":
            dash_attr = "" if dash == "none" else f' stroke-dasharray="{dash}"'
            parts.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 30}" y2="{ly - 4}" stroke="{color}" '
                f'stroke-width="1.5"{dash_attr}/>\n'
            )
        else:
            parts.append(f'<circle cx="{lx + 15}" cy="{ly - 4}" r="3" fill="{color}"/>\n')
        label_esc = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{lx + 36}" y="{ly}" font-size="12" font-family="monospace">{label_esc}</text>\n'
        )
        ly += 16
    parts.append("</svg>\n")
    _atomic_write(path, "".join(parts).encode("utf-8"))


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


def sweep(method: str, grid, f: TargetFunction = RUNGE, grid_size: int = 1001) -> list[metrics.StudyEntry]:
    """Convergence study of a registered method over sample counts."""
    _method(method)

    def handle(func, n):
        return _fit(FitSpec(method, method, n=n, degree=max(n - 1, 1)), func, Interval())[0]

    return metrics.convergence_study(handle, f, list(grid), grid_size=grid_size, method_name=method)
