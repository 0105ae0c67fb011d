"""Benchmark harness: the method registry, the paper-style figures as data,
and deterministic CSV/SVG emission."""

from __future__ import annotations

import csv
import dataclasses
import enum
import io
import math
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import interpolants, metrics, nodes
from .core import Basis, Interval, NodeFamily, RUNGE, TargetFunction, UsageError, _integer
from .interpolants import BandStrategy, EfciConfig, PenaltyKind, TikhonovOperator, TisiConfig
from .metrics import DEFAULT_GRID_SIZE, ErrorReport

UNSUPPORTED_FIGURE_NOTE = {10: "not reproducible - undefined in source"}
SVD_THRESHOLDS = (1e-2, 1e-5, 1e-10, 1e-15)


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
            elif typ is int and not isinstance(value, str):
                out[key] = _integer(key, value)
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
    fitted to n_samples samples of a node family. An n_samples or degree that
    is not an integer, an n_samples below 2 or a degree below 1 raises
    UsageError."""

    label: str
    method: str
    params: dict = field(default_factory=dict)
    n_samples: int = 11
    degree: int | None = 10  # None: _fit's default degree for n_samples
    family: NodeFamily | None = None  # None: the method's own

    def __post_init__(self):
        if _integer("n_samples", self.n_samples) < 2:
            raise UsageError(f"n_samples must be at least 2, got {self.n_samples}")
        if self.degree is not None and _integer("degree", self.degree) < 1:
            raise UsageError(f"degree must be at least 1, got {self.degree}")


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
RESIZABLE_FIGURES = tuple(fid for fid, spec in FIGURES.items() if spec.resizable)


# ---------------------------------------------------------------------------
# Experiment and figure runners


def _fit(spec: FitSpec, f: TargetFunction, interval: Interval):
    """(approximant, named point sets) of one fit spec; an unset degree is n_samples - 1."""
    info = _method(spec.method)
    params = _coerce_params(info, spec.params)
    family = NODE_FAMILIES[spec.family or info.family]
    samples = f.sample(family(spec.n_samples, interval)) if "n_samples" in info.inputs else None
    degree = spec.n_samples - 1 if spec.degree is None else spec.degree
    return info.build(samples, f, degree, interval, **params)


def _score(spec: FitSpec, xs: np.ndarray, truth: np.ndarray):
    """(values on xs, report labelled spec.label, named point sets) of one fit
    of the Runge function, scored as metrics.error_report would on its grid xs, truth."""
    approx, points = _fit(spec, RUNGE, Interval())
    ys = approx.evaluate(xs)
    return ys, metrics.grid_report(xs, truth, ys, Interval(), approx.n_params, spec.label), points


def _bundle(figure: FigureSpec, xs: np.ndarray, truth: np.ndarray) -> ReportBundle:
    """Truth + one curve and error report per fit, and the figure's markers,
    on the scoring grid xs and the target's values truth on it.

    _score fits, evaluates and scores each fit against that truth. Cost is
    one evaluate per fit on the grid, beyond the fits themselves."""
    curves, reports, points = [Curve(RUNGE.name, xs, truth)], [], {}
    for spec in figure.fits:
        ys, report, points[spec.label] = _score(spec, xs, truth)
        curves.append(Curve(spec.label, xs, ys))
        reports.append(report)
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
    bundle = _bundle(figure, *metrics._scoring_grid(RUNGE, Interval(), grid_size))
    _write(bundle, output_dir, fit.method, emit_svg_file)
    return bundle


def _figure(figure_id: int, n_samples: int | None) -> FigureSpec:
    """The figure `figure_id`, every fit resized to `n_samples` unless it is None."""
    if figure_id not in SUPPORTED_FIGURES:
        msg = f"unsupported figure id {figure_id}; supported: {', '.join(map(str, SUPPORTED_FIGURES))}"
        if figure_id in UNSUPPORTED_FIGURE_NOTE:
            msg += f" (figure {figure_id}: {UNSUPPORTED_FIGURE_NOTE[figure_id]})"
        raise UsageError(msg)
    figure = FIGURES[figure_id]
    if n_samples is not None:
        if not figure.resizable:
            resizable = ", ".join(map(str, RESIZABLE_FIGURES))
            raise UsageError(f"figure {figure_id} has fixed sample counts; resizable: {resizable}")
        fits = tuple(dataclasses.replace(spec, n_samples=n_samples) for spec in figure.fits)
        figure = dataclasses.replace(figure, fits=fits)
    return figure


def run_figure(figure_id: int, grid_size: int = DEFAULT_GRID_SIZE, n_samples: int | None = None) -> ReportBundle:
    """Reproduce one of the paper-style figures as curves plus error reports;
    `n_samples` resizes every fit of a resizable figure. run_figures writes
    the files."""
    return _bundle(_figure(figure_id, n_samples), *metrics._scoring_grid(RUNGE, Interval(), grid_size))


def run_figures(
    ids,
    grid_size: int = DEFAULT_GRID_SIZE,
    n_samples: int | None = None,
    output_dir: str | None = None,
    emit_svg_file: bool = False,
):
    """Iterate over (figure id, bundle) of each of `ids`, each written to
    `output_dir` as figure<id>.csv, and .svg with `emit_svg_file`, unless the
    directory is None; across several ids `n_samples` resizes only the
    resizable figures. Every input is checked on the call, before any fit,
    and the scoring grid and the target on it are built there once: every
    bundle holds those two read-only arrays."""
    sizes = [n_samples if len(ids) == 1 or fid in RESIZABLE_FIGURES else None for fid in ids]
    figures = [(fid, _figure(fid, n)) for fid, n in zip(ids, sizes)]
    grid = metrics._scoring_grid(RUNGE, Interval(), grid_size)
    for column in grid:
        column.setflags(write=False)  # every figure's bundle holds them
    return _write_figures(figures, grid, output_dir, emit_svg_file)


def _write_figures(figures, grid, output_dir, emit_svg_file):
    column_text = {}  # the figures share their grid and truth, and some their curves: format each once
    for fid, figure in figures:
        bundle = _bundle(figure, *grid)
        _write(bundle, output_dir, f"figure{fid}", emit_svg_file, column_text)
        yield fid, bundle


def _write(bundle, output_dir, stem, emit_svg_file, column_text=None):
    """Write `bundle` as <output_dir>/<stem>.csv, and .svg with `emit_svg_file`, unless output_dir is None."""
    if output_dir is not None:
        emit_csv(bundle, Path(output_dir) / f"{stem}.csv", column_text=column_text)
        if emit_svg_file:
            emit_svg(bundle, Path(output_dir) / f"{stem}.svg")


# ---------------------------------------------------------------------------
# Output emission


def default_output_dir() -> str:
    return os.environ.get("RUNGE_LAB_OUT", "out")


def _atomic_write(path: Path, data: bytes) -> None:
    """Write `data` to `path` through a temporary file in its directory, made
    if absent; any OSError, from the directory on, is raised as one naming
    `path`, and a temporary file already made is removed. The file gets the
    mode a plain ``open`` would give it, 0o666 less the process umask, where
    ``mkstemp`` alone leaves 0o600."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        umask = os.umask(0o777)  # the only way to read it; restored at once
        os.umask(umask)
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fd, 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise OSError(f"failed writing {path}: {exc}") from exc


def _write_csv(path: Path, rows, body: str = "") -> None:
    """Atomically write `rows` through csv.writer, which quotes labels and
    messages as needed and writes a float as its shortest round-trip repr,
    followed by the preformatted `body`."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    buf.write(body)
    _atomic_write(path, buf.getvalue().encode("utf-8"))


def _format_column(col: np.ndarray) -> list[str]:
    """The shortest round-trip repr of each value of a float64 column."""
    return list(map(repr, col.tolist()))


def emit_csv(bundle: ReportBundle, path, *, column_text: dict | None = None) -> None:
    """Curve table `x,<label>,...` with shortest round-trip decimals, plus a
    sibling `<path>.report.csv` carrying the error reports.

    The table is formatted column by column: the grid and each curve, as
    float64 (an integer-dtype curve is written as 2.0, not 2), are looked up
    in `column_text` by their bytes, so 0.0 and -0.0 keep their own text, and
    only a column not found there is formatted. A caller that writes several
    files passes one dict to all of them and drops it when done; by default
    each call has its own. Each row is its cells joined by commas, and the
    body is one newline join of the rows with a final newline; only the
    header and the report rows go through csv.writer. Cost is one repr per
    value of each distinct column per dict, one comma join per row and one
    join for the body."""
    path = Path(path)
    xs = bundle.curves[0].xs if bundle.curves else np.empty(0)
    if any(c.xs is not xs and not np.array_equal(c.xs, xs, equal_nan=True) for c in bundle.curves[1:]):
        raise ValueError("emit_csv requires all curves on a shared grid")
    column_text = {} if column_text is None else column_text
    cols = []
    for col in (xs, *(c.ys for c in bundle.curves)):
        col = np.asarray(col, dtype=float)
        key = col.tobytes()
        if key not in column_text:
            column_text[key] = _format_column(col)
        cols.append(column_text[key])
    body = "\n".join([*map(",".join, zip(*cols)), ""])
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


def _padded(v: np.ndarray) -> tuple[float, float, float]:
    """(min, max) of v widened by 5% of its range a side, or if v is constant
    by 1, or by 5% of its size where rounding would lose the 1 (an empty v
    reads as the constant 0), and the factor they are shrunk by: 1, or 4 when
    the padded range overflows the float range, so that both bounds and their
    span stay finite. Shrinking by a power of two rounds nothing that is not
    subnormal."""
    lo, hi = (float(v.min()), float(v.max())) if v.size else (0.0, 0.0)
    if hi > lo:
        pad = 0.05 * (hi - lo)
    else:
        pad = 1.0 if lo - 1.0 < lo + 1.0 else 0.05 * abs(lo)
    if math.isfinite(hi + pad - (lo - pad)):
        return lo - pad, hi + pad, 1.0
    if not math.isfinite(pad):
        pad = 0.05 * hi - 0.05 * lo
    return lo / 4 - pad / 4, hi / 4 + pad / 4, 4.0


def _tick(bound: float, shrink: float) -> str:
    """The axis label of a bound that _padded shrank by `shrink`: %.2f of the
    unshrunk value, written exactly even where it overflows the float range
    (a shrunk bound is then a whole number)."""
    return f"{bound:.2f}" if shrink == 1.0 else f"{int(bound) * int(shrink)}.00"


# _point_text writes each coordinate as one little-endian 8-byte word, the sum
# of three table entries: "%d." % w in bytes 0-3 (w in 0..999, right-aligned
# after NUL pad bytes), "%02d" % c in bytes 4-5 (c in 0..99) and the separator
# after x or y in byte 6. Byte 7 and the pad bytes stay NUL.
_DIGITS = np.frombuffer(b"0123456789", np.uint8)
_WHOLE_WIDTH = np.repeat([1, 2, 3], [10, 90, 900])  # len("%d" % w)
_WHOLE_WORD = np.zeros((1000, 8), np.uint8)
_WHOLE_WORD[:, 0] = np.repeat(_DIGITS, 100)
_WHOLE_WORD[:, 1] = np.tile(np.repeat(_DIGITS, 10), 10)
_WHOLE_WORD[:, 2] = np.tile(_DIGITS, 100)
_WHOLE_WORD[:100, 0] = _WHOLE_WORD[:10, 1] = 0  # no leading zero
_WHOLE_WORD[:, 3] = ord(".")
_CENTS_WORD = np.zeros((100, 8), np.uint8)
_CENTS_WORD[:, 4] = np.repeat(_DIGITS, 10)
_CENTS_WORD[:, 5] = np.tile(_DIGITS, 10)
_SEP_WORD = np.zeros((2, 8), np.uint8)
_SEP_WORD[:, 6] = (ord(","), ord(" "))
_WHOLE_WORD, _CENTS_WORD, _SEP_WORD = (t.view("<u8")[:, 0] for t in (_WHOLE_WORD, _CENTS_WORD, _SEP_WORD))


def _point_text(view: np.ndarray) -> tuple[str, np.ndarray]:
    """All rows (x, y) of the finite array `view` as one string of
    "%.2f,%.2f " per row, exactly as the %-format writes them, and the offset
    of each row's start in it, with the string's length last.

    A coordinate v is written from the digit tables when its sign bit is
    clear, k = rint(100 v) is below 1e5 and 100 v, as computed, lies within
    0.5 - 1e-7 of k: below 1e6 the computed product is within 1.2e-8 of the
    exact one, so k is the exact product rounded and k / 100 is what %.2f
    writes. A row with any other coordinate (a near-tie, -0.0, a negative
    value or one of 1000 or more) is written by the %-format itself and
    spliced in. Cost is a few array passes over `view`, plus one %-format
    per such row."""
    scaled = np.clip(view, 0.0, 1e6) * 100
    k = np.rint(scaled)
    exact = ~np.signbit(view) & (k < 1e5) & (np.abs(scaled - k) < 0.5 - 1e-7)
    k[~exact] = 0
    whole, cents = np.divmod(k.astype(np.intp), 100)
    fast = exact[:, 0] & exact[:, 1]
    words = _WHOLE_WORD[whole]
    words += _CENTS_WORD[cents]
    words += _SEP_WORD
    words[~fast] = 0
    text = words.astype("<u8", copy=False).tobytes().translate(None, b"\0").decode("ascii")
    digits = _WHOLE_WIDTH[whole]
    widths = np.where(fast, digits[:, 0] + digits[:, 1] + 8, 0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        # the table-written text holds no slow row: splice each in where it ends
        ends, pieces, cut = np.cumsum(widths)[slow].tolist(), [], 0
        for i, end in zip(slow.tolist(), ends):
            row = "%.2f,%.2f " % tuple(view[i].tolist())
            pieces += [text[cut:end], row]
            cut, widths[i] = end, len(row)
        text = "".join([*pieces, text[cut:]])
    return text, np.concatenate([[0], np.cumsum(widths)])


def _text(x, y, s) -> str:
    """A 12-point monospace SVG text element at (x, y)."""
    return f'<text x="{x}" y="{y}" font-size="12" font-family="monospace">{s}</text>\n'


def emit_svg(bundle: ReportBundle, path) -> None:
    """Standalone SVG 1.1, 800x500, axes auto-scaled with 5% padding, one
    polyline per curve, legend, circle markers for sample nodes. Byte output is
    deterministic for identical input. Points are taken as float64, as emit_csv
    writes them. A point with a non-finite coordinate is left out of its
    polyline or marker set and of the axis ranges.

    Every finite point of every curve and marker set is mapped to the view by
    one numpy expression and written, as %.2f writes it, by one array pass
    (_point_text) into one string; each polyline is then one slice of it and
    each marker set one slice split into cx and cy. A coordinate that the
    digit tables cannot write exactly (a near-tie, -0.0, a negative value or
    one of 1000 or more) is written by a %-format. Cost is a few array passes
    over all finite points, one %-format per point holding such a
    coordinate, and one format per marker."""
    if not bundle.curves:
        raise ValueError("emit_svg needs at least one curve")
    series = [*bundle.curves, *bundle.node_markers]
    xy = np.empty((sum(len(s.xs) for s in series), 2))
    xy[:, 0] = np.concatenate([s.xs for s in series])
    xy[:, 1] = np.concatenate([s.ys for s in series])
    keep = np.isfinite(xy).all(axis=1)
    # series i owns rows starts[i]:starts[i + 1] of the finite points
    starts = np.concatenate([[0], np.cumsum(keep)])[np.cumsum([0, *(len(s.xs) for s in series)])]
    finite = xy[keep]
    x_lo, x_hi, x_shrink = _padded(finite[:, 0])
    y_lo, y_hi, y_shrink = _padded(finite[:, 1])
    plot_w = _VIEW_W - _MARGIN_L - _MARGIN_R
    plot_h = _VIEW_H - _MARGIN_T - _MARGIN_B
    # x maps [x_lo, x_hi] onto [0, plot_w] and y maps [y_hi, y_lo] onto [0, plot_h]:
    # (y - y_hi) / (y_lo - y_hi) negates both terms of (y_hi - y) / (y_hi - y_lo), exactly.
    # Dividing by a shrink of 1 leaves every coordinate as it was.
    origin, span = np.array([x_lo, y_hi]), np.array([x_hi - x_lo, y_lo - y_hi])
    view = (_MARGIN_L, _MARGIN_T) + (finite / (x_shrink, y_shrink) - origin) / span * (plot_w, plot_h)
    points, offsets = _point_text(view)
    cuts = offsets[starts].tolist()  # series i is points[cuts[i] : cuts[i + 1]], "x,y " per point

    shapes = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_VIEW_W}" height="{_VIEW_H}" '
        f'viewBox="0 0 {_VIEW_W} {_VIEW_H}">\n',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="white" stroke="#333333" stroke-width="1"/>\n',
        _text(_MARGIN_L, _VIEW_H - 10, _tick(x_lo, x_shrink)),
        _text(_VIEW_W - _MARGIN_R - 40, _VIEW_H - 10, _tick(x_hi, x_shrink)),
        _text(5, _MARGIN_T + 12, _tick(y_hi, y_shrink)),
        _text(5, _VIEW_H - _MARGIN_B, _tick(y_lo, y_shrink)),
    ]
    legend = []
    lx = _VIEW_W - _MARGIN_R - 220  # legend, top-right inside the plot area
    for i, s in enumerate(series):
        color, ly = _PALETTE[i % len(_PALETTE)], _MARGIN_T + 14 + 16 * i
        text = points[cuts[i] : cuts[i + 1]]
        if i < len(bundle.curves):
            dash = _DASHES[i % len(_DASHES)]
            dash_attr = "" if dash == "none" else f' stroke-dasharray="{dash}"'
            shapes.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash_attr} '
                f'points="{text[:-1]}"/>\n'
            )
            legend.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 30}" y2="{ly - 4}" stroke="{color}" '
                f'stroke-width="1.5"{dash_attr}/>\n'
            )
        else:
            circle = f'<circle cx="{{}}" cy="{{}}" r="3" fill="{color}" stroke="none"/>\n'
            shapes += [circle.format(*point.split(",")) for point in text.split()]
            legend.append(f'<circle cx="{lx + 15}" cy="{ly - 4}" r="3" fill="{color}"/>\n')
        label = s.label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        legend.append(_text(lx + 36, ly, label))
    _atomic_write(Path(path), "".join([*shapes, *legend, "</svg>\n"]).encode("utf-8"))


def read_curve_csv(path) -> list[Curve]:
    """Parse a curve CSV written by emit_csv back into curves: rows by csv.reader (a label
    may hold commas and quotes), the body as one float array of the header's width."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    xs, *columns = np.array(rows[1:], dtype=float).reshape(-1, len(header)).T
    return [Curve(label, xs, ys) for label, ys in zip(header[1:], columns)]


def sweep(method: str, grid, grid_size: int = DEFAULT_GRID_SIZE) -> list[metrics.StudyEntry]:
    """One report `<method>[<n>]` of the Runge function per sample count n, all
    on one grid; a count whose fit, evaluate or score raises records the error.
    An empty `grid`, a count or a grid_size below 2 raises UsageError before any fit."""
    check_inputs(method, ("n_samples",))
    specs = [FitSpec(f"{method}[{n}]", method, n_samples=n, degree=None) for n in grid]
    if not specs:
        raise UsageError("a sweep needs at least one sample count")
    xs, truth = metrics._scoring_grid(RUNGE, Interval(), grid_size)
    entries = []
    for spec in specs:
        try:
            _, report, _ = _score(spec, xs, truth)
            entries.append(metrics.StudyEntry(spec.n_samples, report))
        except Exception as exc:  # record, keep going
            entries.append(metrics.StudyEntry(spec.n_samples, None, f"{type(exc).__name__}: {exc}"))
    return entries
