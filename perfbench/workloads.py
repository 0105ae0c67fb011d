"""The benchmark's workloads, each a list of operations with their checks.

An operation is one user-level call into runge_lab: a CLI command, or a fit
followed by its error report. Every input is fixed by the definitions below,
except the jitter of the custom node sets in ``interp-scale``, which is drawn
from the seed.

Operations call the program through module attributes (``interpolants.x``,
never a name imported into this module), so that the wrappers the traced run
installs on those attributes see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from runge_lab import bench, cli, core, interpolants, metrics, nodes
from runge_lab.core import RUNGE, Basis

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

# Stated tolerances of the checks.
ROUNDOFF_MAX_ABS = 1e-12  # Chebyshev/Lobatto interpolation error at n >= 201 (the seed gives ~2e-15)
SCIPY_ATOL = 1e-9  # absolute distance to scipy's spline / barycentric interpolant on a check grid
FIGURES_RTOL = 1e-6  # figure reports against reference.json
CSV_SELF_RTOL = 1e-12  # report CSV max_abs against the same error recomputed from the curve CSV


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class Op:
    """One operation of a workload.

    ``run`` performs the call and returns its output. ``check`` raises
    CheckFailed if that output is wrong; it runs once per benchmark run, on
    the checking pass. ``signature`` summarises the output cheaply; a timed
    pass whose signature differs from the checking pass counts as failed.
    ``known_defect`` names a failure of the seed program that the operation
    is kept to expose: it counts in ``failed_ops_ratio`` but not as a broken
    benchmark run.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    signature: Callable[[Any], Any]
    known_defect: str = ""


# ---------------------------------------------------------------------------
# Shared helpers


def _report_values(report) -> tuple:
    return (report.n_params, report.max_abs, report.rms, report.endpoint_max_abs)


def _report_signature(out) -> tuple:
    # repr keeps nan == nan, so a stable non-finite output compares equal
    return tuple(repr(v) for v in _report_values(out[1]))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _require_finite(report) -> None:
    vals = (report.max_abs, report.rms, report.endpoint_max_abs)
    _require(all(math.isfinite(v) for v in vals), f"non-finite error report {vals}")


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want) + 1e-300


def _jitter(xs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Move each interior node by up to 30% of its smaller neighbour gap; the
    order and the endpoints are kept."""
    gaps = np.diff(xs)
    room = 0.3 * np.minimum(gaps[:-1], gaps[1:])
    out = xs.copy()
    out[1:-1] += rng.uniform(-1.0, 1.0, len(room)) * room
    return out


def _fit_and_report(fit: Callable[[], Any], grid_size: int) -> Callable[[], tuple]:
    def run():
        approx = fit()
        return approx, metrics.error_report(approx, RUNGE, grid_size=grid_size)

    return run


# ---------------------------------------------------------------------------
# figures: the paper reproduction users run, `runge-lab --svg figure all`


def figures_argv(out_dir: Path, size: str) -> list[str]:
    grid = 1001 if size == "full" else 101
    return ["--out", str(out_dir), "--svg", "--grid-size", str(grid), "figure", "all"]


def _figures(size: str, scratch: Path) -> list[Op]:
    out_dir = scratch / "figures"
    argv = figures_argv(out_dir, size)
    reference = REFERENCE["figures"][size]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        sizes = tuple(sorted((p.name, p.stat().st_size) for p in out_dir.iterdir()))
        return code, buf.getvalue(), sizes

    def check(out):
        code, _, _ = out
        _require(code == 0, f"cli.main returned {code}")
        for fid in bench.SUPPORTED_FIGURES:
            _check_figure_files(out_dir / f"figure{fid}.csv", reference[f"figure{fid}"])

    return [Op("figures.cli_all", run, check, lambda out: out)]


def _check_figure_files(path: Path, want_rows: list) -> None:
    """The curve CSV and its report CSV parse back; the reports match the
    stored reference and the errors recomputed from the curves."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = np.array([[float(v) for v in row] for row in body]).T
    _require(header[0] == "x" and len(header) == len(cols), f"{path.name}: bad header")
    _require(bool(np.all(np.isfinite(cols))), f"{path.name}: non-finite curve values")
    with open(path.with_name(path.name + ".report.csv"), newline="", encoding="utf-8") as fh:
        report_rows = list(csv.reader(fh))[1:]
    _require(len(report_rows) == len(want_rows), f"{path.name}: {len(report_rows)} reports")
    truth = cols[1]
    for got, want, fit in zip(report_rows, want_rows, cols[2:]):
        method, n_params, *vals = got
        _require(method == want[0] and int(n_params) == want[1], f"{path.name}: report {method}")
        for v, w in zip(map(float, (vals[0], vals[1], vals[3])), want[2:]):
            _require(_close(v, w, FIGURES_RTOL), f"{path.name} {method}: {v!r} != reference {w!r}")
        recomputed = float(np.max(np.abs(truth - fit)))
        _require(_close(float(vals[0]), recomputed, CSV_SELF_RTOL), f"{path.name} {method}: csv/report mismatch")
    svg = path.with_suffix(".svg")
    root = ET.fromstring(svg.read_bytes())
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    _require(len(lines) == len(header) - 1, f"{svg.name}: {len(lines)} polylines")


# ---------------------------------------------------------------------------
# interp-scale: exact interpolants at scale, scored by error_report


def _interp_scale(size: str, seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    full = size == "full"
    bary_ns, bary_grid = ((201, 1000), 20_000) if full else ((21, 41), 2001)
    large_n = 3000 if full else 101
    custom_n = 1000 if full else 41
    spline_ns, spline_grid = ((201, 1000, 5000), 100_000) if full else ((21, 41, 101), 2001)
    mock_source, mock_m = (5001, 100) if full else (501, 10)

    families = {
        "roots": lambda n: nodes.chebyshev_roots(n - 1),
        "lobatto": lambda n: nodes.chebyshev_lobatto(n - 1),
        "equispaced": lambda n: nodes.equispaced(n),
    }
    ops = []

    def bary_op(label, make_nodes, n, grid, check, defect=""):
        def fit():
            return interpolants.lagrange_interpolate(RUNGE.sample(make_nodes()))

        ops.append(Op(f"bary.{label}.n{n}", _fit_and_report(fit, grid), check, _report_signature, defect))

    # Equispaced interpolation is ill conditioned at these sizes, so only a
    # finite report is required of it; the other node sets must match scipy.
    checks = {"roots": _check_chebyshev, "lobatto": _check_chebyshev, "equispaced": _check_finite}
    for n in bary_ns:
        for fam, make in families.items():
            defect = "weights overflow: non-finite report" if fam == "equispaced" and n >= 201 else ""
            bary_op(fam, lambda make=make, n=n: make(n), n, bary_grid, checks[fam], defect)
    for fam, make in families.items():
        defect = "weights out of floating range, one is zero: raises" if large_n >= 3000 else ""
        bary_op(fam, lambda make=make: make(large_n), large_n, metrics.DEFAULT_GRID_SIZE, checks[fam], defect)
    lob = nodes.chebyshev_lobatto(custom_n - 1)
    jittered_lobatto = core.NodeSet(lob.interval, _jitter(lob.xs, rng))
    bary_op("jittered_lobatto", lambda: jittered_lobatto, custom_n, bary_grid, _check_barycentric)

    def spline_op(label, make_nodes, n):
        def fit():
            return interpolants.cubic_spline(RUNGE.sample(make_nodes()))

        ops.append(Op(f"spline.{label}.n{n}", _fit_and_report(fit, spline_grid), _check_spline, _report_signature))

    for n in spline_ns:
        spline_op("equispaced", lambda n=n: nodes.equispaced(n), n)
    eq = nodes.equispaced(custom_n)
    jittered_equi = core.NodeSet(eq.interval, _jitter(eq.xs, rng))
    spline_op("jittered", lambda: jittered_equi, custom_n)

    def mock_fit():
        return interpolants.mock_chebyshev_interpolate(RUNGE.sample(nodes.equispaced(mock_source)), mock_m)

    ops.append(
        Op(
            f"mock_chebyshev.m{mock_m}",
            _fit_and_report(mock_fit, metrics.DEFAULT_GRID_SIZE),
            _check_barycentric,
            _report_signature,
        )
    )
    return ops


def _check_grid(approx) -> np.ndarray:
    """Points where the checks compare with scipy: 2001 equispaced points,
    plus every knot and knot midpoint of a piecewise approximant."""
    xs = np.linspace(approx.interval.lo, approx.interval.hi, 2001)
    if isinstance(approx, core.Piecewise):
        knots = approx.breakpoints
        xs = np.concatenate([xs, knots, 0.5 * (knots[:-1] + knots[1:])])
    return xs


def _check_finite(out) -> None:
    _require_finite(out[1])


def _check_barycentric(out) -> None:
    from scipy.interpolate import BarycentricInterpolator

    approx, report = out
    _require_finite(report)
    xs = _check_grid(approx)
    want = BarycentricInterpolator(approx.nodes.xs, approx.ys)(xs)
    dist = float(np.max(np.abs(approx.evaluate(xs) - want)))
    _require(dist <= SCIPY_ATOL, f"{dist:.3g} from scipy BarycentricInterpolator")


def _check_chebyshev(out) -> None:
    _check_barycentric(out)
    if len(out[0].nodes) >= 201:
        _require(out[1].max_abs <= ROUNDOFF_MAX_ABS, f"max_abs {out[1].max_abs:.3g} above round-off")


def _check_spline(out) -> None:
    from scipy.interpolate import CubicSpline

    approx, report = out
    _require_finite(report)
    knots = approx.breakpoints
    want = CubicSpline(knots, RUNGE(knots), bc_type="natural")
    xs = _check_grid(approx)
    dist = float(np.max(np.abs(approx.evaluate(xs) - want(xs))))
    _require(dist <= SCIPY_ATOL, f"{dist:.3g} from scipy natural CubicSpline")


# ---------------------------------------------------------------------------
# solvers: penalized and constrained fits, square and tall


def _solvers(size: str) -> list[Op]:
    full = size == "full"
    reference = REFERENCE["solvers"][size]
    grid = metrics.DEFAULT_GRID_SIZE if full else 101
    s11 = RUNGE.sample(nodes.equispaced(11))
    tall_cd = RUNGE.sample(nodes.equispaced(41 if full else 21))
    cd_degree = 20 if full else 10
    tall = RUNGE.sample(nodes.equispaced(201 if full else 41))
    tall_degree, svd_degree = (100, 40) if full else (20, 20)
    cmock_m = 10 if full else 6

    fits = {
        "paper.none": lambda: interpolants.fit_regularized(s11, 10, "none"),
        "paper.ridge": lambda: interpolants.fit_regularized(s11, 10, "ridge", alpha=0.01),
        "paper.lasso": lambda: interpolants.fit_regularized(s11, 10, "lasso", alpha=0.01),
        "paper.elastic_net": lambda: interpolants.fit_regularized(s11, 10, "elastic_net", alpha=0.01),
        "paper.tikhonov_identity": lambda: interpolants.tikhonov_fit(s11, 12, 0.01, "identity"),
        "paper.tikhonov_second_difference": lambda: interpolants.tikhonov_fit(s11, 12, 0.01, "second_difference"),
        "paper.efci_search": lambda: interpolants.efci_fit(
            s11, RUNGE, interpolants.EfciConfig(degree=10, epsilon=0.1, search=True)
        )[0],
    }
    for basis in (Basis.LEGENDRE, Basis.MONOMIAL):
        for threshold in (1e-2, 1e-10):
            fits[f"paper.svd_{basis.value}_{threshold:g}"] = (
                lambda b=basis, t=threshold: interpolants.svd_truncated_fit(s11, 10, t, b)
            )
    fits.update(
        {
            "tall.lasso": lambda: interpolants.fit_regularized(tall_cd, cd_degree, "lasso", alpha=1e-3),
            "tall.elastic_net": lambda: interpolants.fit_regularized(tall_cd, cd_degree, "elastic_net", alpha=1e-3),
            "tall.lstsq": lambda: interpolants.fit_regularized(tall, tall_degree, "none"),
            "tall.tikhonov_identity": lambda: interpolants.tikhonov_fit(tall, tall_degree, 0.01, "identity"),
            "tall.svd_legendre": lambda: interpolants.svd_truncated_fit(tall, svd_degree, 1e-10, Basis.LEGENDRE),
            "tall.svd_monomial": lambda: interpolants.svd_truncated_fit(tall, svd_degree, 1e-10, Basis.MONOMIAL),
            "tall.constrained_mock_chebyshev": lambda: interpolants.constrained_mock_chebyshev_lstsq(tall, cmock_m),
        }
    )

    def check_against(want):
        def check(out):
            report = out[1]
            _require_finite(report)
            got, ref = _report_values(report), want["report"]
            _require(got[0] == ref[0], f"n_params {got[0]} != {ref[0]}")
            for g, w in zip(got[1:], ref[1:]):
                _require(_close(g, w, want["rtol"]), f"{g!r} != reference {w!r}")

        return check

    return [
        Op(f"solvers.{name}", _fit_and_report(fit, grid), check_against(reference[name]), _report_signature)
        for name, fit in fits.items()
    ]


def build(name: str, size: str, seed: int, scratch: Path) -> list[Op]:
    """The operations of one workload at the given size."""
    if name == "figures":
        return _figures(size, scratch)
    if name == "interp-scale":
        return _interp_scale(size, seed)
    if name == "solvers":
        return _solvers(size)
    raise ValueError(f"unknown workload {name!r}")


def cli_argv(name: str, size: str, out_dir: Path) -> list[str]:
    """The CLI command whose fresh-process wall time is ``cli_wall_s``: the
    figure reproduction, a spline convergence sweep at scale, or the tall lasso."""
    full = size == "full"
    if name == "figures":
        return figures_argv(out_dir, size)
    if name == "interp-scale":
        return ["--out", str(out_dir), "sweep", "--method", "spline", "--grid", "201,1000" if full else "21,41"]
    n, degree = ("41", "20") if full else ("21", "10")
    return ["--out", str(out_dir), "run", "--method", "lasso", "--param", "alpha=0.001",
            "--n-samples", n, "--degree", degree]
