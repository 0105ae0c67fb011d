"""Command-line front end: figure reproduction, single experiments, sweeps.

Exit codes: 0 success, 2 usage error, 1 runtime/numeric error.
"""

from __future__ import annotations

import argparse
import enum
import sys
from pathlib import Path

from . import bench
from .bench import FitSpec, UsageError, default_output_dir
from .linalg import NumericError
from .metrics import DEFAULT_GRID_SIZE

# run inputs besides method parameters, each a FitSpec field -> its least value
_FIT_FIELDS = {"n_samples": 2, "degree": 1}


def _parse_kv_params(pairs):
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        params[key.strip()] = value.strip()
    return params


def _read_config_file(path):
    """Flat `key = value` lines; '#' starts a comment."""
    params = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        params[key.strip()] = value.strip()
    return params


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="runge-lab",
        description="Benchmark harness for Runge-phenomenon mitigation methods.",
    )
    parser.add_argument("--out", help="output directory (default: $RUNGE_LAB_OUT or ./out)")
    parser.add_argument("--svg", action="store_true", help="also emit SVG plots")
    parser.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE, help="dense evaluation grid size")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="reproduce a paper-style figure")
    p_fig.add_argument("figure_id", help="figure id, or 'all'")
    p_fig.add_argument("--n-samples", type=int, help="sample count of every fit of a resizable figure")

    p_run = sub.add_parser("run", help="run one method")
    p_run.add_argument("--method", help="method name (see list-methods)")
    p_run.add_argument("--param", action="append", metavar="KEY=VALUE", help="method parameter")
    p_run.add_argument("--n-samples", type=int)
    p_run.add_argument("--degree", type=int)
    p_run.add_argument("--config", help="flat key=value config file; a flag overrides its key")

    p_sweep = sub.add_parser("sweep", help="convergence sweep over sample counts")
    p_sweep.add_argument("--method", required=True)
    p_sweep.add_argument("--grid", required=True, help="comma-separated sample counts, e.g. 5,10,15,20")

    sub.add_parser("list-methods", help="list registered methods and parameters")
    return parser


def _cmd_figure(args, out_dir):
    ids = list(bench.SUPPORTED_FIGURES) if args.figure_id == "all" else None
    if ids is None:
        try:
            ids = [int(args.figure_id)]
        except ValueError:
            raise UsageError(f"figure id must be an integer or 'all', got {args.figure_id!r}")
    if args.n_samples is not None and args.n_samples < _FIT_FIELDS["n_samples"]:
        raise UsageError(f"--n-samples must be at least {_FIT_FIELDS['n_samples']}, got {args.n_samples}")
    for fid in ids:
        # 'all' resizes the resizable figures; run_figure rejects any other override
        resize = args.figure_id != "all" or bench.FIGURES[fid].resizable
        bundle = bench.run_figure(
            fid,
            grid_size=args.grid_size,
            n_samples=args.n_samples if resize else None,
            output_dir=out_dir,
            emit_svg_file=args.svg,
        )
        for r in bundle.reports:
            print(f"figure {fid}: {r.method}: max_abs={r.max_abs:.6g} rms={r.rms:.6g}")
    print(f"outputs written to {out_dir}")


def _cmd_run(args, out_dir):
    """Each run input comes from its command-line flag, else from the config
    file, else from FitSpec's default."""
    keys = ("method", *_FIT_FIELDS)
    params = _read_config_file(args.config) if args.config else {}
    inputs = {key: params.pop(key) for key in keys if key in params}
    inputs.update({key: getattr(args, key) for key in keys if getattr(args, key) is not None})
    params.update(_parse_kv_params(args.param))
    method = inputs.pop("method", None)
    if method is None:
        raise UsageError("run requires --method (or a config file with a method key)")
    try:
        sizes = {key: int(value) for key, value in inputs.items()}
    except ValueError as exc:
        raise UsageError(f"{args.config}: n_samples and degree must be integers ({exc})")
    for key, value in sizes.items():
        if value < _FIT_FIELDS[key]:
            raise UsageError(f"{key} must be at least {_FIT_FIELDS[key]}, got {value}")
    bench.check_inputs(method, sizes)
    bundle = bench.run_experiment(
        FitSpec(method, method, params, **sizes),
        grid_size=args.grid_size,
        output_dir=out_dir,
        emit_svg_file=args.svg,
    )
    for r in bundle.reports:
        print(f"{r.method}: n_params={r.n_params} max_abs={r.max_abs:.6g} rms={r.rms:.6g}")
    print(f"outputs written to {out_dir}")


def _cmd_sweep(args, out_dir):
    try:
        grid = [int(v) for v in args.grid.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"--grid expects comma-separated integers, got {args.grid!r}")
    if not grid:
        raise UsageError("--grid must name at least one sample count")
    if min(grid) < 1:
        raise UsageError(f"--grid sample counts must be at least 1, got {min(grid)}")
    entries = bench.sweep(args.method, grid, grid_size=args.grid_size)
    path = Path(out_dir) / f"sweep_{args.method}.csv"
    bench.emit_sweep_csv(entries, path)
    for e in entries:
        status = f"max_abs={e.report.max_abs:.6g}" if e.report is not None else f"FAILED ({e.error})"
        print(f"{args.method} n={e.param}: {status}")
    print(f"outputs written to {path}")


def _cmd_list_methods():
    for name in sorted(bench.METHODS):
        info = bench.METHODS[name]
        # an enum-valued parameter takes one of its members' string values
        params = ", ".join(
            f"{k}:{'str' if issubclass(t, enum.Enum) else t.__name__}" for k, t in sorted(info.params.items())
        ) or "-"
        print(f"{name:28s} params: {params}")
    for fid, note in bench.UNSUPPORTED_FIGURE_NOTE.items():
        print(f"figure {fid}: {note}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_dir = args.out or default_output_dir()
    try:
        if args.grid_size < 2:
            raise UsageError(f"--grid-size must be at least 2, got {args.grid_size}")
        if args.command == "figure":
            _cmd_figure(args, out_dir)
        elif args.command == "run":
            _cmd_run(args, out_dir)
        elif args.command == "sweep":
            _cmd_sweep(args, out_dir)
        else:
            _cmd_list_methods()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
