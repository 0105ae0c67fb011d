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
from .core import NumericError
from .metrics import DEFAULT_GRID_SIZE


def _split_kv(text, error):
    """(key, value) of a `key=value` text, each stripped; without '=' raises UsageError(error)."""
    key, sep, value = text.partition("=")
    if not sep:
        raise UsageError(error)
    return key.strip(), value.strip()


def _parse_kv_params(pairs):
    return dict(_split_kv(pair, f"--param expects key=value, got {pair!r}") for pair in pairs or [])


def _read_config_file(path):
    """Flat `key = value` lines; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    lines = enumerate((line.split("#", 1)[0].strip() for line in text.splitlines()), 1)
    return dict(_split_kv(line, f"{path}:{lineno}: expected 'key = value'") for lineno, line in lines if line)


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
    p_fig.set_defaults(handler=_cmd_figure)
    p_fig.add_argument("figure_id", help="figure id, or 'all'")
    p_fig.add_argument("--n-samples", type=int, help="sample count of every fit of a resizable figure")

    p_run = sub.add_parser("run", help="run one method")
    p_run.set_defaults(handler=_cmd_run)
    p_run.add_argument("--method", help="method name (see list-methods)")
    p_run.add_argument("--param", action="append", metavar="KEY=VALUE", help="method parameter")
    p_run.add_argument("--n-samples", type=int)
    p_run.add_argument("--degree", type=int)
    p_run.add_argument("--config", help="flat key=value config file; a flag overrides its key")

    p_sweep = sub.add_parser("sweep", help="convergence sweep over sample counts")
    p_sweep.set_defaults(handler=_cmd_sweep)
    p_sweep.add_argument("--method", required=True)
    p_sweep.add_argument("--grid", required=True, help="comma-separated sample counts, e.g. 5,10,15,20")

    p_list = sub.add_parser("list-methods", help="list registered methods and parameters")
    p_list.set_defaults(handler=_cmd_list_methods)
    return parser


def _cmd_figure(args, out_dir):
    try:
        ids = bench.SUPPORTED_FIGURES if args.figure_id == "all" else [int(args.figure_id)]
    except ValueError:
        raise UsageError(f"figure id must be an integer or 'all', got {args.figure_id!r}")
    for fid, bundle in bench.run_figures(ids, args.grid_size, args.n_samples, out_dir, args.svg):
        for r in bundle.reports:
            print(f"figure {fid}: {r.method}: max_abs={r.max_abs:.6g} rms={r.rms:.6g}")
    print(f"outputs written to {out_dir}")


def _cmd_run(args, out_dir):
    """Each run input comes from its command-line flag, else from the config
    file, else from FitSpec's default."""
    keys = ("method", "n_samples", "degree")
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
    bench.check_inputs(method, sizes)
    bundle = bench.run_experiment(FitSpec(method, method, params, **sizes), args.grid_size, out_dir, args.svg)
    for r in bundle.reports:
        print(f"{r.method}: n_params={r.n_params} max_abs={r.max_abs:.6g} rms={r.rms:.6g}")
    print(f"outputs written to {out_dir}")


def _cmd_sweep(args, out_dir):
    try:
        grid = [int(v) for v in args.grid.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"--grid expects comma-separated integers, got {args.grid!r}")
    entries = bench.sweep(args.method, grid, grid_size=args.grid_size)
    path = Path(out_dir) / f"sweep_{args.method}.csv"
    bench.emit_sweep_csv(entries, path)
    for e in entries:
        status = f"max_abs={e.report.max_abs:.6g}" if e.report is not None else f"FAILED ({e.error})"
        print(f"{args.method} n={e.param}: {status}")
    print(f"outputs written to {path}")


def _cmd_list_methods(args, out_dir):
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
        args.handler(args, out_dir)
    except (NumericError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
