#!/usr/bin/env python3
"""Regenerate every supported benchmark figure as CSV + SVG and print an
error summary table."""

import argparse
import sys

from runge_lab import bench
from runge_lab.metrics import DEFAULT_GRID_SIZE


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE)
    args = parser.parse_args()
    out = args.out or bench.default_output_dir()
    try:
        figures = bench.run_figures(bench.SUPPORTED_FIGURES, args.grid_size, output_dir=out, emit_svg_file=True)
    except bench.UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"{'figure':>6}  {'method':<28} {'max_abs':>12} {'rms':>12} {'endpoint':>12}")
    for fid, bundle in figures:
        for r in bundle.reports:
            print(f"{fid:>6}  {r.method:<28} {r.max_abs:>12.5g} {r.rms:>12.5g} {r.endpoint_max_abs:>12.5g}")
    print(f"\nwrote CSV/SVG files to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
