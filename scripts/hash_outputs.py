#!/usr/bin/env python3
"""Print a SHA-256 manifest of the program's user-visible outputs.

Runs, from the ``src/`` of the checkout this script sits in,
``runge-lab --svg figure all``, ``runge-lab --svg --grid-size 2001 figure 12
--n-samples 41`` (into ``grid2001/``), ``runge-lab --svg run --method M`` for
every registered method ``M`` and ``runge-lab sweep --method M --grid 5,11,21``
for every one that takes a sample count (into ``run/`` and ``sweep/`` under
the output directory) and ``runge-lab list-methods``. It then prints one line
``<sha256>  <name>`` for every file those commands wrote (named by its path
under the output directory), one for the stdout of ``figure all``, of the
2001-point figure and of each ``run`` and ``sweep`` (named ``figure.stdout``,
``grid2001/figure.stdout``, ``run/M.stdout`` and ``sweep/M.stdout``, with the
output directory written as ``<out>``) and one for the stdout of
``list-methods``. Each of those commands must exit 0. Last, it runs each
command of ``REFUSED``, which the CLI refuses with exit 2 (a usage error) or 1
(a fit, a value outside the float range or a file write that fails), with
``--out`` under ``refused/``, and hashes ``exit=<code>`` and a newline
followed by its stderr as ``refused/<name>.stderr``. Run it before and after a refactor and ``diff`` the
two manifests; a line that differs names an output that changed.

    python3 scripts/hash_outputs.py > before.txt
    python3 scripts/hash_outputs.py --out kept/ > after.txt

With ``--out`` the files stay in that directory for a closer look; without it
they go to a temporary directory that is removed afterwards.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from runge_lab.bench import METHODS  # noqa: E402

# name -> argv of a command the CLI refuses, with exit 2 or 1
REFUSED = {
    "figure-all-grid-size-1": ("--grid-size", "1", "figure", "all"),
    "figure-all-n-samples-1": ("figure", "all", "--n-samples", "1"),
    "figure-3-n-samples-31": ("figure", "3", "--n-samples", "31"),
    "run-ridge-degree-0": ("run", "--method", "ridge", "--degree", "0"),
    "run-tisi-n-samples-5": ("run", "--method", "tisi", "--n-samples", "5"),
    "sweep-lagrange-grid-1-5": ("sweep", "--method", "lagrange", "--grid", "1,5"),
    "sweep-tisi-grid-5": ("sweep", "--method", "tisi", "--grid", "5"),
    "run-ridge-param-alpha": ("run", "--method", "ridge", "--param", "alpha"),
    "run-efci-param-m-3": ("run", "--method", "efci", "--param", "m=3"),
    "run-efci-degree-1": ("run", "--method", "efci", "--degree", "1"),
    "run-lagrange-n-samples-201": ("run", "--method", "lagrange", "--n-samples", "201"),
    "run-tisi-spline-band-2": (
        "run", "--method", "tisi", "--param", "center=spline_local", "--param", "nodes_per_interval=2"
    ),
    "figure-10": ("figure", "10"),
}


def _run(argv, **kwargs) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "runge_lab.cli", *argv], env=env, stdout=subprocess.PIPE, **kwargs)


def _cli(*argv: str) -> bytes:
    return _run(argv, check=True).stdout


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest(out_dir: Path) -> list[tuple[str, str]]:
    """(sha256 hex digest, name) for every output, sorted by name."""
    figure_stdout = _cli("--out", str(out_dir), "--svg", "figure", "all")
    rows = [(_sha(figure_stdout.replace(str(out_dir).encode(), b"<out>")), "figure.stdout")]
    grid_argv = ("--svg", "--grid-size", "2001", "figure", "12", "--n-samples", "41")
    grid_stdout = _cli("--out", str(out_dir / "grid2001"), *grid_argv)
    rows.append((_sha(grid_stdout.replace(str(out_dir).encode(), b"<out>")), "grid2001/figure.stdout"))
    commands = {
        "run": ("--svg", "run", "--method"),
        "sweep": ("sweep", "--grid", "5,11,21", "--method"),
    }
    for method in sorted(METHODS):
        for sub, argv in commands.items():
            if sub == "sweep" and "n_samples" not in METHODS[method].inputs:
                continue  # a method that samples the target itself takes no sample count
            stdout = _cli("--out", str(out_dir / sub), *argv, method)
            rows.append((_sha(stdout.replace(str(out_dir).encode(), b"<out>")), f"{sub}/{method}.stdout"))
    for name, argv in REFUSED.items():
        done = _run(("--out", str(out_dir / "refused"), *argv), stderr=subprocess.PIPE)
        rows.append((_sha(b"exit=%d\n" % done.returncode + done.stderr), f"refused/{name}.stderr"))
    rows += [
        (_sha(path.read_bytes()), path.relative_to(out_dir).as_posix())
        for path in out_dir.rglob("*")
        if path.is_file()
    ]
    rows.append((_sha(_cli("list-methods")), "list-methods.stdout"))
    return sorted(rows, key=lambda row: row[1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", help="keep the output files in this directory (must be empty or absent)")
    args = parser.parse_args()
    if args.out:
        out_dir = Path(args.out)
        if out_dir.exists() and any(out_dir.iterdir()):
            parser.error(f"{out_dir} is not empty")
        rows = manifest(out_dir)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            rows = manifest(Path(tmp))
    for digest, name in rows:
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
