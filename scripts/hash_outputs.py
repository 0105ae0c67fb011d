#!/usr/bin/env python3
"""Print a SHA-256 manifest of the program's user-visible outputs.

Runs ``runge-lab --svg figure all`` and ``runge-lab list-methods`` from the
``src/`` of the checkout this script sits in, then prints one line
``<sha256>  <name>`` for every file the figure command wrote (named by its
path under the output directory) and one for the stdout of ``list-methods``.
Run it before and after a refactor and ``diff`` the two manifests; a line that
differs names an output that changed.

    python3 scripts/hash_outputs.py > before.txt
    python3 scripts/hash_outputs.py --out kept/ > after.txt

With ``--out`` the figure files stay in that directory for a closer look;
without it they go to a temporary directory that is removed afterwards.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _cli(*argv: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "runge_lab.cli", *argv], env=env, stdout=subprocess.PIPE, check=True
    )
    return done.stdout


def manifest(out_dir: Path) -> list[tuple[str, str]]:
    """(sha256 hex digest, name) for every output, sorted by name."""
    _cli("--out", str(out_dir), "--svg", "figure", "all")
    rows = [
        (hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(out_dir).as_posix())
        for path in out_dir.rglob("*")
        if path.is_file()
    ]
    rows.append((hashlib.sha256(_cli("list-methods")).hexdigest(), "list-methods.stdout"))
    return sorted(rows, key=lambda row: row[1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", help="keep the figure files in this directory (must be empty or absent)")
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
