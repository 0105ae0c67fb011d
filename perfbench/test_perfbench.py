"""Tests of the benchmark itself, at the tiny input size.

Run from the checkout root: python3 -m pytest perfbench
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# Per-layer metrics that are exact counts: equal across runs with one seed.
EXACT_SUFFIXES = (
    ".calls", ".pairs", ".bytes_computed", ".piece_masks", ".sweeps", ".converged_ratio",
    ".kept_rank_ratio", ".useful_ratio", ".bytes", ".grid_points", "trace.spans", "ops.failed_ops_ratio",
)


def _command(workload: str, trace: int, seed: int = 3) -> list[str]:
    argv = list(BENCHMARK["command"])
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    return argv + ["--workload", workload, "--seed", str(seed), "--seconds", "0.3",
                   "--trace", str(trace), "--size", "tiny"]


@lru_cache(maxsize=None)
def tiny_run(workload: str, trace: int, attempt: int = 0) -> dict:
    proc = subprocess.run(_command(workload, trace), cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_result_schema(workload, trace):
    result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = tiny_run(workload, 1), tiny_run(workload, 1, attempt=1)
    exact = [name for name in first["metrics"] if name.endswith(EXACT_SUFFIXES)]
    assert exact
    assert {n: first["metrics"][n]["value"] for n in exact} == {n: second["metrics"][n]["value"] for n in exact}


def test_layer_counts_are_recorded():
    figures = tiny_run("figures", 1)["metrics"]
    scale = tiny_run("interp-scale", 1)["metrics"]
    solvers = tiny_run("solvers", 1)["metrics"]
    assert figures["bench.emit_csv.bytes"]["value"] > 0 and figures["bench.emit_svg.bytes"]["value"] > 0
    assert scale["core.Barycentric.evaluate.pairs"]["value"] > 0
    assert scale["core.Piecewise.evaluate.piece_masks"]["value"] > 0
    assert solvers["linalg.elastic_net_cd.sweeps"]["value"] > 0
    assert solvers["interpolants.efci_fit.useful_ratio"]["value"] == pytest.approx(0.2)
    assert scale["bench.emit_csv.bytes"]["value"] == 0 and solvers["bench.emit_svg.bytes"]["value"] == 0


def test_injected_failure_raises_failed_ops_ratio(monkeypatch):
    sys.path.insert(0, str(HERE))
    import run

    run.import_program()
    import workloads

    def failing():
        raise RuntimeError("injected")

    def wrong(out):
        raise workloads.CheckFailed("injected wrong output")

    real_build = workloads.build

    def build(name, size, seed, scratch):
        ops = real_build(name, size, seed, scratch)
        return ops + [
            workloads.Op("injected.raises", failing, lambda out: None, lambda out: out),
            workloads.Op("injected.wrong", lambda: 1.0, wrong, lambda out: out),
        ]

    monkeypatch.setattr(workloads, "build", build)
    args = argparse.Namespace(
        workload="solvers", seed=0, seconds=0.2, trace=0, size="tiny", probe=False
    )
    monkeypatch.setattr(run, "setup_sample", lambda args: (1.0, 1.0))
    monkeypatch.setattr(run, "cli_sample", lambda *a: 1.0)
    result = run.run_workload(args)
    passes = result["passes"] + 1  # the timed passes and the checking pass
    assert result["failed"] == 2 * passes
    assert result["failed_ops_ratio"] == pytest.approx(2 * passes / result["attempted"])
    assert result["correct"] is False
    assert set(result["failures"]) == {"injected.raises", "injected.wrong"}


def test_known_defects_count_in_ratio_only():
    sys.path.insert(0, str(HERE))
    import run

    outcomes = run.Outcomes()
    outcomes.record("ok", None)
    outcomes.record("defect", "raises", known_defect="documented")
    assert outcomes.failed == 1 and outcomes.unexpected == 0 and outcomes.attempted == 2


def test_tail_percentile():
    sys.path.insert(0, str(HERE))
    import run

    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([float(i) for i in range(30)]) == (19.0, pytest.approx(100 * 20 / 30))
    assert run.tail([4.0, 1.0, 2.0, 3.0]) == (2.5, 50.0)


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(_command("figures", 0), cwd=tmp_path, capture_output=True, text=True,
                          timeout=180, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
