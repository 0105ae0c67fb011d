#!/usr/bin/env python3
"""runge-lab benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35     # every workload, both modes

The fresh set-up and CLI processes take about 12 s of each timed window, so
windows much shorter than BENCHMARK.json's run_seconds leave few passes.

One workload runs as a closed loop: a single caller in this process, each
pass starting after the previous one ends. The program is imported from the
checkout's ``src`` directory; BLAS threading is left as users get it.

The host's speed drifts by up to about 25% over tens of seconds, and a pure
Python loop drifts with it. So every end-to-end time is scaled to a fixed
machine speed: a short speed probe (fixed Python, small-array and
large-array numpy work, see ``SpeedProbe``) runs between operations, at most
every ``PROBE_EVERY_S`` seconds and outside the timed intervals, and each
timed interval is multiplied by ``SPEED_REF_S`` over the median probe time
measured around it. The unscaled times are kept in the result file.

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics. Either way the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Results, the
environment stamp and (traced) the spans are also written under
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("figures", "interp-scale", "solvers")
SETUP_SAMPLES = 5  # fresh set-up processes per run that measure set-up time
CLI_SAMPLES = 13  # fresh CLI processes per untraced run, after one untimed warm-up
CHILD_TIMEOUT_S = 120
# Speed probe: its typical duration on a 2-vCPU Intel Xeon VM, the speed all
# end-to-end times are scaled to; how often it runs between the operations of
# a pass; and how many probes bracket each fresh-process sample.
SPEED_REF_S = 0.009
PROBE_EVERY_S = 0.2
PROBES_AROUND = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("wall_p90_s", "s"),
    ("cli_wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Functions reported per layer, each with .calls and .self_s.
TRACED_FUNCTIONS = (
    "cli.main",
    "bench.run_figure",
    "bench.emit_csv",
    "bench.emit_svg",
    "metrics.error_report",
    "interpolants.lagrange_interpolate",
    "interpolants.chebyshev_interpolate",
    "interpolants.cubic_spline",
    "interpolants.fit_regularized",
    "interpolants.tikhonov_fit",
    "interpolants.efci_fit",
    "interpolants.mock_chebyshev_interpolate",
    "interpolants.constrained_mock_chebyshev_lstsq",
    "interpolants.tisi_fit",
    "interpolants.svd_truncated_fit",
    "linalg.design_matrix",
    "linalg.lstsq",
    "linalg.svd",
    "linalg.truncated_pinv_solve",
    "linalg.solve_tridiagonal",
    "linalg.elastic_net_cd",
    "linalg.elastic_net_objective",
    "linalg.ridge_closed_form",
    "core.barycentric_weights",
    "core.Barycentric.fit",
    "core.Barycentric.evaluate",
    "core.Piecewise.evaluate",
    "core.BasisPoly.evaluate",
    "nodes.mock_chebyshev_subset",
    "nodes.generate",
)
LAYER_NAMES = ("cli", "bench", "metrics", "interpolants", "linalg", "core", "nodes")
# (name, unit, better) of the remaining per-layer metrics
PER_LAYER_EXTRA = (
    ("linalg.elastic_net_cd.total_s", "s", "lower"),
    ("linalg.elastic_net_cd.sweeps", "count", "lower"),
    ("linalg.elastic_net_cd.converged_ratio", "ratio", "higher"),
    ("linalg.truncated_pinv_solve.kept_rank_ratio", "ratio", "higher"),
    ("interpolants.efci_fit.useful_ratio", "ratio", "higher"),
    ("core.Barycentric.evaluate.pairs", "count", "lower"),
    ("core.Barycentric.evaluate.bytes_computed", "bytes", "lower"),
    ("core.Piecewise.evaluate.piece_masks", "count", "lower"),
    ("metrics.error_report.grid_points", "count", "lower"),
    ("bench.emit_csv.bytes", "bytes", "lower"),
    ("bench.emit_svg.bytes", "bytes", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("machine.speed_probe_s", "s", "lower"),
    ("ops.failed_ops_ratio", "ratio", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for fn in TRACED_FUNCTIONS:
        spec += [(f"{fn}.calls", "count", "lower"), (f"{fn}.self_s", "s", "lower")]
    spec += [(f"layer.{name}.self_s", "s", "lower") for name in LAYER_NAMES]
    return spec + list(PER_LAYER_EXTRA)


# ---------------------------------------------------------------------------
# Program location and environment


def import_program():
    """Put the checkout's src and this directory on sys.path and import the
    benchmark modules; exit 2 if the checkout holds no program."""
    if not (SRC / "runge_lab" / "__init__.py").is_file():
        sys.exit(f"error: no runge_lab package under {SRC}; run from the root of a runge-lab checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import runge_lab

    if Path(runge_lab.__file__).resolve().parent != (SRC / "runge_lab").resolve():
        sys.exit(f"error: runge_lab imported from {runge_lab.__file__}, not from {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git directly, or None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Passes


class Outcomes:
    """Verdict of every operation attempted in a run."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, dict] = {}  # op name -> {"count", "reason", "known_defect"}

    def record(self, name: str, reason: str | None, known_defect: str = "") -> None:
        self.attempted += 1
        if reason is not None:
            entry = self.failures.setdefault(name, {"count": 0, "reason": reason, "known_defect": known_defect})
            entry["count"] += 1

    @property
    def failed(self) -> int:
        return sum(f["count"] for f in self.failures.values())

    @property
    def unexpected(self) -> int:
        return sum(f["count"] for f in self.failures.values() if not f["known_defect"])


class SpeedProbe:
    """A fixed piece of work whose time tracks the speed the shared host
    gives this process: a Python integer loop, a loop of numpy calls on a
    30-element array and one read of an 8 MB array, taking about 5, 3 and
    1.5 ms, a mix like the three workloads' own."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._small = np.arange(30.0)
        self._large = np.linspace(0.0, 1.0, 1_000_000)
        self.samples: list[float] = []

    def sample(self) -> float:
        np = self._np
        start = time.perf_counter()
        acc = 0
        for i in range(70_000):
            acc += i * i
        a = self._small
        for _ in range(900):
            a = a * 0.999 + np.dot(a, a) * 1e-9
        self._large.sum()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def around(self, measure):
        """(measure(), median of the probes just before and after it)."""
        before = [self.sample() for _ in range(PROBES_AROUND)]
        value = measure()
        after = [self.sample() for _ in range(PROBES_AROUND)]
        return value, statistics.median(before + after)


def scaled(seconds: float, probe_s: float) -> float:
    """A time measured while the speed probe took ``probe_s``, scaled to the
    machine speed at which it takes ``SPEED_REF_S``."""
    return seconds * SPEED_REF_S / probe_s


def _attempt(op):
    """Run one operation; return (output or None, signature, error reason)."""
    try:
        out = op.run()
    except Exception as exc:  # a raising operation is a failed operation, not a crash
        reason = f"raises {type(exc).__name__}: {exc}"
        return None, reason, reason
    return out, op.signature(out), None


def prepare(args, scratch: Path):
    """Build the workload's inputs and warm up on the tiny size: the set-up
    that ``setup_s`` times."""
    import workloads

    ops = workloads.build(args.workload, args.size, args.seed, scratch)
    with contextlib.redirect_stdout(io.StringIO()):
        for op in workloads.build(args.workload, "tiny", args.seed, scratch):
            _attempt(op)
    return ops


def checking_pass(ops, outcomes: Outcomes) -> dict:
    """Run every operation once and check its output in full; return the
    verdict and signature each later pass is compared against."""
    baseline = {}
    for op in ops:
        out, signature, reason = _attempt(op)
        if reason is None:
            try:
                op.check(out)
            except Exception as exc:  # e.g. CheckFailed, or an output file that does not parse
                reason = f"check: {type(exc).__name__}: {exc}"
        outcomes.record(op.name, reason, op.known_defect)
        baseline[op.name] = (signature, reason)
    return baseline


def timed_pass(ops, baseline: dict, outcomes: Outcomes, probe: SpeedProbe) -> tuple[float, float]:
    """Run every operation once; return the wall time of the pass and the
    median speed-probe time measured before it and between its operations
    (probes are not part of the pass time). An output that differs from the
    checking pass counts as failed."""
    probes = [probe.sample()]
    last_probe = time.perf_counter()
    elapsed = 0.0
    signatures = []
    for op in ops:
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(probe.sample())
            last_probe = time.perf_counter()
        start = time.perf_counter()
        signatures.append((op, _attempt(op)[1]))
        elapsed += time.perf_counter() - start
    for op, signature in signatures:
        want_signature, want_reason = baseline[op.name]
        reason = want_reason if signature == want_signature else "output differs from the checking pass"
        outcomes.record(op.name, reason, op.known_defect if signature == want_signature else "")
    return elapsed, statistics.median(probes)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile, at most p90, that has at
    least ten samples beyond it; the median when there are fewer than 21."""
    s = sorted(samples)
    n = len(s)
    if n < 21:
        return statistics.median(s), 50.0
    idx = min(math.ceil(0.9 * n), n - 10) - 1
    return s[idx], 100.0 * (idx + 1) / n


# ---------------------------------------------------------------------------
# Fresh processes


def setup_probe(args) -> None:
    """Body of a set-up process: import, build the inputs, warm up on
    the tiny size, then print the monotonic time at which a first timed pass
    could start."""
    start = time.perf_counter()
    import_program()
    import runge_lab.cli  # noqa: F401

    import_s = time.perf_counter() - start
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT, prefix="probe-"))
    try:
        prepare(args, scratch)
        ready = time.monotonic()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"ready": ready, "import_s": import_s}))


def setup_sample(args) -> tuple[float, float]:
    """(set-up time, import time of runge_lab.cli) of one fresh set-up process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["ready"] - start, probe["import_s"]


def cli_sample(args, scratch: Path, outcomes: Outcomes) -> float:
    """Wall time of one fresh `runge-lab` process running the workload's CLI command."""
    import workloads

    cmd = [sys.executable, "-m", "runge_lab.cli", *workloads.cli_argv(args.workload, args.size, scratch / "cli")]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, check=False)
    elapsed = time.perf_counter() - start
    reason = None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}"
    outcomes.record(f"{args.workload}.cli", reason)
    return elapsed


# ---------------------------------------------------------------------------
# One workload


def run_workload(args) -> dict:
    import_program()
    import tracer as tracing

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-"))
    outcomes = Outcomes()
    try:
        ops = prepare(args, scratch)
        baseline = checking_pass(ops, outcomes)

        tracer = tracing.Tracer() if args.trace else None
        probe = SpeedProbe()
        # (raw seconds, median probe seconds) per pass or fresh process
        plain, traced, setups, cli_times = [], [], [], []
        imports = []

        def sample(kind):
            if kind == "cli":
                cli_times.append(probe.around(lambda: cli_sample(args, scratch, outcomes)))
            else:
                (setup_s, import_s), probe_s = probe.around(lambda: setup_sample(args))
                setups.append((setup_s, probe_s))
                imports.append(import_s)

        # Fresh-process samples are spread evenly over the timed window, so
        # that their medians see the same machine as the passes.
        if not tracer:
            cli_sample(args, scratch, outcomes)  # untimed: warms the page cache
        start = time.perf_counter()
        kinds = [("setup", SETUP_SAMPLES)] + ([] if tracer else [("cli", CLI_SAMPLES)])
        due = sorted((start + (i + 0.5) * args.seconds / n, kind) for kind, n in kinds for i in range(n))
        while time.perf_counter() < start + args.seconds or not plain or (tracer and not traced):
            while due and time.perf_counter() >= due[0][0]:
                sample(due.pop(0)[1])
            if tracer and len(traced) < len(plain):
                tracer.pass_id = len(traced)
                tracer.install()
                try:
                    traced.append(timed_pass(ops, baseline, outcomes, probe))
                finally:
                    tracer.uninstall()
            else:
                plain.append(timed_pass(ops, baseline, outcomes, probe))
        for _, kind in due:
            sample(kind)

        # Per-layer times are reported as measured, end-to-end times scaled.
        if tracer:
            raw_traced = [t for t, _ in traced]
            summary = tracer.summary(raw_traced)
            metrics = layer_metrics(summary, [t for t, _ in plain], raw_traced, imports, probe, outcomes)
            tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            extra = {"passes": len(traced), "untraced_passes": len(plain), "functions": summary["functions"]}
        else:
            passes = [scaled(t, p) for t, p in plain]
            p90, pct = tail(passes)
            values = {
                "setup_s": statistics.median(scaled(t, p) for t, p in setups),
                "wall_s": statistics.median(passes),
                "wall_p90_s": p90,
                "cli_wall_s": statistics.median(scaled(t, p) for t, p in cli_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            raw = {
                "setup_s": statistics.median(t for t, _ in setups),
                "wall_s": statistics.median(t for t, _ in plain),
                "cli_wall_s": statistics.median(t for t, _ in cli_times),
            }
            extra = {"passes": len(plain), "wall_p90_percentile": pct, "unscaled": raw,
                     "speed_probe_s": statistics.median(probe.samples),
                     "pass_times": plain, "setup_times": setups, "cli_times": cli_times}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "correct": outcomes.unexpected == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.unexpected,
        "failed_ops_ratio": outcomes.failed / outcomes.attempted,
        "failures": outcomes.failures,
        "metrics": metrics,
        "environment": environment(),
        **extra,
    }


def layer_metrics(summary: dict, plain: list, traced: list, imports: list, probe: SpeedProbe,
                  outcomes: Outcomes) -> dict:
    import tracer as tracing

    fns, counts = summary["functions"], summary["counts"]
    empty = {"calls": 0.0, "self_s": 0.0, "total_s": 0.0}
    generators = [fns.get(name, empty) for name in tracing.NODE_GENERATORS]
    fns["nodes.generate"] = {k: sum(g[k] for g in generators) for k in empty}

    def ratio(num: str, den: str) -> float:
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

    pairs = counts.get("core.Barycentric.evaluate.pairs", 0.0)
    values = {
        "linalg.elastic_net_cd.total_s": fns.get("linalg.elastic_net_cd", empty)["total_s"],
        "linalg.elastic_net_cd.sweeps": counts.get("linalg.elastic_net_cd.sweeps", 0.0),
        "linalg.elastic_net_cd.converged_ratio": ratio("linalg.elastic_net_cd.converged", "linalg.elastic_net_cd.runs"),
        "linalg.truncated_pinv_solve.kept_rank_ratio": ratio(
            "linalg.truncated_pinv_solve.kept_rank", "linalg.truncated_pinv_solve.full_rank"
        ),
        "interpolants.efci_fit.useful_ratio": ratio("interpolants.efci_fit.kept", "interpolants.efci_fit.tried"),
        "core.Barycentric.evaluate.pairs": pairs,
        "core.Barycentric.evaluate.bytes_computed": pairs * tracing.BARYCENTRIC_BYTES_PER_PAIR,
        "core.Piecewise.evaluate.piece_masks": counts.get("core.Piecewise.evaluate.piece_masks", 0.0),
        "metrics.error_report.grid_points": counts.get("metrics.error_report.grid_points", 0.0),
        "bench.emit_csv.bytes": counts.get("bench.emit_csv.bytes", 0.0),
        "bench.emit_svg.bytes": counts.get("bench.emit_svg.bytes", 0.0),
        "cli.import_s": statistics.median(imports),
        "trace.wall_s": statistics.median(traced),
        "trace.untraced_wall_s": statistics.median(plain),
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
        "trace.uncovered_s": summary["uncovered_s"],
        "trace.spans": summary["spans_per_pass"],
        "machine.speed_probe_s": statistics.median(probe.samples),
        "ops.failed_ops_ratio": outcomes.failed / outcomes.attempted,
    }
    for fn in TRACED_FUNCTIONS:
        values[f"{fn}.calls"] = fns.get(fn, empty)["calls"]
        values[f"{fn}.self_s"] = fns.get(fn, empty)["self_s"]
    for name, value in summary["layers"].items():
        values[f"layer.{name}.self_s"] = value
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_spec()}


def print_report(result: dict) -> None:
    """Human-readable lines: every metric by name and unit, failures, environment."""
    print(f"# workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"passes {result['passes']}  attempted {result['attempted']}")
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    functions = result.get("functions", {})
    if functions:
        print(f"# every traced function, per pass: {'calls':>10s} {'self_s':>12s} {'total_s':>12s}")
        for name, f in sorted(functions.items(), key=lambda kv: -kv[1]["self_s"]):
            if f["calls"]:
                print(f"  {name:46s} {f['calls']:10.6g} {f['self_s']:12.6g} {f['total_s']:12.6g}")
    print(f"{'failed_ops_ratio':48s} {result['failed_ops_ratio']:.6g} ratio")
    for name, f in result["failures"].items():
        tag = f"known defect: {f['known_defect']}" if f["known_defect"] else "UNEXPECTED"
        print(f"  failed {name} x{f['count']} ({tag}): {f['reason'][:160]}")
    print("env " + json.dumps(result["environment"], sort_keys=True))


def final_line(result: dict) -> str:
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": result["metrics"]})


# ---------------------------------------------------------------------------
# All workloads


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    import_program()
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S + 4 * args.seconds, check=False)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            path = OUT / f"result-{workload}-seed{args.seed}-trace{trace}.json"
            summary[f"{workload}.trace{trace}"] = json.loads(path.read_text(encoding="utf-8"))
    print("# tracing overhead per workload: traced minus untraced median pass, interleaved in the traced run")
    for workload in WORKLOADS:
        m = summary[f"{workload}.trace1"]["metrics"]
        print(f"{workload:16s} overhead {m['trace.overhead_s']['value']:.6g} s "
              f"(traced {m['trace.wall_s']['value']:.6g} s, untraced {m['trace.untraced_wall_s']['value']:.6g} s)")
    (OUT / f"summary-seed{args.seed}.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="runge-lab benchmark; run from the checkout root.")
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0, help="draws the jitter of interp-scale's custom node sets")
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"), help="tiny: smoke-test inputs")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    print_report(result)
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
