"""Run-time tracing of runge_lab's public functions, from outside the package.

``Tracer.install`` replaces every public function and public method of the
package's modules with a wrapper that records one span per call: name, start,
end, parent span and pass id. Spans stay in memory until ``write_spans``.
Counters are computed from call arguments and public return values only.
``uninstall`` puts the original objects back.
"""

from __future__ import annotations

import enum
import functools
import inspect
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import runge_lab
from runge_lab import bench, cli, core, interpolants, linalg, metrics, nodes

LAYERS = (cli, bench, metrics, interpolants, linalg, core, nodes)

# Family generators of the nodes module, reported together as nodes.generate.
NODE_GENERATORS = ("nodes.equispaced", "nodes.chebyshev_roots", "nodes.chebyshev_lobatto")

# Float64 grid x nodes temporaries Barycentric.evaluate forms per (point, node)
# pair in the seed formula: the differences and the weighted terms.
BARYCENTRIC_BYTES_PER_PAIR = 16

# efci_fit with cfg.search fits one candidate per m in {2, 4, 6, 8, 10} and keeps one.
EFCI_SEARCH_CANDIDATES = 5


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# For the two evaluate methods args[0] is the approximant and the result holds
# one value per evaluation point.


def _count_barycentric_evaluate(counts, fn, args, kwargs, result):
    counts["core.Barycentric.evaluate.pairs"] += result.size * len(args[0].nodes)


def _count_piecewise_evaluate(counts, fn, args, kwargs, result):
    counts["core.Piecewise.evaluate.piece_masks"] += result.size * len(args[0].pieces)


def _count_cd(counts, fn, args, kwargs, result):
    counts["linalg.elastic_net_cd.sweeps"] += result.n_sweeps
    counts["linalg.elastic_net_cd.converged"] += bool(result.converged)
    counts["linalg.elastic_net_cd.runs"] += 1


def _count_truncated_pinv(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    counts["linalg.truncated_pinv_solve.kept_rank"] += result[1]
    counts["linalg.truncated_pinv_solve.full_rank"] += min(a["A"].shape)


def _count_efci(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    counts["interpolants.efci_fit.tried"] += EFCI_SEARCH_CANDIDATES if a["cfg"].search else 1
    counts["interpolants.efci_fit.kept"] += 1


def _count_emit_csv(counts, fn, args, kwargs, result):
    path = Path(_bound(fn, args, kwargs)["path"])
    counts["bench.emit_csv.bytes"] += _file_size(path) + _file_size(path.with_name(path.name + ".report.csv"))


def _count_emit_svg(counts, fn, args, kwargs, result):
    counts["bench.emit_svg.bytes"] += _file_size(_bound(fn, args, kwargs)["path"])


def _count_error_report(counts, fn, args, kwargs, result):
    counts["metrics.error_report.grid_points"] += _bound(fn, args, kwargs)["grid_size"]


COUNTERS = {
    "core.Barycentric.evaluate": _count_barycentric_evaluate,
    "core.Piecewise.evaluate": _count_piecewise_evaluate,
    "linalg.elastic_net_cd": _count_cd,
    "linalg.truncated_pinv_solve": _count_truncated_pinv,
    "interpolants.efci_fit": _count_efci,
    "bench.emit_csv": _count_emit_csv,
    "bench.emit_svg": _count_emit_svg,
    "metrics.error_report": _count_error_report,
}


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def public_callables():
    """(holder, attribute, span name, original) for every public function of
    the layer modules and every public method of the classes they define."""
    found = []
    for mod in LAYERS:
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((mod, name, f"{_short(mod)}.{name}", obj))
            elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)):
                        found.append((obj, attr, f"{_short(mod)}.{name}.{attr}", member))
    return found


class Tracer:
    """Span recorder for one process. Not thread safe: the benchmark runs a
    single caller in a single thread."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, pass id)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.pass_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (holder, attribute, original)

    def _wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, stack[-1] if stack else -1, tracer.pass_id)
            if counter is not None:
                counter(tracer.counts, fn, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public callable, in its own module and wherever another
        module of the package holds it under an imported name."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [runge_lab, *LAYERS]
        for holder, attr, name, original in public_callables():
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            self._patched.append((holder, attr, original))
            setattr(holder, attr, wrapped)
            if inspect.isfunction(original):
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._patched.append((ns, key, original))
                            setattr(ns, key, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pass_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "pass": pass_id}))
                fh.write("\n")

    def summary(self, pass_times: list[float]) -> dict:
        """Per-pass figures over the traced passes: calls, self and inclusive
        time of each span name, per-module self time, and the part of each
        pass that no span covers (the benchmark's own loop and unwrapped code)."""
        n_passes = len(pass_times)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: defaultdict[str, int] = defaultdict(int)
        self_s: defaultdict[str, float] = defaultdict(float)
        total_s: defaultdict[str, float] = defaultdict(float)
        top_level = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
            if parent < 0:
                top_level += end - start
            if not any(self.spans[j][0] == name for j in self._ancestors(i)):
                total_s[name] += end - start
        per_pass = {}
        for name in calls:
            per_pass[name] = {
                "calls": calls[name] / n_passes,
                "self_s": self_s[name] / n_passes,
                "total_s": total_s[name] / n_passes,
            }
        layers = defaultdict(float)
        for name, v in per_pass.items():
            layers[name.split(".", 1)[0]] += v["self_s"]
        return {
            "spans_per_pass": len(self.spans) / n_passes,
            "functions": per_pass,
            "layers": {_short(m): layers[_short(m)] for m in LAYERS},
            "uncovered_s": (sum(pass_times) - top_level) / n_passes,
            "counts": {k: v / n_passes for k, v in self.counts.items()},
        }

    def _ancestors(self, i):
        parent = self.spans[i][3]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][3]
