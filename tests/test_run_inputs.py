"""Each run-input bound has one owner in bench, so every entry point that takes
an input refuses a bad value with the same message, before its first fit and
without writing a file: the library calls with UsageError, the CLI and
scripts/reproduce_figures.py with exit 2 and `error: <message>`. The integer
rule these inputs share with every other public count is one `_integer` in
runge_lab.core, and the UsageError it raises is core's, which bench imports."""

import re
import sys

import numpy as np
import pytest
from test_scripts import _load

from runge_lab import bench
from runge_lab.bench import FitSpec, UsageError
from runge_lab.cli import main

GRID = "grid_size must be at least 2, got 1"
SAMPLES = "n_samples must be at least 2, got 1"
DEGREE = "degree must be at least 1, got 0"
EMPTY = "a sweep needs at least one sample count"

# (message, library call of the output directory); run_figures is only called, never iterated
LIBRARY = {
    "grid_size-run_experiment": (GRID, lambda out: bench.run_experiment(FitSpec("ridge", "ridge"), 1, out, True)),
    "grid_size-run_figure": (GRID, lambda out: bench.run_figure(1, grid_size=1)),
    "grid_size-run_figures": (GRID, lambda out: bench.run_figures(bench.SUPPORTED_FIGURES, 1, None, out, True)),
    "grid_size-sweep": (GRID, lambda out: bench.sweep("lagrange", [5, 11], grid_size=1)),
    "n_samples-run_experiment": (
        SAMPLES,
        lambda out: bench.run_experiment(FitSpec("lagrange", "lagrange", n_samples=1), output_dir=out),
    ),
    "n_samples-run_figure": (SAMPLES, lambda out: bench.run_figure(12, n_samples=1)),
    "n_samples-run_figures": (SAMPLES, lambda out: bench.run_figures(bench.SUPPORTED_FIGURES, 1001, 1, out)),
    "n_samples-run_figures-one": (SAMPLES, lambda out: bench.run_figures([12], n_samples=1, output_dir=out)),
    "n_samples-sweep": (SAMPLES, lambda out: bench.sweep("lagrange", [5, 1])),
    "degree-run_experiment": (DEGREE, lambda out: bench.run_experiment(FitSpec("ridge", "ridge", degree=0), 1001, out)),
    "empty-sweep": (EMPTY, lambda out: bench.sweep("lagrange", [])),
    "integer-n_samples-str-run_experiment": (
        "n_samples must be an integer, got '5'",
        lambda out: bench.run_experiment(FitSpec("lagrange", "lagrange", n_samples="5"), output_dir=out),
    ),
    "integer-n_samples-float-run_experiment": (
        "n_samples must be an integer, got 5.5",
        lambda out: bench.run_experiment(FitSpec("lagrange", "lagrange", n_samples=5.5), output_dir=out),
    ),
    "integer-degree-run_experiment": (
        "degree must be an integer, got 2.5",
        lambda out: bench.run_experiment(FitSpec("ridge", "ridge", degree=2.5), output_dir=out),
    ),
    "integer-degree-bool-run_experiment": (
        "degree must be an integer, got True",
        lambda out: bench.run_experiment(FitSpec("ridge", "ridge", degree=True), output_dir=out),
    ),
    "integer-grid_size-run_experiment": (
        "grid_size must be an integer, got 2.5",
        lambda out: bench.run_experiment(FitSpec("ridge", "ridge"), 2.5, out, True),
    ),
    "integer-grid_size-run_figures": (
        "grid_size must be an integer, got 2.5",
        lambda out: bench.run_figures(bench.SUPPORTED_FIGURES, 2.5, None, out, True),
    ),
    "integer-n_samples-run_figure": (
        "n_samples must be an integer, got 5.5",
        lambda out: bench.run_figure(12, n_samples=5.5),
    ),
    "integer-n_samples-sweep": ("n_samples must be an integer, got 5.0", lambda out: bench.sweep("lagrange", [5.0])),
    "integer-grid_size-sweep": (
        "grid_size must be an integer, got '11'",
        lambda out: bench.sweep("lagrange", [5], grid_size="11"),
    ),
}

# (message, argv after --out)
COMMANDS = {
    "grid_size-figure-all": (GRID, ["--svg", "--grid-size", "1", "figure", "all"]),
    "grid_size-figure": (GRID, ["--grid-size", "1", "figure", "1"]),
    "grid_size-run": (GRID, ["--svg", "--grid-size", "1", "run", "--method", "ridge"]),
    "grid_size-sweep": (GRID, ["--grid-size", "1", "sweep", "--method", "lagrange", "--grid", "5,11"]),
    "n_samples-figure-all": (SAMPLES, ["figure", "all", "--n-samples", "1"]),
    "n_samples-figure": (SAMPLES, ["figure", "12", "--n-samples", "1"]),
    "n_samples-run": (SAMPLES, ["run", "--method", "lagrange", "--n-samples", "1"]),
    "n_samples-sweep": (SAMPLES, ["sweep", "--method", "lagrange", "--grid", "5,1"]),
    "degree-run": (DEGREE, ["run", "--method", "ridge", "--degree", "0"]),
    "empty-sweep": (EMPTY, ["sweep", "--method", "lagrange", "--grid", ","]),
}


@pytest.fixture
def fits(monkeypatch):
    """The arguments of every bench._fit call."""
    calls = []
    monkeypatch.setattr(bench, "_fit", lambda *args: calls.append(args))
    return calls


@pytest.mark.parametrize("case", LIBRARY)
def test_library_refuses_a_bad_run_input_before_any_fit(tmp_path, fits, case):
    message, call = LIBRARY[case]
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        call(str(tmp_path))
    assert fits == []
    assert not any(tmp_path.iterdir())


def test_numpy_integer_run_inputs_are_taken():
    spec = FitSpec("ridge", "ridge", n_samples=np.int64(11), degree=np.int32(4))
    assert [r.n_params for r in bench.run_experiment(spec, np.int64(101)).reports] == [5]
    entries = bench.sweep("lagrange", np.array([5, 11]), grid_size=np.int16(101))
    assert [(e.param, e.error) for e in entries] == [(5, None), (11, None)]


@pytest.mark.parametrize("case", COMMANDS)
def test_cli_refuses_a_bad_run_input_before_any_fit(tmp_path, capsys, fits, case):
    message, argv = COMMANDS[case]
    assert main(["--out", str(tmp_path), *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert fits == []
    assert not any(tmp_path.iterdir())


def test_reproduce_figures_refuses_a_bad_grid_size_before_any_fit(tmp_path, monkeypatch, capsys, fits):
    monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", "--out", str(tmp_path), "--grid-size", "1"])
    assert _load("reproduce_figures").main() == 2
    assert capsys.readouterr() == ("", f"error: {GRID}\n")
    assert fits == []
    assert not any(tmp_path.iterdir())
