import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_method_comparison_ranks_twelve_fits(capsys):
    assert _load("method_comparison").main() == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["method", "max_abs", "rms", "argmax_x"]
    max_abs = [float(line.rsplit(None, 3)[1]) for line in lines]
    assert len(max_abs) == 12
    assert max_abs == sorted(max_abs)


def test_reproduce_figures_writes_every_figure(tmp_path, monkeypatch, capsys):
    from runge_lab import bench

    monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", "--out", str(tmp_path), "--grid-size", "101"])
    assert _load("reproduce_figures").main() == 0
    for fid in bench.SUPPORTED_FIGURES:
        for suffix in (".csv", ".csv.report.csv", ".svg"):
            assert (tmp_path / f"figure{fid}{suffix}").is_file(), (fid, suffix)
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    fits = sum(len(bench.FIGURES[fid].fits) for fid in bench.SUPPORTED_FIGURES)
    assert sum(1 for row in rows if row and row[0].isdigit()) == fits  # one table row per fit
