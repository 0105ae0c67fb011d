import importlib.util
import sys
from pathlib import Path

import pytest

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


def test_reproduce_figures_writes_what_figure_all_writes(tmp_path, monkeypatch, capsys):
    from runge_lab.cli import main

    script, cli = tmp_path / "script", tmp_path / "cli"
    monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", "--out", str(script)])
    assert _load("reproduce_figures").main() == 0
    assert main(["--out", str(cli), "--svg", "figure", "all"]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in script.iterdir())
    assert names == sorted(p.name for p in cli.iterdir())
    assert len(names) == 36  # CSV, report CSV and SVG of each of the 12 figures
    for name in names:
        assert (script / name).read_bytes() == (cli / name).read_bytes(), name


@pytest.mark.parametrize("grid_size", ["1", "0"])
def test_reproduce_figures_refuses_a_grid_below_two_points_as_the_cli_does(tmp_path, monkeypatch, capsys, grid_size):
    from runge_lab.cli import main

    assert main(["--out", str(tmp_path), "--grid-size", grid_size, "figure", "all"]) == 2
    cli = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", "--out", str(tmp_path), "--grid-size", grid_size])
    assert _load("reproduce_figures").main() == 2
    script = capsys.readouterr()
    assert script.err == cli.err == f"error: grid_size must be at least 2, got {grid_size}\n"
    assert script.out == ""  # refused before the table header
    assert not any(tmp_path.iterdir())  # and nothing written


def test_loc_counts_code_and_docstring_lines(tmp_path, capsys):
    loc = _load("loc")
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module\n'
        'docstring."""\n'
        "\n"
        "# a comment\n"
        "def f(x):\n"
        '    """One line."""\n'
        '    s = """not a\n'
        '    docstring"""\n'
        "    return s  # trailing comment\n"
    )
    assert loc.count(source) == (4, 3)  # def, both lines of s and return; two module lines and one function line
    assert loc.main() == 0
    header, *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", "code", "docstring"]
    assert [row[0] for row in rows] == sorted(p.name for p in loc.PACKAGE.glob("*.py"))
    assert total[0] == "total"
    assert [int(total[1]), int(total[2])] == [sum(int(row[i]) for row in rows) for i in (1, 2)]
