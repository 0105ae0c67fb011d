import csv
import gc
import warnings
import weakref

import pytest

from runge_lab import bench
from runge_lab.cli import main


def test_cli_figure(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "figure", "1"])
    assert rc == 0
    assert (tmp_path / "figure1.csv").exists()
    assert "figure 1" in capsys.readouterr().out


def test_cli_figure_usage_error(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "figure", "10"])
    assert rc == 2
    assert "supported" in capsys.readouterr().err


def test_cli_run_with_params_and_svg(tmp_path):
    rc = main(
        ["--out", str(tmp_path), "--svg", "run", "--method", "ridge", "--param", "alpha=0.1"]
    )
    assert rc == 0
    assert (tmp_path / "ridge.csv").exists()
    assert (tmp_path / "ridge.svg").exists()


def test_cli_run_bad_param(tmp_path, capsys):
    cases = [
        ("lagrange", "alpha=1", "alpha"),
        ("tikhonov", "operator=bogus", "second_difference"),
        ("svd", "basis=bogus", "legendre"),
        ("svd", "basis=chebyshev_t", "legendre"),  # no such basis
        ("tisi", "left=bogus", "spline_local"),
        ("tisi", "improved=true", "nodes_per_interval"),  # improved TISI is center=lagrange_cheb
    ]
    for method, param, listed in cases:
        rc = main(["--out", str(tmp_path), "run", "--method", method, "--param", param])
        assert rc == 2, param
        assert listed in capsys.readouterr().err


# argv -> (exit code, stderr): a UsageError exits 2, any other ValueError, a NumericError or an OSError 1
EXITS = {
    ("run", "--method", "ridge", "--param", "alpha"): (2, "error: --param expects key=value, got 'alpha'\n"),
    ("run", "--method", "efci", "--param", "m=3"): (1, "error: m must be an even integer >= 2\n"),
    ("run", "--method", "efci", "--degree", "1"): (1, "error: degree must be >= 2 to carry curvature constraints\n"),
}


@pytest.mark.parametrize("argv", EXITS)
def test_cli_exit_code_and_message(tmp_path, capsys, argv):
    assert main(["--out", str(tmp_path), *argv]) == EXITS[argv][0]
    assert capsys.readouterr() == ("", EXITS[argv][1])
    assert not any(tmp_path.iterdir())


def test_cli_write_that_fails_exits_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["--out", str(blocker / "out"), "run", "--method", "ridge"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and str(blocker / "out") in err
    # the directory that cannot be made is reported as the write it stopped
    assert err.startswith(f"error: failed writing {blocker / 'out' / 'ridge.csv'}: ")


def test_cli_config_line_without_equals_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("method = ridge\n\n# alpha follows\nalpha 0.1\n")
    assert main(["--out", str(tmp_path / "out"), "run", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"error: {cfg}:4: expected 'key = value'\n")


def test_cli_run_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# demo config\nmethod = tikhonov\ndegree = 12\nlam = 0.01\n")
    rc = main(["--out", str(tmp_path), "run", "--config", str(cfg)])
    assert rc == 0
    assert (tmp_path / "tikhonov.csv").exists()


def test_cli_bad_numeric_input_exits_2(tmp_path, capsys):
    runs = [
        (["--grid-size", "1", "figure", "1"], "grid_size must be at least 2, got 1"),
        (["--grid-size", "1", "run", "--method", "lagrange"], "grid_size must be at least 2, got 1"),
    ]
    runs += [
        (["figure", "3", "--n-samples", "31"], "fixed sample counts"),
        (["figure", "12", "--n-samples", "0"], "n_samples must be at least 2, got 0"),
        (["figure", "all", "--n-samples", "1"], "n_samples must be at least 2, got 1"),
        (["sweep", "--method", "chebyshev", "--grid", "1,0,-2"], "n_samples must be at least 2, got 1"),
        (["run", "--method", "lagrange", "--n-samples", "1"], "n_samples must be at least 2"),
        (["run", "--method", "chebyshev", "--n-samples", "0"], "n_samples must be at least 2"),
        (["run", "--method", "ridge", "--degree", "-1"], "degree must be at least 1"),
        # TISI samples each band itself, so it takes no sample count
        (["sweep", "--method", "tisi", "--grid", "5,11"], "samples the target itself"),
        (["run", "--method", "tisi", "--n-samples", "5", "--degree", "3"], "samples the target itself"),
    ]
    for key, value in (("n_samples", "abc"), ("degree", "x")):
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"method = lagrange\n{key} = {value}\n")
        runs.append((["run", "--config", str(cfg)], f"'{value}'"))
    cfg = tmp_path / "degree_0.cfg"  # a file value is range-checked like a flag
    cfg.write_text("method = ridge\ndegree = 0\n")
    runs.append((["run", "--config", str(cfg)], "degree must be at least 1"))
    cfg = tmp_path / "tisi.cfg"  # and so is a sample count from the file
    cfg.write_text("method = tisi\nn_samples = 5\n")
    runs.append((["run", "--config", str(cfg)], "samples the target itself"))
    for argv, named in runs:
        rc = main(["--out", str(tmp_path), *argv])
        assert rc == 2, argv
        assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "method, param",
    [
        ("ridge", "alpha=nan"),
        ("lasso", "alpha=nan"),
        ("ridge", "alpha=inf"),
        ("tikhonov", "lam=nan"),
        ("efci", "epsilon=nan"),
        ("svd", "threshold=-inf"),
    ],
)
def test_cli_non_finite_param_exits_2(tmp_path, capsys, method, param):
    rc = main(["--out", str(tmp_path), "run", "--method", method, "--param", param])
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err


def test_cli_run_refuses_an_input_the_method_does_not_read(tmp_path, capsys):
    cfg = tmp_path / "lagrange.cfg"
    cfg.write_text("method = lagrange\ndegree = 3\n")
    refused = [
        ["--method", "lagrange", "--n-samples", "5", "--degree", "3"],
        ["--method", "spline", "--degree", "3"],
        ["--config", str(cfg)],
    ]
    for argv in refused:
        rc = main(["--out", str(tmp_path), "run", *argv])
        assert rc == 2, argv
        assert "takes no degree" in capsys.readouterr().err
    rc = main(["--out", str(tmp_path), "run", "--method", "ridge", "--degree", "3"])
    assert rc == 0
    assert "ridge: n_params=4 " in capsys.readouterr().out


def test_cli_run_flags_win_over_config_file(tmp_path, capsys):
    samples = "method = lagrange\nn_samples = 5\n"
    sizes = samples + "degree = 4\n"  # lagrange reads no degree, ridge does
    runs = [
        (samples, [], "lagrange: n_params=5 "),  # the file sets what no flag does
        (samples, ["--n-samples", "21"], "lagrange: n_params=21 "),
        (sizes, ["--method", "ridge"], "ridge: n_params=5 "),
        (sizes, ["--method", "ridge", "--degree", "6"], "ridge: n_params=7 "),
        ("method = ridge\nalpha = bogus\n", ["--param", "alpha=0.5"], "ridge: n_params=11 "),
    ]
    cfg = tmp_path / "exp.cfg"
    for text, argv, printed in runs:
        cfg.write_text(text)
        rc = main(["--out", str(tmp_path), "run", "--config", str(cfg), *argv])
        out = capsys.readouterr().out
        assert rc == 0, argv
        assert printed in out, argv


def test_cli_figure_n_samples_resizes_only_resizable_figures(tmp_path):
    rc = main(["--out", str(tmp_path), "--grid-size", "101", "figure", "all", "--n-samples", "31"])
    assert rc == 0
    n_params = {}
    for fid in (3, 12):
        with open(tmp_path / f"figure{fid}.csv.report.csv", newline="") as fh:
            n_params[fid] = {row["n_params"] for row in csv.DictReader(fh)}
    assert n_params == {3: {"11"}, 12: {"31"}}


def test_cli_sweep(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "sweep", "--method", "lagrange", "--grid", "5,10"])
    assert rc == 0
    assert (tmp_path / "sweep_lagrange.csv").exists()


def test_cli_run_lagrange_with_weights_out_of_range_exits_1(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--out", str(tmp_path), "run", "--method", "lagrange", "--n-samples", "3000"]) == 1
    assert not caught  # the NumericError alone, with no float warning before it
    err = capsys.readouterr().err
    assert err.startswith("error: product-form barycentric weights of 3000 nodes leave the float range")


def test_cli_sweep_records_weights_out_of_range_and_keeps_the_other_rows(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "sweep", "--method", "lagrange", "--grid", "11,3000"]) == 0
    with open(tmp_path / "sweep_lagrange.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["param"] for r in rows] == ["11", "3000"]
    assert float(rows[0]["max_abs"]) > 0 and rows[0]["error"] == ""
    assert rows[1]["max_abs"] == ""
    assert rows[1]["error"].startswith("NumericError: product-form barycentric weights of 3000 nodes")


def test_cli_list_methods(capsys):
    rc = main(["list-methods"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lagrange" in out and "figure 10" in out


class _ColumnText(list):
    """A list that can be watched by a weak reference."""


def test_cli_figure_all_formats_each_distinct_column_once_per_command(tmp_path, monkeypatch, capsys):
    real = bench._format_column
    alive = []

    def spy(col):
        text = _ColumnText(real(col))
        alive.append(weakref.ref(text))
        return text

    monkeypatch.setattr(bench, "_format_column", spy)
    counts = []
    for run in ("a", "b"):
        assert main(["--out", str(tmp_path / run), "figure", "all"]) == 0
        counts.append(len(alive))
        gc.collect()
        assert all(ref() is None for ref in alive)  # nothing holds column text once the command returns
    capsys.readouterr()
    assert counts[1] == 2 * counts[0]  # the second command formats as much as the first
    columns = set()
    for path in sorted((tmp_path / "a").glob("figure*[0-9].csv")):
        curves = bench.read_curve_csv(path)
        columns.update(c.ys.tobytes() for c in curves)
        columns.add(curves[0].xs.tobytes())
    assert counts[0] == len(columns)  # one format per distinct column of all the figures


def test_cli_run_of_a_blown_up_fit_exits_1_and_writes_nothing(tmp_path, capsys):
    # equispaced Lagrange at n = 201 overflows to inf and nan; emit_svg's rule
    # for non-finite points is checked on its own in test_bench.py
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--out", str(tmp_path), "--svg", "run", "--method", "lagrange", "--n-samples", "201"]) == 1
    assert not caught  # the NumericError alone, with no float warning before it
    assert capsys.readouterr().err == (
        "error: barycentric interpolant of 201 nodes leaves the float range at x = -0.996: 20 of the 1001 "
        "point(s) of that evaluation block are not finite, and evaluation stops there\n"
    )
    assert not any(tmp_path.iterdir())


def test_cli_sweep_records_a_blown_up_fit_and_keeps_the_other_rows(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "sweep", "--method", "lagrange", "--grid", "11,201"]) == 0
    with open(tmp_path / "sweep_lagrange.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["param"] for r in rows] == ["11", "201"]
    assert float(rows[0]["max_abs"]) > 0 and rows[0]["error"] == ""
    assert rows[1]["max_abs"] == rows[1]["rms"] == rows[1]["endpoint_max_abs"] == ""
    assert rows[1]["error"].startswith("NumericError: barycentric interpolant of 201 nodes leaves the float range")
    assert "lagrange n=201: FAILED (NumericError: barycentric" in capsys.readouterr().out
