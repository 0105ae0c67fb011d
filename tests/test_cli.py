import csv

import pytest

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


def test_cli_run_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# demo config\nmethod = tikhonov\ndegree = 12\nlam = 0.01\n")
    rc = main(["--out", str(tmp_path), "run", "--config", str(cfg)])
    assert rc == 0
    assert (tmp_path / "tikhonov.csv").exists()


def test_cli_bad_numeric_input_exits_2(tmp_path, capsys):
    runs = [
        (["--grid-size", "1", "figure", "1"], "--grid-size"),
        (["--grid-size", "1", "run", "--method", "lagrange"], "--grid-size"),
    ]
    runs += [
        (["figure", "3", "--n-samples", "31"], "fixed sample counts"),
        (["figure", "12", "--n-samples", "0"], "--n-samples"),
        (["figure", "all", "--n-samples", "1"], "--n-samples"),
        (["sweep", "--method", "chebyshev", "--grid", "1,0,-2"], "--grid"),
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


def test_cli_list_methods(capsys):
    rc = main(["list-methods"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lagrange" in out and "figure 10" in out
