import importlib.util
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
