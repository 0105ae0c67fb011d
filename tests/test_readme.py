"""The README's python blocks run as written and print what their comments claim."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def _claims(code):
    """(value, half a unit in its last digit) of each `print(...)  # ~value` line."""
    out = []
    for text in re.findall(r"^print\(.*#\s*~(\S+)$", code, re.M):
        decimals = len(text.partition(".")[2])
        out.append((float(text), 0.5 * 10.0**-decimals))
    return out


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    code = BLOCKS[index]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(code, f"README.md python block {index}", "exec"), {"__name__": "readme"})
    printed = [float(line) for line in stdout.getvalue().splitlines()]
    claims = _claims(code)
    assert len(printed) == len(claims)
    for got, (want, half_unit) in zip(printed, claims):
        assert abs(got - want) <= half_unit
