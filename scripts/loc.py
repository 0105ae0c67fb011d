#!/usr/bin/env python3
"""Print the code lines and docstring lines of each ``src/runge_lab`` module.

Lines are counted with ``tokenize``. A docstring line is a line of a string
that stands alone as a statement (a module, class or function docstring). A
code line is any other line that holds a token: blank lines, comment lines and
docstring lines are not code. The last row sums every module. Net LOC of a
change is the difference of two runs, one before and one after it:

    python3 scripts/loc.py
"""

import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "runge_lab"

# Tokens that hold no code of their own.
_LAYOUT = {
    tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER
}


def count(path: Path) -> tuple[int, int]:
    """(code lines, docstring lines) of the Python source at `path`."""
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    code, docs = set(), set()
    statement_start = True  # no token of the current statement seen yet
    for tok, after in zip(tokens, tokens[1:]):  # the last token is ENDMARKER
        if tok.type in _LAYOUT:
            statement_start = statement_start or tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
            continue
        lines = range(tok.start[0], tok.end[0] + 1)
        alone = tok.type == tokenize.STRING and statement_start and after.type in (tokenize.NEWLINE, tokenize.COMMENT)
        (docs if alone else code).update(lines)
        statement_start = False
    return len(code), len(docs - code)


def main() -> int:
    rows = [(path.name, *count(path)) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'code':>6}{'docstring':>11}")
    for name, code, docs in rows:
        print(f"{name:<16}{code:>6}{docs:>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
