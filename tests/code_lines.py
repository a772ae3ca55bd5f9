"""Code lines of ``src/repro``: the lines left after docstrings, comments
and blank lines.

``wc -l`` counts everything, so a change that only rewords a docstring
moves it as much as one that deletes a function.  This script splits
every line of the package into exactly one of four kinds, found with
``ast`` and the line text, so the four add up to the ``wc -l`` total:

* *docstring* -- inside the docstring of a module, class or function,
  its blank lines included;
* *blank* -- any other line of whitespace only;
* *comment* -- a line whose first non-blank character is ``#``;
* *code* -- everything else.

Run it as::

    python tests/code_lines.py      # or: make loc

It prints one line: the code total, the number a design change is
stated in, followed by the other three.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path
from typing import Set

PACKAGE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"
KINDS = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.Module) -> Set[int]:
    """Line numbers covered by every module, class and function docstring."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_file(path: Path) -> Counter:
    """The number of lines of each kind in one source file."""
    text = path.read_text()
    docstrings = _docstring_lines(ast.parse(text))
    counts: Counter = Counter()
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docstrings:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main() -> int:
    totals: Counter = Counter()
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        totals += count_file(path)
    others = ", ".join(f"{kind} {totals[kind]}" for kind in KINDS[1:])
    print(f"{'src/ code':<12} {totals['code']:6d}  ({others})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
