"""Count the lines of a source directory's Python modules by kind.

Usage: python tools/src_lines.py [DIR]   (default: src/mvcert)

Prints one JSON object, {lines, docstring, comment, blank, code}, summed
over DIR/*.py.  Each line falls in exactly one part, decided in this
order: a line inside the span of a module, class or function docstring
(found through ast) is docstring; else a line with nothing but white
space is blank; else a line whose first non-blank character is # is
comment; every other line is code.  Lines are judged by their text alone,
so a line inside a string literal that is blank or starts with # counts as
blank or comment.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

_DEFINITIONS = (ast.Module, ast.ClassDef, ast.FunctionDef,
                ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """1-based numbers of the lines that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, _DEFINITIONS) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_source(text: str) -> dict[str, int]:
    """The five counts of one module's text."""
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(("lines", "docstring", "comment", "blank",
                            "code"), 0)
    for number, line in enumerate(text.splitlines(), 1):
        counts["lines"] += 1
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def count_directory(directory) -> dict[str, int]:
    """The five counts summed over directory/*.py."""
    total = dict.fromkeys(("lines", "docstring", "comment", "blank",
                           "code"), 0)
    for path in sorted(Path(directory).glob("*.py")):
        for part, value in count_source(path.read_text()).items():
            total[part] += value
    return total


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    print(json.dumps(count_directory(args[0] if args else "src/mvcert")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
