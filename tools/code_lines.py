#!/usr/bin/env python3
"""Count the code lines of each Python module under a directory.

A code line is a source line that holds part of a token other than a
comment, and is not part of a docstring (the first statement of a module,
class or function, when it is a string literal). Blank lines, comment
lines and docstrings do not count; a statement spanning three lines counts
three. The tool prints one line per module, its count and its path relative
to the directory, then the total.

Usage: python tools/code_lines.py DIRECTORY
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def count_tree(directory: Path) -> dict[str, int]:
    """Code lines of every ``*.py`` file under ``directory``, by relative path."""
    return {
        path.relative_to(directory).as_posix(): code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(directory.rglob("*.py"))
    }


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[-1])
    counts = count_tree(Path(sys.argv[1]))
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")


if __name__ == "__main__":
    main()
