"""tools/code_lines.py: what counts as a code line, and its per-module and
total report."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

MODULE = '''"""A module docstring
over two lines."""

import math  # a trailing comment counts as its line


# a comment line
def area(r):
    """A function docstring."""
    text = """a string that is
not a docstring"""
    return math.pi * max(
        r, 0,
    ), text


class Shape:
    "A class docstring."
'''


def test_counts_code_and_skips_docstrings_comments_and_blanks(tmp_path):
    # import, def, the string's two lines, the call's three lines, and class
    assert code_lines.code_lines(MODULE) == 8
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "shapes.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    assert code_lines.count_tree(tmp_path) == {"empty.py": 0, "pkg/shapes.py": 8}


def test_report_total_is_the_sum_of_its_modules(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["code_lines.py", str(ROOT / "src" / "insets")])
    code_lines.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    counts = {name: int(count) for count, name in rows[:-1]}
    assert rows[-1][1] == "total"
    assert int(rows[-1][0]) == sum(counts.values())
    assert {"core.py", "series.py", "cli.py"} <= set(counts)
    assert all(count > 0 for count in counts.values())
