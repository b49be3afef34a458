#!/usr/bin/env python3
"""Record the CLI's byte spec, tests/golden/outputs.tsv.

Each line of the file is one call of ``insets`` and five tab-separated
fields: its arguments joined by spaces, its exit status, the length of its
stdout in bytes, and the sha256 of its stdout and of its stderr.  Every call
is made in process through ``insets.cli.main``, once in each format: plain
(no ``--format``), json and csv.  ``tests/test_golden.py`` and the CI replay
every line, so an intended output change is made by rerunning this script
and committing the diff of the file.

The calls: the ``cli-session`` inputs of ``perfbench/workloads.py`` for
seeds 1-3, the edge cases below, every call the CI checked by hand before
the corpus existed, and for each size limit of ``cli._GRAMMAR`` the
cheapest call at it and one past it.  Left out: help text and argparse
usage errors, whose bytes differ across Python versions (pinned by
``tests/cli_help/``), FAIL outputs that need a planted fault (pinned by
``tests/test_cli_output.py``), and calls whose stderr names a path.

Usage: python tools/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "outputs.tsv"
_FORMATS = ([], ["--format", "json"], ["--format", "csv"])

# empty listings, the largest outputs, a listing past the word-count guard
_EDGES = [
    "words 0 0 0", "words 2 0 5", "verify pascal 3 3", "verify all 3 3",
    "crosscheck all", "crosscheck delannoy", "series m 3 2 10 --check", "table 0 0",
    "seq central_delannoy 6000", "table 200 500", "poly 3 3000",
    "words 0 12 6 --limit 59136", "compute 1 3 2", "words 3 3 2 --limit 4",
    # small calls of each subcommand, unknown names, more calls past each size limit
    "compute 0 0 0", "compute 2 3 9", "compute 40 40 40", "table 1 2", "table 0 701",
    "poly 1 4", "poly 0 2", "poly 0 0", "series k 0 0 5", "series n 0 0 5",
    "series n 5 2 8 --check", "series k 2 3 6 --check", "series k 0 0 600",
    "series k 20001 0 5", "series k 0 20001 5", "series k 20001 20001 5",
    "words 0 3 2", "words 2 3 4", "words 0 3 2 --limit 2", "words 0 10 3 --limit 3",
    "words 0 3 2 --limit 9223372036854775807", "verify pascal 10 10", "verify all 5 5",
    "verify bogus 2 2", "verify all 33 0", "verify all 0 33", "verify all 40 40",
    "seq odd_numbers 4", "seq odd_numbers 3", "seq bishop_moves 5", "seq delannoy 20",
    "seq nope 4", "crosscheck octahedron_surface",
]
# the calls whose output the CI checked by hand
_CI = [
    "compute 1 3 2", "seq fibonacci 4", "series k 3 3 10 --check", "crosscheck all",
    "table 400 400", "words 0 10 3", "words 11 10 3 --limit 3", "words 0 3 2 --limit 99",
]
# at and past each limit, in _GRAMMAR order; no word count is 10,000, and
# 9,984 is the largest under it
_LIMITS = [
    "table 700 0", "table 701 0",
    "words 20 0 0", "words 21 0 0",
    "words 1 9 3", "words 6 7 8",
    "verify pascal 0 32", "verify pascal 0 33",
    "series k 0 0 512", "series k 0 0 513",
    "series m 20000 0 0", "series m 20001 0 0",
]


class _Digest:
    """A text stream that keeps only the length and sha256 of its UTF-8 bytes."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.size = 0

    def write(self, text: str) -> int:
        data = text.encode()
        self.sha.update(data)
        self.size += len(data)
        return len(text)

    def writelines(self, lines) -> None:
        for line in lines:
            self.write(line)

    def flush(self) -> None:
        pass


def run(argv: list[str]) -> list[str]:
    """The five fields of the corpus line of ``argv``, from one call of ``cli.main``."""
    from insets import cli

    out, err = _Digest(), _Digest()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return [" ".join(argv), str(status), str(out.size), out.sha.hexdigest(), err.sha.hexdigest()]


def calls() -> list[list[str]]:
    """Every corpus call, each distinct argument list once in each format."""
    make_inputs = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["make_inputs"]
    session = []
    for seed in (1, 2, 3):
        for _, argv in make_inputs("cli-session", seed):
            at = argv.index("--format")
            session.append(" ".join(argv[:at] + argv[at + 2:]))
    distinct = dict.fromkeys([*session, *_EDGES, *_CI, *_LIMITS])
    return [text.split() + fmt for text in distinct for fmt in _FORMATS]


def main() -> None:
    lines = ["\t".join(run(argv)) + "\n" for argv in calls()]
    GOLDEN.write_text("".join(lines), encoding="utf-8")
    print(f"wrote {len(lines)} lines to {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    # record the checkout's package, not an installed one
    sys.path.insert(0, str(ROOT / "src"))
    main()
