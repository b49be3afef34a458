"""The CLI's byte spec: every call of tests/golden/outputs.tsv, replayed.

An intended output change is recorded by running ``python tools/golden.py``
and committing the diff of the file.
"""

import hashlib
import runpy
from pathlib import Path

from insets import cli

_GOLDEN = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "golden.py"))
_LINES = [line.split("\t") for line in _GOLDEN["GOLDEN"].read_text(encoding="utf-8").splitlines()]


def test_every_corpus_call_replays_byte_for_byte():
    # fields: argv, exit status, stdout length, sha256 of stdout and of stderr
    for fields in _LINES:
        assert _GOLDEN["run"](fields[0].split()) == fields, f"insets {fields[0]}"


def test_corpus_lists_the_recorders_calls_in_order():
    # a call added to tools/golden.py without a rerun of it fails here
    assert [fields[0] for fields in _LINES] == [" ".join(argv) for argv in _GOLDEN["calls"]()]


def test_corpus_covers_every_subcommand_format_and_limit():
    calls = [(cli._quick_parse(fields[0].split()), fields) for fields in _LINES]
    # only the quick parse's calls: argparse's help and usage bytes vary with
    # the Python version
    assert [fields[0] for args, fields in calls if args is None] == []
    formats = cli._FORMAT[1]
    assert {(args.command, args.format) for args, _ in calls} == {
        (command, fmt) for command in cli._GRAMMAR for fmt in formats
    }
    for command, (_, _, _, _, *limits) in cli._GRAMMAR.items():
        for label, measure, limit in limits:
            measured = [
                (measure(args), fields[1], fields[4])
                for args, fields in calls
                if args.command == command
            ]
            # at the limit, up to 1 %: no word count is 10,000
            assert any(
                limit - limit // 100 <= size <= limit and status == "0"
                for size, status, _ in measured
            ), (command, label)
            refusal = hashlib.sha256(f"error: {label} exceeds {limit}\n".encode()).hexdigest()
            assert any(
                size > limit and status == "2" and err == refusal
                for size, status, err in measured
            ), (command, label)
