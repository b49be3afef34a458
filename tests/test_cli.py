import contextlib
import hashlib
import os
import re
import runpy
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insets import cli
from insets.words import enumerate_words

_Digest = runpy.run_path(str(Path(__file__).parents[1] / "tools" / "golden.py"))["_Digest"]


def test_series_at_parameter_budget_runs(capsys):
    assert cli.main(["series", "k", "20000", "20000", "5", "--check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines[0].split()) == 6
    assert lines[-1] == "PASS"


def test_series_at_order_budget_runs(capsys):
    assert cli.main(["series", "k", "300", "300", "512", "--check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert len(lines[0].split()) == 513
    assert lines[-1] == "PASS"


def test_verify_at_grid_budget_runs(capsys):
    assert cli.main(["verify", "first_row", "32", "32"]) == 0
    assert capsys.readouterr().out == "PASS first_row\n"


def test_table_at_size_budget_runs(capsys):
    assert cli.main(["table", "700", "0"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert len(line.split()) == 701 and line.split()[0] == str(2**700)


# For each size limit of _GRAMMAR, calls whose measure for that limit is v
# and whose other measures stay small.  No cell with m + n <= 20 has 10,000
# or 10,001 words, so the word count takes the nearest cells on each side,
# (1, 9, 3) with 9,984 words and (6, 7, 8) with 10,128, and the two the README
# names, (16, 4, 16) with 9,708 and (0, 10, 3) with 15,360
_AT_LIMIT = {
    ("table", "n + m_max"): lambda v: (f"{v} 0", f"0 {v}", f"{v - 300} 300"),
    ("words", "word length"): lambda v: (
        f"{v} 0 0 --limit 1", f"0 {v} 3 --limit 2", f"{v - 10} 10 {v}"
    ),
    ("words", "word count without --limit"): lambda v: (
        ("6 7 8", "0 10 3") if v > cli.WORD_LISTING_GUARD else ("1 9 3", "16 4 16")
    ),
    ("verify", "grid bound"): lambda v: (f"all {v} 0", f"pascal 0 {v}", f"all {v} {v}"),
    ("series", "order"): lambda v: (f"k 0 0 {v}", f"m 3 2 {v} --check"),
    ("series", "a or b"): lambda v: (f"k {v} 0 5", f"n 0 {v} 5", f"m {v} {v} 5"),
}


def _limits():
    return [
        (command, label, limit)
        for command, row in cli._GRAMMAR.items()
        for label, _, limit in row[4:]
    ]


def test_limit_cases_cover_exactly_the_grammar_limits():
    assert sorted(_AT_LIMIT) == sorted((command, label) for command, label, _ in _limits())


@pytest.mark.parametrize("command,label,limit", _limits())
def test_grammar_limit_refuses_past_it_and_reaches_the_handler_at_it(
    monkeypatch, capsys, command, label, limit
):
    # the handler is stubbed, so a call at the limit costs nothing; "--format=csv"
    # takes the argparse path, the others the quick parse
    row = cli._GRAMMAR[command]
    reached = []
    stub = (*row[:3], lambda args: reached.append(args.command) or 0, *row[4:])
    monkeypatch.setitem(cli._GRAMMAR, command, stub)
    for value, status in ((limit + 1, 2), (limit, 0)):
        for call in _AT_LIMIT[command, label](value):
            for spelling in ([], ["--format=csv"]):
                argv = [command, *call.split(), *spelling]
                reached.clear()
                assert cli.main(argv) == status, argv
                out, err = capsys.readouterr()
                assert out == ""
                if status:
                    assert err == f"error: {label} exceeds {limit}\n", argv
                    assert reached == [], argv
                else:
                    assert (err, reached) == ("", [command]), argv


def test_every_limit_message_is_in_the_readme():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    for _, label, limit in _limits():
        assert f"`error: {label} exceeds {limit}`" in readme


def test_limits_are_named_in_row_order_before_the_handler_runs(capsys):
    # a limit is checked before the handler, so an unknown identity past the
    # grid bound is refused for the bound
    for argv, line in (
        (["verify", "nope", "40", "40"], "error: grid bound exceeds 32\n"),
        (["series", "k", "20001", "0", "513"], "error: order exceeds 512\n"),
    ):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", line)


def test_crosscheck_missing_fixture_dir(tmp_path, capsys):
    void = tmp_path / "void"
    assert cli.main(["crosscheck", "delannoy", "--fixtures", str(void)]) == 3
    assert capsys.readouterr() == ("", f"error: no fixture for A008288 in {void}\n")


def test_crosscheck_empty_fixtures_means_the_packaged_fixtures(capsys):
    assert cli.main(["crosscheck", "delannoy", "--fixtures", ""]) == 0
    assert capsys.readouterr() == ("validated offset=0\n", "")


def test_crosscheck_fixture_not_utf8_is_a_fixture_error(tmp_path, capsys):
    (tmp_path / "b000045.txt").write_bytes(b"0 1\n1 \xff\xfe\n")
    assert cli.main(["crosscheck", "fibonacci", "--fixtures", str(tmp_path)]) == 3
    assert capsys.readouterr() == ("", "error: A000045: not UTF-8 at byte 6\n")


def test_crosscheck_fixture_with_non_decimal_numbers_is_a_fixture_error(tmp_path, capsys):
    packaged = Path(cli.__file__).parent / "fixtures" / "b000045.txt"
    lines = packaged.read_text(encoding="utf-8").splitlines()
    lines[6:9] = ["5 \u0665", "6 +8", "7 1_3"]  # indices 5-7, after the comment
    (tmp_path / "b000045.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.main(["crosscheck", "fibonacci", "--fixtures", str(tmp_path)]) == 3
    assert capsys.readouterr() == ("", "error: A000045: malformed line 7: '5 \u0665'\n")


def test_negative_argument_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "1", "-3", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_closed_stdout_ends_the_call_quietly(fmt):
    # a reader that stops after 10 bytes of a table of several MB; json then
    # fails in the middle of its document, not at one final write
    argv = [sys.executable, "-m", "insets", "table", "300", "300", "--format", fmt]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert len(child.stdout.read(10)) == 10
        child.stdout.close()
        stderr = child.stderr.read()
        assert child.wait(timeout=60) == 0
    assert stderr == b""


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_closed_before_any_output(unbuffered):
    # buffered, the one line is still in the buffer when the handler returns
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "insets", "compute", "1", "3", "2"],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (0, b"")


def test_words_over_cap_refused_before_counting(capsys):
    # inset(10**5, 10**5, 10**5) alone takes seconds; the length row comes
    # before the count row, so the count is never computed
    for limit in ([], ["--limit", "1"]):
        start = time.perf_counter()
        assert cli.main(["words", "100000", "100000", "100000", *limit]) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr() == ("", "error: word length exceeds 20\n")


def test_words_limit_runs_in_bounded_memory(capsys):
    tracemalloc.start()
    try:
        status = cli.main(["words", "10", "8", "8", "--limit", "3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert peak < 4_000_000
    # the three lex-smallest: ten zero-free places, then eight with eight 2s
    first = ["111111111122222222", "111111111202222222", "111111111212222222"]
    expected = "".join(w + "\n" for w in first) + "count 1256465\n"
    assert capsys.readouterr().out == expected


def test_words_all_twos_found_without_walking_other_heads(capsys):
    start = time.perf_counter()
    assert cli.main(["words", "0", "20", "20", "--limit", "1"]) == 0
    assert time.perf_counter() - start < 0.1
    assert capsys.readouterr().out == "2" * 20 + "\ncount 1\n"


@pytest.mark.parametrize("fmt,header", [("plain", ""), ("csv", "word\n")])
def test_forced_listing_streams(fmt, header):
    # a listing past the guard, asked for by a --limit of at least its count
    words = enumerate_words(0, 12, 6)
    body = "".join(w + "\n" for w in words)
    expected = header + body + ("count 59136\n" if fmt == "plain" else "")
    listing_size = sum(sys.getsizeof(w) for w in words) + sys.getsizeof(words)
    del words
    sink = _Digest()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            status = cli.main(["words", "0", "12", "6", "--limit", "59136", "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert sink.sha.hexdigest() == hashlib.sha256(expected.encode()).hexdigest()
    assert peak < listing_size / 3


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_seq_listing_streams(tmp_path, peak_rss):
    # 6000 terms of up to 4600 digits, 13.8 MB of text.  No format holds that
    # text: plain and csv write each term as they convert it, and json writes
    # its document as it encodes it, holding only the list of decimal strings
    # that ``default=list`` makes of the listing (about 14, 14 and 28.5 MB
    # against 14 MB for `compute 0 0 0`; json took 54 MB when it built its
    # text first, and a plain writer that joins the listing takes over 40 MB).
    # The bytes of each format are pinned by tests/golden/outputs.tsv
    args = ("-m", "insets", "seq", "central_delannoy", "6000", "--format")
    _, baseline = peak_rss("-m", "insets", "compute", "0", "0", "0")
    peaks = {}
    for fmt in ("plain", "csv", "json"):
        status, peaks[fmt] = peak_rss(*args, fmt, stdout=tmp_path / fmt)
        assert status == 0, fmt
    text_kb = (tmp_path / "plain").stat().st_size / 1024  # ru_maxrss is in KiB
    assert peaks["json"] <= baseline + 1.5 * text_kb, (baseline, text_kb, peaks)
    assert peaks["plain"] <= baseline + text_kb / 4, (baseline, text_kb, peaks)
    assert peaks["csv"] <= baseline + text_kb / 4, (baseline, text_kb, peaks)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_table_keeps_one_copy_of_its_values(tmp_path, peak_rss):
    # 100,701 values of up to 700 bits, 32 MB of text.  Every format keeps
    # only the int rows and converts each row as it writes it: about 37 MB in
    # each, against 14 MB for `compute 0 0 0` (json took 101 MB when it
    # built its text first, and keeping every value as a string too took
    # 81 MB in plain and csv).  The bytes of each format are pinned by
    # tests/golden/outputs.tsv
    args = ("-m", "insets", "table", "200", "500", "--format")
    _, baseline = peak_rss("-m", "insets", "compute", "0", "0", "0")
    peaks = {}
    for fmt in ("plain", "csv", "json"):
        status, peaks[fmt] = peak_rss(*args, fmt, stdout=tmp_path / fmt)
        assert status == 0, fmt
    text_kb = (tmp_path / "plain").stat().st_size / 1024  # ru_maxrss is in KiB
    assert peaks["plain"] <= baseline + text_kb, (baseline, text_kb, peaks)
    assert peaks["csv"] <= baseline + text_kb, (baseline, text_kb, peaks)
    assert peaks["json"] <= peaks["plain"] + 5 * 1024, (baseline, text_kb, peaks)


_FOOTPRINT = """
import contextlib, io, sys
from insets import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code)
print("\\n".join(sorted(sys.modules)))
"""

_NOT_FOR_VALUES = {
    "urllib.request",
    "http.client",
    "dataclasses",
    "insets.identities",
    "insets.registry",
    "insets.oeis",
}


def test_import_insets_loads_no_submodule():
    result = subprocess.run(
        [sys.executable, "-c", "import insets, sys; print(*sorted(sys.modules))"],
        capture_output=True, text=True, check=True,
    )
    loaded = result.stdout.split()
    assert "insets" in loaded
    assert [name for name in loaded if name.startswith("insets.")] == []


# what no call needs: dataclasses and inspect (with the ast, dis and tokenize
# behind them, most of the library's import time once), and the writer of a
# format the call does not print
_HEAVY = {"dataclasses", "inspect", "json", "csv"}

# what a well-formed call does not need: argparse, the gettext it imports and
# the locale its first message lookup imports
_ARGPARSE = {"argparse", "gettext", "locale"}


# one well-formed call of each subcommand, the module it runs, and modules it
# must not load
_CALLS = [
    (("compute", "1", "3", "2"), "core", _NOT_FOR_VALUES),
    (("table", "1", "2"), "core", _NOT_FOR_VALUES),
    (("words", "0", "3", "2"), "words", _NOT_FOR_VALUES),
    (("series", "m", "3", "2", "10", "--check"), "series", _NOT_FOR_VALUES),
    (("poly", "1", "4"), "chebyshev", _NOT_FOR_VALUES),
    (("verify", "all", "2", "2"), "identities",
     {"insets.registry", "insets.oeis", "urllib.request"}),
    (("seq", "fibonacci", "4"), "registry",
     {"urllib.request", "insets.identities", "insets.series", "insets.oeis"}),
    (("crosscheck", "delannoy"), "registry",
     {"urllib.request", "insets.identities", "insets.series"}),
]


def _without_site(*args):
    """``python -S *args`` with this insets on the path: no site .pth file
    preloads anything, so every module the program imports shows."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-S", *args], capture_output=True, text=True, check=True, env=env
    ).stdout


@pytest.mark.parametrize("argv,own,absent", _CALLS)
def test_subcommand_imports_only_its_modules(argv, own, absent):
    # diagnose a failure with: python -S -X importtime -m insets <argv>
    # No call loads typing, no call but crosscheck loads the fixture reader or
    # the pathlib it imports, and no plain call loads re (the json and csv
    # writers import it themselves).
    reads_fixtures = argv[0] == "crosscheck"
    for fmt in ("plain", "json", "csv"):
        code, *loaded = _without_site("-c", _FOOTPRINT, *argv, "--format", fmt).splitlines()
        assert code == "0"
        assert {"insets.cli", f"insets.{own}"} <= set(loaded), fmt
        assert sorted(absent.intersection(loaded)) == [], fmt
        assert sorted((_HEAVY - {fmt}).intersection(loaded)) == [], fmt
        assert sorted(_ARGPARSE.intersection(loaded)) == [], fmt
        assert "typing" not in loaded, fmt
        if not reads_fixtures:
            assert {"insets.oeis", "pathlib"}.isdisjoint(loaded), fmt
            assert fmt != "plain" or "re" not in loaded


@pytest.mark.parametrize(
    "argv,code",
    [
        (("--help",), "0"),
        (("words", "--help"), "0"),
        (("compute", "x", "1", "1"), "2"),
        (("seq", "fibonacci"), "2"),
        (("compute", "1", "3", "2", "--format=json"), "0"),
    ],
)
def test_help_usage_errors_and_other_spellings_load_argparse(argv, code):
    result = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, *argv],
        capture_output=True, text=True, check=True,
    )
    status, *loaded = result.stdout.splitlines()
    assert status == code
    assert "argparse" in loaded


_PARSER = cli._build_parser()


def _valid(convert):
    """Tokens a converter of the grammar table accepts."""
    if isinstance(convert, tuple):
        return st.sampled_from(convert)
    if convert is str:
        return st.sampled_from(["delannoy", "all", "pascal", "a b", ""])
    return st.integers(0, 40).map(str)


# tokens that are valid somewhere, invalid elsewhere, or never canonical
_NOISE = st.sampled_from([
    "0", "-1", "x", "", "-", "--", "-h", "--help", "--format", "--format=json",
    "--for", "--form", "--limit", "--lim=2", "--force", "--check", "--fixtures",
    "json", "m", "q", "compute", "1_0", " 7", "+3", "-x y", "1" * 5000,
])


@st.composite
def _argvs(draw):
    """A call drawn from the grammar table: the positionals in order, the
    options among them at random places, then up to two tokens replaced,
    inserted or dropped."""
    command = draw(st.sampled_from(list(cli._GRAMMAR)))
    _, positionals, options, *_ = cli._GRAMMAR[command]
    groups = [[draw(_valid(convert))] for _, convert, _ in positionals]
    for flag, convert, _, _ in (cli._FORMAT, *options):
        if draw(st.booleans()):
            group = [flag] if convert is None else [flag, draw(_valid(convert))]
            groups.insert(draw(st.integers(0, len(groups))), group)
    argv = [command, *(token for group in groups for token in group)]
    edits = st.tuples(st.sampled_from("rid"), st.integers(0, len(argv)), _NOISE)
    for edit, at, token in draw(st.lists(edits, max_size=2)):
        if edit == "i":
            argv.insert(at, token)
        elif argv and edit == "r":
            argv[at % len(argv)] = token
        elif argv:
            del argv[at % len(argv)]
    return argv


@settings(max_examples=500, deadline=None)
@given(_argvs())
def test_quick_parse_agrees_with_argparse(argv):
    quick = cli._quick_parse(argv)
    if quick is not None:
        assert vars(quick) == vars(_PARSER.parse_args(argv))


def test_main_without_argv_parses_sys_argv_without_argparse(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["insets", "compute", "1", "3", "2"])
    monkeypatch.setattr(cli, "_build_parser", None)
    assert cli.main() == 0
    assert capsys.readouterr().out == "18\n"


@pytest.mark.parametrize("seed,tiny", [(1, False), (2, False), (3, False), (1, True)])
def test_benchmark_cli_calls_take_the_fast_path(seed, tiny):
    workloads = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    calls = runpy.run_path(str(workloads))["make_inputs"]("cli-session", seed, tiny)
    assert {argv[0] for _, argv in calls} == set(cli._GRAMMAR)
    for _, argv in calls:
        quick = cli._quick_parse(argv)
        assert quick is not None, argv
        assert vars(quick) == vars(_PARSER.parse_args(argv))


def test_importing_every_submodule_loads_no_dataclasses_or_inspect():
    package = Path(cli.__file__).parent
    names = sorted(p.stem for p in package.glob("*.py") if not p.stem.startswith("__"))
    script = "import importlib, sys\n" + "".join(
        f"importlib.import_module('insets.{name}')\n" for name in names
    ) + "print(*sys.modules)"
    loaded = set(_without_site("-c", script).split())
    assert {f"insets.{name}" for name in names} <= loaded
    assert len(names) >= 8
    assert sorted({"dataclasses", "inspect"}.intersection(loaded)) == []


_README_EXAMPLE = re.compile(r"^insets (.+?)\s+# -> (.+)$")
_README_EXAMPLES = [
    found.groups()
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    if (found := _README_EXAMPLE.match(line))
]


def test_readme_has_cli_examples():
    assert len(_README_EXAMPLES) >= 4


@pytest.mark.parametrize("command,expected", _README_EXAMPLES)
def test_readme_cli_example(capsys, command, expected):
    assert cli.main(command.split()) == 0
    assert capsys.readouterr().out == expected + "\n"
