import contextlib
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from insets import cli
from insets.core import trapeze_table
from insets.identities import IDENTITY_NAMES
from insets.registry import generate
from insets.words import enumerate_words


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "insets", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


@pytest.mark.parametrize(
    "args,expected",
    [
        (("compute", "1", "3", "2"), "18\n"),
        (("compute", "0", "0", "0"), "1\n"),
        (("compute", "2", "3", "9"), "0\n"),
        (("seq", "odd_numbers", "4"), "1 3 5 7\n"),
        (("seq", "fibonacci", "4"), "2 3 5 8\n"),
        (("poly", "1", "4"), "1 0 -8 0 8\n"),
        (("poly", "0", "2"), "-1 0 4\n"),
        (("poly", "0", "0"), "1\n"),
        (("series", "k", "0", "0", "5"), "1 1 1 1 1 1\n"),
        (("series", "n", "0", "0", "5"), "1 2 4 8 16 32\n"),
        (("table", "1", "2"), "2 1\n2 3 1\n2 5 4 1\n"),
        (("crosscheck", "delannoy"), "validated offset=0\n"),
    ],
)
def test_plain_outputs_are_exact(args, expected):
    result = run_cli(*args)
    assert result.returncode == 0, result.stderr
    assert result.stdout == expected


def test_words_plain():
    result = run_cli("words", "0", "3", "2")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert set(lines[:-1]) == {"022", "122", "202", "212", "220", "221"}
    assert lines[-1] == "count 6"


def test_words_empty_word():
    result = run_cli("words", "0", "0", "0")
    assert result.returncode == 0
    assert result.stdout == "\ncount 1\n"


def test_words_eight_for_2_3_4():
    result = run_cli("words", "2", "3", "4")
    lines = result.stdout.splitlines()
    assert len(lines) == 9 and lines[-1] == "count 8"


def test_words_limit():
    result = run_cli("words", "0", "3", "2", "--limit", "2")
    lines = result.stdout.splitlines()
    assert lines == ["022", "122", "count 6"]


def test_words_guard_on_large_listing():
    result = run_cli("words", "0", "10", "3")
    assert result.returncode == 2
    assert "force" in result.stderr
    limited = run_cli("words", "0", "10", "3", "--limit", "3")
    assert limited.returncode == 0
    assert limited.stdout.splitlines()[-1] == "count 15360"


def test_verify_single():
    result = run_cli("verify", "pascal", "10", "10")
    assert result.returncode == 0
    assert result.stdout == "PASS pascal\n"


def test_verify_all():
    result = run_cli("verify", "all", "8", "8")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 13
    assert all(line.startswith("PASS ") for line in lines)


def test_verify_unknown_identity_is_usage_error():
    result = run_cli("verify", "bogus", "2", "2")
    assert result.returncode == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: ") and "'bogus'" in line
    assert len(IDENTITY_NAMES) == 13
    choices = line.split("choose from ", 1)[1].split(", ")
    assert choices == [*IDENTITY_NAMES, "all"]


def test_series_check_passes():
    result = run_cli("series", "m", "3", "2", "10", "--check")
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1] == "PASS"


def test_series_order_cap():
    assert cli.MAX_SERIES_ORDER == 512
    for order in ("513", "600"):
        result = run_cli("series", "k", "0", "0", order)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: order exceeds 512\n"


@pytest.mark.parametrize("params", [("20001", "0"), ("0", "20001"), ("20001", "20001")])
def test_series_parameter_cap(params):
    assert cli.MAX_SERIES_PARAM == 20000
    result = run_cli("series", "k", *params, "5")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: a or b exceeds 20000\n"


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


@pytest.mark.parametrize("bounds", [("33", "0"), ("0", "33"), ("40", "40")])
def test_verify_grid_budget_refused(capsys, bounds):
    assert cli.MAX_VERIFY_GRID == 32
    assert cli.main(["verify", "all", *bounds]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: grid bound exceeds 32\n"


def test_verify_at_grid_budget_runs(capsys):
    assert cli.main(["verify", "first_row", "32", "32"]) == 0
    assert capsys.readouterr().out == "PASS first_row\n"


@pytest.mark.parametrize("params", [("0", "701"), ("701", "0")])
def test_table_size_cap(params):
    assert cli.MAX_TABLE_SIZE == 700
    result = run_cli("table", *params)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: n + m_max exceeds 700\n"


def test_table_at_size_budget_runs(capsys):
    assert cli.main(["table", "700", "0"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert len(line.split()) == 701 and line.split()[0] == str(2**700)


def test_compute_json():
    result = run_cli("compute", "1", "3", "2", "--format", "json")
    assert json.loads(result.stdout) == {"m": 1, "n": 3, "k": 2, "value": "18"}


def test_big_values_are_strings_in_json():
    result = run_cli("compute", "40", "40", "40", "--format", "json")
    doc = json.loads(result.stdout)
    value = int(doc["value"])
    assert isinstance(doc["value"], str)
    assert value > 2**64


def test_words_json():
    result = run_cli("words", "0", "3", "2", "--format", "json")
    assert set(json.loads(result.stdout)) == {"022", "122", "202", "212", "220", "221"}


def test_verify_json():
    result = run_cli("verify", "all", "3", "3", "--format", "json")
    docs = json.loads(result.stdout)
    assert len(docs) == 13
    assert all(doc["passed"] for doc in docs)


def test_crosscheck_json_all():
    result = run_cli("crosscheck", "all", "--format", "json")
    assert result.returncode == 0
    docs = json.loads(result.stdout)
    assert all(doc["status"] == "validated" for doc in docs)
    assert {"key", "fixture", "status", "offset", "agreed"} <= set(docs[0])


def test_csv_has_header():
    result = run_cli("compute", "1", "3", "2", "--format", "csv")
    assert result.stdout == "m,n,k,value\n1,3,2,18\n"
    result = run_cli("seq", "odd_numbers", "3", "--format", "csv")
    assert result.stdout == "index,value\n0,1\n1,3\n2,5\n"


def test_crosscheck_all_plain():
    result = run_cli("crosscheck", "all")
    assert result.returncode == 0
    for line in result.stdout.splitlines():
        assert " validated offset=" in line


def test_crosscheck_missing_fixture_dir(tmp_path):
    result = run_cli("crosscheck", "delannoy", "--fixtures", str(tmp_path / "void"))
    assert result.returncode == 3


def test_crosscheck_mismatching_fixture(tmp_path):
    bad = "\n".join(f"{i} {2 * i + 2}" for i in range(30))  # off by one everywhere
    (tmp_path / "b005408.txt").write_text(bad, encoding="utf-8")
    result = run_cli("crosscheck", "odd_numbers", "--fixtures", str(tmp_path))
    assert result.returncode == 1
    assert "provisional" in result.stdout


def test_unknown_seq_key():
    result = run_cli("seq", "nope", "4")
    assert result.returncode == 2


def test_negative_argument_is_usage_error():
    result = run_cli("compute", "1", "-3", "2")
    assert result.returncode == 2


def test_determinism():
    first = run_cli("verify", "all", "5", "5")
    second = run_cli("verify", "all", "5", "5")
    assert first.stdout == second.stdout
    assert run_cli("seq", "delannoy", "20").stdout == run_cli("seq", "delannoy", "20").stdout


def test_words_cap_refused_before_any_output(capsys):
    assert cli.main(["words", "11", "10", "3", "--limit", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds enumeration cap" in captured.err


def test_words_over_cap_refused_before_counting(capsys):
    # inset(10**5, 10**5, 10**5) alone takes seconds; the cap must refuse first
    start = time.perf_counter()
    assert cli.main(["words", "100000", "100000", "100000", "--limit", "1"]) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds enumeration cap" in captured.err


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


class _HashingSink:
    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt,header", [("plain", ""), ("csv", "word\n")])
def test_forced_listing_streams(fmt, header):
    words = enumerate_words(0, 12, 6)
    body = "".join(w + "\n" for w in words)
    expected = header + body + ("count 59136\n" if fmt == "plain" else "")
    listing_size = sum(sys.getsizeof(w) for w in words) + sys.getsizeof(words)
    del words
    sink = _HashingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            status = cli.main(["words", "0", "12", "6", "--force", "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert sink.digest.hexdigest() == hashlib.sha256(expected.encode()).hexdigest()
    assert peak < listing_size / 3


_PEAK_RSS = """
import os, subprocess, sys
with open(sys.argv[1], "wb") as out:
    child = subprocess.Popen([sys.executable, "-m", "insets", *sys.argv[2:]], stdout=out)
    _, status, usage = os.wait4(child.pid, 0)
print(status, usage.ru_maxrss)
"""


def _peak_rss(out_path, *args):
    """Wait status and peak RSS of ``python -m insets *args``, stdout to a file.

    The child is started from a fresh, small interpreter: Linux counts the
    peak RSS of the process that forks it into the child's own, so a child
    of the test process would report the test process's peak.
    """
    script = [sys.executable, "-c", _PEAK_RSS, str(out_path), *args]
    result = subprocess.run(script, capture_output=True, text=True, check=True)
    status, peak = map(int, result.stdout.split())
    return status, peak


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_seq_listing_streams(tmp_path):
    # 6000 terms of up to 4600 digits, 13.8 MB of text.  json keeps its
    # document, every decimal string and then the whole text, as plain and
    # csv did before they streamed; they must now peak at half of it at most
    args = ("seq", "central_delannoy", "6000", "--format")
    peaks = {}
    for fmt in ("plain", "csv", "json"):
        status, peaks[fmt] = _peak_rss(tmp_path / fmt, *args, fmt)
        assert status == 0, fmt
    piece = generate("central_delannoy", 6000)
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if saved:  # the terms pass Python's int-to-str digit cap
        sys.set_int_max_str_digits(0)
    try:
        digits = [str(v) for v in piece.values]
    finally:
        if saved:
            sys.set_int_max_str_digits(saved)
    assert (tmp_path / "plain").read_text() == " ".join(digits) + "\n"
    rows = "".join(f"{i},{d}\n" for i, d in enumerate(digits, piece.start))
    assert (tmp_path / "csv").read_text() == "index,value\n" + rows
    assert json.loads((tmp_path / "json").read_text())["values"] == digits
    assert peaks["plain"] <= peaks["json"] / 2, peaks
    assert peaks["csv"] <= peaks["json"] / 2, peaks


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_table_keeps_one_copy_of_its_values(tmp_path):
    # 100,701 values of up to 700 bits, 32 MB of text.  json keeps its
    # document and then the whole text; plain and csv convert each row as
    # they write it, so only the int rows stay (37 MB against 101 MB, where
    # keeping every value as a string too took 81 MB against 131 MB)
    args = ("table", "200", "500", "--format")
    peaks = {}
    for fmt in ("plain", "csv", "json"):
        status, peaks[fmt] = _peak_rss(tmp_path / fmt, *args, fmt)
        assert status == 0, fmt
    rows = [[str(v) for v in row] for row in trapeze_table(200, 500)]
    assert (tmp_path / "plain").read_text() == "".join(" ".join(row) + "\n" for row in rows)
    cells = "".join(f"{m},{k},{v}\n" for m, row in enumerate(rows) for k, v in enumerate(row))
    assert (tmp_path / "csv").read_text() == "m,k,value\n" + cells
    assert json.loads((tmp_path / "json").read_text()) == {"n": 200, "m_max": 500, "rows": rows}
    assert peaks["plain"] <= peaks["json"] / 2, peaks
    assert peaks["csv"] <= peaks["json"] / 2, peaks


_FOOTPRINT = """
import contextlib, io, sys
from insets import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
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


@pytest.fixture(scope="module")
def preloaded():
    """Modules a bare interpreter already holds, those a site .pth file
    imports included, which no check here counts against insets."""
    result = subprocess.run(
        [sys.executable, "-c", "import sys; print(*sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    return set(result.stdout.split())


@pytest.mark.parametrize(
    "argv,own,absent",
    [
        (("compute", "1", "3", "2"), "core", _NOT_FOR_VALUES),
        (("table", "1", "2"), "core", _NOT_FOR_VALUES),
        (("words", "0", "3", "2"), "words", _NOT_FOR_VALUES),
        (("series", "m", "3", "2", "10", "--check"), "series", _NOT_FOR_VALUES),
        (("poly", "1", "4"), "chebyshev", _NOT_FOR_VALUES),
        (("verify", "all", "2", "2"), "identities",
         {"insets.registry", "insets.oeis", "urllib.request"}),
        (("seq", "fibonacci", "4"), "registry",
         {"urllib.request", "insets.identities", "insets.series"}),
        (("crosscheck", "delannoy"), "registry",
         {"urllib.request", "insets.identities", "insets.series"}),
    ],
)
def test_subcommand_imports_only_its_modules(preloaded, argv, own, absent):
    # diagnose a failure with: python -X importtime -m insets <argv>
    for fmt in ("plain", "json", "csv"):
        result = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT, *argv, "--format", fmt],
            capture_output=True, text=True, check=True,
        )
        code, *loaded = result.stdout.splitlines()
        assert code == "0"
        assert f"insets.{own}" in loaded
        assert sorted(absent.intersection(loaded)) == [], fmt
        assert sorted((_HEAVY - {fmt}).intersection(loaded) - preloaded) == [], fmt


def test_importing_every_submodule_loads_no_dataclasses_or_inspect(preloaded):
    package = Path(cli.__file__).parent
    names = sorted(p.stem for p in package.glob("*.py") if not p.stem.startswith("__"))
    script = "import importlib, sys\n" + "".join(
        f"importlib.import_module('insets.{name}')\n" for name in names
    ) + "print(*sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    loaded = set(result.stdout.split())
    assert {f"insets.{name}" for name in names} <= loaded
    assert len(names) >= 8
    assert sorted({"dataclasses", "inspect"}.intersection(loaded) - preloaded) == []


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
