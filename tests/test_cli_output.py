"""The exact CLI output that tests/golden/outputs.tsv does not hold: FAIL
outputs that need a planted fault, reports on a fixture written for the
test, values past the digit cap, argument spellings, and the help and
usage-error text."""

import json
import sys
from pathlib import Path

import pytest

from insets import cli
from insets.core import inset_row


def _planted(m, n, lo, hi):
    """The default row source with f(2, 1, 1) one too large."""
    return [v + ((m, n, k) == (2, 1, 1)) for k, v in enumerate(inset_row(m, n, lo, hi), lo)]


@pytest.mark.parametrize(
    "fmt,expected",
    [
        ("plain", "FAIL pascal at (2, 1, 1): lhs=6 rhs=5\n"),
        ("csv", "identity,result,params,lhs,rhs\npascal,FAIL,2 1 1,6,5\n"),
        ("json",
         '[{"identity": "pascal", "m_max": 3, "n_max": 3, "passed": false, '
         '"counterexample": {"params": [2, 1, 1], "lhs": "6", "rhs": "5"}}]\n'),
    ],
)
def test_verify_failure_output(monkeypatch, capsys, fmt, expected):
    monkeypatch.setattr("insets.identities.inset_row", _planted)
    assert cli.main(["verify", "pascal", "3", "3", "--format", fmt]) == 1
    assert capsys.readouterr().out == expected


# ``verify all 3 3`` with f(2, 1, 1) one too large: twelve identities fail,
# four of them with a p, and first_row never reads the cell
_VERIFY_ALL_PLANTED = [
    ("pascal", [2, 1, 1], 6, 5),
    ("vertical", [1, 2, 1], 8, 9),
    ("doubling", [2, 1, 1], 6, 5),
    ("alternating_shift", [1, 2, 1, 1], 6, 5),
    ("horizontal_full", [1, 1, 0], 6, 5),
    ("horizontal_tail", [2, 1, 1], 9, 10),
    ("telescoping", [2, 1, 1, 1], 5, 4),
    ("zeros_placement", [0, 3, 1, 2], 12, 13),
    ("binomial_sum", [2, 1, 1], 6, 5),
    ("convolution", [2, 1, 1], 6, 5),
    ("shifted_window", [2, 1, 1], 6, 5),
    ("parity_shift", [2, 1, 1, 1], 1, 6),
]


@pytest.mark.parametrize(
    "fmt,expected",
    [
        ("plain",
         "FAIL pascal at (2, 1, 1): lhs=6 rhs=5\n"
         "FAIL vertical at (1, 2, 1): lhs=8 rhs=9\n"
         "FAIL doubling at (2, 1, 1): lhs=6 rhs=5\n"
         "FAIL alternating_shift at (1, 2, 1, 1): lhs=6 rhs=5\n"
         "FAIL horizontal_full at (1, 1, 0): lhs=6 rhs=5\n"
         "FAIL horizontal_tail at (2, 1, 1): lhs=9 rhs=10\n"
         "FAIL telescoping at (2, 1, 1, 1): lhs=5 rhs=4\n"
         "FAIL zeros_placement at (0, 3, 1, 2): lhs=12 rhs=13\n"
         "FAIL binomial_sum at (2, 1, 1): lhs=6 rhs=5\n"
         "FAIL convolution at (2, 1, 1): lhs=6 rhs=5\n"
         "FAIL shifted_window at (2, 1, 1): lhs=6 rhs=5\n"
         "FAIL parity_shift at (2, 1, 1, 1): lhs=1 rhs=6\n"
         "PASS first_row\n"),
        ("csv",
         "identity,result,params,lhs,rhs\n"
         "pascal,FAIL,2 1 1,6,5\n"
         "vertical,FAIL,1 2 1,8,9\n"
         "doubling,FAIL,2 1 1,6,5\n"
         "alternating_shift,FAIL,1 2 1 1,6,5\n"
         "horizontal_full,FAIL,1 1 0,6,5\n"
         "horizontal_tail,FAIL,2 1 1,9,10\n"
         "telescoping,FAIL,2 1 1 1,5,4\n"
         "zeros_placement,FAIL,0 3 1 2,12,13\n"
         "binomial_sum,FAIL,2 1 1,6,5\n"
         "convolution,FAIL,2 1 1,6,5\n"
         "shifted_window,FAIL,2 1 1,6,5\n"
         "parity_shift,FAIL,2 1 1 1,1,6\n"
         "first_row,PASS,,,\n"),
        ("json",
         "[" + ", ".join(
             [f'{{"identity": "{name}", "m_max": 3, "n_max": 3, "passed": false, '
              f'"counterexample": {{"params": {params}, "lhs": "{lhs}", "rhs": "{rhs}"}}}}'
              for name, params, lhs, rhs in _VERIFY_ALL_PLANTED]
             + ['{"identity": "first_row", "m_max": 3, "n_max": 3, "passed": true}'])
         + "]\n"),
    ],
)
def test_verify_all_failure_output(monkeypatch, capsys, fmt, expected):
    monkeypatch.setattr("insets.identities.inset_row", _planted)
    assert cli.main(["verify", "all", "3", "3", "--format", fmt]) == 1
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "fmt,expected",
    [
        ("plain", "1 6 18 38 66 102\nFAIL at power 3: got 38, expected 999\n"),
        ("json",
         '{"which": "m", "a": 3, "b": 2, "order": 5, "coefficients": '
         '["1", "6", "18", "38", "66", "102"], "check": "FAIL"}\n'),
        ("csv", "power,coefficient\n0,1\n1,6\n2,18\n3,38\n4,66\n5,102\n"),
    ],
)
def test_series_check_failure_output(monkeypatch, capsys, fmt, expected):
    monkeypatch.setattr(
        "insets.series.check_coefficients", lambda which, a, b, coeffs: (3, 999)
    )
    assert cli.main(["series", "m", "3", "2", "5", "--check", "--format", fmt]) == 1
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "fmt,expected",
    [
        ("plain", "provisional offset=0\n"),
        ("json",
         '[{"key": "odd_numbers", "fixture": "A005408", "status": "provisional", '
         '"offset": 0, "agreed": 0}]\n'),
        ("csv", "key,fixture,status,offset,agreed\nodd_numbers,A005408,provisional,0,0\n"),
    ],
)
def test_crosscheck_provisional_output(tmp_path, capsys, fmt, expected):
    bad = "\n".join(f"{i} {2 * i + 2}" for i in range(30))  # off by one everywhere
    (tmp_path / "b005408.txt").write_text(bad, encoding="utf-8")
    argv = ["crosscheck", "odd_numbers", "--fixtures", str(tmp_path), "--format", fmt]
    assert cli.main(argv) == 1
    assert capsys.readouterr().out == expected


def _decimal(value):
    """``str(value)`` past Python's int-to-str digit cap, where it has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_values_past_the_digit_cap_are_printed_exactly(capsys, fmt):
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert cli.main(["compute", "0", "20000", "0", "--format", fmt]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap
    digits = _decimal(2**20000)
    assert len(digits) > 6000
    expected = {
        "plain": f"{digits}\n",
        "json": json.dumps({"m": 0, "n": 20000, "k": 0, "value": digits}) + "\n",
        "csv": f"m,n,k,value\n0,20000,0,{digits}\n",
    }[fmt]
    assert capsys.readouterr().out == expected


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit cap"
)
def test_arguments_are_parsed_under_the_digit_cap(capsys):
    for argv in (
        ["compute", "1" * 5000, "3", "2"],
        ["words", "0", "3", "2", "--limit", "1" * 5000],
        ["seq", "fibonacci", "1" * 5000],
    ):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4321)
        try:
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert sys.get_int_max_str_digits() == 4321, argv[0]
        finally:
            sys.set_int_max_str_digits(saved)
        assert exc.value.code == 2, argv[0]
        assert "not an integer" in capsys.readouterr().err, argv[0]


def test_fixture_flags_belong_to_crosscheck_only(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "1", "3", "2", "--fixtures", "DIR"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --fixtures DIR" in capsys.readouterr().err


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit cap"
)
@pytest.mark.parametrize(
    "argv,status", [(["compute", "1", "3", "2"], 0), (["seq", "nope", "4"], 2)]
)
def test_callers_digit_cap_is_restored(capsys, argv, status):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    try:
        assert cli.main(argv) == status
        assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(saved)


# recorded with COLUMNS=80, argparse wrapping help to the terminal width, and
# byte-identical under Python 3.10.13, 3.11.7, 3.12.1, 3.13.0 and 3.13.13
_HELP = Path(__file__).parent / "cli_help"


@pytest.mark.parametrize("sub", ("", *cli._GRAMMAR))
def test_help_text(monkeypatch, capsys, sub):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, "--help"] if sub else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == ((_HELP / f"{sub or 'insets'}.txt").read_text(), "")


# each golden is named after its argv joined with "_"
_USAGE_ERRORS = [
    "compute x 1 1",
    "compute -1 2 3",
    "compute 1 -3 2",
    "compute 1 2 3 4",
    "words 0 3 2 --limit 0",
    "series q 1 1 1",
    "seq fibonacci",
    "crosscheck all --fixtures",
]


_USAGE = {
    "words": "usage: insets words [-h] [--format {plain,json,csv}] [--limit LIMIT] m n k\n",
    "seq": "usage: insets seq [-h] [--format {plain,json,csv}] key count\n",
}


@pytest.mark.parametrize("spelling", ([], ["--format=csv"]))
@pytest.mark.parametrize(
    "argv,line",
    [
        ("words 0 3 2 --limit 99999999999999999999", "insets words: error: argument --limit"),
        ("seq fibonacci 99999999999999999999", "insets seq: error: argument count"),
    ],
)
def test_count_above_maxsize_is_a_usage_error(monkeypatch, capsys, argv, line, spelling):
    # islice takes no stop above sys.maxsize, so the converter refuses one
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv.split(), *spelling])
    assert exc.value.code == 2
    usage = _USAGE[argv.split()[0]]
    assert capsys.readouterr() == ("", f"{usage}{line}: must be at most 9223372036854775807\n")


def test_usage_error_text(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    for command in _USAGE_ERRORS:
        with pytest.raises(SystemExit) as exc:
            cli.main(command.split())
        assert exc.value.code == 2, command
        out, err = capsys.readouterr()
        expected = (_HELP / f"{command.replace(' ', '_')}.stderr").read_text()
        # argparse of Python 3.13.13 lists choices with str() in this message,
        # where 3.10.13 to 3.13.0 use repr()
        assert out == "", command
        assert err in (expected, expected.replace("'m', 'n', 'k'", "m, n, k")), command


# spellings argparse accepts beside the canonical one, which print the same
_SPELLINGS = [
    ("compute 1 3 2 --format=json", "compute 1 3 2 --format json"),
    ("compute 1 3 2 --for json", "compute 1 3 2 --format json"),
    ("compute -- 1 3 2", "compute 1 3 2"),
    ("compute --format csv 1 3 2", "compute 1 3 2 --format csv"),
    ("words --limit 2 0 3 2", "words 0 3 2 --limit 2"),
    ("words 0 --lim=2 3 2 --form csv", "words 0 3 2 --limit 2 --format csv"),
    ("series --check m 3 2 10", "series m 3 2 10 --check"),
    ("series m 3 2 10 --ch --format=json", "series m 3 2 10 --check --format json"),
    ("crosscheck --fix=DIR delannoy", "crosscheck delannoy --fixtures DIR"),
]


@pytest.mark.parametrize("variant,canonical", _SPELLINGS)
def test_accepted_spellings_print_as_the_canonical_one(capsys, variant, canonical):
    fixtures = str(Path(cli.__file__).parent / "fixtures")
    assert cli.main(variant.replace("DIR", fixtures).split()) == 0
    printed = capsys.readouterr()
    assert cli.main(canonical.replace("DIR", fixtures).split()) == 0
    assert capsys.readouterr() == printed
    assert printed.out != ""
