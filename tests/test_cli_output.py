"""Exact stdout and exit status of every subcommand in each output format,
and the exact help and usage-error text."""

import json
import sys
from pathlib import Path

import pytest

from insets import cli
from insets.core import inset_row

_NAMES = (
    "pascal", "vertical", "doubling", "alternating_shift", "horizontal_full",
    "horizontal_tail", "telescoping", "zeros_placement", "binomial_sum",
    "convolution", "shifted_window", "parity_shift", "first_row",
)
_VERIFY_JSON = ", ".join(
    f'{{"identity": "{name}", "m_max": 3, "n_max": 3, "passed": true}}'
    for name in _NAMES
)

GOLDEN = [
    ("compute 1 3 2", "plain", 0, "18\n"),
    ("compute 1 3 2", "json", 0, '{"m": 1, "n": 3, "k": 2, "value": "18"}\n'),
    ("compute 1 3 2", "csv", 0, "m,n,k,value\n1,3,2,18\n"),
    ("table 1 2", "plain", 0, "2 1\n2 3 1\n2 5 4 1\n"),
    ("table 1 2", "json", 0,
     '{"n": 1, "m_max": 2, "rows": [["2", "1"], ["2", "3", "1"], ["2", "5", "4", "1"]]}\n'),
    ("table 1 2", "csv", 0,
     "m,k,value\n0,0,2\n0,1,1\n1,0,2\n1,1,3\n1,2,1\n2,0,2\n2,1,5\n2,2,4\n2,3,1\n"),
    ("words 0 3 2 --limit 2", "plain", 0, "022\n122\ncount 6\n"),
    ("words 0 3 2 --limit 2", "json", 0, '["022", "122"]\n'),
    ("words 0 3 2 --limit 2", "csv", 0, "word\n022\n122\n"),
    ("words 0 0 0", "csv", 0, 'word\n""\n'),
    ("verify all 3 3", "plain", 0, "".join(f"PASS {name}\n" for name in _NAMES)),
    ("verify all 3 3", "json", 0, f"[{_VERIFY_JSON}]\n"),
    ("verify all 3 3", "csv", 0,
     "identity,result,params,lhs,rhs\n" + "".join(f"{name},PASS,,,\n" for name in _NAMES)),
    ("series m 3 2 10 --check", "plain", 0, "1 6 18 38 66 102 146 198 258 326 402\nPASS\n"),
    ("series m 3 2 10 --check", "json", 0,
     '{"which": "m", "a": 3, "b": 2, "order": 10, "coefficients": ["1", "6", "18", '
     '"38", "66", "102", "146", "198", "258", "326", "402"], "check": "PASS"}\n'),
    ("series m 3 2 10 --check", "csv", 0,
     "power,coefficient\n0,1\n1,6\n2,18\n3,38\n4,66\n5,102\n6,146\n7,198\n8,258\n"
     "9,326\n10,402\n"),
    ("poly 1 4", "plain", 0, "1 0 -8 0 8\n"),
    ("poly 1 4", "json", 0, '{"m": 1, "n": 4, "coefficients": ["1", "0", "-8", "0", "8"]}\n'),
    ("poly 1 4", "csv", 0, "power,coefficient\n0,1\n1,0\n2,-8\n3,0\n4,8\n"),
    ("seq bishop_moves 5", "plain", 0, "4 20 56 120 220\n"),
    ("seq bishop_moves 5", "json", 0,
     '{"key": "bishop_moves", "start": 2, "values": ["4", "20", "56", "120", "220"]}\n'),
    ("seq bishop_moves 5", "csv", 0, "index,value\n2,4\n3,20\n4,56\n5,120\n6,220\n"),
    ("crosscheck delannoy", "plain", 0, "validated offset=0\n"),
    ("crosscheck delannoy", "json", 0,
     '[{"key": "delannoy", "fixture": "A008288", "status": "validated", "offset": 0, '
     '"agreed": 40}]\n'),
    ("crosscheck delannoy", "csv", 0,
     "key,fixture,status,offset,agreed\ndelannoy,A008288,validated,0,40\n"),
]


@pytest.mark.parametrize(
    "command,fmt,status,expected", GOLDEN, ids=[f"{c}-{f}" for c, f, _, _ in GOLDEN]
)
def test_golden_stdout(capsys, command, fmt, status, expected):
    assert cli.main([*command.split(), "--format", fmt]) == status
    assert capsys.readouterr().out == expected


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
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "1" * 5000, "3", "2"])
    assert exc.value.code == 2
    assert "not an integer" in capsys.readouterr().err


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


# recorded with COLUMNS=80; argparse wraps help to the terminal width
_HELP = Path(__file__).parent / "cli_help"
_SUBCOMMANDS = ("compute", "table", "words", "verify", "series", "poly", "seq", "crosscheck")
_ARGPARSE_LAYOUT = pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="goldens hold the argparse layout of Python 3.10-3.11"
)


@_ARGPARSE_LAYOUT
@pytest.mark.parametrize("sub", ("", *_SUBCOMMANDS))
def test_help_text(monkeypatch, capsys, sub):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, "--help"] if sub else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == ((_HELP / f"{sub or 'insets'}.txt").read_text(), "")


@_ARGPARSE_LAYOUT
def test_usage_error_text(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "x", "1", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", (_HELP / "compute_x_1_1.stderr").read_text())
