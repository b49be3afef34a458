"""Command-line interface.

Subcommands: compute, table, words, verify, series, poly, seq, crosscheck.
Formats: plain (default), json, csv, all written by ``_emit``.  In json,
computed values are decimal strings, because they outgrow 64 bits quickly,
and indices (m, n, k, order, start, offset, agreed) are numbers.

Exit status: 0 success, 1 verification failure, 2 usage error, 3 I/O or
fixture error.  A reader that closes stdout early ends the call quietly:
nothing on stderr, and exit status 0.

Each handler imports the modules it runs, and each format imports its own
writer (``json`` or ``csv``; plain needs none), so a call pays start-up only
for its own subcommand and format.

The command line is declared once, in ``_GRAMMAR``.  A well-formed call in
canonical form (the subcommand first, exact long option names, each value
its own token) is parsed from that table by ``_quick_parse`` and never
imports argparse, whose import and parser build took 8-10 ms of each call
(Python 3.11.7 on a 2-core VM).
``--help``, abbreviations, ``--opt=value``, ``--`` and every usage error go
to the argparse parser built from the same table, which alone decides them.
The table also holds every size limit, and ``main`` refuses a call past one
with exit status 2 before its handler runs.
"""

from __future__ import annotations

import itertools
import os
import sys
from collections.abc import Iterable, Sequence
from types import SimpleNamespace

from .core import inset, trapeze_table
from .errors import FixtureError

# `words 10 10 10 --limit 3`, three words at the length bound, took 0.08 s and
# 14.7 MB peak RSS as a process on a 2-core VM with Python 3.11.7, against
# 14.5 MB for `compute 0 0 0`: a listing's start costs a table of 3^8 tails
MAX_WORD_LENGTH = 20
# `words 16 4 16 --format json`, 9,708 words of length 20 (the largest count
# under the guard at that length), took 0.09 s and 15.2 MB peak RSS as a
# process on a 2-core VM with Python 3.11.7; the guard does not apply with
# --limit N, which bounds the listing itself
WORD_LISTING_GUARD = 10_000
# `series k 300 300 512 --check`, the work at the budget, took 0.05 s and
# 14.9 MB peak RSS as a process on a 2-core VM with Python 3.11.7: the
# expansion walks 512 recurrence steps in 0.2 ms, and --check's 513 inset
# calls take about 20 ms
MAX_SERIES_ORDER = 512
# `series k 20000 20000 512 --check`, the costliest shape at the bound, took
# 1.31-1.45 s and 15.0 MB peak RSS as a process (0.39-0.42 s without --check)
# on a 2-core VM with Python 3.11.7, started from a small parent with stdout
# read through a pipe, and printed 3,406,590 bytes; which = m or n took
# 0.16-0.19 s there.  For which = k the cost grows faster than b^2: in
# process, gf_in_k(0, b, 512) and its decimal strings took 0.33 s at
# b = 20000 and 1.23 s at b = 40000
MAX_SERIES_PARAM = 20_000
# `verify all 32 32` took 0.18-0.29 s and 20.2-20.3 MB peak RSS as a process
# on a 2-core VM with Python 3.11.7, measured as above; in process the fastest
# of repeated verify_all calls took 0.02 s at 16 x 16, 0.11-0.13 s at 32 x 32
# and 0.17 s at 36 x 36, so the cost grows about as the cube of the bound
MAX_VERIFY_GRID = 32
# `table` prints (m_max + 1) (n + 1 + m_max/2) values of up to n + m_max bits.
# With n + m_max = 700 it took at most 1.6 s (`table 350 350 --format csv`)
# and 37 MB peak RSS in each format (`table 200 500`) as a process on a
# 2-core VM with Python 3.11.7, printing up to 34 MB; the table of
# `table 0 1000` took 66-67 MB in each format
MAX_TABLE_SIZE = 700


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None
    if value < 0:
        raise ValueError(f"must be nonnegative: {text}")
    return value


def _positive(text: str) -> int:
    value = _nonneg(text)
    if value == 0:
        raise ValueError("must be positive")
    if value > sys.maxsize:
        raise ValueError(f"must be at most {sys.maxsize}")
    return value


def _emit(
    fmt: str, doc: object, header: Sequence[str], rows: Iterable, lines: Iterable
) -> None:
    """Print one result as a JSON document, CSV rows, or plain lines.

    Only the view for ``fmt`` is read, so the others may be lazy.  The JSON
    document is written as it is encoded, a hundred chunks at a time, with
    any iterator in ``doc`` listed; its text is never held whole.  ``rows``
    and ``lines`` are written as they are produced, so a word listing stays
    streamed.  A plain line is an iterable of fields, written one at a time
    with a space between them, so a long listing is never joined.
    """
    if fmt == "json":
        import json

        # a write per hundred chunks: one per chunk, as json.dump makes, took
        # a fifth longer than json.dumps on `table 200 500`
        chunks = itertools.chain(json.JSONEncoder(default=list).iterencode(doc), ["\n"])
        sys.stdout.writelines(iter(lambda: "".join(itertools.islice(chunks, 100)), ""))
    elif fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        write = sys.stdout.write
        for line in lines:
            fields = iter(line)
            write(next(fields, ""))
            for field in fields:
                write(" " + field)
            write("\n")


def _listing(values: Iterable[int], start: int = 0) -> tuple[Iterable, Iterable, list]:
    """Decimal strings of ``values``, their CSV rows ``(start + i, value)``
    and their plain line, all three one lazy pass over ``values``.  Only one
    view is read, so each value is converted to decimal once, when it is
    written.
    """
    digits = map(str, values)
    return digits, enumerate(digits, start), [digits]


def _cmd_compute(args: SimpleNamespace) -> int:
    value = str(inset(args.m, args.n, args.k))
    doc = {"m": args.m, "n": args.n, "k": args.k, "value": value}
    _emit(args.format, doc, list(doc), [doc.values()], [[value]])
    return 0


def _cmd_table(args: SimpleNamespace) -> int:
    # the int rows are the table's one copy: json and plain read the same lazy
    # view, each row turned to decimal as it is written, and csv reads the ints
    rows = trapeze_table(args.n, args.m_max)
    decimal = (map(str, row) for row in rows)
    doc = {"n": args.n, "m_max": args.m_max, "rows": decimal}
    cells = ((m, k, v) for m, row in enumerate(rows) for k, v in enumerate(row))
    _emit(args.format, doc, ("m", "k", "value"), cells, zip(map(" ".join, decimal)))
    return 0


def _cmd_words(args: SimpleNamespace) -> int:
    from .words import iter_words

    total = inset(args.m, args.n, args.k)
    shown = itertools.islice(iter_words(args.m, args.n, args.k), args.limit)
    lines = itertools.chain(zip(shown), [("count", str(total))])
    _emit(args.format, shown, ("word",), zip(shown), lines)
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
    from . import identities

    # checked here, not in _GRAMMAR: the names live in identities, loaded only here
    choices = identities.IDENTITY_NAMES + ("all",)
    if args.identity not in choices:
        raise ValueError(
            f"unknown identity {args.identity!r}; choose from {', '.join(choices)}"
        )
    if args.identity == "all":
        reports = identities.verify_all(args.m_max, args.n_max)
    else:
        reports = [identities.verify(args.identity, args.m_max, args.n_max)]
    doc, rows, lines = [], [], []
    for r in reports:
        item = dict(identity=r.identity, m_max=r.m_max, n_max=r.n_max, passed=r.passed)
        ce = r.counterexample
        if ce is None:
            rows.append((r.identity, "PASS", "", "", ""))
            lines.append(("PASS", r.identity))
        else:
            lhs, rhs = str(ce.lhs), str(ce.rhs)
            item["counterexample"] = {"params": ce.params, "lhs": lhs, "rhs": rhs}
            rows.append((r.identity, "FAIL", " ".join(map(str, ce.params)), lhs, rhs))
            params = ", ".join(map(str, ce.params))
            lines.append(("FAIL", r.identity, f"at ({params}):", f"lhs={lhs}", f"rhs={rhs}"))
        doc.append(item)
    _emit(args.format, doc, ("identity", "result", "params", "lhs", "rhs"), rows, lines)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_series(args: SimpleNamespace) -> int:
    from . import series

    builder = {"m": series.gf_in_m, "n": series.gf_in_n, "k": series.gf_in_k}[args.which]
    coeffs = builder(args.a, args.b, args.order)
    digits, rows, lines = _listing(coeffs)
    doc = {"which": args.which, "a": args.a, "b": args.b, "order": args.order}
    doc["coefficients"] = digits
    failure = None
    if args.check:
        failure = series.check_coefficients(args.which, args.a, args.b, coeffs)
        doc["check"] = "PASS" if failure is None else "FAIL"
        verdict = "PASS"
        if failure is not None:
            idx, expect = failure
            verdict = f"FAIL at power {idx}: got {coeffs[idx]}, expected {expect}"
        lines = itertools.chain(lines, [(verdict,)])
    _emit(args.format, doc, ("power", "coefficient"), rows, lines)
    return 0 if failure is None else 1


def _cmd_poly(args: SimpleNamespace) -> int:
    from . import chebyshev

    digits, rows, lines = _listing(chebyshev.polynomial(args.m, args.n))
    doc = {"m": args.m, "n": args.n, "coefficients": digits}
    _emit(args.format, doc, ("power", "coefficient"), rows, lines)
    return 0


def _cmd_seq(args: SimpleNamespace) -> int:
    from . import registry

    entry = registry.get_entry(args.key)
    terms = itertools.islice(entry.terms(entry.start), args.count)
    digits, rows, lines = _listing(terms, entry.start)
    doc = {"key": entry.key, "start": entry.start, "values": digits}
    _emit(args.format, doc, ("index", "value"), rows, lines)
    return 0


def _cmd_crosscheck(args: SimpleNamespace) -> int:
    from . import oeis, registry

    entries = (
        registry.list_entries()
        if args.key == "all"
        else [registry.get_entry(args.key)]
    )
    reports = [registry.validate(e.key, oeis.load(e.fixture_id, args.fixtures)) for e in entries]
    header = ("key", "fixture", "status", "offset", "agreed")
    rows = [(r.key, r.fixture_id, r.status, r.offset, r.agreed) for r in reports]
    lines = ((r.status, f"offset={r.offset}") for r in reports)
    if args.key == "all":
        lines = ((r.key, *line) for r, line in zip(reports, lines))
    _emit(args.format, (dict(zip(header, row)) for row in rows), header, rows, lines)
    return 0 if all(r.validated for r in reports) else 1


# The command line, declared once.  Each subcommand has its help, its
# positionals (name, converter, help), its options (name, converter, help,
# metavar), its handler and then its size limits (label, measure, limit), and
# every subcommand takes _FORMAT first.  A converter is a function that raises
# ValueError, a tuple of choices, or None for a flag.  An option with choices
# defaults to the first, a flag to False, any other option to None.  main
# refuses a call whose measure(args) exceeds a limit, the first in row order,
# with "error: {label} exceeds {limit}" and exit status 2.
_FORMAT = ("--format", ("plain", "json", "csv"), "output format (default: plain)", None)
_M, _N, _K = (("m", _nonneg, None), ("n", _nonneg, None), ("k", _nonneg, None))
_GRAMMAR = {
    "compute": ("one inset value", (_M, _N, _K), (), _cmd_compute),
    "table": ("fixed-n value table", (_N, ("m_max", _nonneg, None)), (), _cmd_table,
              ("n + m_max", lambda args: args.n + args.m_max, MAX_TABLE_SIZE)),
    "words": (
        "list the counted words",
        (_M, _N, _K),
        (("--limit", _positive, "print at most this many words", None),),
        _cmd_words,
        ("word length", lambda args: args.m + args.n, MAX_WORD_LENGTH),
        ("word count without --limit",
         lambda args: 0 if args.limit else inset(args.m, args.n, args.k), WORD_LISTING_GUARD),
    ),
    "verify": (
        "check identities on a grid",
        (
            ("identity", str, "identity name or 'all'"),
            ("m_max", _nonneg, None),
            ("n_max", _nonneg, None),
        ),
        (),
        _cmd_verify,
        ("grid bound", lambda args: max(args.m_max, args.n_max), MAX_VERIFY_GRID),
    ),
    "series": (
        "generating-function coefficients",
        (
            ("which", ("m", "n", "k"), None),
            ("a", _nonneg, "n for which=m; m otherwise"),
            ("b", _nonneg, "k for which=m,n; n for which=k"),
            ("order", _nonneg, None),
        ),
        (("--check", None, "compare against inset values", None),),
        _cmd_series,
        ("order", lambda args: args.order, MAX_SERIES_ORDER),
        ("a or b", lambda args: max(args.a, args.b), MAX_SERIES_PARAM),
    ),
    "poly": ("generalized Chebyshev coefficients", (_M, _N), (), _cmd_poly),
    "seq": (
        "terms of a catalogued sequence",
        (("key", str, None), ("count", _positive, None)),
        (),
        _cmd_seq,
    ),
    "crosscheck": (
        "validate against fixtures",
        (("key", str, "sequence key or 'all'"),),
        (("--fixtures", str, "fixture directory override", "DIR"),),
        _cmd_crosscheck,
    ),
}


def _convert(convert: object, text: str) -> object:
    """``text`` through a converter of ``_GRAMMAR``; ValueError if refused."""
    if not isinstance(convert, tuple):
        return convert(text)
    if text not in convert:
        raise ValueError(text)
    return text


def _quick_parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """The parsed call for canonical ``argv``, or None to leave it to argparse:
    ``command``, ``handler`` and one attribute per argument, as argparse
    gives them.

    Canonical: the subcommand first, then its positionals in order, with its
    options anywhere among them, each by its exact long name and with its
    value as the next token.  Anything else gives None: ``--help``, an
    abbreviation, ``--opt=value``, ``--``, any other token that starts with a
    dash, a missing or extra positional, and a value a converter refuses.
    """
    if not argv or argv[0] not in _GRAMMAR:
        return None
    _, positionals, options, handler, *_ = _GRAMMAR[argv[0]]
    converters = {flag: convert for flag, convert, _, _ in (_FORMAT, *options)}
    args = SimpleNamespace(command=argv[0], handler=handler)
    for flag, convert in converters.items():
        choices = isinstance(convert, tuple)
        setattr(args, flag[2:], convert[0] if choices else None if convert else False)
    values = []
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if not token.startswith("-"):
                values.append(token)
            elif token not in converters:
                return None
            elif converters[token] is None:
                setattr(args, token[2:], True)
            else:
                value = next(tokens, "-")
                if value.startswith("-"):
                    return None
                setattr(args, token[2:], _convert(converters[token], value))
        if len(values) != len(positionals):
            return None
        for (name, convert, _), value in zip(positionals, values):
            setattr(args, name, _convert(convert, value))
    except ValueError:
        return None
    return args


def _build_parser():
    import argparse

    def typed(convert):
        def checked(text: str) -> object:
            try:
                return convert(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(*exc.args) from None

        return checked

    parser = argparse.ArgumentParser(
        prog="insets",
        description="Exact inset numbers, restricted ternary words, and their sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, positionals, options, handler, *_) in _GRAMMAR.items():
        p = sub.add_parser(command, help=summary)
        for name, convert, text in positionals:
            if isinstance(convert, tuple):
                p.add_argument(name, choices=convert, help=text)
            else:
                p.add_argument(name, type=typed(convert), help=text)
        for flag, convert, text, metavar in (_FORMAT, *options):
            if convert is None:
                p.add_argument(flag, action="store_true", help=text)
            elif isinstance(convert, tuple):
                p.add_argument(flag, choices=convert, default=convert[0], help=text)
            else:
                p.add_argument(flag, type=typed(convert), metavar=metavar, help=text)
        p.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _quick_parse(argv) or _build_parser().parse_args(argv, SimpleNamespace())
    for label, measure, limit in _GRAMMAR[args.command][4:]:
        if measure(args) > limit:
            print(f"error: {label} exceeds {limit}", file=sys.stderr)
            return 2
    # Arguments are parsed under the int-to-str digit cap (0 or absent: none,
    # as before Python 3.10.7); the command runs without it, then it returns.
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if saved:
        sys.set_int_max_str_digits(0)
    try:
        status = args.handler(args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return status
    except BrokenPipeError:
        # The reader of stdout stopped early, which is no error.  Pointing
        # stdout at devnull leaves the interpreter's final flush nothing to
        # report.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except (FixtureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if saved:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
