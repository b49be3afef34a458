"""Command-line interface.

Subcommands: compute, table, words, verify, series, poly, seq, crosscheck.
Formats: plain (default), json, csv, all written by ``_emit``.  In json,
computed values are decimal strings, because they outgrow 64 bits quickly,
and indices (m, n, k, order, start, offset, agreed) are numbers.

Exit status: 0 success, 1 verification failure, 2 usage error, 3 I/O or
fixture error.

Each handler imports the modules it runs, and each format imports its own
writer (``json`` or ``csv``; plain needs none), so a call pays start-up only
for its own subcommand and format.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import Iterable, Sequence

from .core import inset, trapeze_table
from .errors import CapExceededError, FixtureError

WORD_LISTING_GUARD = 10_000
# `series k 300 300 512 --check`, the work at the budget, took 0.05 s and
# 14.9 MB peak RSS as a process on a 2-core VM with Python 3.11.7: the
# expansion walks 512 recurrence steps in 0.2 ms, and --check's 513 inset
# calls take about 20 ms
MAX_SERIES_ORDER = 512
# `series k 20000 20000 512 --check`, the costliest shape at the bound, took
# 0.6 s and 22 MB peak RSS as a process on a 2-core VM with Python 3.11.7 and
# printed 3.4 MB; which = m or n takes under 0.1 s there.  For which = k the
# cost grows about quadratically in b: `series k 0 40000 512` took 0.8 s
MAX_SERIES_PARAM = 20_000
# verify_all(32, 32), the work of `verify all 32 32`, took 1.0-1.2 s and
# 25.1 MB peak RSS as a process on a 2-core VM with Python 3.11.7, and
# verify_all(36, 36) 1.2 s in process: from 16 to 36 the cost grows about
# as the 3.7th power of the bound
MAX_VERIFY_GRID = 32
# `table` prints (m_max + 1) (n + 1 + m_max/2) values of up to n + m_max bits.
# With n + m_max = 700 it took at most 1.6 s (`table 350 350 --format csv`)
# and 101 MB peak RSS (`table 200 500 --format json`; 37 MB in plain and csv)
# as a process on a 2-core VM with Python 3.11.7, printing up to 34 MB;
# `table 0 1000` took 210 MB in json and 67 MB in plain
MAX_TABLE_SIZE = 700


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {text}")
    return value


def _positive(text: str) -> int:
    value = _nonneg(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _emit(
    fmt: str, doc: object, header: Sequence[str], rows: Iterable, lines: Iterable
) -> None:
    """Print one result as a JSON document, CSV rows, or plain lines.

    Only the view for ``fmt`` is read, so the others may be lazy:
    ``json.dumps`` lists any iterator in ``doc``, and ``rows`` and ``lines``
    are written as they are produced, so a word listing stays streamed.  A
    plain line is a string, or an iterator of fields written one at a time
    with a space between them, so a long listing is never joined.
    """
    if fmt == "json":
        import json

        print(json.dumps(doc, default=list))
    elif fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        write = sys.stdout.write
        for line in lines:
            if isinstance(line, str):
                print(line)
                continue
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


def _cmd_compute(args: argparse.Namespace) -> int:
    value = str(inset(args.m, args.n, args.k))
    doc = {"m": args.m, "n": args.n, "k": args.k, "value": value}
    _emit(args.format, doc, list(doc), [doc.values()], [value])
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.n + args.m_max > MAX_TABLE_SIZE:
        raise ValueError(f"n + m_max exceeds {MAX_TABLE_SIZE}")
    # the int rows are the table's one copy: json and plain read the same lazy
    # view, each row turned to decimal as it is written, and csv reads the ints
    rows = trapeze_table(args.n, args.m_max)
    decimal = (map(str, row) for row in rows)
    doc = {"n": args.n, "m_max": args.m_max, "rows": decimal}
    cells = ((m, k, v) for m, row in enumerate(rows) for k, v in enumerate(row))
    _emit(args.format, doc, ("m", "k", "value"), cells, map(" ".join, decimal))
    return 0


def _cmd_words(args: argparse.Namespace) -> int:
    from .words import iter_words

    # iter_words refuses an over-cap length at the call, before the count is paid
    words = iter_words(args.m, args.n, args.k)
    total = inset(args.m, args.n, args.k)
    if total > WORD_LISTING_GUARD and args.limit is None and not args.force:
        raise ValueError(f"{total} words; pass --limit N or --force to list them")
    shown = itertools.islice(words, args.limit)
    lines = itertools.chain(shown, [f"count {total}"])
    _emit(args.format, shown, ("word",), zip(shown), lines)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import identities

    choices = identities.IDENTITY_NAMES + ("all",)
    if args.identity not in choices:
        raise ValueError(
            f"unknown identity {args.identity!r}; choose from {', '.join(choices)}"
        )
    if max(args.m_max, args.n_max) > MAX_VERIFY_GRID:
        raise ValueError(f"grid bound exceeds {MAX_VERIFY_GRID}")
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
            lines.append(f"PASS {r.identity}")
        else:
            lhs, rhs = str(ce.lhs), str(ce.rhs)
            item["counterexample"] = {"params": ce.params, "lhs": lhs, "rhs": rhs}
            rows.append((r.identity, "FAIL", " ".join(map(str, ce.params)), lhs, rhs))
            params = ", ".join(map(str, ce.params))
            lines.append(f"FAIL {r.identity} at ({params}): lhs={lhs} rhs={rhs}")
        doc.append(item)
    _emit(args.format, doc, ("identity", "result", "params", "lhs", "rhs"), rows, lines)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_series(args: argparse.Namespace) -> int:
    from . import series

    if args.order > MAX_SERIES_ORDER:
        raise ValueError(f"order exceeds {MAX_SERIES_ORDER}")
    if max(args.a, args.b) > MAX_SERIES_PARAM:
        raise ValueError(f"a or b exceeds {MAX_SERIES_PARAM}")
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
        lines = itertools.chain(lines, [verdict])
    _emit(args.format, doc, ("power", "coefficient"), rows, lines)
    return 0 if failure is None else 1


def _cmd_poly(args: argparse.Namespace) -> int:
    from . import chebyshev

    digits, rows, lines = _listing(chebyshev.polynomial(args.m, args.n))
    doc = {"m": args.m, "n": args.n, "coefficients": digits}
    _emit(args.format, doc, ("power", "coefficient"), rows, lines)
    return 0


def _cmd_seq(args: argparse.Namespace) -> int:
    from . import registry

    entry = registry.get_entry(args.key)
    terms = itertools.islice(entry.terms(entry.start), args.count)
    digits, rows, lines = _listing(terms, entry.start)
    doc = {"key": entry.key, "start": entry.start, "values": digits}
    _emit(args.format, doc, ("index", "value"), rows, lines)
    return 0


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    from . import oeis, registry

    cfg = oeis.default_config(fixture_dir=args.fixtures)
    entries = (
        registry.list_entries()
        if args.key == "all"
        else [registry.get_entry(args.key)]
    )
    reports = [registry.validate(e.key, oeis.load(e.fixture_id, cfg)) for e in entries]
    header = ("key", "fixture", "status", "offset", "agreed")
    rows = [(r.key, r.fixture_id, r.status, r.offset, r.agreed) for r in reports]
    lines = (f"{r.status} offset={r.offset}" for r in reports)
    if args.key == "all":
        lines = (f"{r.key} {line}" for r, line in zip(reports, lines))
    _emit(args.format, (dict(zip(header, row)) for row in rows), header, rows, lines)
    return 0 if all(r.validated for r in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("plain", "json", "csv"), default="plain",
        help="output format (default: plain)",
    )

    parser = argparse.ArgumentParser(
        prog="insets",
        description="Exact inset numbers, restricted ternary words, and their sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", parents=[common], help="one inset value")
    for name in ("m", "n", "k"):
        p.add_argument(name, type=_nonneg)
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("table", parents=[common], help="fixed-n value table")
    p.add_argument("n", type=_nonneg)
    p.add_argument("m_max", type=_nonneg)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("words", parents=[common], help="list the counted words")
    for name in ("m", "n", "k"):
        p.add_argument(name, type=_nonneg)
    p.add_argument("--limit", type=_positive, help="print at most this many words")
    p.add_argument("--force", action="store_true", help="allow very large listings")
    p.set_defaults(handler=_cmd_words)

    p = sub.add_parser("verify", parents=[common], help="check identities on a grid")
    p.add_argument("identity", help="identity name or 'all'")
    p.add_argument("m_max", type=_nonneg)
    p.add_argument("n_max", type=_nonneg)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("series", parents=[common], help="generating-function coefficients")
    p.add_argument("which", choices=("m", "n", "k"))
    p.add_argument("a", type=_nonneg, help="n for which=m; m otherwise")
    p.add_argument("b", type=_nonneg, help="k for which=m,n; n for which=k")
    p.add_argument("order", type=_nonneg)
    p.add_argument("--check", action="store_true", help="compare against inset values")
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("poly", parents=[common], help="generalized Chebyshev coefficients")
    p.add_argument("m", type=_nonneg)
    p.add_argument("n", type=_nonneg)
    p.set_defaults(handler=_cmd_poly)

    p = sub.add_parser("seq", parents=[common], help="terms of a catalogued sequence")
    p.add_argument("key")
    p.add_argument("count", type=_positive)
    p.set_defaults(handler=_cmd_seq)

    p = sub.add_parser("crosscheck", parents=[common], help="validate against fixtures")
    p.add_argument("key", help="sequence key or 'all'")
    p.add_argument("--fixtures", metavar="DIR", help="fixture directory override")
    p.set_defaults(handler=_cmd_crosscheck)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Arguments are parsed under the int-to-str digit cap (0 or absent: none,
    # as before Python 3.10.7); the command runs without it, then it returns.
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if saved:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except (CapExceededError, KeyError, ValueError) as exc:
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
