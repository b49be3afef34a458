"""Command-line interface.

Subcommands: compute, table, words, verify, series, poly, seq, crosscheck.
Formats: plain (default), json, csv.  Values are printed as decimal strings
in json and csv because they outgrow 64 bits quickly.

Exit status: 0 success, 1 verification failure, 2 usage error, 3 I/O or
fixture error.

Each handler imports the modules it runs, so a call pays start-up only for
its own subcommand.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from typing import TYPE_CHECKING, Iterable, Sequence

from .core import inset, trapeze_table
from .errors import CapExceededError, FixtureError

if TYPE_CHECKING:
    from .identities import GridReport

WORD_LISTING_GUARD = 10_000
MAX_SERIES_ORDER = 512


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


def _emit_csv(header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def _cmd_compute(args: argparse.Namespace) -> int:
    value = inset(args.m, args.n, args.k)
    if args.format == "json":
        print(json.dumps({"m": args.m, "n": args.n, "k": args.k, "value": str(value)}))
    elif args.format == "csv":
        _emit_csv(["m", "n", "k", "value"], [[args.m, args.n, args.k, value]])
    else:
        print(value)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    rows = trapeze_table(args.n, args.m_max)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": args.n,
                    "m_max": args.m_max,
                    "rows": [[str(v) for v in row] for row in rows],
                }
            )
        )
    elif args.format == "csv":
        _emit_csv(
            ["m", "k", "value"],
            [[m, k, v] for m, row in enumerate(rows) for k, v in enumerate(row)],
        )
    else:
        for row in rows:
            print(" ".join(str(v) for v in row))
    return 0


def _cmd_words(args: argparse.Namespace) -> int:
    from .words import iter_words

    total = inset(args.m, args.n, args.k)
    if total > WORD_LISTING_GUARD and args.limit is None and not args.force:
        print(
            f"error: {total} words; pass --limit N or --force to list them",
            file=sys.stderr,
        )
        return 2
    shown = iter_words(args.m, args.n, args.k)
    if args.limit is not None:
        shown = itertools.islice(shown, args.limit)
    if args.format == "json":
        print(json.dumps(list(shown)))
    elif args.format == "csv":
        _emit_csv(["word"], ([w] for w in shown))
    else:
        for word in shown:
            print(word)
        print(f"count {total}")
    return 0


def _identity_report_dict(report: GridReport) -> dict:
    out = {
        "identity": report.identity,
        "m_max": report.m_max,
        "n_max": report.n_max,
        "passed": report.passed,
    }
    if report.counterexample is not None:
        ce = report.counterexample
        out["counterexample"] = {
            "params": list(ce.params),
            "lhs": str(ce.lhs),
            "rhs": str(ce.rhs),
        }
    return out


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import identities

    choices = identities.IDENTITY_NAMES + ("all",)
    if args.identity not in choices:
        raise ValueError(
            f"unknown identity {args.identity!r}; choose from {', '.join(choices)}"
        )
    names = identities.IDENTITY_NAMES if args.identity == "all" else (args.identity,)
    reports = [identities.verify(name, args.m_max, args.n_max) for name in names]
    if args.format == "json":
        print(json.dumps([_identity_report_dict(r) for r in reports]))
    elif args.format == "csv":
        rows = []
        for r in reports:
            ce = r.counterexample
            rows.append(
                [
                    r.identity,
                    "PASS" if r.passed else "FAIL",
                    " ".join(map(str, ce.params)) if ce else "",
                    str(ce.lhs) if ce else "",
                    str(ce.rhs) if ce else "",
                ]
            )
        _emit_csv(["identity", "result", "params", "lhs", "rhs"], rows)
    else:
        for r in reports:
            if r.passed:
                print(f"PASS {r.identity}")
            else:
                ce = r.counterexample
                params = ", ".join(map(str, ce.params))
                print(f"FAIL {r.identity} at ({params}): lhs={ce.lhs} rhs={ce.rhs}")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_series(args: argparse.Namespace) -> int:
    from . import series

    if args.order > MAX_SERIES_ORDER:
        print(f"error: order exceeds {MAX_SERIES_ORDER}", file=sys.stderr)
        return 2
    builder = {"m": series.gf_in_m, "n": series.gf_in_n, "k": series.gf_in_k}[args.which]
    coeffs = builder(args.a, args.b, args.order)
    failure = (
        series.check_coefficients(args.which, args.a, args.b, coeffs)
        if args.check
        else None
    )
    if args.format == "json":
        doc = {
            "which": args.which,
            "a": args.a,
            "b": args.b,
            "order": args.order,
            "coefficients": [str(c) for c in coeffs],
        }
        if args.check:
            doc["check"] = "PASS" if failure is None else "FAIL"
        print(json.dumps(doc))
    elif args.format == "csv":
        _emit_csv(["power", "coefficient"], [[i, c] for i, c in enumerate(coeffs)])
    else:
        print(" ".join(str(c) for c in coeffs))
        if args.check:
            if failure is None:
                print("PASS")
            else:
                idx, expect = failure
                print(f"FAIL at power {idx}: got {coeffs[idx]}, expected {expect}")
    return 0 if failure is None else 1


def _cmd_poly(args: argparse.Namespace) -> int:
    from . import chebyshev

    coeffs = chebyshev.polynomial(args.m, args.n)
    if args.format == "json":
        print(
            json.dumps(
                {"m": args.m, "n": args.n, "coefficients": [str(c) for c in coeffs]}
            )
        )
    elif args.format == "csv":
        _emit_csv(["power", "coefficient"], [[i, c] for i, c in enumerate(coeffs)])
    else:
        print(" ".join(str(c) for c in coeffs))
    return 0


def _cmd_seq(args: argparse.Namespace) -> int:
    from . import registry

    piece = registry.generate(args.key, args.count)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "key": piece.key,
                    "start": piece.start,
                    "values": [str(v) for v in piece.values],
                }
            )
        )
    elif args.format == "csv":
        _emit_csv(
            ["index", "value"],
            [[piece.start + i, v] for i, v in enumerate(piece.values)],
        )
    else:
        print(" ".join(str(v) for v in piece.values))
    return 0


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    from . import oeis, registry

    cfg = oeis.default_config(
        fixture_dir=args.fixtures, offline=True if args.offline else None
    )
    entries = (
        registry.list_entries()
        if args.key == "all"
        else [registry.get_entry(args.key)]
    )
    reports = [registry.validate(e.key, oeis.load(e.fixture_id, cfg)) for e in entries]
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "key": r.key,
                        "fixture": r.fixture_id,
                        "status": r.status,
                        "offset": r.offset,
                        "agreed": r.agreed,
                    }
                    for r in reports
                ]
            )
        )
    elif args.format == "csv":
        _emit_csv(
            ["key", "fixture", "status", "offset", "agreed"],
            [[r.key, r.fixture_id, r.status, r.offset, r.agreed] for r in reports],
        )
    elif args.key == "all":
        for r in reports:
            print(f"{r.key} {r.status} offset={r.offset}")
    else:
        print(f"{reports[0].status} offset={reports[0].offset}")
    return 0 if all(r.validated for r in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("plain", "json", "csv"), default="plain",
        help="output format (default: plain)",
    )
    common.add_argument("--fixtures", metavar="DIR", help="fixture directory override")
    common.add_argument(
        "--offline", action="store_true", help="never touch the network"
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
    p.set_defaults(handler=_cmd_crosscheck)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (CapExceededError, KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except (FixtureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
