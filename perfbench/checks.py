"""Independent checks of every output, run after the timed job.

No output is checked against the route that produced it.  Large inset
values and Chebyshev magnitudes go through the power-sum route, small ones
through the DP route or the brute-force word counter.  Series are checked
against a Cauchy product written here, word listings by membership, strict
order, length and (for prefixes) lexicographic rank, and sequence terms
against the committed fixtures as parsed here, or their closed forms.  An
identity grid is replayed on DP values and must pass, and must fail once a
wrong value is planted where one of its cells reads its left side.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from insets import chebyshev, identities, registry
from insets.core import inset_dp, inset_power_sum
from insets.identities import IDENTITY_NAMES
from insets.words import count_bruteforce, is_satisfying

OFFSETS = (0, -1, 1, -2, 2, -3, 3, -4, 4)
MIN_OVERLAP = 15
LAW_MAX_ORDER = 128


class Mismatch(Exception):
    pass


def _short(value: object) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


# ---- independent routes ------------------------------------------------


def rising(r: int, order: int) -> list[int]:
    """Coefficients C(j + r, r), j = 0..order, of 1 / (1 - x)^(r + 1)."""
    out = [1]
    for j in range(1, order + 1):
        out.append(out[-1] * (j + r) // j)
    return out


def gf_expected(which: str, a: int, b: int, order: int) -> list[int]:
    """The generating function of ``series.gf_in_<which>`` by a Cauchy product."""
    if which == "m":  # (1+x)^a / (1-x)^(b+1)
        num, inv = [math.comb(a, i) for i in range(a + 1)], rising(b, order)
    elif which == "n":  # (1-x)^a / (1-2x)^(b+1)
        num = [(-1) ** i * math.comb(a, i) for i in range(a + 1)]
        inv = [c << j for j, c in enumerate(rising(b, order))]
    else:  # (2-x)^b / (1-x)^(a+b+1)
        num = [(-1) ** i * math.comb(b, i) << (b - i) for i in range(b + 1)]
        inv = rising(a + b, order)
    return [sum(num[i] * inv[j - i] for i in range(min(j, len(num) - 1) + 1))
            for j in range(order + 1)]


def gf_law(which: str, a: int, b: int, idx: int) -> int | None:
    """The inset value the coefficient of x^idx must equal, if constrained."""
    if which == "m":
        return inset_power_sum(idx + b - a, a, b) if idx >= max(0, a - b) else None
    if which == "n":
        return inset_power_sum(a, idx + b - a, b) if idx + b >= a else None
    return inset_power_sum(a + idx, b, idx)


def cheb_expected(m: int, d: int, k: int) -> int:
    """Signed coefficient of x^k in P(m, d) from its word-count magnitude."""
    if (d - k) % 2:
        return 0
    half, twos = (d + k) // 2, (d - k) // 2
    if half < m:
        return 0
    magnitude = inset_power_sum(m, half - m, twos)
    return -magnitude if twos % 2 else magnitude


def completions(fixed: int, free: int, twos: int) -> int:
    """Words of ``fixed`` letters from {1,2} then ``free`` from {0,1,2} with ``twos`` 2s."""
    return sum(math.comb(fixed, i) * math.comb(free, twos - i) << (free - twos + i)
               for i in range(max(0, twos - free), min(fixed, twos) + 1))


def lex_rank(word: str, m: int, n: int, k: int) -> int:
    """Number of satisfying words lexicographically before ``word``."""
    rank, twos = 0, 0
    for pos, ch in enumerate(word):
        rest = m + n - pos - 1
        fixed = max(0, m - pos - 1)
        for smaller in ("12" if pos < m else "012"):
            if smaller >= ch:
                break
            need = k - twos - (smaller == "2")
            if 0 <= need <= rest:
                rank += completions(fixed, rest - fixed, need)
        twos += ch == "2"
    return rank


def fibonacci(i: int) -> int:
    a, b = 0, 1
    for _ in range(i):
        a, b = b, a + b
    return a


def antidiagonal(i: int) -> tuple[int, int]:
    d = (math.isqrt(8 * i + 1) - 1) // 2
    return d, i - d * (d + 1) // 2


def _sulanke(n: int, k: int) -> int:
    if (n + k) % 2 == 0:
        h = (n + k) // 2
        return inset_power_sum(h, h, k)
    return inset_power_sum((n + k - 1) // 2, (n + k + 1) // 2, k)


# cell maps of the sequences big-values generates, restated from the catalog
TERM = {
    "central_delannoy": lambda i: inset_power_sum(i, i, i),
    "fibonacci": lambda i: fibonacci(i + 3),
    "delannoy": lambda i: (lambda d, j: inset_power_sum(j, d - j, d - j))(*antidiagonal(i)),
    "sulanke_even": lambda i: (lambda d, j: _sulanke(d - j, j))(*antidiagonal(i)),
    "lee_sphere": lambda i: inset_power_sum(i * i, i, i),
}


# where each identity reads its left side at grid cell (m, n, k), restated
# from the paper rather than taken from insets.identities
LEFT_SIDE = {
    "alternating_shift": lambda m, n, k: (m + 1, n - 1, k),
    "horizontal_full": lambda m, n, k: (m + 1, n, k + 1),
    "horizontal_tail": lambda m, n, k: (m + 1, n, k + 1),
    "shifted_window": lambda m, n, k: (m + k - n, n, k),
    **{name: lambda m, n, k: (m, n, k) for name in (
        "pascal", "vertical", "doubling", "telescoping", "zeros_placement", "binomial_sum",
        "convolution", "parity_shift", "first_row")},
}


def alignment(values: list[int], fixture: list[int]) -> tuple[int, int] | None:
    """First offset in [-4, 4] at which every overlapping term agrees, with the overlap."""
    for off in OFFSETS:
        lo, hi = max(0, -off), min(len(values), len(fixture) - off)
        if hi - lo >= min(MIN_OVERLAP, len(values)) and all(
            values[i] == fixture[i + off] for i in range(lo, hi)
        ):
            return off, hi - lo
    return None


def _csv(text: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise Mismatch(f"csv header {rows[:1]!r}, want {header!r}")
    return rows[1:]


def _ints(line: str) -> list[int]:
    return [int(x) for x in line.split()]


# ---- the checker -------------------------------------------------------


class Checker:
    """Checks one output per call; ``bump`` shifts every expected integer."""

    def __init__(self, fixture_dir: Path) -> None:
        self.fixture_dir = fixture_dir
        self.bump = 0
        self.work: dict[str, int] = {}  # work counts seen while checking
        self._fixtures: dict[str, list[tuple[int, int]]] = {}
        self._offsets: dict[str, tuple[int, int]] = {}

    def eq(self, got: object, want: object, what: str) -> None:
        if isinstance(want, int) and not isinstance(want, bool):
            want = want + self.bump
        if got != want:
            raise Mismatch(f"{what}: got {_short(got)}, want {_short(want)}")

    def eq_list(self, got: list[int], want: list[int], what: str) -> None:
        self.eq(len(got), len(want), f"{what} length")
        for i, (g, w) in enumerate(zip(got, want)):
            self.eq(g, w, f"{what}[{i}]")

    def check(self, kind: str, args: list, out: object) -> None:
        getattr(self, "_" + kind.replace(".", "_"))(out, *args)

    # fixtures, parsed here rather than by insets.oeis

    def fixture_entries(self, fixture_id: str) -> list[tuple[int, int]]:
        if fixture_id not in self._fixtures:
            name = (f"b{fixture_id[1:]}.txt" if fixture_id[:1] == "A" and fixture_id[1:].isdigit()
                    else f"{fixture_id}.txt")
            text = (self.fixture_dir / name).read_text(encoding="utf-8")
            self._fixtures[fixture_id] = [
                tuple(map(int, line.split())) for line in text.splitlines()
                if line.strip() and not line.lstrip().startswith("#")
            ]
        return self._fixtures[fixture_id]

    def fixture(self, fixture_id: str) -> list[int]:
        return [v for _, v in self.fixture_entries(fixture_id)]

    def registry_offset(self, key: str) -> tuple[int, int]:
        """Offset and overlap at which the entry's terms meet its fixture."""
        if key not in self._offsets:
            fvals = self.fixture(registry.get_entry(key).fixture_id)
            gen = registry.generate(key, min(40, len(fvals) + 4)).values
            found = alignment(gen, fvals)
            if found is None or found[1] < MIN_OVERLAP:
                raise Mismatch(f"{key}: no offset in [-4, 4] agrees with the fixture")
            self._offsets[key] = found
        return self._offsets[key]

    def seq_terms(self, key: str, values: list[int]) -> None:
        entry = registry.get_entry(key)
        fvals = self.fixture(entry.fixture_id)
        found = alignment(values, fvals)
        if found is None:
            raise Mismatch(f"{key}: terms agree with the fixture at no offset in [-4, 4]")
        off, _ = found
        for i, v in enumerate(values):
            if 0 <= i + off < len(fvals):
                self.eq(v, fvals[i + off], f"{key} term {i}")
            elif entry.closed_form is not None:
                self.eq(v, entry.closed_form(entry.start + i), f"{key} term {i}")
            else:
                raise Mismatch(f"{key} term {i} has neither a fixture term nor a closed form")

    def series_terms(self, coeffs: list[int], which: str, a: int, b: int, order: int) -> None:
        self.eq_list(coeffs, gf_expected(which, a, b, order), f"gf_in_{which}({a},{b})")
        if order <= LAW_MAX_ORDER:
            for idx, got in enumerate(coeffs):
                want = gf_law(which, a, b, idx)
                if want is not None:
                    self.eq(got, want, f"gf_in_{which}({a},{b}) law at x^{idx}")

    def listing(self, words: list[str], m: int, n: int, k: int, total: int) -> None:
        self.eq(len(words), total, f"listing ({m},{n},{k}) length")
        self.sorted_members(words, m, n, k)

    def sorted_members(self, words: list[str], m: int, n: int, k: int) -> None:
        for w in words:
            if not is_satisfying(w, m, n, k):
                raise Mismatch(f"{w!r} does not satisfy ({m},{n},{k})")
        for a, b in zip(words, words[1:]):
            if not a < b:
                raise Mismatch(f"listing not strictly increasing at {a!r}, {b!r}")

    # in-process calls

    def _core_inset(self, out, m, n, k):
        self.eq(out, inset_power_sum(m, n, k), f"inset({m},{n},{k})")

    def _core_trapeze_table(self, rows, n, m_max):
        self.eq(len(rows), m_max + 1, "table rows")
        for m, row in enumerate(rows):
            self.eq(len(row), m + n + 1, f"row {m} length")
            # every word of length m+n with a zero-free m-prefix, by number of 2s
            self.eq(sum(row), 3 ** n << m, f"row {m} sum")
            self.eq(row[0], 1 << n, f"row {m} left edge")
        for i in range(16):
            m = (i * 7919) % (m_max + 1)
            k = (i * 104729) % (m + n + 1)
            self.eq(rows[m][k], inset_power_sum(m, n, k), f"cell ({m},{n},{k})")

    def _chebyshev_polynomial(self, out, m, d):
        self.eq_list(out, [cheb_expected(m, d, k) for k in range(d + 1)], f"P({m},{d})")

    def _series_gf(self, out, which, a, b, order):
        self.series_terms(out, which, a, b, order)

    def _registry_generate(self, piece, key, count):
        self.eq(len(piece.values), count, f"{key} term count")
        for i, v in enumerate(piece.values):
            self.eq(v, TERM[key](i), f"{key} term {i}")
        if alignment(piece.values, self.fixture(registry.get_entry(key).fixture_id)) is None:
            raise Mismatch(f"{key}: terms agree with the fixture at no offset in [-4, 4]")

    def _identities_verify(self, report, name, m_max, n_max):
        self.eq(int(report.passed), 1, f"identity {name} passes")
        self.eq((report.identity, report.m_max, report.n_max), (name, m_max, n_max), "report")
        # The grid is really evaluated: replayed on DP values it passes, and
        # with one wrong value planted where a middle cell and the last cell
        # read their left side, it fails.  A grid that skips cells misses a
        # plant.
        reads = 0

        def dp(m: int, n: int, k: int) -> int:
            nonlocal reads
            reads += 1
            return inset_dp(m, n, k)

        replay = identities.verify(name, m_max, n_max, inset_fn=dp)
        self.eq(int(replay.passed), 1, f"identity {name} on DP values")
        self.work["identities.cells"] = self.work.get("identities.cells", 0) + reads
        m0 = 0 if name == "first_row" else m_max
        for cell in ((m0 // 2, n_max // 2, n_max // 2), (m0, n_max, m0 + n_max)):
            planted = LEFT_SIDE[name](*cell)

            def wrong(m: int, n: int, k: int, planted=planted) -> int:
                return inset_dp(m, n, k) + ((m, n, k) == planted)

            if identities.verify(name, m_max, n_max, inset_fn=wrong).passed:
                raise Mismatch(f"identity {name}: a wrong value at {planted} went unnoticed")

    def _oeis_load(self, bfile, fixture_id):
        want = self.fixture_entries(fixture_id)
        self.eq(len(bfile.entries), len(want), f"{fixture_id} entries")
        self.eq(list(bfile.entries), want, f"{fixture_id} entries")

    def _registry_validate(self, report, key, fixture_id):
        off, overlap = self.registry_offset(key)
        self.eq(report.offset, off, f"{key} offset")
        self.eq(report.agreed, overlap, f"{key} agreed terms")
        self.eq(report.status, "validated", f"{key} status")

    def _words_enumerate(self, words, m, n, k):
        self.listing(words, m, n, k, inset_dp(m, n, k))

    def _words_bruteforce(self, out, m, n, k):
        self.eq(out, inset_power_sum(m, n, k), f"bruteforce({m},{n},{k})")

    def _chebyshev_oracle(self, out, kind, n):
        self.eq_list(out, chebyshev.polynomial(1 if kind == "first" else 0, n), f"{kind} kind {n}")

    def _oracles_delannoy_paths(self, out, m, n):
        self.eq(out, inset_power_sum(m, n, n), f"delannoy_paths({m},{n})")

    def _oracles_lattice_points(self, out, dim, radius, mode):
        if mode == "ball":
            want = inset_power_sum(radius, dim, dim)
        else:
            want = inset_power_sum(radius - 1, dim, dim - 1) if radius else 1
        self.eq(out, want, f"lattice_points({dim},{radius},{mode})")

    def _oracles_weak_compositions_with_zeros(self, out, total, zeros):
        self.eq(out, inset_power_sum(zeros + 1, total - 1, zeros),
                f"weak_compositions({total},{zeros})")

    # CLI invocations: out is (exit code, stdout, stderr, peak RSS in MB)

    def _cli(self, out, argv):
        rc, stdout, stderr, _ = out
        self.eq(rc, 0, f"exit code of {' '.join(argv)} ({stderr.strip()[:200]})")
        fmt = argv[argv.index("--format") + 1]
        return fmt, stdout.decode("utf-8")

    def _cli_compute(self, out, *argv):
        fmt, text = self._cli(out, argv)
        m, n, k = map(int, argv[1:4])
        if fmt == "plain":
            value = int(text.strip())
        elif fmt == "json":
            doc = json.loads(text)
            self.eq((doc["m"], doc["n"], doc["k"]), (m, n, k), "compute indices")
            value = int(doc["value"])
        else:
            (row,) = _csv(text, ["m", "n", "k", "value"])
            self.eq(list(map(int, row[:3])), [m, n, k], "compute indices")
            value = int(row[3])
        self.eq(value, inset_dp(m, n, k), f"compute {m} {n} {k}")

    def _cli_table(self, out, *argv):
        fmt, text = self._cli(out, argv)
        n, m_max = int(argv[1]), int(argv[2])
        if fmt == "plain":
            rows = [_ints(line) for line in text.splitlines()]
        elif fmt == "json":
            rows = [[int(v) for v in row] for row in json.loads(text)["rows"]]
        else:
            rows = [[] for _ in range(m_max + 1)]
            for m, k, v in _csv(text, ["m", "k", "value"]):
                self.eq(int(k), len(rows[int(m)]), "csv cell order")
                rows[int(m)].append(int(v))
        self.eq(len(rows), m_max + 1, "table rows")
        for m, row in enumerate(rows):
            self.eq_list(row, [inset_dp(m, n, k) for k in range(m + n + 1)], f"table row {m}")

    def _words_output(self, out, argv):
        fmt, text = self._cli(out, argv)
        if fmt == "plain":
            *words, tail = text.splitlines()
            return words, tail
        if fmt == "json":
            return json.loads(text), None
        return [row[0] for row in _csv(text, ["word"])], None

    def _cli_words(self, out, *argv):
        m, n, k = map(int, argv[1:4])
        words, tail = self._words_output(out, argv)
        total = count_bruteforce(m, n, k)
        if tail is not None:
            self.eq(tail, f"count {total}", "count line")
        self.listing(words, m, n, k, total)

    def _cli_words_prefix(self, out, *argv):
        m, n, k = map(int, argv[1:4])
        limit = int(argv[argv.index("--limit") + 1])
        words, tail = self._words_output(out, argv)
        total = inset_power_sum(m, n, k)
        if tail is not None:
            self.eq(tail, f"count {total}", "count line")
        self.eq(len(words), min(limit, total), "prefix length")
        self.sorted_members(words, m, n, k)
        for i, w in enumerate(words):
            self.eq(lex_rank(w, m, n, k), i, f"rank of {w}")

    def _cli_verify(self, out, *argv):
        fmt, text = self._cli(out, argv)
        name, m_max, n_max = argv[1], int(argv[2]), int(argv[3])
        names = list(IDENTITY_NAMES) if name == "all" else [name]
        if fmt == "plain":
            got = [line.split() for line in text.splitlines()]
            self.eq(got, [["PASS", x] for x in names], "verify lines")
        elif fmt == "json":
            got = [(d["identity"], d["passed"], d["m_max"], d["n_max"]) for d in json.loads(text)]
            self.eq(got, [(x, True, m_max, n_max) for x in names], "verify reports")
        else:
            got = [row[:2] for row in _csv(text, ["identity", "result", "params", "lhs", "rhs"])]
            self.eq(got, [[x, "PASS"] for x in names], "verify rows")
        self.eq(len(got), len(names), "identities reported")

    def _cli_series(self, out, *argv):
        fmt, text = self._cli(out, argv)
        which, a, b, order = argv[1], int(argv[2]), int(argv[3]), int(argv[4])
        if fmt == "plain":
            first, verdict = text.splitlines()
            coeffs = _ints(first)
            self.eq(verdict, "PASS", "series check line")
        elif fmt == "json":
            doc = json.loads(text)
            coeffs = [int(c) for c in doc["coefficients"]]
            self.eq(doc["check"], "PASS", "series check field")
        else:
            rows = _csv(text, ["power", "coefficient"])
            self.eq([int(r[0]) for r in rows], list(range(len(rows))), "series powers")
            coeffs = [int(r[1]) for r in rows]
        self.series_terms(coeffs, which, a, b, order)

    def _cli_poly(self, out, *argv):
        fmt, text = self._cli(out, argv)
        m, d = int(argv[1]), int(argv[2])
        if fmt == "plain":
            coeffs = _ints(text)
        elif fmt == "json":
            coeffs = [int(c) for c in json.loads(text)["coefficients"]]
        else:
            rows = _csv(text, ["power", "coefficient"])
            self.eq([int(r[0]) for r in rows], list(range(len(rows))), "poly powers")
            coeffs = [int(r[1]) for r in rows]
        self.eq_list(coeffs, [cheb_expected(m, d, k) for k in range(d + 1)], f"poly {m} {d}")

    def _cli_seq(self, out, *argv):
        fmt, text = self._cli(out, argv)
        key, count = argv[1], int(argv[2])
        if fmt == "plain":
            values = _ints(text)
        elif fmt == "json":
            doc = json.loads(text)
            self.eq((doc["key"], doc["start"]), (key, registry.get_entry(key).start), "seq header")
            values = [int(v) for v in doc["values"]]
        else:
            rows = _csv(text, ["index", "value"])
            start = registry.get_entry(key).start
            self.eq([int(r[0]) for r in rows], list(range(start, start + len(rows))), "seq index")
            values = [int(r[1]) for r in rows]
        self.eq(len(values), count, f"{key} term count")
        self.seq_terms(key, values)

    def _cli_crosscheck(self, out, *argv):
        fmt, text = self._cli(out, argv)
        key = argv[1]
        keys = [e.key for e in registry.list_entries()] if key == "all" else [key]
        want = [(k, "validated", self.registry_offset(k)[0]) for k in keys]
        if fmt == "plain":
            lines = [line.split() for line in text.splitlines()]
            if key != "all":
                lines = [[key, *line] for line in lines]
            got = [(x[0], x[1], int(x[2].removeprefix("offset="))) for x in lines]
        elif fmt == "json":
            got = [(d["key"], d["status"], d["offset"]) for d in json.loads(text)]
        else:
            rows = _csv(text, ["key", "fixture", "status", "offset", "agreed"])
            got = [(r[0], r[2], int(r[3])) for r in rows]
        self.eq(len(got), len(want), "crosscheck reports")
        self.eq(got, want, "crosscheck reports")

