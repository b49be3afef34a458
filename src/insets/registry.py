"""Catalog of named integer sequences realized by inset numbers.

Each entry is a stream of terms: ``entry.terms(i)`` returns a fresh
iterator over the terms from linear index ``i`` on, and nothing is cached
between calls, so ``next(entry.terms(i))`` is term ``i``.  An entry names
its inset cells (m, n, k) and one of three readers makes its terms: ``_line``
reads one cell per index, ``_rows`` (and ``_antidiagonals``, its square-array
case) reads a two-dimensional array row by row, and these two are the only
readers that call ``inset``.  The third, ``_recurrence``, serves the six
entries that walk the recurrence row ``_RECURRENCES`` holds for them from d
seed terms, with one ``exact_div`` a term.  Each entry also names the fixture
it is validated against, and optionally carries a closed form that must
agree with the inset route term by term.  :func:`validate` takes that
fixture already parsed, an ``oeis.BFile``, so this module never imports
the fixture reader and ``insets seq`` does not load it.

The catalog is one ordered table, ``_TABLE``.  32 of its 40 entries read one
cell per index along a line, (a*i + b, c*i + d, e*i + f) at index i, and
each states that cell once, as a row: key, fixture, index letter, the
coefficients (a, b, c, d, e, f), the description's words after the cell,
start and closed form.  The builder prints the description's ``inset(...)``
prefix from the coefficients, so the text cannot disagree with the cell, and
a key of ``_RECURRENCES`` walks its row from inset at that cell.  The three
``coordination_Z*`` rows read (0, d, d) at index 0, the ball of radius 0.
The eight other entries are written out whole in the table.

The 40 entries hold 34 streams: six entries are readings of an earlier
entry's stream.  Its term i is that entry's term i + shift, and its fixture
is that entry's.  A row with no fixture is a reading, and its source is
found from the coefficients at import: the earlier row whose line holds the
reading's cells at a shift s >= 0.  That finds ``crystal_ball_Z1``, ``Z2``
and ``Z3`` on ``odd_numbers``, ``centered_square`` and
``centered_octahedral``, ``octahedron_surface`` on ``coordination_Z3``
shifted by 1, and ``even_squares_sum`` on ``bishop_moves`` shifted by 2.
Only ``sulanke_odd``, which reads ``sulanke_even`` from index 1, is
declared by hand.  ``_READINGS`` records all six as key -> (stream key,
shift).  :func:`validate` still validates each reading on its own, so each
report keeps its own offset.

Alignment against fixtures is discovered, not transcribed: several named
sequences are known to sit at a shifted index relative to their customary
numbering, so :func:`validate` searches offsets in [-4, 4] and requires
full agreement on an overlap of at least 15 terms.

Two-dimensional families (Delannoy square, asymmetric Delannoy square,
Sulanke grid, the two-boundary Pascal triangle, cell-count table) are read
by antidiagonals resp. rows; the committed fixtures use the same reading.
A stream walks the cells of its array in order, so no index is decoded
back into a cell.  Antidiagonal d of the Sulanke grid is one whole inset
row, the cells (d // 2, d - d // 2, j) for j = 0..d.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Callable, Iterator

from . import _EXPORTS
from ._record import Record
from .core import binomial, inset
from .errors import FixtureError

__all__ = _EXPORTS["registry"]

OFFSET_SEARCH = (0, -1, 1, -2, 2, -3, 3, -4, 4)
MIN_AGREEMENT = 15


Terms = Callable[[int], Iterator[int]]


class SequenceEntry(Record):
    key: str
    fixture_id: str  # OEIS id (Axxxxxx) or a local fixture stem
    description: str
    # terms(i): a fresh iterator over the terms from index i on, never cached
    terms: Terms
    start: int = 0
    closed_form: Callable[[int], int] | None = None


class SequenceSlice(Record):
    key: str
    start: int
    values: list[int]


class ValidationReport(Record):
    key: str
    fixture_id: str
    status: str  # "validated" | "provisional"
    offset: int
    agreed: int
    mismatch: tuple[int, int, int] | None = None  # (gen index, gen value, fixture value)

    @property
    def validated(self) -> bool:
        return self.status == "validated"


def fibonacci_by_insets(m: int) -> int:
    """The sum over i <= floor((m+1)/2) of inset(m-i, 1, i); equals F(m+3)."""
    if m < 0:
        raise ValueError("index must be nonnegative")
    return sum(inset(m - i, 1, i) for i in range((m + 1) // 2 + 1))


def _line(cell: Callable[[int], tuple[int, int, int]]) -> Terms:
    """The terms inset(*cell(i)) for i = start, start + 1, ..."""
    return lambda start: itertools.starmap(inset, map(cell, itertools.count(start)))


# Rows p_0..p_d of sum_j p_j(n) a(n-j) = 0, each p_j lowest degree first.  A
# sum of inset numbers along a line has one by Zeilberger's algorithm (A = B,
# ch. 6).  Guessed rows were fitted to per-term inset values, and
# tests/test_registry.py re-derives every row from those values.
_RECURRENCES = {
    # A000045: a(n) = a(n-1) + a(n-2)
    "fibonacci": ((1,), (-1,), (-1,)),
    # A001850, from OEIS: n a(n) = 3(2n-1) a(n-1) - (n-1) a(n-2)
    "central_delannoy": ((0, 1), (3, -6), (-1, 1)),
    # A051960, from a(k) = (3k+2) Catalan(k): (k+1)(3k-1) a(k) = 2(2k-1)(3k+2) a(k-1)
    "catalan_scaled": ((1, -2, -3), (-4, 2, 12)),
    # A002002, guessed:
    # (m+1)(2m-1) a(m) = 2(6m^2-1) a(m-1) - (m-1)(2m+1) a(m-2)
    "schroeder_peaks": ((-1, 1, 2), (2, 0, -12), (-1, -1, 2)),
    # A002003, guessed:
    # (m+1)(2m-1) a(m) = 4(3m^2-1) a(m-1) - (m-1)(2m+1) a(m-2)
    "partial_self_maps": ((-1, 1, 2), (4, 0, -12), (-1, -1, 2)),
    # A176479, guessed: n(n-1) a(n) = 3(n-1)(2n-1) a(n-1) - n(n-2) a(n-2),
    # whose p_0 vanishes only at n = 0 and 1, below the first walked n
    "dyck_two_levels": ((0, -1, 1), (-3, 9, -6), (0, -2, 1)),
}


def exact_div(numerator: int, denominator: int) -> int:
    """Integer division that must leave no remainder."""
    q, r = divmod(numerator, denominator)
    if r:
        raise ArithmeticError(f"{numerator} is not divisible by {denominator}")
    return q


def _horner(poly: tuple[int, ...], n: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * n + c
    return acc


def _recurrence(key: str, value: Callable[[int], int]) -> Terms:
    """The terms value(i) from the start: d seeds read per term, then walked.

    The walk steps the row p_0..p_d of ``_RECURRENCES[key]``.  Each later term
    is one exact division by p_0(n), which must not vanish there, so a row
    that does not fit the terms raises ArithmeticError at its first inexact
    step instead of flooring.
    """
    head, *tail = _RECURRENCES[key]

    def terms(start: int) -> Iterator[int]:
        # a(n-d), ..., a(n-1), from the d seeds
        window = deque(map(value, range(start, start + len(tail))), maxlen=len(tail))
        yield from window
        for n in itertools.count(start + len(tail)):
            acc = 0
            for poly, prior in zip(tail, reversed(window)):
                acc -= _horner(poly, n) * prior
            window.append(exact_div(acc, _horner(head, n)))
            yield window[-1]

    return terms


def _rows(row: Callable[[int], range], cell: Callable[[int, int], tuple[int, int, int]]) -> Terms:
    """The terms inset(*cell(r, c)) for c in row(r), rows r = 0, 1, ... in turn.

    Starting at index i skips the first i cells without calling ``inset`` on them.
    """

    def terms(start: int) -> Iterator[int]:
        cells = (cell(r, c) for r in itertools.count() for c in row(r))
        return itertools.starmap(inset, itertools.islice(cells, start, None))

    return terms


def _antidiagonals(cell: Callable[[int, int], tuple[int, int, int]]) -> Terms:
    """A square array inset(*cell(d, j)), j = 0..d, read by antidiagonals d = 0, 1, ..."""
    return _rows(lambda d: range(d + 1), cell)


def _affine(a: int, b: int, index: str) -> str:
    """a*index + b as a description prints it: 2k, m+1, n-2, 3."""
    if not a:
        return str(b)
    return (index if a == 1 else f"{a}{index}") + (f"{b:+d}" if b else "")


def _shift(cell: tuple[int, ...], line: tuple[int, ...]) -> int | None:
    """The s >= 0 with cell(i) == line(i + s) for every i, else None; each is
    (a, b, c, d, e, f), the cell (a*i + b, c*i + d, e*i + f) at index i."""
    slopes, gaps = cell[::2], [x - y for x, y in zip(cell[1::2], line[1::2])]
    if slopes != line[::2]:
        return None
    s = next((gap // a for gap, a in zip(gaps, slopes) if a), 0)
    return s if s >= 0 and gaps == [a * s for a in slopes] else None


_sulanke = _antidiagonals(lambda d, j: (d // 2, d - d // 2, j))
_GRID = "parity-split grid read by antidiagonals, anchored on the "
_BALL = ": lattice points with |x|_1 <= m in Z^"
_SPHERE = ": lattice points with |x|_1 = m in Z^"

# The catalog in order.  A row, built by _from_row, is (key, fixture or None
# for a reading, index letter, (a, b, c, d, e, f), the description's words
# after the cell, start, closed form); the eight entries that read no line
# of cells are written out whole.
_TABLE = [
    ("odd_numbers", "A005408", "m", (1, 0, 0, 1, 0, 1), ": odd numbers 2m+1",
     0, lambda m: 2 * m + 1),
    ("squares", "A000290", "m", (1, 0, 0, 1, 0, 2), ": perfect squares m^2",
     0, lambda m: m * m),
    ("square_pyramidal", "A000330", "m", (1, 0, 0, 1, 0, 3), ": square pyramidal numbers, shifted",
     0, lambda m: exact_div((m - 1) * m * (2 * m - 1), 6)),
    ("pyramidal_4d", "A002415", "m", (1, 0, 0, 1, 0, 4),
     ": four-dimensional pyramidal numbers, shifted",
     0, lambda m: exact_div((m - 1) ** 2 * ((m - 1) ** 2 - 1), 12)),
    ("centered_square", "A001844", "m", (1, 0, 0, 2, 0, 2), ": centered squares m^2 + (m+1)^2",
     0, lambda m: m * m + (m + 1) * (m + 1)),
    ("octahedral", "A005900", "m", (1, 0, 0, 2, 0, 3), ": octahedral numbers m(2m^2+1)/3",
     0, lambda m: exact_div(m * (2 * m * m + 1), 3)),
    ("centered_octahedral", "A001845", "m", (1, 0, 0, 3, 0, 3),
     ": centered octahedral numbers (2m+1)(2m^2+2m+3)/3",
     0, lambda m: exact_div((2 * m + 1) * (2 * m * m + 2 * m + 3), 3)),
    ("centered_polygonal_4d", "A006325", "m", (1, 0, 0, 2, 0, 4),
     ": 4-dimensional centered polygonal analog m(m-1)(m^2-m+1)/6",
     0, lambda m: exact_div(m * (m - 1) * (m * m - m + 1), 6)),
    ("dyck_pyramid_weight", "A001793", "n", (0, 1, 1, 0, 0, 2),
     ": n(n+3)2^(n-3); pyramid weight of Dyck paths",
     0, lambda n: exact_div(n * (n + 3) * (1 << n), 8)),
    ("bishop_moves", "A002492", "n", (0, 1, 1, 0, 1, -2),
     ": bishop moves on the n x n board, n >= 2",
     2, lambda n: exact_div(2 * n * (2 * n - 1) * (n - 1), 3)),
    ("squares_convolution", "A033455", "m", (1, 0, 0, 2, 0, 5),
     ": convolution of nonzero squares with themselves, shifted",
     0, lambda m: exact_div((m - 1) * ((m - 1) ** 4 - 1), 30)),
    SequenceEntry(
        "delannoy",
        "A008288",
        "Delannoy square D(m,n) = inset(m,n,n), read by antidiagonals",
        _antidiagonals(lambda d, j: (j, d - j, d - j)),
    ),
    ("central_delannoy", "A001850", "n", (1, 0, 1, 0, 1, 0), ": central Delannoy numbers", 0, None),
    SequenceEntry(
        "asymmetric_delannoy",
        "A049600",
        "asymmetric Delannoy square inset(m,n,m), read by antidiagonals",
        _antidiagonals(lambda d, j: (j, d - j, j)),
    ),
    ("catalan_scaled", "A051960", "k", (2, 0, 0, 1, 1, 0), " = (3k+2) * Catalan(k)", 0, None),
    SequenceEntry(
        "fibonacci",
        "A000045",
        "sum_i inset(m-i,1,i) over i <= (m+1)/2: Fibonacci F(m+3)",
        _recurrence("fibonacci", fibonacci_by_insets),
    ),
    SequenceEntry("sulanke_even", "A064861", _GRID + "even corner", _sulanke),
    # a reading declared by hand: the array is on no line of cells
    SequenceEntry("sulanke_odd", "A064861", _GRID + "first odd cell", _sulanke, start=1),
    ("crystal_ball_Z1", None, "m", (1, 0, 0, 1, 0, 1), _BALL + "1", 0, None),
    ("crystal_ball_Z2", None, "m", (1, 0, 0, 2, 0, 2), _BALL + "2", 0, None),
    ("crystal_ball_Z3", None, "m", (1, 0, 0, 3, 0, 3), _BALL + "3", 0, None),
    ("crystal_ball_Z4", "A001846", "m", (1, 0, 0, 4, 0, 4), _BALL + "4", 0, None),
    ("crystal_ball_Z5", "A001847", "m", (1, 0, 0, 5, 0, 5), _BALL + "5", 0, None),
    # coordination rows read (0, d, d) at index 0: the ball of radius 0
    ("coordination_Z3", "A005899", "m", (1, -1, 0, 3, 0, 2), _SPHERE + "3", 0, None),
    ("coordination_Z4", "A008412", "m", (1, -1, 0, 4, 0, 3), _SPHERE + "4", 0, None),
    ("coordination_Z5", "A008413", "m", (1, -1, 0, 5, 0, 4), _SPHERE + "5", 0, None),
    SequenceEntry(
        "lucas_triangle",
        "A029653",
        "rows inset(m,1,k), k = 0..m+1: the (2,1) Pascal triangle",
        _rows(lambda m: range(m + 2), lambda m, k: (m, 1, k)),
    ),
    ("weak_comp_2zeros", "A058396", "n", (0, 3, 1, 0, 0, 2),
     ": weak compositions of n+1 with exactly two zero parts",
     0, lambda n: exact_div((n * n + 11 * n + 24) * (1 << n), 8)),
    ("turan_triangles", "A000297", "m", (1, 1, 0, 2, 1, 0),
     ": triangles in the complete multipartite graph K(2,2,1,...,1) with m+1 parts of size 1",
     0, lambda m: binomial(m + 5, 3) - 2 * (m + 3)),
    ("octahedron_surface", None, "m", (1, 0, 0, 3, 0, 2),
     ": points on the octahedron surface 4(m+1)^2 + 2", 0, lambda m: 4 * (m + 1) * (m + 1) + 2),
    ("ccc_cliques", "A167667", "n", (1, 0, 1, 0, 0, 1),
     " = 3n 2^(n-1): maximum cliques in cube-connected cycles CCC(n), n >= 4",
     0, lambda n: exact_div(3 * n * (1 << n), 2)),
    ("schroeder_peaks", "A002002", "m", (1, 0, 1, 1, 1, 1),
     ": peaks in all Schroeder paths of semilength m+1", 0, None),
    ("partial_self_maps", "A002003", "m", (1, 0, 1, 1, 1, 0),
     ": order-preserving partial self-maps of an (m+1)-set", 0, None),
    ("dyck_central_peak", "A001105", "m", (0, 1, 1, 1, 1, 0), " = 2(m+1)^2",
     0, lambda m: 2 * (m + 1) * (m + 1)),
    ("even_squares_sum", None, "m", (0, 1, 1, 2, 1, 0), ": sum of the first m+1 even squares",
     0, lambda m: exact_div(2 * (m + 1) * (m + 2) * (2 * m + 3), 3)),
    ("walk_variance", "A072819", "m", (0, 1, 1, 3, 1, 0),
     ": variance of the time a symmetric walk from 0 takes to reach +-(m+2)",
     0, lambda m: exact_div(2 * (m + 2) ** 2 * ((m + 2) ** 2 - 1), 3)),
    ("hyperbola_regions", "A058331", "m", (0, 3, 1, 0, 1, 1),
     " = 2(m+1)^2 + 1: plane regions from m+1 hyperbolas", 0, lambda m: 2 * (m + 1) * (m + 1) + 1),
    ("dyck_two_levels", "A176479", "n", (1, 1, 1, -1, 1, 0),
     ": Dyck paths whose peaks are n at level 1 and n at level 2", 1, None),
    SequenceEntry(
        "lee_sphere",
        "A181675",
        "inset(n^2,n,n): lattice points in the n-dimensional ball of radius n^2",
        _line(lambda n: (n * n, n, n)),
    ),
    SequenceEntry(
        "braun_hough_cells",
        "braun_hough_cells",
        "inset(2,n-d+2,3d-2n): d-cell counts of the Braun-Hough complexes, valid cells by rows",
        _rows(
            lambda n: range((2 * n + 2) // 3, (3 * n + 4) // 4 + 1),
            lambda n, d: (2, n - d + 2, 3 * d - 2 * n),
        ),
    ),
]


def _from_row(
    row: tuple,
    lines: list[tuple[tuple[int, ...], SequenceEntry]],
    readings: dict[str, tuple[str, int]],
) -> SequenceEntry:
    """The entry of one table row.  ``lines`` holds (cell, entry) for each
    earlier row with a fixture, and a reading is recorded in ``readings``."""
    key, fixture, index, cell, words, start, closed_form = row
    cells = ",".join(_affine(x, y, index) for x, y in zip(cell[::2], cell[1::2]))
    description = f"inset({cells}){words}"
    if fixture is None:
        for line, source in lines:
            shift = _shift(cell, line)
            if shift is not None:
                break
        else:
            raise ValueError(f"reading {key} lies on the line of no earlier row")
        readings[key] = (source.key, shift)
        terms = lambda i: source.terms(i + shift)  # noqa: E731
        return SequenceEntry(key, source.fixture_id, description, terms, start, closed_form)

    a, b, c, d, e, f = cell
    ball_at_0 = key.startswith("coordination_")

    def at(i: int) -> tuple[int, int, int]:
        return (0, d, d) if ball_at_0 and not i else (a * i + b, c * i + d, e * i + f)

    walked = key in _RECURRENCES
    terms = _recurrence(key, lambda i: inset(*at(i))) if walked else _line(at)
    entry = SequenceEntry(key, fixture, description, terms, start, closed_form)
    lines.append((cell, entry))
    return entry


def _build_catalog() -> tuple[list[SequenceEntry], dict[str, tuple[str, int]]]:
    """The entries in order, and the readings: key -> (stream key, shift)."""
    lines: list[tuple[tuple[int, ...], SequenceEntry]] = []
    readings = {"sulanke_odd": ("sulanke_even", 0)}
    entries = [
        row if isinstance(row, SequenceEntry) else _from_row(row, lines, readings)
        for row in _TABLE
    ]
    return entries, readings


# _READINGS: reading key -> (stream key, shift), one item per reading
_CATALOG, _READINGS = _build_catalog()
_BY_KEY: dict[str, SequenceEntry] = {e.key: e for e in _CATALOG}


def list_entries() -> list[SequenceEntry]:
    """The full catalog in declaration order."""
    return list(_CATALOG)


def get_entry(key: str) -> SequenceEntry:
    try:
        return _BY_KEY[key]
    except KeyError:
        raise KeyError(f"unknown sequence key: {key!r}") from None


def generate(key: str, count: int) -> SequenceSlice:
    """First ``count`` terms from the entry's start index, inset route only."""
    if count < 1:
        raise ValueError("count must be positive")
    entry = get_entry(key)
    values = list(itertools.islice(entry.terms(entry.start), count))
    return SequenceSlice(key=key, start=entry.start, values=values)


def validate(key: str, fixture) -> ValidationReport:
    """Align generated terms with ``fixture``, an ``oeis.BFile``, by offset search.

    Offsets in [-4, 4] are tried, preferring small absolute shifts; the
    entry is validated when every overlapping term agrees and the overlap
    has at least 15 terms, otherwise it is reported provisional with the
    first mismatch at the best-agreeing offset.  ``fixture``'s type is named
    here, not annotated: this module does not import ``oeis``, so the
    annotation would not resolve.
    """
    entry = get_entry(key)
    if not fixture.entries:
        raise FixtureError(f"fixture unavailable for {key}: no entries")
    fvals = fixture.values
    gvals = generate(key, min(40, len(fvals) + 4)).values

    best: tuple[int, int, tuple[int, int, int]] | None = None
    for off in OFFSET_SEARCH:
        lo, hi = max(0, -off), min(len(gvals), len(fvals) - off)
        if hi - lo < MIN_AGREEMENT:
            continue
        bad = next((i for i in range(lo, hi) if gvals[i] != fvals[i + off]), None)
        if bad is None:
            return ValidationReport(key, entry.fixture_id, "validated", off, hi - lo)
        # the terms before the first mismatch agree
        if best is None or bad - lo > best[0]:
            best = (bad - lo, off, (entry.start + bad, gvals[bad], fvals[bad + off]))
    if best is None:
        raise FixtureError(
            f"fixture for {key} is too short: need an overlap of {MIN_AGREEMENT} terms"
        )
    agreed, off, mismatch = best
    return ValidationReport(key, entry.fixture_id, "provisional", off, agreed, mismatch)
