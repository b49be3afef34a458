"""Catalog of named integer sequences realized by inset numbers.

Each entry is a stream of terms: ``entry.terms(i)`` returns a fresh
iterator over the terms from linear index ``i`` on, and nothing is cached
between calls, so ``next(entry.terms(i))`` is term ``i``.  Most entries
read one inset cell per index, a few read two-dimensional arrays, and six
walk the recurrence row ``_RECURRENCES`` holds for them from d seed terms.
Each also names the fixture it is validated against, and optionally carries
a closed form that must agree with the inset route term by term.

Alignment against fixtures is discovered, not transcribed: several named
sequences are known to sit at a shifted index relative to their customary
numbering, so :func:`validate` searches offsets in [-4, 4] and requires
full agreement on an overlap of at least 15 terms.

Two-dimensional families (Delannoy square, asymmetric Delannoy square,
Sulanke grid, the two-boundary Pascal triangle, cell-count table) are read
by antidiagonals resp. rows; the committed fixtures use the same reading.
A stream walks the cells of its array in order, so no index is decoded
back into a cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .core import binomial, inset
from .errors import FixtureError
from .oeis import BFile
from .series import _p_recursive, exact_div

__all__ = [
    "SequenceEntry",
    "SequenceSlice",
    "ValidationReport",
    "generate",
    "get_entry",
    "list_entries",
    "validate",
]

OFFSET_SEARCH = (0, -1, 1, -2, 2, -3, 3, -4, 4)
MIN_AGREEMENT = 15


Terms = Callable[[int], Iterator[int]]


@dataclass(frozen=True)
class SequenceEntry:
    key: str
    fixture_id: str  # OEIS id (Axxxxxx) or a local fixture stem
    description: str
    # terms(i): a fresh iterator over the terms from index i on, never cached
    terms: Terms
    start: int = 0
    closed_form: Callable[[int], int] | None = None

    @property
    def oeis_id(self) -> str | None:
        return self.fixture_id if self.fixture_id.startswith("A") else None


@dataclass(frozen=True)
class SequenceSlice:
    key: str
    start: int
    values: list[int]


@dataclass(frozen=True)
class ValidationReport:
    key: str
    fixture_id: str
    status: str  # "validated" | "provisional"
    offset: int
    agreed: int
    mismatch: Optional[tuple[int, int, int]] = None  # (gen index, gen value, fixture value)

    @property
    def validated(self) -> bool:
        return self.status == "validated"


def sulanke(n: int, k: int) -> int:
    """Parity-split grid value: inset(h, h, k) with h = (n+k)/2 for even n+k,
    inset((n+k-1)/2, (n+k+1)/2, k) for odd n+k."""
    if n < 0 or k < 0:
        raise ValueError("grid cell must be nonnegative")
    if (n + k) % 2 == 0:
        h = (n + k) // 2
        return inset(h, h, k)
    return inset((n + k - 1) // 2, (n + k + 1) // 2, k)


def fibonacci_by_insets(m: int) -> int:
    """The sum over i <= floor((m+1)/2) of inset(m-i, 1, i); equals F(m+3)."""
    if m < 0:
        raise ValueError("index must be nonnegative")
    return sum(inset(m - i, 1, i) for i in range((m + 1) // 2 + 1))


def braun_hough_cells(d: int, n: int) -> int:
    """Number of d-dimensional cells in the n-th complex: inset(2, n-d+2, 3d-2n)."""
    if n - d + 2 < 0 or 3 * d - 2 * n < 0:
        return 0
    return inset(2, n - d + 2, 3 * d - 2 * n)


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


def _recurrence(key: str, value: Callable[[int], int]) -> Terms:
    """The terms value(i) from the start: d seeds read per term, then walked."""
    rows = _RECURRENCES[key]
    d = len(rows) - 1
    return lambda start: _p_recursive(start, map(value, range(start, start + d)), rows)


def _rows(row: Callable[[int], range], value: Callable[[int, int], int]) -> Terms:
    """The terms value(r, c) for c in row(r), rows r = 0, 1, ... in turn.

    Starting at index i skips the first i cells without computing them.
    """

    def terms(start: int) -> Iterator[int]:
        cells = ((r, c) for r in itertools.count() for c in row(r))
        return itertools.starmap(value, itertools.islice(cells, start, None))

    return terms


def _antidiagonals(value: Callable[[int, int], int]) -> Terms:
    """A square array value(d, j), j = 0..d, read by antidiagonals d = 0, 1, ..."""
    return _rows(lambda d: range(d + 1), value)


def _build_catalog() -> list[SequenceEntry]:
    sulanke_grid = _antidiagonals(lambda d, j: sulanke(d - j, j))
    entries = [
        SequenceEntry(
            "odd_numbers",
            "A005408",
            "inset(m,1,1): odd numbers 2m+1",
            _line(lambda m: (m, 1, 1)),
            closed_form=lambda m: 2 * m + 1,
        ),
        SequenceEntry(
            "squares",
            "A000290",
            "inset(m,1,2): perfect squares m^2",
            _line(lambda m: (m, 1, 2)),
            closed_form=lambda m: m * m,
        ),
        SequenceEntry(
            "square_pyramidal",
            "A000330",
            "inset(m,1,3): square pyramidal numbers, shifted",
            _line(lambda m: (m, 1, 3)),
            closed_form=lambda m: exact_div((m - 1) * m * (2 * m - 1), 6),
        ),
        SequenceEntry(
            "pyramidal_4d",
            "A002415",
            "inset(m,1,4): four-dimensional pyramidal numbers, shifted",
            _line(lambda m: (m, 1, 4)),
            closed_form=lambda m: exact_div((m - 1) ** 2 * ((m - 1) ** 2 - 1), 12),
        ),
        SequenceEntry(
            "centered_square",
            "A001844",
            "inset(m,2,2): centered squares m^2 + (m+1)^2",
            _line(lambda m: (m, 2, 2)),
            closed_form=lambda m: m * m + (m + 1) * (m + 1),
        ),
        SequenceEntry(
            "octahedral",
            "A005900",
            "inset(m,2,3): octahedral numbers m(2m^2+1)/3",
            _line(lambda m: (m, 2, 3)),
            closed_form=lambda m: exact_div(m * (2 * m * m + 1), 3),
        ),
        SequenceEntry(
            "centered_octahedral",
            "A001845",
            "inset(m,3,3): centered octahedral numbers (2m+1)(2m^2+2m+3)/3",
            _line(lambda m: (m, 3, 3)),
            closed_form=lambda m: exact_div((2 * m + 1) * (2 * m * m + 2 * m + 3), 3),
        ),
        SequenceEntry(
            "centered_polygonal_4d",
            "A006325",
            "inset(m,2,4): 4-dimensional centered polygonal analog m(m-1)(m^2-m+1)/6",
            _line(lambda m: (m, 2, 4)),
            closed_form=lambda m: exact_div(m * (m - 1) * (m * m - m + 1), 6),
        ),
        SequenceEntry(
            "dyck_pyramid_weight",
            "A001793",
            "inset(1,n,2): n(n+3)2^(n-3); pyramid weight of Dyck paths",
            _line(lambda n: (1, n, 2)),
            closed_form=lambda n: exact_div(n * (n + 3) * (1 << n), 8),
        ),
        SequenceEntry(
            "bishop_moves",
            "A002492",
            "inset(1,n,n-2): bishop moves on the n x n board, n >= 2",
            _line(lambda n: (1, n, n - 2)),
            start=2,
            closed_form=lambda n: exact_div(2 * n * (2 * n - 1) * (n - 1), 3),
        ),
        SequenceEntry(
            "squares_convolution",
            "A033455",
            "inset(m,2,5): convolution of nonzero squares with themselves, shifted",
            _line(lambda m: (m, 2, 5)),
            closed_form=lambda m: exact_div((m - 1) * ((m - 1) ** 4 - 1), 30),
        ),
        SequenceEntry(
            "delannoy",
            "A008288",
            "Delannoy square D(m,n) = inset(m,n,n), read by antidiagonals",
            _antidiagonals(lambda d, j: inset(j, d - j, d - j)),
        ),
        SequenceEntry(
            "central_delannoy",
            "A001850",
            "inset(n,n,n): central Delannoy numbers",
            _recurrence("central_delannoy", lambda n: inset(n, n, n)),
        ),
        SequenceEntry(
            "asymmetric_delannoy",
            "A049600",
            "asymmetric Delannoy square inset(m,n,m), read by antidiagonals",
            _antidiagonals(lambda d, j: inset(j, d - j, j)),
        ),
        SequenceEntry(
            "catalan_scaled",
            "A051960",
            "inset(2k,1,k) = (3k+2) * Catalan(k)",
            _recurrence("catalan_scaled", lambda k: inset(2 * k, 1, k)),
        ),
        SequenceEntry(
            "fibonacci",
            "A000045",
            "sum_i inset(m-i,1,i) over i <= (m+1)/2: Fibonacci F(m+3)",
            _recurrence("fibonacci", fibonacci_by_insets),
        ),
        SequenceEntry(
            "sulanke_even",
            "A064861",
            "parity-split grid read by antidiagonals, anchored on the even corner",
            sulanke_grid,
        ),
        SequenceEntry(
            "sulanke_odd",
            "A064861",
            "parity-split grid read by antidiagonals, anchored on the first odd cell",
            sulanke_grid,
            start=1,
        ),
    ]

    ball_ids = {1: "A005408", 2: "A001844", 3: "A001845", 4: "A001846", 5: "A001847"}
    for dim, fixture in ball_ids.items():
        entries.append(
            SequenceEntry(
                f"crystal_ball_Z{dim}",
                fixture,
                f"inset(m,{dim},{dim}): lattice points with |x|_1 <= m in Z^{dim}",
                _line(lambda m, d=dim: (m, d, d)),
            )
        )

    coordination_ids = {3: "A005899", 4: "A008412", 5: "A008413"}
    for dim, fixture in coordination_ids.items():

        def coordination(start: int, d: int = dim) -> Iterator[int]:
            return (1 if m == 0 else inset(m - 1, d, d - 1) for m in itertools.count(start))

        entries.append(
            SequenceEntry(
                f"coordination_Z{dim}",
                fixture,
                f"inset(m-1,{dim},{dim - 1}): lattice points with |x|_1 = m in Z^{dim}",
                coordination,
            )
        )

    entries += [
        SequenceEntry(
            "lucas_triangle",
            "A029653",
            "rows inset(m,1,k), k = 0..m+1: the (2,1) Pascal triangle",
            _rows(lambda m: range(m + 2), lambda m, k: inset(m, 1, k)),
        ),
        SequenceEntry(
            "weak_comp_2zeros",
            "A058396",
            "inset(3,n,2): weak compositions of n+1 with exactly two zero parts",
            _line(lambda n: (3, n, 2)),
            closed_form=lambda n: exact_div((n * n + 11 * n + 24) * (1 << n), 8),
        ),
        SequenceEntry(
            "turan_triangles",
            "A000297",
            "inset(m+1,2,m): triangles in the complete multipartite graph with parts (2,2,1,...)",
            _line(lambda m: (m + 1, 2, m)),
            closed_form=lambda m: binomial(m + 5, 3) - 2 * (m + 3),
        ),
        SequenceEntry(
            "octahedron_surface",
            "A005899",
            "inset(m,3,2): points on the octahedron surface 4(m+1)^2 + 2",
            _line(lambda m: (m, 3, 2)),
            closed_form=lambda m: 4 * (m + 1) * (m + 1) + 2,
        ),
        SequenceEntry(
            "ccc_cliques",
            "A167667",
            "inset(n,n,1) = 3n 2^(n-1): maximum cliques in cube-connected cycles",
            _line(lambda n: (n, n, 1)),
            closed_form=lambda n: exact_div(3 * n * (1 << n), 2),
        ),
        SequenceEntry(
            "schroeder_peaks",
            "A002002",
            "inset(m,m+1,m+1): peaks in all Schroeder paths",
            _recurrence("schroeder_peaks", lambda m: inset(m, m + 1, m + 1)),
        ),
        SequenceEntry(
            "partial_self_maps",
            "A002003",
            "inset(m,m+1,m): order-preserving partial self-maps of an m-set",
            _recurrence("partial_self_maps", lambda m: inset(m, m + 1, m)),
        ),
        SequenceEntry(
            "dyck_central_peak",
            "A001105",
            "inset(1,m+1,m) = 2(m+1)^2",
            _line(lambda m: (1, m + 1, m)),
            closed_form=lambda m: 2 * (m + 1) * (m + 1),
        ),
        SequenceEntry(
            "even_squares_sum",
            "A002492",
            "inset(1,m+2,m): sum of the first m+1 even squares",
            _line(lambda m: (1, m + 2, m)),
            closed_form=lambda m: exact_div(2 * (m + 1) * (m + 2) * (2 * m + 3), 3),
        ),
        SequenceEntry(
            "walk_variance",
            "A072819",
            "inset(1,m+3,m): variance of the exit time of a symmetric walk from [-m-2, m+2]",
            _line(lambda m: (1, m + 3, m)),
            closed_form=lambda m: exact_div(2 * (m + 2) ** 2 * ((m + 2) ** 2 - 1), 3),
        ),
        SequenceEntry(
            "hyperbola_regions",
            "A058331",
            "inset(3,m,m+1) = 2(m+1)^2 + 1: plane regions from m hyperbolas",
            _line(lambda m: (3, m, m + 1)),
            closed_form=lambda m: 2 * (m + 1) * (m + 1) + 1,
        ),
        SequenceEntry(
            "dyck_two_levels",
            "A176479",
            "inset(n+1,n-1,n): Dyck paths with n peaks at level 1 and n at level 2",
            _recurrence("dyck_two_levels", lambda n: inset(n + 1, n - 1, n)),
            start=1,
        ),
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
                lambda n, d: braun_hough_cells(d, n),
            ),
        ),
    ]
    return entries


_CATALOG: list[SequenceEntry] = _build_catalog()
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


def validate(key: str, fixture: BFile) -> ValidationReport:
    """Align generated terms with the fixture by offset search.

    Offsets in [-4, 4] are tried, preferring small absolute shifts; the
    entry is validated when every overlapping term agrees and the overlap
    has at least 15 terms, otherwise it is reported provisional with the
    first mismatch at the best-agreeing offset.
    """
    entry = get_entry(key)
    if not fixture.entries:
        raise FixtureError(f"fixture unavailable for {key}: no entries")
    fvals = fixture.values
    gvals = generate(key, min(40, len(fvals) + 4)).values

    best: tuple[int, int, tuple[int, int, int] | None] | None = None
    for off in OFFSET_SEARCH:
        lo = max(0, -off)
        hi = min(len(gvals), len(fvals) - off)
        overlap = hi - lo
        if overlap < MIN_AGREEMENT:
            continue
        agreed = 0
        mismatch: tuple[int, int, int] | None = None
        for i in range(lo, hi):
            if gvals[i] == fvals[i + off]:
                agreed += 1
            else:
                mismatch = (entry.start + i, gvals[i], fvals[i + off])
                break
        if mismatch is None:
            return ValidationReport(key, entry.fixture_id, "validated", off, overlap)
        if best is None or agreed > best[0]:
            best = (agreed, off, mismatch)
    if best is None:
        raise FixtureError(
            f"fixture for {key} is too short: need an overlap of {MIN_AGREEMENT} terms"
        )
    agreed, off, mismatch = best
    return ValidationReport(key, entry.fixture_id, "provisional", off, agreed, mismatch)
