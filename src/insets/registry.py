"""Catalog of named integer sequences realized by inset numbers.

Each entry maps a linear index to an inset value (most entries through a
single inset cell, a few through sums or two-dimensional linearizations),
names the fixture it is validated against, and optionally carries a closed
form that must agree with the inset route term by term.

Alignment against fixtures is discovered, not transcribed: several named
sequences are known to sit at a shifted index relative to their customary
numbering, so :func:`validate` searches offsets in [-4, 4] and requires
full agreement on an overlap of at least 15 terms.

Two-dimensional families (Delannoy square, asymmetric Delannoy square,
Sulanke grid, the two-boundary Pascal triangle, cell-count table) are read
by antidiagonals resp. rows; the committed fixtures use the same reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .core import binomial, inset
from .errors import FixtureError
from .oeis import BFile

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


@dataclass(frozen=True)
class SequenceEntry:
    key: str
    fixture_id: str  # OEIS id (Axxxxxx) or a local fixture stem
    description: str
    value_fn: Callable[[int], int]
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


def exact_div(numerator: int, denominator: int) -> int:
    """Integer division that must leave no remainder."""
    q, r = divmod(numerator, denominator)
    if r:
        raise ArithmeticError(f"{numerator} is not divisible by {denominator}")
    return q


def _antidiagonal(i: int) -> tuple[int, int]:
    """Linear index of a square array read by antidiagonals -> (d, j), j in 0..d."""
    d = (math.isqrt(8 * i + 1) - 1) // 2
    return d, i - d * (d + 1) // 2


def sulanke(n: int, k: int) -> int:
    """Parity-split grid value: inset(h, h, k) with h = (n+k)/2 for even n+k,
    inset((n+k-1)/2, (n+k+1)/2, k) for odd n+k."""
    if n < 0 or k < 0:
        raise ValueError("grid cell must be nonnegative")
    if (n + k) % 2 == 0:
        h = (n + k) // 2
        return inset(h, h, k)
    return inset((n + k - 1) // 2, (n + k + 1) // 2, k)


def _sulanke_linear(i: int) -> int:
    d, j = _antidiagonal(i)
    return sulanke(d - j, j)


def fibonacci_by_insets(m: int) -> int:
    """The sum over i <= floor((m+1)/2) of inset(m-i, 1, i); equals F(m+3)."""
    if m < 0:
        raise ValueError("index must be nonnegative")
    return sum(inset(m - i, 1, i) for i in range((m + 1) // 2 + 1))


def _lucas_cell(i: int) -> tuple[int, int]:
    # rows m = 0, 1, ... of lengths m + 2
    m = 0
    while (m + 1) * (m + 4) // 2 <= i:
        m += 1
    return m, i - m * (m + 3) // 2


def _cell_table_cell(i: int) -> tuple[int, int]:
    # valid (n, d) cells of the cell-count table, row by row in n
    seen = 0
    n = 0
    while True:
        d_lo = (2 * n + 2) // 3
        d_hi = (3 * n + 4) // 4
        width = d_hi - d_lo + 1
        if seen + width > i:
            return n, d_lo + (i - seen)
        seen += width
        n += 1


def braun_hough_cells(d: int, n: int) -> int:
    """Number of d-dimensional cells in the n-th complex: inset(2, n-d+2, 3d-2n)."""
    if n - d + 2 < 0 or 3 * d - 2 * n < 0:
        return 0
    return inset(2, n - d + 2, 3 * d - 2 * n)


def _single(m_of: Callable[[int], tuple[int, int, int]]) -> Callable[[int], int]:
    def fn(i: int) -> int:
        m, n, k = m_of(i)
        return inset(m, n, k)

    return fn


def _entry(
    key: str,
    fixture_id: str,
    description: str,
    *,
    cell: Callable[[int], tuple[int, int, int]] | None = None,
    value_fn: Callable[[int], int] | None = None,
    start: int = 0,
    closed_form: Callable[[int], int] | None = None,
) -> SequenceEntry:
    if (cell is None) == (value_fn is None):
        raise ValueError("exactly one of cell/value_fn is required")
    return SequenceEntry(
        key=key,
        fixture_id=fixture_id,
        description=description,
        value_fn=value_fn if value_fn is not None else _single(cell),
        start=start,
        closed_form=closed_form,
    )


def _build_catalog() -> list[SequenceEntry]:
    entries = [
        _entry(
            "odd_numbers",
            "A005408",
            "inset(m,1,1): odd numbers 2m+1",
            cell=lambda m: (m, 1, 1),
            closed_form=lambda m: 2 * m + 1,
        ),
        _entry(
            "squares",
            "A000290",
            "inset(m,1,2): perfect squares m^2",
            cell=lambda m: (m, 1, 2),
            closed_form=lambda m: m * m,
        ),
        _entry(
            "square_pyramidal",
            "A000330",
            "inset(m,1,3): square pyramidal numbers, shifted",
            cell=lambda m: (m, 1, 3),
            closed_form=lambda m: exact_div((m - 1) * m * (2 * m - 1), 6),
        ),
        _entry(
            "pyramidal_4d",
            "A002415",
            "inset(m,1,4): four-dimensional pyramidal numbers, shifted",
            cell=lambda m: (m, 1, 4),
            closed_form=lambda m: exact_div((m - 1) ** 2 * ((m - 1) ** 2 - 1), 12),
        ),
        _entry(
            "centered_square",
            "A001844",
            "inset(m,2,2): centered squares m^2 + (m+1)^2",
            cell=lambda m: (m, 2, 2),
            closed_form=lambda m: m * m + (m + 1) * (m + 1),
        ),
        _entry(
            "octahedral",
            "A005900",
            "inset(m,2,3): octahedral numbers m(2m^2+1)/3",
            cell=lambda m: (m, 2, 3),
            closed_form=lambda m: exact_div(m * (2 * m * m + 1), 3),
        ),
        _entry(
            "centered_octahedral",
            "A001845",
            "inset(m,3,3): centered octahedral numbers (2m+1)(2m^2+2m+3)/3",
            cell=lambda m: (m, 3, 3),
            closed_form=lambda m: exact_div((2 * m + 1) * (2 * m * m + 2 * m + 3), 3),
        ),
        _entry(
            "centered_polygonal_4d",
            "A006325",
            "inset(m,2,4): 4-dimensional centered polygonal analog m(m-1)(m^2-m+1)/6",
            cell=lambda m: (m, 2, 4),
            closed_form=lambda m: exact_div(m * (m - 1) * (m * m - m + 1), 6),
        ),
        _entry(
            "dyck_pyramid_weight",
            "A001793",
            "inset(1,n,2): n(n+3)2^(n-3); pyramid weight of Dyck paths",
            cell=lambda n: (1, n, 2),
            closed_form=lambda n: exact_div(n * (n + 3) * (1 << n), 8),
        ),
        _entry(
            "bishop_moves",
            "A002492",
            "inset(1,n,n-2): bishop moves on the n x n board, n >= 2",
            cell=lambda n: (1, n, n - 2),
            start=2,
            closed_form=lambda n: exact_div(2 * n * (2 * n - 1) * (n - 1), 3),
        ),
        _entry(
            "squares_convolution",
            "A033455",
            "inset(m,2,5): convolution of nonzero squares with themselves, shifted",
            cell=lambda m: (m, 2, 5),
            closed_form=lambda m: exact_div((m - 1) * ((m - 1) ** 4 - 1), 30),
        ),
        _entry(
            "delannoy",
            "A008288",
            "Delannoy square D(m,n) = inset(m,n,n), read by antidiagonals",
            value_fn=lambda i: (lambda d, j: inset(j, d - j, d - j))(*_antidiagonal(i)),
        ),
        _entry(
            "central_delannoy",
            "A001850",
            "inset(n,n,n): central Delannoy numbers",
            cell=lambda n: (n, n, n),
        ),
        _entry(
            "asymmetric_delannoy",
            "A049600",
            "asymmetric Delannoy square inset(m,n,m), read by antidiagonals",
            value_fn=lambda i: (lambda d, j: inset(j, d - j, j))(*_antidiagonal(i)),
        ),
        _entry(
            "catalan_scaled",
            "A051960",
            "inset(2k,1,k) = (3k+2) * Catalan(k)",
            cell=lambda k: (2 * k, 1, k),
        ),
        _entry(
            "fibonacci",
            "A000045",
            "sum_i inset(m-i,1,i) over i <= (m+1)/2: Fibonacci F(m+3)",
            value_fn=fibonacci_by_insets,
        ),
        _entry(
            "sulanke_even",
            "A064861",
            "parity-split grid read by antidiagonals, anchored on the even corner",
            value_fn=_sulanke_linear,
        ),
        _entry(
            "sulanke_odd",
            "A064861",
            "parity-split grid read by antidiagonals, anchored on the first odd cell",
            value_fn=_sulanke_linear,
            start=1,
        ),
    ]

    ball_ids = {1: "A005408", 2: "A001844", 3: "A001845", 4: "A001846", 5: "A001847"}
    for dim, fixture in ball_ids.items():
        entries.append(
            _entry(
                f"crystal_ball_Z{dim}",
                fixture,
                f"inset(m,{dim},{dim}): lattice points with |x|_1 <= m in Z^{dim}",
                cell=lambda m, d=dim: (m, d, d),
            )
        )

    coordination_ids = {3: "A005899", 4: "A008412", 5: "A008413"}
    for dim, fixture in coordination_ids.items():

        def coordination(m: int, d: int = dim) -> int:
            return 1 if m == 0 else inset(m - 1, d, d - 1)

        entries.append(
            _entry(
                f"coordination_Z{dim}",
                fixture,
                f"inset(m-1,{dim},{dim - 1}): lattice points with |x|_1 = m in Z^{dim}",
                value_fn=coordination,
            )
        )

    entries += [
        _entry(
            "lucas_triangle",
            "A029653",
            "rows inset(m,1,k), k = 0..m+1: the (2,1) Pascal triangle",
            value_fn=lambda i: (lambda m, k: inset(m, 1, k))(*_lucas_cell(i)),
        ),
        _entry(
            "weak_comp_2zeros",
            "A058396",
            "inset(3,n,2): weak compositions of n+1 with exactly two zero parts",
            cell=lambda n: (3, n, 2),
            closed_form=lambda n: exact_div((n * n + 11 * n + 24) * (1 << n), 8),
        ),
        _entry(
            "turan_triangles",
            "A000297",
            "inset(m+1,2,m): triangles in the complete multipartite graph with parts (2,2,1,...)",
            cell=lambda m: (m + 1, 2, m),
            closed_form=lambda m: binomial(m + 5, 3) - 2 * (m + 3),
        ),
        _entry(
            "octahedron_surface",
            "A005899",
            "inset(m,3,2): points on the octahedron surface 4(m+1)^2 + 2",
            cell=lambda m: (m, 3, 2),
            closed_form=lambda m: 4 * (m + 1) * (m + 1) + 2,
        ),
        _entry(
            "ccc_cliques",
            "A167667",
            "inset(n,n,1) = 3n 2^(n-1): maximum cliques in cube-connected cycles",
            cell=lambda n: (n, n, 1),
            closed_form=lambda n: exact_div(3 * n * (1 << n), 2),
        ),
        _entry(
            "schroeder_peaks",
            "A002002",
            "inset(m,m+1,m+1): peaks in all Schroeder paths",
            cell=lambda m: (m, m + 1, m + 1),
        ),
        _entry(
            "partial_self_maps",
            "A002003",
            "inset(m,m+1,m): order-preserving partial self-maps of an m-set",
            cell=lambda m: (m, m + 1, m),
        ),
        _entry(
            "dyck_central_peak",
            "A001105",
            "inset(1,m+1,m) = 2(m+1)^2",
            cell=lambda m: (1, m + 1, m),
            closed_form=lambda m: 2 * (m + 1) * (m + 1),
        ),
        _entry(
            "even_squares_sum",
            "A002492",
            "inset(1,m+2,m): sum of the first m+1 even squares",
            cell=lambda m: (1, m + 2, m),
            closed_form=lambda m: exact_div(2 * (m + 1) * (m + 2) * (2 * m + 3), 3),
        ),
        _entry(
            "walk_variance",
            "A072819",
            "inset(1,m+3,m): variance of the exit time of a symmetric walk from [-m-2, m+2]",
            cell=lambda m: (1, m + 3, m),
            closed_form=lambda m: exact_div(2 * (m + 2) ** 2 * ((m + 2) ** 2 - 1), 3),
        ),
        _entry(
            "hyperbola_regions",
            "A058331",
            "inset(3,m,m+1) = 2(m+1)^2 + 1: plane regions from m hyperbolas",
            cell=lambda m: (3, m, m + 1),
            closed_form=lambda m: 2 * (m + 1) * (m + 1) + 1,
        ),
        _entry(
            "dyck_two_levels",
            "A176479",
            "inset(n+1,n-1,n): Dyck paths with n peaks at level 1 and n at level 2",
            cell=lambda n: (n + 1, n - 1, n),
            start=1,
        ),
        _entry(
            "lee_sphere",
            "A181675",
            "inset(n^2,n,n): lattice points in the n-dimensional ball of radius n^2",
            cell=lambda n: (n * n, n, n),
        ),
        _entry(
            "braun_hough_cells",
            "braun_hough_cells",
            "inset(2,n-d+2,3d-2n): d-cell counts of the Braun-Hough complexes, valid cells by rows",
            value_fn=lambda i: (lambda n, d: braun_hough_cells(d, n))(*_cell_table_cell(i)),
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
    values = [entry.value_fn(entry.start + i) for i in range(count)]
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
    gen_count = min(40, len(fvals) + 4)
    gvals = [entry.value_fn(entry.start + i) for i in range(gen_count)]

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
