import itertools
import math
from fractions import Fraction

import pytest

from insets import oeis, registry
from insets.core import inset
from insets.errors import FixtureError
from insets.oeis import BFile
from insets.registry import (
    _RECURRENCES,
    braun_hough_cells,
    fibonacci_by_insets,
    generate,
    get_entry,
    list_entries,
    sulanke,
    validate,
)
from insets.series import exact_div
from insets.words import count_bruteforce

REQUIRED_KEYS = {
    "odd_numbers", "squares", "square_pyramidal", "pyramidal_4d",
    "centered_square", "octahedral", "centered_octahedral",
    "centered_polygonal_4d", "dyck_pyramid_weight", "bishop_moves",
    "squares_convolution", "delannoy", "central_delannoy",
    "asymmetric_delannoy", "catalan_scaled", "fibonacci",
    "sulanke_even", "sulanke_odd",
    "crystal_ball_Z1", "crystal_ball_Z2", "crystal_ball_Z3",
    "crystal_ball_Z4", "crystal_ball_Z5",
    "coordination_Z3", "coordination_Z4", "coordination_Z5",
    "lucas_triangle", "weak_comp_2zeros", "turan_triangles",
    "octahedron_surface", "ccc_cliques", "schroeder_peaks",
    "partial_self_maps", "dyck_central_peak", "even_squares_sum",
    "walk_variance", "hyperbola_regions", "dyck_two_levels",
    "lee_sphere", "braun_hough_cells",
}


def test_catalog_contains_required_keys():
    keys = {e.key for e in list_entries()}
    assert REQUIRED_KEYS <= keys


def test_catalog_keys_unique():
    keys = [e.key for e in list_entries()]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize(
    "key,oeis_id",
    [
        ("delannoy", "A008288"),
        ("centered_square", "A001844"),
        ("odd_numbers", "A005408"),
        ("central_delannoy", "A001850"),
        ("fibonacci", "A000045"),
    ],
)
def test_catalog_oeis_ids(key, oeis_id):
    assert get_entry(key).oeis_id == oeis_id


def test_braun_hough_has_no_oeis_id():
    assert get_entry("braun_hough_cells").oeis_id is None


@pytest.mark.parametrize(
    "key,count,expected",
    [
        ("centered_square", 3, [1, 5, 13]),
        ("odd_numbers", 4, [1, 3, 5, 7]),
        ("fibonacci", 4, [2, 3, 5, 8]),
        ("squares", 5, [0, 1, 4, 9, 16]),
        ("bishop_moves", 3, [4, 20, 56]),
    ],
)
def test_generate(key, count, expected):
    piece = generate(key, count)
    assert piece.values == expected
    assert piece.key == key


def test_generate_unknown_key():
    with pytest.raises(KeyError):
        generate("nope", 3)


def test_generate_requires_positive_count():
    with pytest.raises(ValueError):
        generate("squares", 0)


def test_closed_forms_agree_with_inset_route():
    for entry in list_entries():
        if entry.closed_form is None:
            continue
        values = generate(entry.key, 16).values
        for i, value in enumerate(values, entry.start):
            assert entry.closed_form(i) == value, (entry.key, i)


def test_exact_div_guards():
    assert exact_div(12, 3) == 4
    with pytest.raises(ArithmeticError):
        exact_div(7, 2)


def test_catalan_divisibility():
    cats = [1]
    for i in range(12):
        cats.append(sum(cats[j] * cats[i - j] for j in range(i + 1)))
    for k in range(13):
        value = inset(2 * k, 1, k)
        assert value % (3 * k + 2) == 0
        assert value // (3 * k + 2) == cats[k]
    assert inset(4, 1, 2) == 16  # (3k+2) C_2 at k = 2


def test_fibonacci_recurrence():
    values = [fibonacci_by_insets(m) for m in range(21)]
    assert values[3] == 8  # F_6
    for m in range(2, 21):
        assert values[m] == values[m - 1] + values[m - 2]


def test_fibonacci_walk_matches_inset_sums():
    # the two-term walk against the sum over inset cells, term by term
    assert generate("fibonacci", 300).values == [fibonacci_by_insets(m) for m in range(300)]
    # a stream seeded at a later start agrees from its first term on
    entry = get_entry("fibonacci")
    for start in (1, 299, 1000, 1998, 2000):
        assert next(entry.terms(start)) == fibonacci_by_insets(start), start
    seeded = itertools.islice(entry.terms(1996), 5)
    assert list(seeded) == [fibonacci_by_insets(m) for m in range(1996, 2001)]


def test_sulanke_branches_cover_grid_and_count_words():
    for n in range(8):
        for k in range(8):
            value = sulanke(n, k)
            if (n + k) % 2 == 0:
                h = (n + k) // 2
                assert value == count_bruteforce(h, h, k)
            else:
                assert value == count_bruteforce((n + k - 1) // 2, (n + k + 1) // 2, k)


def test_lucas_triangle_rows():
    # boundary 2 and 1, Pascal step inside
    for m in range(1, 10):
        row = [inset(m, 1, k) for k in range(m + 2)]
        prev = [inset(m - 1, 1, k) for k in range(m + 1)]
        assert row[0] == 2 and row[-1] == 1
        for k in range(1, m + 1):
            assert row[k] == prev[k - 1] + (prev[k] if k < len(prev) else 0)


def test_braun_hough_support():
    for d in range(10):
        for n in range(10):
            value = braun_hough_cells(d, n)
            in_support = (
                n - d + 2 >= 0
                and 0 <= 3 * d - 2 * n <= (n - d + 2) + 2
            )
            assert (value > 0) == in_support, (d, n)


def test_all_entries_validate_against_fixtures():
    cfg = oeis.default_config()
    for entry in list_entries():
        report = validate(entry.key, oeis.load(entry.fixture_id, cfg))
        assert report.validated, (entry.key, report)
        assert -4 <= report.offset <= 4
        assert report.agreed >= 15


def test_expected_nonzero_offsets():
    cfg = oeis.default_config()
    report = validate("squares_convolution", oeis.load("A033455", cfg))
    assert report.validated and report.offset != 0
    report = validate("delannoy", oeis.load("A008288", cfg))
    assert report.validated and report.offset == 0


def test_validate_rejects_empty_fixture():
    with pytest.raises(FixtureError):
        validate("squares", BFile(oeis_id="A000290", entries=()))


def test_validate_reports_mismatch():
    entry_values = list(itertools.islice(get_entry("squares").terms(0), 30))
    entry_values[7] += 1  # corrupt one term
    fixture = BFile(
        oeis_id="A000290",
        entries=tuple((i, v) for i, v in enumerate(entry_values)),
    )
    report = validate("squares", fixture)
    assert not report.validated
    assert report.status == "provisional"
    assert report.mismatch is not None
    assert report.mismatch[0] == 7


def test_whole_fixtures_agree():
    # validate compares at most 40 terms; here every fixture term at or past
    # the reported offset is compared
    cfg = oeis.default_config()
    for entry in list_entries():
        fixture = oeis.load(entry.fixture_id, cfg)
        off = validate(entry.key, fixture).offset
        fvals = fixture.values
        gvals = generate(entry.key, len(fvals) - off).values
        lo = max(0, -off)
        assert len(gvals) - lo == len(fvals) - max(0, off), entry.key
        for i in range(lo, len(gvals)):
            assert gvals[i] == fvals[i + off], (entry.key, entry.start + i)


def _antidiagonal(i):
    d = (math.isqrt(8 * i + 1) - 1) // 2
    return d, i - d * (d + 1) // 2


def _lucas_cell(i):
    # rows m = 0, 1, ... of lengths m + 2
    m = 0
    while (m + 1) * (m + 4) // 2 <= i:
        m += 1
    return m, i - m * (m + 3) // 2


def _cell_table_cell(i):
    # valid (n, d) cells of the cell-count table, row by row in n
    seen = 0
    n = 0
    while True:
        d_lo = (2 * n + 2) // 3
        width = (3 * n + 4) // 4 - d_lo + 1
        if seen + width > i:
            return n, d_lo + (i - seen)
        seen += width
        n += 1


# index -> cell decoders, which owe nothing to the streams' cell walks: their oracle
_DECODED = {
    "delannoy": (2000, lambda i: (lambda d, j: inset(j, d - j, d - j))(*_antidiagonal(i))),
    "asymmetric_delannoy": (2000, lambda i: (lambda d, j: inset(j, d - j, j))(*_antidiagonal(i))),
    "sulanke_even": (2000, lambda i: (lambda d, j: sulanke(d - j, j))(*_antidiagonal(i))),
    "sulanke_odd": (2000, lambda i: (lambda d, j: sulanke(d - j, j))(*_antidiagonal(i))),
    "lucas_triangle": (300, lambda i: (lambda m, k: inset(m, 1, k))(*_lucas_cell(i))),
    "braun_hough_cells": (
        300, lambda i: (lambda n, d: braun_hough_cells(d, n))(*_cell_table_cell(i))
    ),
}


@pytest.mark.parametrize("key", sorted(_DECODED))
def test_array_streams_match_index_decoding(key):
    count, term = _DECODED[key]
    start = get_entry(key).start
    assert generate(key, count).values == [term(start + i) for i in range(count)]


@pytest.mark.parametrize("entry", list_entries(), ids=lambda e: e.key)
def test_terms_start_anywhere_and_keep_no_state(entry):
    stream = entry.terms(entry.start)
    values = list(itertools.islice(stream, 120))
    for j in (0, 1, 2, 7, 38, 119):
        assert next(entry.terms(entry.start + j)) == values[j], (entry.key, j)
    # a fresh iterator per call: the stream read above does not advance a new one
    assert list(itertools.islice(entry.terms(entry.start), 3)) == values[:3]
    assert next(stream) == next(entry.terms(entry.start + 120))


# the per-term value of every entry that walks a recurrence: one inset call,
# or for fibonacci one sum of inset calls, per index
WALKED = {
    "fibonacci": fibonacci_by_insets,
    "central_delannoy": lambda n: inset(n, n, n),
    "catalan_scaled": lambda k: inset(2 * k, 1, k),
    "schroeder_peaks": lambda m: inset(m, m + 1, m + 1),
    "partial_self_maps": lambda m: inset(m, m + 1, m),
    "dyck_two_levels": lambda n: inset(n + 1, n - 1, n),
}


def test_walked_entries_are_the_recurrence_rows():
    assert set(WALKED) == set(_RECURRENCES)


@pytest.mark.parametrize("key", sorted(WALKED))
def test_walked_streams_match_per_term_values(key):
    # the recurrence walk against one per-term value for each sampled term
    value, entry = WALKED[key], get_entry(key)
    start = entry.start
    assert generate(key, 300).values == [value(i) for i in range(start, start + 300)]
    walked = list(itertools.islice(entry.terms(start), 3001 - start))
    for i in (301, 999, 1500, 2222, 3000):
        assert walked[i - start] == value(i), i
        assert next(entry.terms(i)) == value(i), i
    # a stream seeded at a later start walks on to the same terms
    for i in (5, 1000, 2997):
        seeded = itertools.islice(entry.terms(i), 4)
        assert list(seeded) == walked[i - start:i - start + 4], i


# A guesser for the committed rows, here and never in the library: the rows
# of a given order and degree that a run of terms satisfies form the
# nullspace of a linear system over the rationals (Kauers and Paule, *The
# Concrete Tetrahedron*, 2011, ch. 7).


def _equations(terms, start, order, degree):
    """One row of sum_j sum_e c[j][e] n^e a(n-j) = 0 per n that the terms cover."""
    return [
        [n**e * terms[n - start - j] for j in range(order + 1) for e in range(degree + 1)]
        for n in range(start + order, start + len(terms))
    ]


def _nullspace_vector(matrix):
    """The nullspace of an integer matrix as one integer vector, or None unless it
    is one-dimensional; Gauss-Jordan elimination over Fraction."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    width, pivots, r = len(rows[0]), [], 0
    for col in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                rows[i] = [x - rows[i][col] * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    free = [col for col in range(width) if col not in pivots]
    if len(free) != 1:
        return None
    vector = [Fraction(0)] * width
    vector[free[0]] = Fraction(1)
    for i, col in enumerate(pivots):
        vector[col] = -rows[i][free[0]]
    scale = math.lcm(*(x.denominator for x in vector))
    return [int(x * scale) for x in vector]


def _normalised(rows, degree):
    """Rows padded to the degree, divided by their gcd, and signed so that p_0's
    leading coefficient is positive."""
    padded = [list(p) + [0] * (degree + 1 - len(p)) for p in rows]
    flat = [c for p in padded for c in p]
    lead = next(c for c in reversed(padded[0]) if c)
    unit = math.gcd(*flat) * (1 if lead > 0 else -1)
    return [[exact_div(c, unit) for c in p] for p in padded]


def _guess(terms, start, order, degree):
    vector = _nullspace_vector(_equations(terms, start, order, degree))
    if vector is None:
        return None
    return _normalised([vector[j * (degree + 1):(j + 1) * (degree + 1)]
                        for j in range(order + 1)], degree)


def _holds(rows, terms, start):
    """Whether sum_j p_j(n) a(n-j) = 0 at every n the terms cover."""
    order = len(rows) - 1
    return all(
        sum(sum(c * n**e for e, c in enumerate(p)) * terms[n - start - j]
            for j, p in enumerate(rows)) == 0
        for n in range(start + order, start + len(terms))
    )


@pytest.mark.parametrize("key", sorted(WALKED))
def test_guesser_certifies_each_committed_row(key):
    rows, start = _RECURRENCES[key], get_entry(key).start
    order, degree = len(rows) - 1, max(map(len, rows)) - 1
    used = order + (order + 1) * (degree + 1) + 2  # two more equations than unknowns
    terms = [WALKED[key](i) for i in range(start, start + 2 * used)]
    # the committed row is the only one of its order and degree
    assert _guess(terms[:used], start, order, degree) == _normalised(rows, degree)
    assert _holds(rows, terms, start)
    # a copy with one coefficient moved by one fails the same check
    for j, p in enumerate(rows):
        for e in range(len(p)):
            for delta in (-1, 1):
                planted = [list(q) for q in rows]
                planted[j][e] += delta
                assert not _holds(planted, terms, start), (j, e, delta)
