import ast
import functools
import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest

from insets import oeis, oracles, registry
from insets.core import inset, inset_row
from insets.errors import FixtureError
from insets.oeis import BFile, bfile_name
from insets.oracles import delannoy_paths, lattice_points, weak_compositions_with_zeros
from insets.registry import (
    _RECURRENCES,
    exact_div,
    fibonacci_by_insets,
    generate,
    get_entry,
    list_entries,
    validate,
)
from insets.words import count_bruteforce

GOLDEN = Path(__file__).parent / "golden"

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
    assert get_entry(key).fixture_id == oeis_id


def test_braun_hough_has_no_oeis_id():
    assert bfile_name(get_entry("braun_hough_cells").fixture_id) == "braun_hough_cells.txt"


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


def test_fibonacci_walk_matches_inset_sums():
    # the two-term walk against the sum over inset cells, term by term
    assert generate("fibonacci", 300).values == [fibonacci_by_insets(m) for m in range(300)]
    # a stream seeded at a later start agrees from its first term on
    entry = get_entry("fibonacci")
    for start in (1, 299, 1000, 1998, 2000):
        assert next(entry.terms(start)) == fibonacci_by_insets(start), start
    seeded = itertools.islice(entry.terms(1996), 5)
    assert list(seeded) == [fibonacci_by_insets(m) for m in range(1996, 2001)]


def _sulanke(n, k):
    """The parity-split grid cell: (h, h, k) with h = (n+k)/2 for even n+k,
    ((n+k-1)/2, (n+k+1)/2, k) for odd n+k."""
    if (n + k) % 2 == 0:
        h = (n + k) // 2
        return h, h, k
    return (n + k - 1) // 2, (n + k + 1) // 2, k


def test_sulanke_grid_counts_words():
    # every cell of antidiagonals d <= 14, both parities, against word counts
    terms = iter(generate("sulanke_even", 15 * 16 // 2).values)
    for d in range(15):
        for j in range(d + 1):
            assert next(terms) == count_bruteforce(*_sulanke(d - j, j)), (d, j)


def test_braun_hough_cells_lie_in_the_support(monkeypatch):
    # every cell (2, n-d+2, 3d-2n) the stream reads in rows n < 60 is one where
    # the complexes have d-cells, and its term counts at least one
    read = []

    def recording(m, n, k):
        read.append((m, n, k))
        return inset(m, n, k)

    monkeypatch.setattr(registry, "inset", recording)
    count = next(i for i in itertools.count() if _cell_table_cell(i)[0] == 60)
    terms = generate("braun_hough_cells", count).values
    assert len(read) == count
    for i, (cell, term) in enumerate(zip(read, terms)):
        n, d = _cell_table_cell(i)
        assert cell == (2, n - d + 2, 3 * d - 2 * n), (n, d)
        assert n - d + 2 >= 0 and 0 <= 3 * d - 2 * n <= n - d + 4, (n, d)
        assert term > 0, (n, d)


def test_expected_nonzero_offsets():
    report = validate("squares_convolution", oeis.load("A033455"))
    assert report.validated and report.offset != 0
    report = validate("delannoy", oeis.load("A008288"))
    assert report.validated and report.offset == 0


def test_validate_rejects_empty_fixture():
    with pytest.raises(FixtureError):
        validate("squares", BFile(entries=()))


def test_validate_reports_mismatch():
    entry_values = list(itertools.islice(get_entry("squares").terms(0), 30))
    entry_values[7] += 1  # corrupt one term
    fixture = BFile(entries=tuple((i, v) for i, v in enumerate(entry_values)))
    report = validate("squares", fixture)
    assert not report.validated
    assert report.status == "provisional"
    assert report.mismatch is not None
    assert report.mismatch[0] == 7


def test_validate_skips_an_offset_with_too_short_an_overlap():
    # at offset 1 all 14 overlapping terms agree, one under MIN_AGREEMENT, so
    # that offset is not tried and no offset validates
    squares = [i * i for i in range(14)]
    fixture = BFile(entries=tuple(enumerate([-1, *squares])))
    assert registry.MIN_AGREEMENT == 15
    report = validate("squares", fixture)
    assert (report.status, report.offset, report.agreed, report.mismatch) == (
        "provisional", 0, 0, (0, 0, -1)
    )
    # one term more, and offset 1 overlaps 15 terms and validates
    fixture = BFile(entries=tuple(enumerate([-1, *squares, 14 * 14])))
    report = validate("squares", fixture)
    assert (report.status, report.offset, report.agreed) == ("validated", 1, 15)


def test_validate_refuses_a_fixture_with_no_offset_of_enough_overlap():
    fixture = BFile(entries=tuple(enumerate(i * i for i in range(14))))
    with pytest.raises(FixtureError, match=r"^fixture for squares is too short: need an "
                       r"overlap of 15 terms$"):
        validate("squares", fixture)


def test_whole_fixtures_agree():
    # validate compares at most 40 terms; here every fixture term at or past
    # the reported offset is compared
    for entry in list_entries():
        fixture = oeis.load(entry.fixture_id)
        off = validate(entry.key, fixture).offset
        fvals = fixture.values
        gvals = generate(entry.key, len(fvals) - off).values
        lo = max(0, -off)
        assert len(gvals) - lo == len(fvals) - max(0, off), entry.key
        for i in range(lo, len(gvals)):
            assert gvals[i] == fvals[i + off], (entry.key, entry.start + i)


def test_catalog_declares_its_duplicate_streams():
    # the pairs of entries whose first 60 terms agree, second[i] == first[i +
    # shift] for a shift in -4..4 (keys in sorted order), are exactly the
    # pairs that name one fixture, at the difference of their fixture offsets
    entries = list_entries()
    terms = {entry.key: generate(entry.key, 60).values for entry in entries}
    assert len(terms) == 40
    found = {
        (first, second, shift)
        for first, second in itertools.combinations(sorted(terms), 2)
        for shift in range(-4, 5)
        if all(
            terms[second][i] == terms[first][i + shift]
            for i in range(max(0, -shift), min(60, 60 - shift))
        )
    }
    # second[i] == fixture[i + second's offset] == first[i + the difference]
    offsets = {e.key: validate(e.key, oeis.load(e.fixture_id)).offset for e in entries}
    shared = {
        (first.key, second.key, offsets[second.key] - offsets[first.key])
        for first, second in itertools.combinations(sorted(entries, key=lambda e: e.key), 2)
        if first.fixture_id == second.fixture_id
    }
    assert found == shared
    assert len(shared) == 6


def test_catalog_matches_its_golden():
    # key, fixture id, start and description of each entry in list order, so
    # a one-byte change to any of them fails here; an intended change is
    # recorded by rewriting tests/golden/catalog.tsv from these lines
    lines = [f"{e.key}\t{e.fixture_id}\t{e.start}\t{e.description}" for e in list_entries()]
    assert lines == (GOLDEN / "catalog.tsv").read_text(encoding="utf-8").splitlines()


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


# index -> (row, place) decoders and the cell at each place, which owe nothing
# to the streams' row walks: their oracle
_DECODED = {
    "delannoy": (2000, _antidiagonal, lambda d, j: (j, d - j, d - j)),
    "asymmetric_delannoy": (2000, _antidiagonal, lambda d, j: (j, d - j, j)),
    "sulanke_even": (2000, _antidiagonal, lambda d, j: _sulanke(d - j, j)),
    "sulanke_odd": (2000, _antidiagonal, lambda d, j: _sulanke(d - j, j)),
    "lucas_triangle": (300, _lucas_cell, lambda m, k: (m, 1, k)),
    "braun_hough_cells": (300, _cell_table_cell, lambda n, d: (2, n - d + 2, 3 * d - 2 * n)),
}


@pytest.mark.parametrize("key", sorted(_DECODED))
def test_array_streams_match_index_decoding(key, monkeypatch):
    count, locate, cell = _DECODED[key]
    start = get_entry(key).start
    expected = [inset(*cell(*locate(start + i))) for i in range(count)]
    assert generate(key, count).values == expected
    # a far start skips the rows before its term unbuilt: it reads the cells
    # of the row that holds term i, each once, and no other cell
    read = []

    def recording(m, n, k):
        read.append((m, n, k))
        return inset(m, n, k)

    def recording_row(m, n, lo, hi):
        read.extend((m, n, k) for k in range(lo, hi))
        return inset_row(m, n, lo, hi)

    monkeypatch.setattr(registry, "inset", recording)
    monkeypatch.setattr(registry, "inset_row", recording_row)
    for i in (5000, 20000):
        read.clear()
        row = locate(i)[0]
        first = next(j for j in itertools.count(i, -1) if not j or locate(j - 1)[0] != row)
        end = next(j for j in itertools.count(i + 1) if locate(j)[0] != row)
        assert next(get_entry(key).terms(i)) == inset(*cell(*locate(i))), i
        assert sorted(read) == sorted(cell(*locate(j)) for j in range(first, end)), i


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


# Brute-force counts of configurations the catalog describes; like the
# fixtures' routes, they use nothing from insets.


def _partial_self_maps(size):
    """Order-preserving partial maps of {0, ..., size - 1} into itself."""
    count = 0
    for images in itertools.product([None, *range(size)], repeat=size):
        defined = [image for image in images if image is not None]
        count += defined == sorted(defined)
    return count


def _schroeder_peaks(semilength):
    """Peaks (U then D) over all Schroeder paths from (0, 0) to
    (2 * semilength, 0) with steps U = (1, 1), D = (1, -1) and H = (2, 0)
    that never go below the axis."""

    def paths(left, height):
        if left == 0:
            yield ""
        for step, rise, run in (("U", 1, 1), ("D", -1, 1), ("H", 0, 2)):
            if 0 <= height + rise <= left - run:
                yield from (step + rest for rest in paths(left - run, height + rise))

    return sum(path.count("UD") for path in paths(2 * semilength, 0))


def _turan_triangles(singletons):
    """Triangles in the complete multipartite graph with two parts of size 2
    and ``singletons`` parts of size 1: vertex triples from three parts."""
    part = [0, 0, 1, 1, *range(2, 2 + singletons)]
    triples = itertools.combinations(part, 3)
    return sum(len(set(triple)) == 3 for triple in triples)


def _ccc_maximum_cliques(n):
    """Cliques of the largest size in the cube-connected cycles graph CCC(n),
    whose vertex (x, i), x < 2^n, i < n, is joined to (x, i +- 1 mod n) and
    (x xor 2^i, i); cliques are grown one vertex at a time."""

    def neighbours(x, i):
        return {(x, (i + 1) % n), (x, (i - 1) % n), (x ^ 1 << i, i)}

    cliques = {frozenset([(x, i)]) for x in range(1 << n) for i in range(n)}
    while True:
        larger = {
            clique | {v}
            for clique in cliques
            for v in set.intersection(*[neighbours(*u) for u in clique])
        }
        if not larger:
            return len(cliques)
        cliques = larger


def _hyperbola_regions(count):
    """Regions of the plane cut by ``count`` hyperbolas in general position.
    Each hyperbola has two branches, unbounded curves; two hyperbolas meet in
    4 points (Bezout).  A branch that crosses the curves already drawn c
    times is cut into c + 1 arcs, and each arc splits one region in two."""
    regions = 1
    for drawn in range(count):
        regions += 4 * drawn + 2  # two branches, 4 crossings with each drawn one
    return regions


# Entries whose term m counts configurations of size m + 1, as the description
# says: key -> (counter by size, the description's last words)
_DESCRIBED_SIZES = {
    "partial_self_maps": (_partial_self_maps, "partial self-maps of an (m+1)-set"),
    "schroeder_peaks": (_schroeder_peaks, "Schroeder paths of semilength m+1"),
    "turan_triangles": (_turan_triangles, "with m+1 parts of size 1"),
    "hyperbola_regions": (_hyperbola_regions, "plane regions from m+1 hyperbolas"),
}


@pytest.mark.parametrize("key", sorted(_DESCRIBED_SIZES))
def test_description_states_the_counted_size(key):
    count, described = _DESCRIBED_SIZES[key]
    entry = get_entry(key)
    assert entry.description.endswith(described)
    terms = itertools.islice(entry.terms(entry.start), 6)
    assert list(terms) == [count(m + 1) for m in range(entry.start, entry.start + 6)]


def test_ccc_cliques_description_holds_from_n_4():
    # CCC(n) is triangle-free for n >= 4, so its maximum cliques are its edges;
    # those of CCC(3) are its eight 3-cycles, not its 36 edges
    entry = get_entry("ccc_cliques")
    assert entry.description.endswith("cube-connected cycles CCC(n), n >= 4")
    for n in (4, 5):
        assert next(entry.terms(n)) == _ccc_maximum_cliques(n), n
    assert _ccc_maximum_cliques(3) == 8 != next(entry.terms(3))


def _bishop_moves(n):
    """Moves of a lone bishop, summed over its squares on an n x n board: the
    ordered pairs of distinct squares on one diagonal."""
    squares = list(itertools.product(range(n), repeat=2))
    return sum(
        abs(x - u) == abs(y - v) != 0 for (x, y), (u, v) in itertools.product(squares, repeat=2)
    )


@functools.cache
def _lee_ball(dim, radius):
    """Points x of Z^dim with |x_1| + ... + |x_dim| <= radius, counted one
    coordinate at a time: x_1 = 0, or +-j for j <= radius, leaves the rest
    of the radius to the other dim - 1 coordinates."""
    if dim == 0:
        return 1
    return _lee_ball(dim - 1, radius) + 2 * sum(
        _lee_ball(dim - 1, radius - j) for j in range(1, radius + 1)
    )


def _dyck_two_levels(n):
    """Dyck paths (steps U and D, never below the axis) whose peaks are n at
    level 1 and n at level 2.  Such a path never climbs past level 2, so any
    five steps in a row hold a peak, and the paths are grown step by step
    until they have too many peaks, and kept when they end on the axis."""

    def paths(path, height, level_1, level_2):
        if height == 0 and (level_1, level_2) == (n, n):
            yield path
        if level_1 > n or level_2 > n:
            return
        if height < 2:
            yield from paths(path + "U", height + 1, level_1, level_2)
        if height > 0:
            peak = path.endswith("U")
            yield from paths(path + "D", height - 1, level_1 + (peak and height == 1),
                             level_2 + (peak and height == 2))

    return sum(1 for _ in paths("", 0, 0, 0))


def _fibonacci(index):
    """F(index), index >= 2: binary words of length index - 2 with no two
    adjacent 1s."""
    words = itertools.product("01", repeat=index - 2)
    return sum("11" not in "".join(word) for word in words)


def _exit_time_variance(bound):
    """Var T, T the first time a symmetric +-1 walk from 0 is at +-bound:
    E[T] and E[T^2] at each start x solve first-step equations, which are
    solved here exactly, by elimination from x = -bound up."""

    def solve(rhs):
        # v(x) = rhs(x) + (v(x-1) + v(x+1)) / 2 for |x| < bound, v(+-bound) = 0;
        # each v(x) = a + b v(x+1) in turn, from v(-bound) = 0 + 0 v(-bound+1)
        a, b = [Fraction(0)], [Fraction(0)]
        for x in range(-bound + 1, bound):
            pivot = 1 - b[-1] / 2
            a.append((rhs(x) + a[-1] / 2) / pivot)
            b.append(Fraction(1, 2) / pivot)
        v = [Fraction(0)]  # v(bound), then down to v(-bound + 1)
        for ai, bi in zip(reversed(a[1:]), reversed(b[1:])):
            v.append(ai + bi * v[-1])
        return dict(zip(range(bound, -bound, -1), v)) | {-bound: Fraction(0)}

    mean = solve(lambda x: 1)
    square = solve(lambda x: 1 + mean[x - 1] + mean[x + 1])  # E[(1 + T')^2]
    return square[0] - mean[0] ** 2


# Entries whose described configuration a counter of insets.oracles or of this
# module counts: key -> (the count for term i, from the entry's start on; how
# many terms to compare).  delannoy compares its antidiagonals d <= 5.
_COUNTED = {
    **{
        f"crystal_ball_Z{dim}": (lambda m, dim=dim: lattice_points(dim, m, "ball"), 6)
        for dim in range(1, 6)
    },
    **{
        f"coordination_Z{dim}": (lambda m, dim=dim: lattice_points(dim, m, "sphere"), 6)
        for dim in range(3, 6)
    },
    "octahedron_surface": (lambda m: lattice_points(3, m + 1, "sphere"), 6),
    "centered_square": (lambda m: lattice_points(2, m, "ball"), 6),
    "centered_octahedral": (lambda m: lattice_points(3, m, "ball"), 6),
    "central_delannoy": (lambda n: delannoy_paths(n, n), 6),
    "delannoy": (lambda i: (lambda d, j: delannoy_paths(j, d - j))(*_antidiagonal(i)), 21),
    "weak_comp_2zeros": (lambda n: weak_compositions_with_zeros(n + 1, 2), 6),
    "bishop_moves": (_bishop_moves, 6),
    "lee_sphere": (lambda n: _lee_ball(n, n * n), 7),
    "dyck_two_levels": (_dyck_two_levels, 6),
    "fibonacci": (lambda m: _fibonacci(m + 3), 6),
    "walk_variance": (lambda m: _exit_time_variance(m + 2), 6),
}


@pytest.mark.parametrize("key", sorted(_COUNTED))
def test_entry_counts_its_described_configuration(key):
    count, terms = _COUNTED[key]
    entry = get_entry(key)
    got = list(itertools.islice(entry.terms(entry.start), terms))
    assert got == [count(i) for i in range(entry.start, entry.start + terms)]


# Entries whose description names no configuration to count, each with why
NO_CONFIGURATION = {
    "odd_numbers": "names a family of numbers, the odd numbers",
    "even_squares_sum": "names a family of numbers, the sums of the first even squares",
    "sulanke_even": "names an array of inset cells; test_sulanke_grid_counts_words counts them",
    "sulanke_odd": "names the array of sulanke_even, read from its first odd cell",
    "squares": "names a family of numbers, the squares",
    "square_pyramidal": "names a family of numbers, the square pyramidal numbers",
    "pyramidal_4d": "names a family of numbers, the four-dimensional pyramidal numbers",
    "octahedral": "names a family of numbers, the octahedral numbers",
    "centered_polygonal_4d": "names a family of numbers, by their closed form",
    "squares_convolution": "names a convolution of numbers, the squares with themselves",
    "catalan_scaled": "names a family of numbers, (3k+2) times the Catalan numbers",
    "dyck_central_peak": "names a family of numbers, twice the squares",
    "dyck_pyramid_weight": "names a closed form",
    "asymmetric_delannoy": "names an array of inset cells, read by antidiagonals",
    "lucas_triangle": "names a triangle of numbers, the rows inset(m, 1, .)",
    "braun_hough_cells": (
        "counts cells of complexes these tests do not build;"
        " test_braun_hough_cells_lie_in_the_support checks where its cells lie"
    ),
}


def test_every_entry_is_counted_or_excused():
    # each catalog entry has a counter, or a reason to have none (ROADMAP
    # item 11), and never both
    counted = [set(_COUNTED), set(_DESCRIBED_SIZES), {"ccc_cliques"}, set(NO_CONFIGURATION)]
    assert set().union(*counted) == {entry.key for entry in list_entries()}
    assert sum(map(len, counted)) == len(list_entries()) == 40


def test_oracles_reach_no_inset_formula():
    # the counters above stand apart from what they check only while oracles
    # imports none of the modules that compute inset values
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    parts = {part for name in imported for part in name.split(".")}
    assert parts.isdisjoint({"core", "series", "registry", "identities", "chebyshev"}), imported
