import math
import random
import tracemalloc
from collections import Counter
from operator import mul

import pytest

from insets import core, identities
from insets.core import inset
from insets.identities import (
    IDENTITY_NAMES,
    Counterexample,
    GridReport,
    verify,
    verify_all,
)


def test_thirteen_identities():
    assert len(IDENTITY_NAMES) == 13


def test_unknown_identity():
    with pytest.raises(ValueError):
        verify("bogus", 2, 2)


def test_negative_bounds_rejected():
    with pytest.raises(ValueError):
        verify("pascal", -1, 2)


def _off_by_one_at(*targets):
    def stub(m, n, k):
        return inset(m, n, k) + (1 if (m, n, k) in targets else 0)

    return stub


def test_injected_fault_fails_across_suite():
    reports = verify_all(6, 6, inset_fn=_off_by_one_at((3, 2, 2)))
    assert any(not r.passed for r in reports)
    # the untouched reference suite still passes
    assert all(r.passed for r in verify_all(6, 6))


# Each identity on the 6 x 6 grid with +1 planted at one cell: the first cell
# the grid reads, a middle cell, and a cell read late (for alternating_shift
# and zeros_placement only at the far end of one run, for telescoping only as
# the last term of its sum).  Recorded before the grids read a per-call table.
PLANTED_GOLDEN = [
    ("pascal", (1, 0, 0), False, (1, 0, 0), 2, 1),
    ("pascal", (3, 3, 3), False, (3, 3, 3), 64, 63),
    ("pascal", (5, 6, 14), False, (6, 6, 14), 0, 1),
    ("vertical", (0, 1, 0), False, (0, 1, 0), 3, 2),
    ("vertical", (3, 3, 3), False, (2, 4, 3), 88, 89),
    ("vertical", (7, 5, 14), False, (6, 6, 14), 0, 1),
    ("doubling", (0, 1, 0), False, (0, 1, 0), 3, 2),
    ("doubling", (3, 3, 3), False, (3, 3, 3), 64, 63),
    ("doubling", (6, 5, 14), False, (6, 6, 14), 0, 2),
    ("alternating_shift", (1, 0, 0), False, (1, 1, 0, 1), 1, 0),
    ("alternating_shift", (3, 3, 3), False, (2, 4, 3, 1), 64, 63),
    ("alternating_shift", (1, 11, 7), False, (6, 6, 7, 6), 4043, 4044),
    ("horizontal_full", (1, 0, 1), False, (0, 0, 0), 2, 1),
    ("horizontal_full", (3, 3, 3), False, (2, 3, 2), 64, 63),
    ("horizontal_full", (5, 6, 14), False, (6, 6, 14), 0, 1),
    ("horizontal_tail", (1, 0, 1), False, (0, 0, 0), 2, 1),
    ("horizontal_tail", (3, 3, 3), False, (3, 3, 3), 96, 97),
    ("horizontal_tail", (5, 6, 12), False, (6, 6, 12), 1, 2),
    ("telescoping", (0, 1, 1), False, (0, 1, 1, 1), 1, 0),
    ("telescoping", (3, 3, 3), False, (3, 3, 3, 1), 39, 38),
    ("telescoping", (3, 0, 6), False, (3, 1, 6, 1), 0, 2),
    ("zeros_placement", (0, 0, 0), False, (0, 1, 0, 1), 2, 3),
    ("zeros_placement", (3, 3, 3), False, (0, 6, 3, 3), 160, 161),
    ("zeros_placement", (12, 0, 7), False, (6, 6, 7, 6), 5418, 5419),
    ("binomial_sum", (0, 0, 0), False, (0, 0, 0), 2, 1),
    ("binomial_sum", (3, 3, 3), False, (3, 3, 3), 64, 63),
    ("binomial_sum", (6, 6, 14), False, (6, 6, 14), 1, 0),
    ("convolution", (0, 0, 0), False, (0, 0, 0), 2, 1),
    ("convolution", (3, 3, 3), False, (3, 3, 3), 64, 63),
    ("convolution", (6, 6, 14), False, (6, 6, 14), 1, 0),
    ("shifted_window", (0, 0, 0), False, (0, 0, 0), 2, 1),
    ("shifted_window", (3, 3, 3), False, (3, 3, 3), 64, 63),
    ("shifted_window", (14, 6, 14), False, (6, 6, 14), 169920, 169919),
    ("parity_shift", (0, 0, 0), False, (0, 1, 1, 1), 2, 1),
    ("parity_shift", (3, 3, 3), False, (3, 3, 3, 1), 25, 64),
    ("parity_shift", (6, 6, 14), False, (6, 6, 14, 1), 0, 1),
    ("first_row", (0, 0, 0), False, (0, 0, 0), 2, 1),
    ("first_row", (3, 3, 3), True, None, None, None),
    ("first_row", (0, 6, 8), False, (0, 6, 8), 1, 0),
]


@pytest.mark.parametrize(
    "name,cell,passed,params,lhs,rhs",
    PLANTED_GOLDEN,
    ids=[f"{name}-{'-'.join(map(str, cell))}" for name, cell, *_ in PLANTED_GOLDEN],
)
def test_planted_counterexample_golden(name, cell, passed, params, lhs, rhs):
    report = verify(name, 6, 6, inset_fn=_off_by_one_at(cell))
    assert report.passed is passed
    ce = report.counterexample
    assert (ce and ce.params, ce and ce.lhs, ce and ce.rhs) == (params, lhs, rhs)


def _counting_source():
    asked = Counter()

    def source(m, n, k):
        asked[m, n, k] += 1
        return inset(m, n, k)

    return asked, source


@pytest.mark.parametrize("name", IDENTITY_NAMES)
@pytest.mark.parametrize("grid", [(6, 6), (3, 9), (9, 3), (0, 5), (5, 0)],
                         ids=lambda g: f"{g[0]}x{g[1]}")
def test_row_source_matches_inset_cells(name, grid):
    # the default source reads rows along k; inset_fn=inset reads cell by cell
    assert verify(name, *grid) == verify(name, *grid, inset_fn=inset)


def test_verify_all_row_source_matches_inset_cells():
    assert verify_all(12, 12) == verify_all(12, 12, inset_fn=inset)


def test_default_source_inset_calls(monkeypatch):
    # the default source walks each row from k = 0 and never calls inset, so
    # the 18 x 18 grid the benchmark verifies makes no inset call, where
    # seeding each row read from inset made 816 and reading cell by cell 27,568
    def refused(m, n, k):
        raise AssertionError(f"inset({m}, {n}, {k}) called")

    monkeypatch.setattr(core, "inset", refused)
    assert all(report.passed for report in verify_all(18, 18))
    assert all(verify(name, 18, 18).passed for name in IDENTITY_NAMES)


def test_passing_grids_never_walk_the_transforms(monkeypatch):
    # once the vertical residuals vanish no comparison can fail, so a passing
    # grid never compares the term-by-term forms; a certificate that always
    # failed would report the same, only slower
    def refused(f):
        raise AssertionError("term-by-term forms compared")

    monkeypatch.setattr(identities, "_alternating_shift_terms", refused)
    monkeypatch.setattr(identities, "_zeros_placement_terms", refused)
    assert all(report.passed for report in verify_all(18, 18))


# The (identity, grid) pairs among the grids with m_max = 0 or n_max = 0 up to
# 5 where no comparison can fail: pascal reads no cell with m_max = 0, and
# vertical, doubling, alternating_shift and telescoping none with n_max = 0;
# alternating_shift with m_max = 0 and zeros_placement with n_max = 0 have only
# p = 0, where both sides are the same cell; parity_shift with n_max = 0 has
# no p.
_THIN_GRIDS = [(0, n) for n in range(6)] + [(m, 0) for m in range(1, 6)]
CANNOT_FAIL = {
    *(("pascal", (0, n)) for n in range(6)),
    *((name, (m, 0)) for m in range(6) for name in (
        "vertical", "doubling", "alternating_shift", "telescoping", "zeros_placement",
        "parity_shift")),
    *(("alternating_shift", (0, n)) for n in range(6)),
}


def test_passes_where_no_comparison_can_fail():
    # +1 planted at each cell the grid asks in turn: the pairs where every
    # plant still passes are exactly those that cannot fail
    unfailable = set()
    for name in IDENTITY_NAMES:
        for grid in _THIN_GRIDS:
            asked, source = _counting_source()
            assert verify(name, *grid, inset_fn=source).passed
            if all(verify(name, *grid, inset_fn=_off_by_one_at(cell)).passed for cell in asked):
                unfailable.add((name, grid))
    assert unfailable == CANNOT_FAIL


def test_verify_all_shares_one_table():
    asked, source = _counting_source()
    assert all(r.passed for r in verify_all(6, 6, inset_fn=source))
    assert asked and max(asked.values()) == 1


# Distinct cells each identity asks of its source on a passing grid, in
# IDENTITY_NAMES order; the grids total 6802, 5684, 5885, 6684 and 6949.
# Recorded while the inner sums of alternating_shift, zeros_placement and
# convolution were still summed term by term for every p.  The non-square
# grids show a run sized from max(m_max, n_max) instead of from m_max and
# n_max.  The 18 x 18 row, the grid the benchmark verifies, was recorded
# while each checker still read one cell (m, n, k) per call.  The four thin
# grids were recorded while the transforms and running sums were still kept
# on the table, and stepped by whichever (m, n) first asked for them.
# Re-recorded when telescoping and parity_shift came to compare at p = 1
# alone and the vertical-residual certificates came before the transforms:
# parity_shift no longer reads f(m, n_max, 0), which no comparison uses, nor
# anything where n_max = 0; the certificates of alternating_shift on 0 x 5 and
# of zeros_placement on 5 x 0 read nothing, as those grids have no comparison
# that could fail.  Each other count is unchanged, since a certificate reads
# the rows the transform walk it came before read.  Those walks are gone: a
# grid whose certificate fails compares the term-by-term forms, which no
# passing grid reaches.
CELLS_ASKED = {
    (6, 6): [483, 558, 483, 945, 672, 392, 476, 1050, 441, 441, 385, 434, 42],
    (3, 9): [390, 495, 396, 630, 525, 200, 392, 1275, 360, 360, 230, 356, 75],
    (9, 3): [396, 432, 390, 1125, 594, 440, 380, 690, 360, 360, 350, 350, 18],
    (2, 12): [416, 564, 426, 663, 572, 156, 423, 1989, 390, 390, 191, 387, 117],
    (12, 2): [426, 449, 416, 1768, 672, 546, 403, 714, 390, 390, 386, 377, 12],
    (18, 18): [7923, 8472, 7923, 20007, 11400, 7220, 7904, 20748, 7581, 7581, 6441, 7562, 228],
    (5, 0): [38, 0, 0, 0, 56, 42, 0, 0, 33, 33, 33, 0, 3],
    (0, 5): [0, 68, 38, 0, 66, 12, 37, 168, 33, 33, 18, 32, 33],
    (1, 7): [120, 182, 126, 165, 180, 48, 124, 484, 112, 112, 63, 110, 52],
    (7, 1): [126, 131, 120, 396, 189, 144, 112, 187, 112, 112, 111, 104, 7],
}


@pytest.mark.parametrize("grid", CELLS_ASKED, ids=lambda g: f"{g[0]}x{g[1]}")
def test_cells_asked_per_identity(grid):
    counts = []
    for name in IDENTITY_NAMES:
        asked, source = _counting_source()
        assert verify(name, *grid, inset_fn=source).passed
        counts.append(len(asked))
    assert counts == CELLS_ASKED[grid]


# The three identities with an inner sum on non-square grids, with +1 planted
# at the far end of a run (alternating_shift: f(m', ., k) along n,
# zeros_placement: f(., n', k) along m) or at the last cell of the grid
# (convolution).  Recorded with the same term-by-term sums.  The 18 x 18 rows
# were recorded while difference and binomial transform walks found the
# counterexample.
NON_SQUARE_GOLDEN = [
    ("alternating_shift", (3, 9), (1, 11, 7), (3, 9, 7, 3), 9424, 9425),
    ("alternating_shift", (9, 3), (1, 11, 7), (9, 3, 7, 9), 1572, 1573),
    ("alternating_shift", (3, 9), (2, 10, 14), (3, 9, 14, 2), 0, 1),
    ("alternating_shift", (9, 3), (4, 8, 14), (9, 3, 14, 6), 0, 1),
    ("zeros_placement", (3, 9), (10, 2, 7), (3, 9, 7, 7), 12240, 12241),
    ("zeros_placement", (9, 3), (11, 1, 7), (9, 3, 7, 2), 2178, 2179),
    ("zeros_placement", (3, 9), (12, 0, 14), (3, 9, 14, 9), 0, 1),
    ("zeros_placement", (9, 3), (12, 0, 14), (9, 3, 14, 3), 0, 1),
    # the benchmark's grid, where p reaches 18
    ("alternating_shift", (18, 18), (18, 18, 36), (18, 18, 36, 1), 1, 2),
    ("alternating_shift", (18, 18), (9, 27, 18), (18, 18, 18, 10), 5703029112297, 5703029112298),
    ("alternating_shift", (18, 18), (1, 35, 10), (18, 18, 10, 18), 1956736778752, 1956736778753),
    ("zeros_placement", (18, 18), (27, 9, 18), (18, 18, 18, 9), 8079317057869, 8079317057870),
    ("convolution", (3, 9), (3, 9, 14), (3, 9, 14), 1, 0),
    ("convolution", (9, 3), (9, 3, 14), (9, 3, 14), 1, 0),
    ("convolution", (3, 9), (3, 9, 5), (3, 9, 5), 34849, 34848),
    ("convolution", (9, 3), (9, 3, 5), (9, 3, 5), 3061, 3060),
]


@pytest.mark.parametrize(
    "name,grid,cell,params,lhs,rhs",
    NON_SQUARE_GOLDEN,
    ids=[f"{name}-{g[0]}x{g[1]}-{'-'.join(map(str, cell))}"
         for name, g, cell, *_ in NON_SQUARE_GOLDEN],
)
def test_non_square_planted_golden(name, grid, cell, params, lhs, rhs):
    report = verify(name, *grid, inset_fn=_off_by_one_at(cell))
    assert not report.passed
    ce = report.counterexample
    assert (ce.params, ce.lhs, ce.rhs) == (params, lhs, rhs)


@pytest.mark.parametrize("name", ["alternating_shift", "zeros_placement"])
def test_transform_memory_stays_small(name):
    # a passing grid holds the value table and the certificate's rows: 0.56 MB
    # on 18 x 18; keeping every step of a transform along the grid took
    # about 7.5 MB
    tracemalloc.start()
    try:
        assert verify(name, 18, 18).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_transforms_go_when_their_identity_finishes():
    # verify_all shares its cells across the identities and nothing else:
    # 0.56 MB peak on 14 x 14.  The bound dates from when every grid walked
    # the transforms (1.95 MB), and fails a table of alternating_shift's
    # differences kept until the last identity finished (2.22 MB)
    verify_all(14, 14)  # a first run peaks ~0.15 MB higher, whatever the code
    tracemalloc.start()
    try:
        assert all(report.passed for report in verify_all(14, 14))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_080_000


def _term_by_term(name, m_max, n_max, f):
    """Every comparison (params, lhs, rhs) of one identity, in grid order,
    with each side summed term by term per cell: binomials from ``math.comb``,
    every inner sum over p summed afresh, signed and Pascal rows against runs
    of cells, and the convolution's inner sum against a zero-padded C(m, .).
    ``parity_shift`` compares its two sides mod 2."""
    comb = math.comb
    size = max(m_max, n_max)
    pascal = [[comb(p, j) for j in range(p + 1)] for p in range(size + 1)]
    signed = [[c if (p - j) % 2 == 0 else -c for j, c in enumerate(row)]
              for p, row in enumerate(pascal)]
    padded = [[0] * size + row for row in pascal]
    for m in range(m_max + 1):
        for n in range(n_max + 1):
            for k in range(m + n + 3):
                if name == "pascal" and m >= 1:
                    yield (m, n, k), f(m, n, k), f(m - 1, n, k - 1) + f(m - 1, n, k)
                elif name == "vertical" and n >= 1:
                    yield (m, n, k), f(m, n, k), f(m, n - 1, k) + f(m + 1, n - 1, k)
                elif name == "doubling" and n >= 1:
                    yield (m, n, k), f(m, n, k), 2 * f(m, n - 1, k) + f(m, n - 1, k - 1)
                elif name == "alternating_shift" and n >= 1:
                    lhs = f(m + 1, n - 1, k)
                    for p in range(m + 1):
                        run = [f(m - p + 1, n - 1 + j, k) for j in range(p + 1)]
                        yield (m, n, k, p), lhs, sum(map(mul, signed[p], run))
                elif name == "horizontal_full":
                    head = 2 ** (n - k - 1) * comb(n, k + 1) if k < n else 0
                    rhs = head + sum(f(i, n, k) for i in range(m + 1))
                    yield (m, n, k), f(m + 1, n, k + 1), rhs
                elif name == "horizontal_tail" and n <= k <= m + n:
                    yield (m, n, k), f(m + 1, n, k + 1), sum(f(i, n, k) for i in range(m + 1))
                elif name == "telescoping":
                    for p in range(1, min(n, k) + 1):
                        tail = sum(f(m, n - i, k - i + 1) for i in range(1, p + 1))
                        yield (m, n, k, p), f(m, n, k) - f(m, n - p, k - p), 2 * tail
                elif name == "zeros_placement":
                    lhs = f(m, n, k)
                    for p in range(n + 1):
                        run = [f(m + i, n - p, k) for i in range(p + 1)]
                        yield (m, n, k, p), lhs, sum(map(mul, pascal[p], run))
                elif name == "binomial_sum":
                    rhs = sum(comb(n, i) * comb(m + i, k) for i in range(n + 1))
                    yield (m, n, k), f(m, n, k), rhs
                elif name == "convolution":
                    pad, z = padded[m], size + k
                    rhs = sum(c * sum(map(mul, pascal[i], pad[z - i:z + 1]))
                              for i, c in enumerate(pascal[n]))
                    yield (m, n, k), f(m, n, k), rhs
                elif name == "shifted_window" and m + k >= n:
                    rhs = sum(comb(n, m - i) * comb(k + i, k) for i in range(m + 1))
                    yield (m, n, k), f(m + k - n, n, k), rhs
                elif name == "parity_shift":
                    for p in range(1, min(n, k) + 1):
                        yield (m, n, k, p), f(m, n - p, k - p), f(m, n, k)
                elif name == "first_row" and m == 0:
                    yield (0, n, k), f(0, n, k), 2 ** (n - k) * comb(n, k) if k <= n else 0


def _reference_report(name, m_max, n_max, source, read=None):
    cells = {}

    def f(m, n, k):
        if (m, n, k) not in cells:
            cells[m, n, k] = 0 if k < 0 else source(m, n, k)
        return cells[m, n, k]

    report = GridReport(name, m_max, n_max, True, None)
    for params, lhs, rhs in _term_by_term(name, m_max, n_max, f):
        if (lhs - rhs) % 2 if name == "parity_shift" else lhs != rhs:
            report = GridReport(name, m_max, n_max, False, Counterexample(params, lhs, rhs))
            break
    if read is not None:
        read.update(k for k in cells if k[2] >= 0)
    return report


# the thin grids are where a checker could skip its set-up or its first step
# at m = 0 or n = 0 (alternating_shift reads no row of the 5 x 0 grid), and
# 0 x 0 is the degenerate grid
TERM_BY_TERM_GRIDS = [(0, 0), (8, 8), (2, 12), (12, 2), (5, 0), (0, 5), (1, 7), (7, 1)]
# p = 0 alone on these grids, where each comparison is of a cell with itself
SELF_COMPARED = {
    ("alternating_shift", (0, 5)), ("zeros_placement", (5, 0)), ("zeros_placement", (0, 0)),
}


@pytest.mark.parametrize("name", IDENTITY_NAMES)
@pytest.mark.parametrize("grid", TERM_BY_TERM_GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
def test_transforms_match_term_by_term_reports(name, grid):
    read = set()
    clean = _reference_report(name, *grid, inset, read)
    assert clean.passed and verify(name, *grid) == clean
    asked, source = _counting_source()
    assert verify(name, *grid, inset_fn=source).passed
    rng = random.Random(f"{name}:{grid}")
    # every cell either side reads where both bounds are at most 7, else 25
    # of them; first_row reads only 12 cells of the 12 x 2 grid, and pascal
    # none of 0 x 5
    cells = sorted(read | set(asked))
    for cell in cells if max(grid) <= 7 else rng.sample(cells, min(25, len(cells))):
        planted = _off_by_one_at(cell)
        want = _reference_report(name, *grid, planted)
        assert verify(name, *grid, inset_fn=planted) == want, cell
        # a cell that only the checker reads is in no comparison
        assert want.passed is ((name, grid) in SELF_COMPARED or cell not in read), cell
    # two faults at once: the report is the first of both in (m, n, k, p) order
    for pair in (rng.sample(cells, 2) for _ in range(8 if len(cells) > 1 else 0)):
        planted = _off_by_one_at(*pair)
        assert verify(name, *grid, inset_fn=planted) == _reference_report(
            name, *grid, planted), pair


@pytest.mark.parametrize("grid", [(6, 6), (3, 9)], ids=lambda g: f"{g[0]}x{g[1]}")
def test_verify_all_matches_verify_under_faults(grid):
    # an identity that stops at its counterexample leaves the shared table to
    # the next one, which must still report what it reports on its own
    read = set()
    for name in IDENTITY_NAMES:
        _reference_report(name, *grid, inset, read)
    for cell in random.Random(f"all:{grid}").sample(sorted(read), 12):
        planted = _off_by_one_at(cell)
        want = [verify(name, *grid, inset_fn=planted) for name in IDENTITY_NAMES]
        assert verify_all(*grid, inset_fn=planted) == want, cell
        assert not all(report.passed for report in want), cell


@pytest.mark.parametrize("name", IDENTITY_NAMES)
@pytest.mark.parametrize("grid", [(6, 6), (3, 9), (9, 3)], ids=lambda g: f"{g[0]}x{g[1]}")
def test_planted_row_ends_are_reported(name, grid):
    # the last two k of the last (m, n): a grid row that stops one or two k
    # short of k = m + n + 2 never reads them
    m_max, n_max = grid
    read = set()
    _reference_report(name, m_max, n_max, inset, read)
    for k in (m_max + n_max + 1, m_max + n_max + 2):
        cell = (m_max, n_max, k)
        if cell in read:
            planted = _off_by_one_at(cell)
            report = verify(name, m_max, n_max, inset_fn=planted)
            assert not report.passed, cell
            assert report == _reference_report(name, m_max, n_max, planted), cell


@pytest.mark.parametrize("name", IDENTITY_NAMES)
@pytest.mark.parametrize("grid", [(6, 6), (3, 9), (9, 3)], ids=lambda g: f"{g[0]}x{g[1]}")
def test_default_rows_report_planted_faults_as_injected_cells(monkeypatch, name, grid):
    # +1 planted in the rows inset_row returns must give the report that +1
    # planted through inset_fn gives: at the last k each row is read, where a
    # row cut short or not zero-padded past m + n goes wrong, and at sampled
    # cells.  It fails exactly where the term-by-term form reads the cell;
    # the certificates also read row ends that no comparison uses.
    asked, source = _counting_source()
    assert verify(name, *grid, inset_fn=source).passed
    read = set()
    _reference_report(name, *grid, inset, read)
    last = {}
    for m, n, k in sorted(asked):
        last[m, n] = (m, n, k)
    rest = sorted(set(asked) - set(last.values()))
    cells = [*last.values(), *random.Random(f"rows:{name}:{grid}").sample(rest, min(10, len(rest)))]
    for cell in cells:
        def planted(m, n, lo, hi, cell=cell):
            return [v + ((m, n, k) == cell) for k, v in enumerate(core.inset_row(m, n, lo, hi), lo)]

        monkeypatch.setattr("insets.identities.inset_row", planted)
        report = verify(name, *grid)
        assert report == verify(name, *grid, inset_fn=_off_by_one_at(cell)), cell
        assert report.passed is (cell not in read), cell


@pytest.mark.parametrize("cell", [(0, 3, 2), (3, 2, 2), (6, 6, 7)], ids=str)
def test_closed_forms_read_the_trapeze_table(monkeypatch, cell):
    # binomial_sum, convolution, shifted_window and, at a = 0, first_row
    # compare with rows of trapeze_table, so +1 planted at its cell (a, n, k)
    # fails exactly those, each at that cell in its own coordinates:
    # shifted_window's f(m+k-n, n, k) is the cell at m = a+n-k
    a, n, k = cell

    def planted(n_, m_max):
        rows = core.trapeze_table(n_, m_max)
        if n_ == n and a <= m_max:
            rows[a][k] += 1
        return rows

    monkeypatch.setattr(identities, "trapeze_table", planted)
    want = {"binomial_sum": cell, "convolution": cell, "shifted_window": (a + n - k, n, k)}
    if a == 0:
        want["first_row"] = cell
    value = inset(*cell)
    got = {r.identity: (r.counterexample.params, r.counterexample.lhs, r.counterexample.rhs)
           for r in verify_all(6, 6) if not r.passed}
    assert got == {name: (params, value, value + 1) for name, params in want.items()}
