from collections import Counter

import pytest

from insets.core import inset
from insets.identities import IDENTITY_NAMES, GridReport, verify, verify_all


def test_thirteen_identities():
    assert len(IDENTITY_NAMES) == 13


@pytest.mark.parametrize("name", IDENTITY_NAMES)
def test_identity_passes(name):
    report = verify(name, 8, 8)
    assert report.passed, report.counterexample
    assert report.counterexample is None
    assert report.m_max == 8 and report.n_max == 8


def test_degenerate_grid_passes():
    for report in verify_all(0, 0):
        assert report.passed


def test_verify_all_order_and_count():
    reports = verify_all(4, 4)
    assert [r.identity for r in reports] == list(IDENTITY_NAMES)
    assert all(isinstance(r, GridReport) for r in reports)


def test_unknown_identity():
    with pytest.raises(ValueError):
        verify("bogus", 2, 2)


def test_negative_bounds_rejected():
    with pytest.raises(ValueError):
        verify("pascal", -1, 2)


def _off_by_one_at(target):
    def stub(m, n, k):
        return inset(m, n, k) + (1 if (m, n, k) == target else 0)

    return stub


def test_injected_fault_is_detected():
    report = verify("pascal", 10, 10, inset_fn=_off_by_one_at((2, 1, 1)))
    assert not report.passed
    # first perturbed cell in lexicographic order
    assert report.counterexample.params == (2, 1, 1)
    assert report.counterexample.lhs != report.counterexample.rhs


def test_injected_fault_fails_across_suite():
    reports = verify_all(6, 6, inset_fn=_off_by_one_at((3, 2, 2)))
    assert any(not r.passed for r in reports)
    # the untouched reference suite still passes
    assert all(r.passed for r in verify_all(6, 6))


def test_telescoping_step_consistency():
    # consecutive p instances differ by exactly 2 * inset(m, n-p-1, k-p)
    for m in range(7):
        for n in range(7):
            for k in range(m + n + 1):
                for p in range(1, min(n, k)):
                    step = inset(m, n - p, k - p) - inset(m, n - p - 1, k - p - 1)
                    assert step == 2 * inset(m, n - p - 1, k - p)


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
def test_each_cell_asked_of_the_source_once(name):
    asked, source = _counting_source()
    assert verify(name, 6, 6, inset_fn=source).passed
    assert asked and max(asked.values()) == 1


def test_verify_all_shares_one_table():
    asked, source = _counting_source()
    assert all(r.passed for r in verify_all(6, 6, inset_fn=source))
    assert asked and max(asked.values()) == 1
