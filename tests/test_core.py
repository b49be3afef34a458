import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insets import chebyshev, core, registry
from insets.core import (
    binomial,
    inset,
    inset_alternating,
    inset_binomial_sum,
    inset_dp,
    inset_power_sum,
    inset_row,
    trapeze_table,
)
from insets.identities import verify_all
from insets.oracles import poly_mul, poly_pow

ALL_METHODS = [inset_alternating, inset_power_sum, inset_binomial_sum, inset_dp]

KNOWN_VALUES = [
    ((1, 3, 2), 18),
    ((0, 0, 0), 1),
    ((2, 3, 4), 8),
    ((2, 2, 2), 13),
    ((3, 2, 3), 19),
    ((1, 3, 3), 7),
    ((5, 3, 0), 8),
    ((0, 3, 2), 6),
    ((3, 4, 0), 16),
    ((4, 2, 6), 1),
    ((5, 0, 2), 10),
    ((2, 3, 9), 0),
]


@pytest.mark.parametrize("method", ALL_METHODS + [inset])
@pytest.mark.parametrize("index,expected", KNOWN_VALUES)
def test_known_values(method, index, expected):
    assert method(*index) == expected


@pytest.mark.parametrize(
    "a,b,expected",
    [(4, 2, 6), (7, 0, 1), (3, 5, 0), (5, -1, 0), (0, 0, 1), (10, 10, 1)],
)
def test_binomial(a, b, expected):
    assert binomial(a, b) == expected


def test_binomial_rejects_negative_a():
    with pytest.raises(ValueError):
        binomial(-1, 0)


@pytest.mark.parametrize("method", ALL_METHODS + [inset])
def test_negative_index_rejected(method):
    with pytest.raises(ValueError):
        method(1, -1, 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 40))
def test_methods_agree_random(m, n, k):
    reference = inset_binomial_sum(m, n, k)
    assert inset_alternating(m, n, k) == reference
    assert inset_power_sum(m, n, k) == reference
    assert inset_dp(m, n, k) == reference
    assert inset(m, n, k) == reference


@st.composite
def _large_index(draw):
    m = draw(st.integers(0, 300))
    n = draw(st.integers(0, 300))
    return m, n, draw(st.integers(0, m + n + 2))


@settings(max_examples=200, deadline=None)
@given(_large_index())
def test_inset_matches_binomial_sum_at_large_indices(index):
    assert inset(*index) == inset_binomial_sum(*index)


@pytest.mark.parametrize(
    "m,n", [(0, 0), (0, 1), (1, 0), (0, 250), (250, 0), (37, 211), (300, 300)]
)
def test_inset_edges_match_binomial_sum(m, n):
    # k = 0, k = m+n and k = m+n+1, plus the kernel's start switch at k = n
    # and its stop switch at k = m
    for k in {0, 1, n, m, max(0, m + n - 1), m + n, m + n + 1}:
        assert inset(m, n, k) == inset_binomial_sum(m, n, k), (m, n, k)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 64, 999, 2000])
def test_inset_narrow_free_block_matches_trapeze_rows(n):
    # m << n, every k: the kernel walks at most m + 1 terms, and the rows are
    # built from 2^(n-k) C(n, k) by Pascal steps, with no term ratio
    for m, row in enumerate(trapeze_table(n, 3)):
        assert [inset(m, n, k) for k in range(m + n + 2)] == row + [0], (m, n)


def test_inset_narrow_free_block_at_n_4000():
    # every k near both ends and every 53rd k between, against the directly
    # summed power sum; each value costs a C(4000, .) or four
    n = 4000
    for m in range(4):
        for k in {*range(8), *range(0, m + n + 2, 53), *range(m + n - 7, m + n + 2)}:
            assert inset(m, n, k) == inset_power_sum(m, n, k), (m, k)


def test_inset_large_matches_power_sum():
    assert inset(1000, 1000, 1000) == inset_power_sum(1000, 1000, 1000)


@pytest.mark.parametrize("m", range(31))
def test_inset_row_matches_inset_on_every_range(monkeypatch, m):
    # every 0 <= lo <= hi <= m+n+3 with m + n <= 30, one cell and past m + n
    # included; the cells are read from inset first, and inset_row must then
    # find every range without it
    cells_of = {n: [inset(m, n, k) for k in range(m + n + 3)] for n in range(31 - m)}

    def refused(*index):
        raise AssertionError(f"inset{index} called")

    monkeypatch.setattr(core, "inset", refused)
    for n, cells in cells_of.items():
        top = m + n + 3
        for lo in range(top + 1):
            for hi in range(lo, top + 1):
                assert inset_row(m, n, lo, hi) == cells[lo:hi], (m, n, lo, hi)


def test_inset_row_matches_polynomial_product():
    # the coefficients of (1+x)^m (2+x)^n, multiplied out with no recurrence
    for m in range(0, 41, 5):
        for n in range(0, 41, 4):
            product = poly_mul(poly_pow([1, 1], m), poly_pow([2, 1], n))
            assert inset_row(m, n, 0, m + n + 2) == [*product, 0], (m, n)


@pytest.mark.parametrize("m,n", [(600, 900), (900, 600), (750, 750), (613, 887)])
def test_inset_row_large_matches_inset(m, n):
    rng = random.Random(f"{m}:{n}")
    for lo in (0, (m + n) // 2, m + n - 2):
        row = inset_row(m, n, lo, m + n + 2)
        assert len(row) == m + n + 2 - lo
        ks = range(lo, m + n + 2)
        for k in {lo, lo + 1, m + n, m + n + 1, *rng.sample(ks, min(6, len(ks)))}:
            assert row[k - lo] == inset(m, n, k), (m, n, lo, k)


def test_inset_row_edges():
    for args in [(-1, 2, 0, 3), (2, -1, 0, 3), (2, 2, -1, 3)]:
        with pytest.raises(ValueError):
            inset_row(*args)
    for lo, hi in [(0, 0), (3, 3), (4, 2), (9, 9), (9, 0)]:
        assert inset_row(3, 2, lo, hi) == []


def test_support():
    for m in range(13):
        for n in range(13):
            for k in range(m + 2 * n + 3):
                value = inset(m, n, k)
                assert (value > 0) == (k <= m + n), (m, n, k, value)


def test_boundaries():
    for m in range(13):
        for n in range(13):
            assert inset(m, n, 0) == 2**n
            assert inset(m, n, m + n) == 1


def test_pascal_recurrence():
    for m in range(1, 13):
        for n in range(13):
            for k in range(1, m + n + 1):
                assert inset(m, n, k) == inset(m - 1, n, k - 1) + inset(m - 1, n, k)


def test_parity():
    # even whenever there are more blocks than twos
    for m in range(13):
        for n in range(13):
            for k in range(n):
                assert inset(m, n, k) % 2 == 0, (m, n, k)


def test_delannoy_symmetry():
    for m in range(13):
        for n in range(13):
            assert inset(m, n, n) == inset(n, m, m)


def test_power_sum_handles_k_above_n():
    # exponent would go negative without the zero-term short-circuit
    assert inset_power_sum(2, 3, 4) == 8
    assert inset_power_sum(4, 1, 3) == inset_binomial_sum(4, 1, 3)


def test_trapeze_first_row_n1():
    assert trapeze_table(1, 2)[0] == [2, 1]


def test_trapeze_n0_is_pascal():
    assert trapeze_table(0, 3) == [[1], [1, 1], [1, 2, 1], [1, 3, 3, 1]]


def test_trapeze_n2_single_row():
    assert trapeze_table(2, 0) == [[4, 4, 1]]


@pytest.mark.parametrize("args", [(-1, 0), (0, -1)])
def test_trapeze_refuses_negative_arguments(args):
    with pytest.raises(ValueError, match="nonnegative"):
        trapeze_table(*args)


def test_trapeze_rows_match_inset_cell_by_cell():
    for n in range(13):
        cells = [[inset(m, n, k) for k in range(m + n + 1)] for m in range(13)]
        for m_max in range(13):
            assert trapeze_table(n, m_max) == cells[: m_max + 1], (n, m_max)


def test_trapeze_large_rows_match_inset():
    rows = trapeze_table(80, 300)
    assert len(rows) == 301
    for m in (0, 1, 150, 300):
        assert rows[m] == [inset(m, 80, k) for k in range(m + 81)], m


def test_no_process_wide_growth():
    assert not hasattr(core.inset, "cache_info")

    # first calls first: lazy imports and first-use set-up are not growth
    verify_all(0, 0)
    registry.generate("delannoy", 1)
    chebyshev.polynomial(2, 1)
    inset_dp(1, 1, 1)
    tracemalloc.start()
    try:
        gc.collect()
        baseline = tracemalloc.get_traced_memory()[0]
        for m in range(21):
            for n in range(21):
                for k in range(m + n + 1):
                    inset_dp(m, n, k)
        verify_all(12, 12)
        registry.generate("delannoy", 200)
        chebyshev.polynomial(2, 200)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained - baseline < 100_000
