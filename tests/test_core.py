import gc
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
    trapeze_table,
)
from insets.identities import verify_all

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


def test_methods_agree_on_grid():
    for m in range(9):
        for n in range(9):
            for k in range(m + 2 * n + 3):
                values = {method(m, n, k) for method in ALL_METHODS}
                assert len(values) == 1, (m, n, k, values)


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
    # k = 0, k = m+n and k = m+n+1, plus the kernel's start switch at k = m
    for k in {0, 1, n, m, max(0, m + n - 1), m + n, m + n + 1}:
        assert inset(m, n, k) == inset_binomial_sum(m, n, k), (m, n, k)


def test_inset_large_matches_power_sum():
    assert inset(1000, 1000, 1000) == inset_power_sum(1000, 1000, 1000)


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


def test_trapeze_structure():
    for n in range(5):
        rows = trapeze_table(n, 6)
        for m, row in enumerate(rows):
            assert len(row) == m + n + 1
            assert row[0] == 2**n
            assert row[-1] == 1
            assert row == [inset(m, n, k) for k in range(m + n + 1)]
            if m:
                prev = rows[m - 1]
                for k in range(1, m + n):
                    left = prev[k - 1] if k - 1 < len(prev) else 0
                    right = prev[k] if k < len(prev) else 0
                    assert row[k] == left + right


def test_no_process_wide_growth():
    assert not hasattr(core.inset, "cache_info")

    # first calls first: lazy imports and first-use set-up are not growth
    verify_all(0, 0)
    registry.generate("delannoy", 1)
    chebyshev.polynomial(2, 1)
    tracemalloc.start()
    try:
        gc.collect()
        baseline = tracemalloc.get_traced_memory()[0]
        verify_all(12, 12)
        registry.generate("delannoy", 200)
        chebyshev.polynomial(2, 200)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained - baseline < 100_000
