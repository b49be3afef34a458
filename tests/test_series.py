import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insets import series
from insets.core import binomial, inset
from insets.errors import NonUnitConstantTermError
from insets.series import (
    check_coefficients,
    gf_in_k,
    gf_in_m,
    gf_in_n,
    poly_mul,
    poly_pow,
    poly_trim,
    series_div,
)


def test_poly_trim():
    assert poly_trim([1, 2, 0, 0]) == [1, 2]
    assert poly_trim([0, 0]) == []
    assert poly_trim([]) == []


@pytest.mark.parametrize(
    "base,e,expected",
    [
        ([1, 1], 2, [1, 2, 1]),
        ([3, -1, 2], 0, [1]),
        ([1, -1], 3, [1, -3, 3, -1]),
    ],
)
def test_poly_pow(base, e, expected):
    assert poly_pow(base, e) == expected


@pytest.mark.parametrize(
    "num,den,order,expected",
    [
        ([1], [1, -1], 4, [1, 1, 1, 1, 1]),
        ([1], [1, -2], 3, [1, 2, 4, 8]),
        ([1, 1], [1, -1], 3, [1, 2, 2, 2]),
    ],
)
def test_series_div(num, den, order, expected):
    assert series_div(num, den, order) == expected


def test_series_div_negative_unit():
    # leading -1 is allowed and keeps everything integral
    quotient = series_div([1], [-1, 1], 4)
    assert quotient == [-1, -1, -1, -1, -1]


@pytest.mark.parametrize("den", [[2, 1], [0, 1], []])
def test_series_div_requires_unit_constant(den):
    with pytest.raises(NonUnitConstantTermError):
        series_div([1], den, 4)


@settings(max_examples=100, deadline=None)
@given(
    num=st.lists(st.integers(-9, 9), max_size=8),
    tail=st.lists(st.integers(-9, 9), max_size=8),
    lead=st.sampled_from([1, -1]),
    order=st.integers(0, 64),
)
def test_series_div_roundtrip(num, tail, lead, order):
    den = [lead] + tail
    quotient = series_div(num, den, order)
    product = poly_mul(quotient, den)
    for i in range(order + 1):
        got = product[i] if i < len(product) else 0
        want = num[i] if i < len(num) else 0
        assert got == want


def test_gf_in_m_law():
    order = 20
    for n in range(7):
        for k in range(7):
            coeffs = gf_in_m(n, k, order)
            assert len(coeffs) == order + 1
            for m in range(max(0, n - k), order + 1):
                assert coeffs[m] == inset(m + k - n, n, k), (n, k, m)


def test_gf_in_m_examples():
    assert gf_in_m(0, 0, 5) == [1] * 6
    assert gf_in_m(3, 2, 10)[2] == 18
    coeffs = gf_in_m(2, 5, 10)
    assert all(coeffs[m] == inset(m + 3, 2, 5) for m in range(11))


def test_gf_in_n_law():
    order = 20
    for m in range(7):
        for k in range(7):
            coeffs = gf_in_n(m, k, order)
            for n in range(order + 1):
                if n + k >= m:
                    assert coeffs[n] == inset(m, n + k - m, k), (m, k, n)


def test_gf_in_n_examples():
    assert gf_in_n(0, 0, 5) == [1, 2, 4, 8, 16, 32]
    assert gf_in_n(2, 2, 8)[2] == 13
    coeffs = gf_in_n(3, 1, 8)
    assert all(coeffs[n] == inset(3, n - 2, 1) for n in range(2, 9))


def test_gf_in_k_law():
    order = 20
    for m in range(7):
        for n in range(7):
            coeffs = gf_in_k(m, n, order)
            for k in range(order + 1):
                assert coeffs[k] == inset(m + k, n, k), (m, n, k)


def test_gf_in_k_examples():
    assert gf_in_k(0, 0, 5) == [1] * 6
    assert gf_in_k(0, 1, 5)[1] == inset(1, 1, 1) == 3
    assert gf_in_k(1, 3, 6)[2] == inset(3, 3, 2)


@pytest.mark.parametrize(
    "which,builder,constrained",
    [
        ("m", gf_in_m, lambda a, b, p: p >= max(0, a - b)),
        ("n", gf_in_n, lambda a, b, p: p + b >= a),
        ("k", gf_in_k, lambda a, b, p: True),
    ],
)
def test_check_coefficients_finds_a_planted_fault(which, builder, constrained):
    order = 10
    for a in range(5):
        for b in range(5):
            coeffs = builder(a, b, order)
            assert check_coefficients(which, a, b, coeffs) is None
            for p in range(order + 1):
                planted = coeffs[:p] + [coeffs[p] + 1] + coeffs[p + 1:]
                found = check_coefficients(which, a, b, planted)
                assert found == ((p, coeffs[p]) if constrained(a, b, p) else None)


def test_check_coefficients_rejects_unknown_variable():
    with pytest.raises(ValueError):
        check_coefficients("x", 1, 1, [1])


def test_shifted_window_identity():
    # inset(m+k-n, n, k) = sum_i C(n, m-i) C(k+i, k) whenever m + k >= n
    import math

    for m in range(13):
        for n in range(13):
            for k in range(13):
                if m + k < n:
                    continue
                rhs = sum(
                    binomial(n, m - i) * math.comb(k + i, k) for i in range(m + 1)
                )
                assert inset(m + k - n, n, k) == rhs, (m, n, k)


# each builder with its numerator and denominator as (base, exponent) for poly_pow
BUILDERS = [
    (gf_in_m, lambda a, b: ([1, 1], a), lambda a, b: ([1, -1], b + 1)),
    (gf_in_n, lambda a, b: ([1, -1], a), lambda a, b: ([1, -2], b + 1)),
    (gf_in_k, lambda a, b: ([2, -1], b), lambda a, b: ([1, -1], a + b + 1)),
]


@pytest.mark.parametrize("builder,num,den", BUILDERS)
def test_builders_match_full_expansion_when_powers_exceed_order(builder, num, den):
    for a, b, order in [(0, 0, 0), (9, 2, 3), (2, 9, 3), (12, 12, 5), (5, 4, 20)]:
        full = series_div(poly_pow(*num(a, b)), poly_pow(*den(a, b)), order)
        assert builder(a, b, order) == full, (a, b, order)


def test_series_work_follows_the_order_not_the_powers():
    start = time.perf_counter()
    coeffs = gf_in_k(0, 3000, 5)
    assert time.perf_counter() - start < 1.0
    assert len(coeffs) == 6
    assert check_coefficients("k", 0, 3000, coeffs) is None


ORACLE_ORDERS = (0, 1, 2, 3, 7, 33, 64)
# order-512 parameters of the library benchmark's big-values job (seed 11),
# and the top of the [100, 300] range it draws them from
BIG_VALUES = {
    gf_in_m: [(104, 160), (300, 300)],
    gf_in_n: [(232, 193), (300, 300)],
    gf_in_k: [(252, 292), (300, 300)],
}


@pytest.mark.parametrize("builder,num,den", BUILDERS)
def test_builders_match_series_division(builder, num, den):
    # the recurrence walk against the division of the two full binomial
    # powers; a quotient coefficient does not depend on the order it is cut
    # at, so one division to the largest order serves every order
    top = max(ORACLE_ORDERS)
    for a in range(25):
        for b in range(25):
            full = series_div(poly_pow(*num(a, b)), poly_pow(*den(a, b)), top)
            for order in ORACLE_ORDERS:
                assert builder(a, b, order) == full[: order + 1], (a, b, order)
    for a, b in BIG_VALUES[builder]:
        full = series_div(poly_pow(*num(a, b)), poly_pow(*den(a, b)), 512)
        assert builder(a, b, 512) == full, (a, b)


@pytest.mark.parametrize("builder,num,den", BUILDERS)
def test_a_row_off_by_one_is_caught(builder, num, den, monkeypatch):
    # the kernel handed each builder's row with one coefficient moved by one:
    # an exact division must raise, or the expansions must leave the division
    # oracle of test_builders_match_series_division
    kernel = series._p_recursive
    for j, e in itertools.product(range(3), range(2)):

        def planted(start, seeds, rows, j=j, e=e):
            rows = [list(p) for p in rows]
            rows[j][e] += 1
            return kernel(start, seeds, rows)

        monkeypatch.setattr(series, "_p_recursive", planted)
        caught = False
        for a, b in [(3, 4), (5, 2), (7, 7)]:
            full = series_div(poly_pow(*num(a, b)), poly_pow(*den(a, b)), 20)
            try:
                caught |= builder(a, b, 20) != full
            except ArithmeticError:
                caught = True
        assert caught, (j, e)


@pytest.mark.parametrize("builder", [gf_in_m, gf_in_n, gf_in_k])
@pytest.mark.parametrize("args", [(2, 3, -1), (-1, 3, 5), (2, -1, 5)])
def test_builders_refuse_negative_arguments(builder, args):
    with pytest.raises(ValueError):
        builder(*args)
