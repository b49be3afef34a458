import ast
import inspect
import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insets import core, series
from insets.core import binomial, inset, inset_row
from insets.errors import NonUnitConstantTermError
from insets.oracles import poly_mul, poly_pow, poly_trim, series_div
from insets.series import check_coefficients, gf_in_k, gf_in_m, gf_in_n


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
    "fn,args", [(poly_pow, ([1, 1], -1)), (series_div, ([1], [1, -1], -1))]
)
def test_negative_exponent_and_order_are_refused(fn, args):
    with pytest.raises(ValueError, match="nonnegative"):
        fn(*args)


def test_poly_mul_by_an_empty_factor_is_empty():
    assert poly_mul([], [1, 2]) == []
    assert poly_mul([1, 2], []) == []


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


@pytest.mark.parametrize("which", ["m", "n", "k"])
@pytest.mark.parametrize("a,b", [(-1, 0), (0, -1), (-3, -3)])
def test_check_coefficients_refuses_negative_parameters(which, a, b):
    # refused before any coefficient is read, as the builders refuse them
    with pytest.raises(ValueError):
        check_coefficients(which, a, b, [])


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


def test_series_work_follows_the_order_not_the_powers():
    start = time.perf_counter()
    coeffs = gf_in_k(0, 3000, 5)
    assert time.perf_counter() - start < 1.0
    assert len(coeffs) == 6
    assert check_coefficients("k", 0, 3000, coeffs) is None


ORACLE_ORDERS = (0, 1, 2, 3, 5, 7, 20, 33, 64)
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


LOOP_SOURCE = inspect.getsource(core._binomial_product)


def _planted_loop(name, delta):
    """``core._binomial_product`` with ``name`` read as name + delta in its loop."""
    tree = ast.parse(LOOP_SOURCE)
    loop = next(node for node in ast.walk(tree) if isinstance(node, ast.For))

    class Plant(ast.NodeTransformer):
        def visit_Name(self, node):
            if node.id == name and isinstance(node.ctx, ast.Load):
                return ast.BinOp(node, ast.Add(), ast.Constant(delta))
            return node

    loop.body = [Plant().visit(stmt) for stmt in loop.body]
    namespace = {}
    exec(compile(ast.fix_missing_locations(tree), "<planted>", "exec"), vars(core), namespace)
    return namespace["_binomial_product"]


@pytest.mark.parametrize("builder,num,den", [*BUILDERS, (inset_row, None, None)])
def test_a_row_off_by_one_is_caught(builder, num, den, monkeypatch):
    # the core loop with one of its five constants moved by one: a step must
    # raise, or each function on that loop must leave its oracle, the division
    # of test_builders_match_series_division or inset cell by cell
    cases = [(3, 4), (5, 2), (7, 7)]
    if builder is inset_row:
        calls = [((m, n, 0, m + n + 2), [inset(m, n, k) for k in range(m + n + 2)])
                 for m, n in cases]
    else:
        calls = [((a, b, 20), series_div(poly_pow(*num(a, b)), poly_pow(*den(a, b)), 20))
                 for a, b in cases]
    for name, delta in itertools.product(("lead", "slope", "tail", "shift", "p"), (-1, 1)):
        planted = _planted_loop(name, delta)
        monkeypatch.setattr(core, "_binomial_product", planted)
        monkeypatch.setattr(series, "_binomial_product", planted)
        caught = False
        for args, want in calls:
            try:
                caught |= builder(*args) != want
            except ArithmeticError:
                caught = True
        assert caught, (name, delta)


@pytest.mark.parametrize("builder", [gf_in_m, gf_in_n, gf_in_k])
@pytest.mark.parametrize("args", [(2, 3, -1), (-1, 3, 5), (2, -1, 5)])
def test_builders_refuse_negative_arguments(builder, args):
    with pytest.raises(ValueError):
        builder(*args)
