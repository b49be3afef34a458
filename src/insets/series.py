"""Integer polynomials and truncated formal power series.

Polynomials are coefficient lists, index = degree, trailing zeros trimmed
(the zero polynomial is the empty list).  A truncated series of order N is
a list of N + 1 exact integer coefficients, arithmetic modulo x^(N+1).

The three generating-function builders expand a product of binomial
powers, which is D-finite, so each walks its two-term coefficient
recurrence on ``_p_recursive``, the walker ``registry`` shares: ``order``
steps of one exact division each.  Each builder states which coefficients
carry inset values; coefficients outside that range are produced but
unconstrained.  ``check_coefficients`` compares the constrained
coefficients of an expansion with ``inset``.

``series_div`` is public truncated division by a denominator with constant
term +-1, which keeps the quotient integral.  Dividing the ``poly_pow``
expansions of a builder's numerator and denominator is the independent
route the builders are tested against.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable, Iterator

from .core import inset
from .errors import NonUnitConstantTermError

__all__ = [
    "DEFAULT_ORDER",
    "check_coefficients",
    "gf_in_k",
    "gf_in_m",
    "gf_in_n",
    "poly_mul",
    "poly_pow",
    "poly_trim",
    "series_div",
]

DEFAULT_ORDER = 32

Rows = tuple[tuple[int, ...], ...]


def poly_trim(coeffs: list[int]) -> list[int]:
    """Canonical form: strip trailing zero coefficients."""
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return list(coeffs[:end])


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return poly_trim(out)


def poly_pow(base: list[int], e: int) -> list[int]:
    """Exact polynomial power; e = 0 gives the constant 1."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    result = [1]
    sq = poly_trim(base)
    while e:
        if e & 1:
            result = poly_mul(result, sq)
        e >>= 1
        if e:
            sq = poly_mul(sq, sq)
    return result


def series_div(num: list[int], den: list[int], order: int) -> list[int]:
    """Quotient q with num = den * q (mod x^(order+1)).

    Requires den to have constant term +1 or -1 so the quotient stays
    integral.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if not den or den[0] not in (1, -1):
        raise NonUnitConstantTermError(
            "series division requires a denominator with constant term +1 or -1"
        )
    lead = den[0]
    out = [0] * (order + 1)
    for i in range(order + 1):
        acc = num[i] if i < len(num) else 0
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * out[i - j]
        out[i] = acc * lead  # divide by +-1
    return out


def exact_div(numerator: int, denominator: int) -> int:
    """Integer division that must leave no remainder."""
    q, r = divmod(numerator, denominator)
    if r:
        raise ArithmeticError(f"{numerator} is not divisible by {denominator}")
    return q


def _horner(poly: tuple[int, ...], n: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * n + c
    return acc


def _p_recursive(start: int, seeds: Iterable[int], rows: Rows) -> Iterator[int]:
    """a(start), a(start+1), ... where sum_j p_j(n) a(n-j) = 0 for rows p_0..p_d.

    Each p_j is a coefficient tuple, lowest degree first, and ``seeds`` yields
    a(start)..a(start+d-1).  Each later term is one exact division by p_0(n),
    which must not vanish there, so a row that does not fit the terms raises
    ArithmeticError at its first inexact step instead of flooring.
    """
    head, *tail = rows
    window = deque(seeds, maxlen=len(tail))  # a(n-d), ..., a(n-1)
    yield from window
    for n in itertools.count(start + len(tail)):
        acc = 0
        for poly, prior in zip(tail, reversed(window)):
            acc -= _horner(poly, n) * prior
        window.append(exact_div(acc, _horner(head, n)))
        yield window[-1]


def _gf(p: int, q: int, a: int, r: int, b: int, order: int) -> list[int]:
    """(p + q*x)^a * (1 - r*x)^(-b) modulo x^(order+1), one coefficient per step.

    F is D-finite: (p + qx)(1 - rx) F' = (aq(1 - rx) + br(p + qx)) F, so its
    coefficients obey the two-term recurrence

        p(j+1) c[j+1] = (aq + bpr - (q - pr) j) c[j] + qr(b - a + j - 1) c[j-1]

    from c[0] = p^a and c[-1] = 0 (Petkovsek, Wilf and Zeilberger, *A = B*,
    ch. 6), walked as an order-2 row in n = j + 1.  The division is exact
    because its result is the integer c[j+1].
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    lead, slope, tail, shift = a * q + b * p * r, q - p * r, q * r, b - a - 1
    rows = ((0, p), (-(lead + slope), slope), (-tail * (shift - 1), -tail))
    return list(itertools.islice(_p_recursive(-1, (0, p**a), rows), 1, order + 2))


def gf_in_m(n: int, k: int, order: int = DEFAULT_ORDER) -> list[int]:
    """Expansion of (1+x)^n / (1-x)^(k+1).

    The coefficient of x^m equals inset(m+k-n, n, k) for every
    m >= max(0, n-k); below that threshold coefficients are unconstrained.
    Walked by ``_gf`` with (p, q, a, r, b) = (1, 1, n, 1, k+1), so from c[0] = 1

        (j+1) c[j+1] = (n + k + 1) c[j] + (k - n + j) c[j-1].
    """
    if n < 0 or k < 0:
        raise ValueError("parameters must be nonnegative")
    return _gf(1, 1, n, 1, k + 1, order)


def gf_in_n(m: int, k: int, order: int = DEFAULT_ORDER) -> list[int]:
    """Expansion of (1-x)^m / (1-2x)^(k+1).

    The coefficient of x^n equals inset(m, n+k-m, k) whenever n + k >= m.
    Walked by ``_gf`` with (p, q, a, r, b) = (1, -1, m, 2, k+1), so from c[0] = 1

        (j+1) c[j+1] = (2k + 2 - m + 3j) c[j] - 2(k - m + j) c[j-1].
    """
    if m < 0 or k < 0:
        raise ValueError("parameters must be nonnegative")
    return _gf(1, -1, m, 2, k + 1, order)


def gf_in_k(m: int, n: int, order: int = DEFAULT_ORDER) -> list[int]:
    """Expansion of (2-x)^n / (1-x)^(m+n+1).

    The coefficient of x^k equals inset(m+k, n, k) for every k.
    Walked by ``_gf`` with (p, q, a, r, b) = (2, -1, n, 1, m+n+1), so from c[0] = 2^n

        2(j+1) c[j+1] = (2m + n + 2 + 3j) c[j] - (m + j) c[j-1].
    """
    if m < 0 or n < 0:
        raise ValueError("parameters must be nonnegative")
    return _gf(2, -1, n, 1, m + n + 1, order)


def check_coefficients(
    which: str, a: int, b: int, coeffs: list[int]
) -> tuple[int, int] | None:
    """First (power, expected) where ``coeffs`` breaks the inset law, or None.

    ``coeffs`` is read as the expansion ``gf_in_<which>(a, b, ...)``, and
    each power is compared only where that builder's docstring says it
    carries an inset value.
    """
    if which not in ("m", "n", "k"):
        raise ValueError(f"which must be 'm', 'n' or 'k', not {which!r}")
    for idx, got in enumerate(coeffs):
        if which == "m":
            if idx < max(0, a - b):
                continue
            expect = inset(idx + b - a, a, b)
        elif which == "n":
            if idx + b < a:
                continue
            expect = inset(a, idx + b - a, b)
        else:
            expect = inset(a + idx, b, idx)
        if got != expect:
            return idx, expect
    return None
