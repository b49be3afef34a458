"""Integer polynomials and truncated formal power series.

Polynomials are coefficient lists, index = degree, trailing zeros trimmed
(the zero polynomial is the empty list).  A truncated series of order N is
a list of N + 1 exact integer coefficients, arithmetic modulo x^(N+1).

The three generating-function builders expand a product of binomial
powers (p + qx)^a (1 - rx)^(-b), which is D-finite, so each walks its
two-term coefficient recurrence on ``core._binomial_product``, the loop
``core.inset_row`` also walks: ``order`` steps of one exact division each.
Each builder states which coefficients carry inset values; coefficients
outside that range are produced but unconstrained.  ``check_coefficients``
compares the constrained coefficients of an expansion with ``inset``.

``series_div`` is public truncated division by a denominator with constant
term +-1, which keeps the quotient integral.  Dividing the ``poly_pow``
expansions of a builder's numerator and denominator is the independent
route the builders are tested against.
"""

from __future__ import annotations

from . import _EXPORTS
from .core import _binomial_product, inset
from .errors import NonUnitConstantTermError

__all__ = _EXPORTS["series"]


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


def _gf(p: int, q: int, a: int, r: int, b: int, order: int) -> list[int]:
    """(p + q*x)^a * (1 - r*x)^(-b) modulo x^(order+1), one coefficient per step."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return _binomial_product(p, q, a, r, b, order + 1)


def gf_in_m(n: int, k: int, order: int) -> list[int]:
    """Expansion of (1+x)^n / (1-x)^(k+1).

    The coefficient of x^m equals inset(m+k-n, n, k) for every
    m >= max(0, n-k); below that threshold coefficients are unconstrained.
    Walked by ``_gf`` with (p, q, a, r, b) = (1, 1, n, 1, k+1), so from c[0] = 1

        (j+1) c[j+1] = (n + k + 1) c[j] + (k - n + j) c[j-1].
    """
    if n < 0 or k < 0:
        raise ValueError("parameters must be nonnegative")
    return _gf(1, 1, n, 1, k + 1, order)


def gf_in_n(m: int, k: int, order: int) -> list[int]:
    """Expansion of (1-x)^m / (1-2x)^(k+1).

    The coefficient of x^n equals inset(m, n+k-m, k) whenever n + k >= m.
    Walked by ``_gf`` with (p, q, a, r, b) = (1, -1, m, 2, k+1), so from c[0] = 1

        (j+1) c[j+1] = (2k + 2 - m + 3j) c[j] - 2(k - m + j) c[j-1].
    """
    if m < 0 or k < 0:
        raise ValueError("parameters must be nonnegative")
    return _gf(1, -1, m, 2, k + 1, order)


def gf_in_k(m: int, n: int, order: int) -> list[int]:
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
