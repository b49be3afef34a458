"""Truncated formal power series.

A truncated series of order N is a list of N + 1 exact integer
coefficients, arithmetic modulo x^(N+1).

The paper's three generating functions, one per variable of inset(m, n, k)
with the other two fixed, are the three rows of one table, ``_ROWS``.  From
the two fixed variables a row gives the product of binomial powers
(p + qx)^a (1 - rx)^(-b) its builder expands, and the inset cell (m, n, k)
that coefficient j carries.  The product is D-finite, so each builder walks
its two-term coefficient recurrence on ``core._binomial_product``, the loop
``core.inset_row`` also walks: ``order`` steps of one exact division each.
One rule says which coefficients carry inset values: coefficient j does
exactly where its cell has no negative coordinate; the others are produced
but unconstrained.  ``check_coefficients`` compares, by that rule, the
coefficients of an expansion with ``inset``.

The builders are tested against an independent route, truncated division
of polynomial powers, which lives with the other oracles in
:mod:`insets.oracles`.
"""

from __future__ import annotations

from . import _EXPORTS
from .core import _binomial_product, inset

__all__ = _EXPORTS["series"]


# which -> (from the fixed (a, b) of gf_in_<which>: its product (p, q, a, r, b);
# from (a, b, j): the inset cell (m, n, k) of coefficient j)
_ROWS = {
    "m": (lambda n, k: (1, 1, n, 1, k + 1), lambda n, k, j: (j + k - n, n, k)),
    "n": (lambda m, k: (1, -1, m, 2, k + 1), lambda m, k, j: (m, j + k - m, k)),
    "k": (lambda m, n: (2, -1, n, 1, m + n + 1), lambda m, n, j: (m + j, n, j)),
}


def _row(which: str, a: int, b: int) -> tuple:
    """The ``_ROWS`` row of ``which``, once ``a`` and ``b`` are known nonnegative."""
    if which not in _ROWS:
        raise ValueError(f"which must be 'm', 'n' or 'k', not {which!r}")
    if a < 0 or b < 0:
        raise ValueError("parameters must be nonnegative")
    return _ROWS[which]


def _gf(which: str, a: int, b: int, order: int) -> list[int]:
    """The expansion of row ``which`` at (a, b) modulo x^(order+1), one coefficient per step."""
    product, _ = _row(which, a, b)
    if order < 0:
        raise ValueError("order must be nonnegative")
    return _binomial_product(*product(a, b), order + 1)


def gf_in_m(n: int, k: int, order: int) -> list[int]:
    """Expansion of (1+x)^n / (1-x)^(k+1).

    The coefficient of x^m equals inset(m+k-n, n, k) for every
    m >= max(0, n-k); below that threshold coefficients are unconstrained.
    Walked by ``_gf`` with (p, q, a, r, b) = (1, 1, n, 1, k+1), so from c[0] = 1

        (j+1) c[j+1] = (n + k + 1) c[j] + (k - n + j) c[j-1].
    """
    return _gf("m", n, k, order)


def gf_in_n(m: int, k: int, order: int) -> list[int]:
    """Expansion of (1-x)^m / (1-2x)^(k+1).

    The coefficient of x^n equals inset(m, n+k-m, k) whenever n + k >= m.
    Walked by ``_gf`` with (p, q, a, r, b) = (1, -1, m, 2, k+1), so from c[0] = 1

        (j+1) c[j+1] = (2k + 2 - m + 3j) c[j] - 2(k - m + j) c[j-1].
    """
    return _gf("n", m, k, order)


def gf_in_k(m: int, n: int, order: int) -> list[int]:
    """Expansion of (2-x)^n / (1-x)^(m+n+1).

    The coefficient of x^k equals inset(m+k, n, k) for every k.
    Walked by ``_gf`` with (p, q, a, r, b) = (2, -1, n, 1, m+n+1), so from c[0] = 2^n

        2(j+1) c[j+1] = (2m + n + 2 + 3j) c[j] - (m + j) c[j-1].
    """
    return _gf("k", m, n, order)


def check_coefficients(
    which: str, a: int, b: int, coeffs: list[int]
) -> tuple[int, int] | None:
    """First (power, expected) where ``coeffs`` breaks the inset law, or None.

    ``coeffs`` is read as the expansion ``gf_in_<which>(a, b, ...)``.  Power j
    is compared with the value of its row's cell exactly where that cell has
    no negative coordinate, which is each builder's documented range:
    j >= max(0, a - b) for ``m``, j + b >= a for ``n``, and every j for ``k``.
    A negative ``a`` or ``b`` raises ValueError.
    """
    _, cell = _row(which, a, b)
    for j, got in enumerate(coeffs):
        m, n, k = cell(a, b, j)
        if min(m, n, k) >= 0 and got != (expect := inset(m, n, k)):
            return j, expect
    return None
