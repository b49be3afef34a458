"""Exact arithmetic for inset numbers.

The inset number ``inset(m, n, k)`` counts the ternary words of length
``m + n`` that contain exactly ``k`` letters equal to 2 and no letter equal
to 0 among their first ``m`` positions.  Equivalently, it is the number of
``(n + k)``-element subsets of a ground set made of ``n`` two-element blocks
plus one free ``m``-element block, subject to meeting every two-element
block.

Four independent evaluation routes are provided so they can be played
against each other:

* :func:`inset_alternating`   -- inclusion-exclusion over the blocks,
* :func:`inset_power_sum`     -- powers of two times a binomial convolution,
* :func:`inset_binomial_sum`  -- an all-nonnegative double-binomial sum,
* :func:`inset_dp`            -- dynamic programming over the block count.

:func:`inset` is the canonical entry point.  It walks the power-sum terms
with a term-ratio kernel: each term follows from the last by one exact
multiply-divide step, and there are min(m, n, k, m+n-k) + 1 of them.  The
four routes above are the independent oracles it is checked against.  It
keeps no cache; a caller that reads a cell many times keeps its own table
for the length of its call, as :func:`insets.identities.verify` does.
:func:`inset_row` reads a run of k at once, walking the coefficient
recurrence of (1+x)^m (2+x)^n from k = 0 with one exact division a cell; it
never calls :func:`inset`.  That walk is ``_binomial_product``, the one loop
for every product (p + qx)^a (1 - rx)^(-b); the three generating functions
of :mod:`insets.series` step it too.

All values are exact Python integers.  Everything here is a pure function
of its arguments, and the module keeps no state at all.
"""

from __future__ import annotations

import math
from operator import add

from . import _EXPORTS

__all__ = _EXPORTS["core"]


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b) with the out-of-range convention.

    Returns 0 when ``b < 0`` or ``b > a``.  ``a`` must be nonnegative.
    """
    if a < 0:
        raise ValueError(f"binomial: a must be nonnegative, got {a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def _check_index(m: int, n: int, k: int) -> None:
    if m < 0 or n < 0 or k < 0:
        raise ValueError(f"inset index must be nonnegative, got ({m}, {n}, {k})")


def inset_alternating(m: int, n: int, k: int) -> int:
    """Inclusion-exclusion route: sum_i (-1)^i C(n,i) C(m+2n-2i, n+k).

    Intermediate partial sums are signed; the final value is nonnegative.
    A negative result indicates a bug, not a domain error, and raises
    RuntimeError.
    """
    _check_index(m, n, k)
    total = 0
    for i in range(n + 1):
        term = math.comb(n, i) * binomial(m + 2 * n - 2 * i, n + k)
        total += -term if i % 2 else term
    if total < 0:
        raise RuntimeError(
            f"alternating sum for ({m}, {n}, {k}) is negative: {total}"
        )
    return total


def inset_power_sum(m: int, n: int, k: int) -> int:
    """Power-of-two route: sum_i 2^(n-k+i) C(m,i) C(n,k-i).

    Terms with C(n, k-i) = 0 are skipped, which keeps the exponent
    nonnegative even when k > n.
    """
    _check_index(m, n, k)
    total = 0
    for i in range(m + 1):
        c = binomial(n, k - i)
        if c:
            total += (1 << (n - k + i)) * math.comb(m, i) * c
    return total


def inset_binomial_sum(m: int, n: int, k: int) -> int:
    """All-nonnegative route: sum_i C(n,i) C(m+i, k)."""
    _check_index(m, n, k)
    return sum(math.comb(n, i) * binomial(m + i, k) for i in range(n + 1))


def inset_dp(m: int, n: int, k: int) -> int:
    """Recurrence route over n: f(m,n,k) = 2 f(m,n-1,k) + f(m,n-1,k-1).

    The base row f(m,0,j) = C(m,j) is the ordinary Pascal triangle.  The rows
    are built afresh for each call and stop at index k, since entries past k
    never feed f(m,n,k).
    """
    _check_index(m, n, k)
    if k > m + n:
        return 0
    row = [math.comb(m, j) for j in range(k + 1)]
    for _ in range(n):
        row = [2 * a + b for a, b in zip(row, [0, *row])]
    return row[k]


def inset(m: int, n: int, k: int) -> int:
    """Canonical inset number, from the term-ratio kernel; not cached.

    Sums 2^(n-k+i) C(m,i) C(n,k-i) over max(0, k-n) <= i <= min(m, k), each
    term derived from the one before it:
    term(i+1) / term(i) = 2(m-i)(k-i) / ((i+1)(n-k+i+1)), and the floor
    division is exact because its result is the integer term(i+1).  That is
    min(m, n, k, m+n-k) + 1 terms, so a narrow free block (small m) costs
    only a few steps however large n is.  Equals all four evaluation routes,
    which serve as its oracles; 0 exactly when k > m + n.
    """
    _check_index(m, n, k)
    if k > m + n:
        return 0
    i0 = max(0, k - n)
    term = total = (math.comb(m, i0) * math.comb(n, k - i0)) << (n - k + i0)
    for i in range(i0, min(m, k)):
        term = term * (2 * (m - i) * (k - i)) // ((i + 1) * (n - k + i + 1))
        total += term
    return total


def _binomial_product(p: int, q: int, a: int, r: int, b: int, count: int) -> list[int]:
    """The first ``count`` >= 1 coefficients c[j] of (p + qx)^a (1 - rx)^(-b).

    The product F is D-finite: (p + qx)(1 - rx) F' = (aq(1 - rx) + br(p + qx)) F,
    so its coefficients obey the two-term recurrence

        p(j+1) c[j+1] = (lead - slope j) c[j] + tail (shift + j) c[j-1]

    with lead = aq + bpr, slope = q - pr, tail = qr and shift = b - a - 1, from
    c[-1] = 0 and c[0] = p^a (Petkovsek, Wilf and Zeilberger, *A = B*, ch. 6).
    For integers p != 0, a >= 0 and any q, r, b every c[j] is an integer, so
    the floor division of each step is exact: its result is the integer
    c[j+1].  So the step needs no ``divmod`` guard; the catalog's fitted rows,
    which a wrong fit could break, keep theirs in ``registry.exact_div``.
    """
    lead, slope, tail, shift = a * q + b * p * r, q - p * r, q * r, b - a - 1
    prev, cur = 0, p**a
    out = [cur]
    for j in range(count - 1):
        prev, cur = cur, ((lead - slope * j) * cur + tail * (shift + j) * prev) // (p * (j + 1))
        out.append(cur)
    return out


def inset_row(m: int, n: int, lo: int, hi: int) -> list[int]:
    """f(m, n, k) for lo <= k < hi, walking the row's coefficient recurrence.

    f(m, n, 0..m+n) are the coefficients c[k] of (1+x)^m (2+x)^n, by the
    power-sum form: ``_binomial_product`` with (p, q, a, r, b) = (2, 1, n,
    -1, -m), whose step is 2(k+1) c[k+1] = (2m+n-3k) c[k] + (m+n+1-k) c[k-1].
    The walk always starts from c[0] = 2^n and never calls ``inset``, so it is
    a route of its own.  Cells past m + n are 0 and take no step.  A read
    from lo still walks the lo cells before it, so it costs lo extra steps:
    for one cell ``inset``, with min(m, n, k, m+n-k) + 1 steps, is the
    cheaper call.
    """
    _check_index(m, n, lo)
    if hi <= lo:
        return []
    row = _binomial_product(2, 1, n, -1, -m, min(hi, m + n + 1))  # 0 from k = m + n + 1
    row += [0] * (hi - len(row))
    return row[lo:]


def trapeze_table(n: int, m_max: int) -> list[list[int]]:
    """Table of inset values for fixed n: rows m = 0..m_max, entries k = 0..m+n.

    Row 0 is [2^(n-k) C(n,k)] for k = 0..n; each later row follows the
    Pascal step row[k] = prev[k-1] + prev[k], reading 0 outside prev, so the
    left edge stays 2^n and the right edge stays 1.  For n = 0 this is the
    ordinary Pascal triangle.
    """
    if n < 0 or m_max < 0:
        raise ValueError("trapeze_table arguments must be nonnegative")
    rows = [[(1 << (n - k)) * math.comb(n, k) for k in range(n + 1)]]
    for _ in range(m_max):
        prev = rows[-1]
        rows.append(list(map(add, [0, *prev], [*prev, 0])))
    return rows
