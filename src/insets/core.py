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

:func:`inset` is the canonical entry point.  It walks the binomial-sum
terms with a term-ratio kernel: each term follows from the last by one exact
multiply-divide step.  The four routes above are the independent oracles it
is checked against.  It keeps no cache; a caller that reads a cell many times
keeps its own table for the length of its call, as
:func:`insets.identities.verify` does.

All values are exact Python integers.  Everything here is a pure function
of its arguments.  :func:`inset` keeps no state at all; concurrent
:func:`inset_dp` calls may duplicate work on a row not yet memoized, but
always store identical rows.
"""

from __future__ import annotations

import math

__all__ = [
    "binomial",
    "inset",
    "inset_alternating",
    "inset_binomial_sum",
    "inset_dp",
    "inset_power_sum",
    "trapeze_table",
]


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


# Rows keyed by (m, block count); a stored row never changes.  This is the
# package's last unbounded process-wide memo.  It stays only until the
# benchmark checks build their own DP rows (ROADMAP item 1), because today
# they lean on it for speed.
_DP_ROWS: dict[tuple[int, int], list[int]] = {}


def inset_dp(m: int, n: int, k: int) -> int:
    """Recurrence route over n: f(m,n,k) = 2 f(m,n-1,k) + f(m,n-1,k-1).

    The base row f(m,0,k) = C(m,k) is the ordinary Pascal triangle.
    Rows are memoized across calls.
    """
    _check_index(m, n, k)
    if k > m + n:
        return 0
    row = _DP_ROWS.get((m, n))
    if row is None:
        row = _DP_ROWS.setdefault((m, 0), [math.comb(m, j) for j in range(m + 1)])
        for n2 in range(1, n + 1):
            prev = row
            row = [
                2 * (prev[j] if j < len(prev) else 0)
                + (prev[j - 1] if 0 < j <= len(prev) else 0)
                for j in range(m + n2 + 1)
            ]
            row = _DP_ROWS.setdefault((m, n2), row)
    return row[k]


def inset(m: int, n: int, k: int) -> int:
    """Canonical inset number, from the term-ratio kernel; not cached.

    Sums C(n,i) C(m+i,k), each term derived from the one before it:
    term(i+1) / term(i) = (n-i)(m+i+1) / ((i+1)(m+i+1-k)), and the floor
    division is exact because its result is the integer term(i+1).  Equals
    all four evaluation routes, which serve as its oracles; 0 exactly when
    k > m + n.
    """
    _check_index(m, n, k)
    if k > m + n:
        return 0
    i0 = max(0, k - m)
    term = total = math.comb(n, i0) * math.comb(m + i0, k)
    for i in range(i0, n):
        term = term * ((n - i) * (m + i + 1)) // ((i + 1) * (m + i + 1 - k))
        total += term
    return total


def trapeze_table(n: int, m_max: int) -> list[list[int]]:
    """Table of inset values for fixed n: rows m = 0..m_max, entries k = 0..m+n.

    Row 0 is [2^(n-k) C(n,k)] for k = 0..n; each later row follows the
    Pascal step row[k] = prev[k-1] + prev[k], so the left edge stays 2^n and
    the right edge stays 1.  For n = 0 this is the ordinary Pascal triangle.
    """
    if n < 0 or m_max < 0:
        raise ValueError("trapeze_table arguments must be nonnegative")
    rows = [[(1 << (n - k)) * math.comb(n, k) for k in range(n + 1)]]
    for m in range(1, m_max + 1):
        prev = rows[-1]
        rows.append(
            [
                (prev[k - 1] if 0 < k <= len(prev) else 0)
                + (prev[k] if k < len(prev) else 0)
                for k in range(m + n + 1)
            ]
        )
    return rows
