"""Grid verification of the inset identities.

Every identity is checked exhaustively over 0 <= m <= m_max, 0 <= n <= n_max,
0 <= k <= m + n + 2, together with every admissible auxiliary parameter p.
Comparisons are exact; there are no tolerances.  A report either passes or
carries the lexicographically first counterexample (m, n, k[, p] ascending,
p innermost).

The thirteen identity names:

    pascal             f(m,n,k) = f(m-1,n,k-1) + f(m-1,n,k)
    vertical           f(m,n,k) = f(m,n-1,k) + f(m+1,n-1,k)
    doubling           f(m,n,k) = 2 f(m,n-1,k) + f(m,n-1,k-1)
    alternating_shift  f(m+1,n-1,k) = sum_i (-1)^i C(p,i) f(m-p+1,n+p-1-i,k)
    horizontal_full    f(m+1,n,k+1) = 2^(n-k-1) C(n,k+1) + sum_{i<=m} f(i,n,k)
    horizontal_tail    f(m+1,n,k+1) = sum_{i<=m} f(i,n,k)      for n <= k
    telescoping        f(m,n,k) - f(m,n-p,k-p) = 2 sum_{i=1..p} f(m,n-i,k-i+1)
    zeros_placement    f(m,n,k) = sum_i C(p,i) f(m+i,n-p,k)    for p <= n
    binomial_sum       f(m,n,k) = sum_i C(n,i) C(m+i,k)
    convolution        f(m,n,k) = sum_{i,j} C(n,i) C(i,j) C(m,k-i+j)
    shifted_window     f(m+k-n,n,k) = sum_i C(n,m-i) C(k+i,k)  for m+k >= n
    parity_shift       f(m,n-p,k-p) == f(m,n,k)  (mod 2)
    first_row          f(0,n,k) = 2^(n-k) C(n,k) for k <= n, else 0

Note the telescoping difference is oriented so both sides are nonnegative;
the reversed orientation fails on the very first nontrivial cell.

Each call reads its values from one table that lives only for that call
(:func:`verify_all` shares one across its thirteen identities).  A cell is
asked of the value source, ``inset`` or the injected ``inset_fn``, the first
time it is read and never again.  The table also hands out two contiguous
runs of its cells, f(m, ., k) along n and f(., n, k) along m.  Each inner
sum of ``alternating_shift`` and ``zeros_placement`` is then one
``sum(map(mul, row, run))`` against a Pascal row built for the call (with
the signs folded in for ``alternating_shift``), and each ``horizontal_*``
sum is the sum of a run.  ``telescoping`` keeps a running sum over p, and
``convolution`` sums C(i, j) C(m, k-i+j) over j against a zero-padded row of
C(m, .).  Every grid cell, every p and every comparison is the same as in the
term-by-term forms above, in the same order, so reports are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import mul
from typing import Callable, Optional

from .core import inset

__all__ = ["Counterexample", "GridReport", "IDENTITY_NAMES", "verify", "verify_all"]

InsetFn = Callable[[int, int, int], int]


@dataclass(frozen=True)
class Counterexample:
    params: tuple[int, ...]
    lhs: int
    rhs: int


@dataclass(frozen=True)
class GridReport:
    identity: str
    m_max: int
    n_max: int
    passed: bool
    counterexample: Counterexample | None


class _Table(dict):
    """The inset values one verification call reads, keyed ``(m, n, k)``.

    A cell is filled from the value source the first time it is read: 0 when
    k < 0, otherwise ``source(m, n, k)``.  A run is sliced from a row of
    cells kept per line and grown from index 0, so a row may hold a few
    cells that no comparison reads.  The table also holds the Pascal
    rows C(p, 0..p) for p <= ``size``, the same rows with the signs of
    ``alternating_shift`` folded in, and C(m, ·) behind ``size`` zeros.
    """

    def __init__(self, source: InsetFn, size: int) -> None:
        super().__init__()
        self.source = source
        self.size = size
        rows = [[math.comb(p, j) for j in range(p + 1)] for p in range(size + 1)]
        self.pascal = rows
        # signed[p][j] = (-1)^(p-j) C(p, j), the coefficient of f(., n-1+j, .)
        self.signed = [[c if (p - j) % 2 == 0 else -c for j, c in enumerate(row)]
                       for p, row in enumerate(rows)]
        self.padded = [[0] * size + row for row in rows]
        self._rows_n: dict[tuple[int, int], list[int]] = {}
        self._rows_m: dict[tuple[int, int], list[int]] = {}

    def __missing__(self, key: tuple[int, int, int]) -> int:
        m, n, k = key
        value = self[key] = 0 if k < 0 else self.source(m, n, k)
        return value

    def along_n(self, m: int, n: int, k: int, count: int) -> list[int]:
        """f(m, n + j, k) for j < count, sliced from the row kept for (m, k)."""
        row = self._rows_n.setdefault((m, k), [])
        if len(row) < n + count:
            row += map(self.__getitem__, zip(repeat(m), range(len(row), n + count), repeat(k)))
        return row[n:n + count]

    def along_m(self, m: int, n: int, k: int, count: int) -> list[int]:
        """f(m + j, n, k) for j < count, sliced from the row kept for (n, k)."""
        row = self._rows_m.setdefault((n, k), [])
        if len(row) < m + count:
            row += map(self.__getitem__, zip(range(len(row), m + count), repeat(n), repeat(k)))
        return row[m:m + count]


# table -> None or (params, lhs, rhs)
_Checker = Callable[[_Table, int, int, int], Optional[tuple[tuple[int, ...], int, int]]]


def _check_pascal(f, m, n, k):
    if m < 1:
        return None
    lhs = f[m, n, k]
    rhs = f[m - 1, n, k - 1] + f[m - 1, n, k]
    return None if lhs == rhs else ((m, n, k), lhs, rhs)


def _check_vertical(f, m, n, k):
    if n < 1:
        return None
    lhs = f[m, n, k]
    rhs = f[m, n - 1, k] + f[m + 1, n - 1, k]
    return None if lhs == rhs else ((m, n, k), lhs, rhs)


def _check_doubling(f, m, n, k):
    if n < 1:
        return None
    lhs = f[m, n, k]
    rhs = 2 * f[m, n - 1, k] + f[m, n - 1, k - 1]
    return None if lhs == rhs else ((m, n, k), lhs, rhs)


def _check_alternating_shift(f, m, n, k):
    if n < 1:
        return None
    lhs = f[m + 1, n - 1, k]
    for p in range(m + 1):
        # term i reads f(m-p+1, n+p-1-i, k): entry p-i of the run from n-1
        run = f.along_n(m - p + 1, n - 1, k, p + 1)
        rhs = sum(map(mul, f.signed[p], run))
        if lhs != rhs:
            return ((m, n, k, p), lhs, rhs)
    return None


def _closed_head(n: int, k: int) -> int:
    # 2^(n-k-1) C(n,k+1); zero binomial short-circuits the negative exponent
    if k + 1 > n:
        return 0
    return (1 << (n - k - 1)) * math.comb(n, k + 1)


def _check_horizontal_full(f, m, n, k):
    lhs = f[m + 1, n, k + 1]
    rhs = _closed_head(n, k) + sum(f.along_m(0, n, k, m + 1))
    return None if lhs == rhs else ((m, n, k), lhs, rhs)


def _check_horizontal_tail(f, m, n, k):
    if not n <= k <= m + n:
        return None
    lhs = f[m + 1, n, k + 1]
    rhs = sum(f.along_m(0, n, k, m + 1))
    return None if lhs == rhs else ((m, n, k), lhs, rhs)


def _check_telescoping(f, m, n, k):
    tail = 0  # sum_{i=1..p} f(m, n-i, k-i+1), one term more each p
    for p in range(1, min(n, k) + 1):
        tail += f[m, n - p, k - p + 1]
        lhs = f[m, n, k] - f[m, n - p, k - p]
        rhs = 2 * tail
        if lhs != rhs:
            return ((m, n, k, p), lhs, rhs)
    return None


def _check_zeros_placement(f, m, n, k):
    lhs = f[m, n, k]
    for p in range(n + 1):
        rhs = sum(map(mul, f.pascal[p], f.along_m(m, n - p, k, p + 1)))
        if lhs != rhs:
            return ((m, n, k, p), lhs, rhs)
    return None


def _check_binomial_sum(f, m, n, k):
    lhs = f[m, n, k]
    # C(m+i, k) = 0 below i = k - m
    rhs = sum(math.comb(n, i) * math.comb(m + i, k) for i in range(max(0, k - m), n + 1))
    return None if lhs == rhs else ((m, n, k), lhs, rhs)


def _check_convolution(f, m, n, k):
    lhs = f[m, n, k]
    # inner sum over j: C(i, j) against C(m, k-i+j), read from the padded row
    pad, z, pascal = f.padded[m], f.size + k, f.pascal
    rhs = sum(c * sum(map(mul, pascal[i], pad[z - i:z + 1])) for i, c in enumerate(pascal[n]))
    return None if lhs == rhs else ((m, n, k), lhs, rhs)


def _check_shifted_window(f, m, n, k):
    if m + k < n:
        return None
    lhs = f[m + k - n, n, k]
    # C(n, m-i) = 0 below i = m - n
    rhs = sum(math.comb(n, m - i) * math.comb(k + i, k) for i in range(max(0, m - n), m + 1))
    return None if lhs == rhs else ((m, n, k), lhs, rhs)


def _check_parity_shift(f, m, n, k):
    ref = f[m, n, k]
    for p in range(1, min(n, k) + 1):
        shifted = f[m, n - p, k - p]
        if shifted % 2 != ref % 2:
            return ((m, n, k, p), shifted, ref)
    return None


def _check_first_row(f, m, n, k):
    if m != 0:
        return None
    lhs = f[0, n, k]
    rhs = (1 << (n - k)) * math.comb(n, k) if k <= n else 0
    return None if lhs == rhs else ((0, n, k), lhs, rhs)


_CHECKERS: dict[str, _Checker] = {
    "pascal": _check_pascal,
    "vertical": _check_vertical,
    "doubling": _check_doubling,
    "alternating_shift": _check_alternating_shift,
    "horizontal_full": _check_horizontal_full,
    "horizontal_tail": _check_horizontal_tail,
    "telescoping": _check_telescoping,
    "zeros_placement": _check_zeros_placement,
    "binomial_sum": _check_binomial_sum,
    "convolution": _check_convolution,
    "shifted_window": _check_shifted_window,
    "parity_shift": _check_parity_shift,
    "first_row": _check_first_row,
}

IDENTITY_NAMES: tuple[str, ...] = tuple(_CHECKERS)


def verify(
    identity: str,
    m_max: int,
    n_max: int,
    *,
    inset_fn: InsetFn | None = None,
) -> GridReport:
    """Check one identity over the grid; stop at the first counterexample.

    ``inset_fn`` substitutes the value source, which lets tests confirm the
    harness catches an injected fault.  Each cell is asked of the source at
    most once per call.
    """
    if identity not in _CHECKERS:
        raise ValueError(f"unknown identity: {identity!r}")
    return _verify(_table(m_max, n_max, inset_fn), identity, m_max, n_max)


def verify_all(
    m_max: int, n_max: int, *, inset_fn: InsetFn | None = None
) -> list[GridReport]:
    """Run every identity, reported in declaration order, on one shared table."""
    table = _table(m_max, n_max, inset_fn)
    return [_verify(table, name, m_max, n_max) for name in IDENTITY_NAMES]


def _table(m_max: int, n_max: int, inset_fn: InsetFn | None) -> _Table:
    if m_max < 0 or n_max < 0:
        raise ValueError("grid bounds must be nonnegative")
    # ``inset`` is looked up per call, so it can be patched in tests
    return _Table(inset_fn if inset_fn is not None else inset, max(m_max, n_max))


def _verify(f: _Table, identity: str, m_max: int, n_max: int) -> GridReport:
    checker = _CHECKERS[identity]
    for m in range(m_max + 1):
        for n in range(n_max + 1):
            for k in range(m + n + 3):
                bad = checker(f, m, n, k)
                if bad is not None:
                    return GridReport(identity, m_max, n_max, False, Counterexample(*bad))
    return GridReport(identity, m_max, n_max, True, None)
