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
time it is read and never again.  The transforms below last only for the
run of their own identity.

Three identities have an inner sum over an auxiliary index p, and
re-summing it for every p costs O(p^2) work per grid cell.  Instead the table
keeps, for each k, the current step m of a transform of the cells, and moves
it to m+1 with one subtraction per entry when the grid's m grows (Graham,
Knuth and Patashnik, *Concrete Mathematics*, 2nd ed., section 5.3).  The
checkers of the first two read the right-hand sides for all p as one list:

* ``alternating_shift``: the right-hand side at p is the p-th forward
  difference Delta^p f(m-p+1, ., k) along n, taken at n-1.  The list D[x]
  holds these differences at x for p = 0..m.  It steps to m+1 as
  D[x] <- [f(m+2, x, k), *(D[x+1] - D[x])].
* ``zeros_placement``: the right-hand side at p is the binomial transform
  sum_i C(p,i) f(m+i, n-p, k).  The list D[n] holds these for p = 0..n, the
  one at p in entry n-p.  It steps to m+1 as D[n] <- D[n+1] - D[n], entry by
  entry, and the top list D[n_max] is summed afresh from the cells, one
  Pascal-row sum per entry.
* ``convolution``: the inner sums sum_j C(i,j) C(m, k-i+j) are tabled once
  per m, so each cell is one sum over i.

Each transform reads the cells the term-by-term forms above read, sized from
m_max and n_max, so the table asks the source for the same cells.  The
``horizontal_*`` sums are sums of runs f(., n, k) along m, and
``telescoping`` keeps a running sum over p.  Every grid cell, every p and
every comparison, with its lhs and rhs values, is the same as in the
term-by-term forms, in the same order, so reports are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import mul, sub
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
    k < 0, otherwise ``source(m, n, k)``.  A run along m is sliced from a row
    of cells kept per (n, k) and grown from index 0.  The table also holds the
    Pascal rows C(p, 0..p) for p <= ``n_max``.  The transforms of
    :meth:`differences`, :meth:`placements` and :meth:`inner` keep only their
    current step in ``steps``, which :func:`_verify` clears when its identity
    finishes; the cells stay for the next identity.
    """

    def __init__(self, source: InsetFn, m_max: int, n_max: int) -> None:
        super().__init__()
        self.source = source
        self.m_max = m_max
        self.n_max = n_max
        self.pascal = [[math.comb(p, j) for j in range(p + 1)] for p in range(n_max + 1)]
        self._rows_m: dict[tuple[int, int], list[int]] = {}
        # (name, k) for a transform kept per k, "inner" for the inner sums:
        # (current step m, its lists)
        self.steps: dict[object, tuple] = {}

    def __missing__(self, key: tuple[int, int, int]) -> int:
        m, n, k = key
        value = self[key] = 0 if k < 0 else self.source(m, n, k)
        return value

    def along_m(self, m: int, n: int, k: int, count: int) -> list[int]:
        """f(m + j, n, k) for j < count, sliced from the row kept for (n, k)."""
        row = self._rows_m.setdefault((n, k), [])
        if len(row) < m + count:
            row += map(self.__getitem__, zip(range(len(row), m + count), repeat(n), repeat(k)))
        return row[m:m + count]

    def differences(self, m: int, k: int) -> list[list[int]]:
        """D[x][p] = Delta^p f(m-p+1, ., k) at x, for x < m_max + n_max - m and p <= m.

        D[x][p] = sum_i (-1)^i C(p,i) f(m-p+1, x+p-i, k), and list D[n-1]
        holds the right-hand sides of ``alternating_shift`` at (m, n, k).
        Moving to m+1 takes D[x+1] - D[x] for each x, behind one fresh cell
        f(m+2, x, k).
        """
        at, cols = self.steps.get(("differences", k), (-1, []))
        if at < 0:
            at, cols = 0, [[self[1, x, k]] for x in range(self.m_max + self.n_max)]
        while at < m:
            at += 1
            cols = [[self[at + 1, x, k], *map(sub, nxt, col)]
                    for x, (col, nxt) in enumerate(zip(cols, cols[1:]))]
        self.steps["differences", k] = at, cols
        return cols

    def placements(self, m: int, k: int) -> list[list[int]]:
        """D[n][n'] = sum_i C(n-n',i) f(m+i, n', k) for n' <= n <= n_max.

        D[n][n-p] is the right-hand side of ``zeros_placement`` at
        (m, n, k, p).  Moving to m+1 takes D[n+1][n'] - D[n][n'] for
        n < n_max and sums D[n_max] afresh from the columns f(., n', k),
        which are read once, to their full length m_max + n_max - n' + 1.
        """
        at, cols, diags = self.steps.get(("placements", k), (-1, [], []))
        if at < 0:
            cols = [[self[i, n, k] for i in range(self.m_max + self.n_max - n + 1)]
                    for n in range(self.n_max + 1)]
            at, diags = 0, [self._pascal_sums(cols, 0, n) for n in range(self.n_max + 1)]
        while at < m:
            at += 1
            diags = [*(list(map(sub, nxt, diag)) for diag, nxt in zip(diags, diags[1:])),
                     self._pascal_sums(cols, at, self.n_max)]
        self.steps["placements", k] = at, cols, diags
        return diags

    def _pascal_sums(self, cols: list[list[int]], m: int, n: int) -> list[int]:
        """sum_i C(n-n',i) cols[n'][m+i] for n' = 0..n."""
        return [sum(map(mul, self.pascal[n - j], col[m:m + n - j + 1]))
                for j, col in enumerate(cols[:n + 1])]

    def inner(self, m: int) -> list[list[int]]:
        """T[k][i] = sum_j C(i,j) C(m, k-i+j) for k <= m + n_max + 2, i <= n_max."""
        at, rows = self.steps.get("inner", (-1, []))
        if at != m:
            # C(m, .) behind n_max zeros; a slice running off its end adds nothing
            padded = [0] * self.n_max + [math.comb(m, j) for j in range(m + 1)]
            rows = [[sum(map(mul, row, padded[z - i:z + 1])) for i, row in enumerate(self.pascal)]
                    for z in range(self.n_max, m + 2 * self.n_max + 3)]
            self.steps["inner"] = m, rows
        return rows


# table -> None or (params, lhs, rhs)
_Checker = Callable[[_Table, int, int, int], Optional[tuple[tuple[int, ...], int, int]]]


def _first_differing(params, lhs, rhs):
    """None if lhs equals rhs[p] for every p, else the comparison at the first p that differs."""
    if rhs.count(lhs) == len(rhs):
        return None
    p = next(p for p, value in enumerate(rhs) if value != lhs)
    return ((*params, p), lhs, rhs[p])


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
    # rhs at p is the p-th forward difference of f(m-p+1, ., k), at n-1
    return _first_differing((m, n, k), f[m + 1, n - 1, k], f.differences(m, k)[n - 1])


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
    # rhs at p is the binomial transform of f(., n-p, k), taken at p
    return _first_differing((m, n, k), f[m, n, k], f.placements(m, k)[n][::-1])


def _check_binomial_sum(f, m, n, k):
    lhs = f[m, n, k]
    # C(m+i, k) = 0 below i = k - m
    rhs = sum(math.comb(n, i) * math.comb(m + i, k) for i in range(max(0, k - m), n + 1))
    return None if lhs == rhs else ((m, n, k), lhs, rhs)


def _check_convolution(f, m, n, k):
    lhs = f[m, n, k]
    # the inner sums over j, C(i, j) C(m, k-i+j) for each i, are tabled once per m
    rhs = sum(map(mul, f.pascal[n], f.inner(m)[k]))
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
    return _Table(inset_fn if inset_fn is not None else inset, m_max, n_max)


def _verify(f: _Table, identity: str, m_max: int, n_max: int) -> GridReport:
    checker = _CHECKERS[identity]
    try:
        for m in range(m_max + 1):
            for n in range(n_max + 1):
                for k in range(m + n + 3):
                    bad = checker(f, m, n, k)
                    if bad is not None:
                        return GridReport(identity, m_max, n_max, False, Counterexample(*bad))
        return GridReport(identity, m_max, n_max, True, None)
    finally:
        f.steps.clear()  # the transforms go with their identity; the cells stay
