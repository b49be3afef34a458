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
(:func:`verify_all` shares one across its thirteen identities).  The table
keeps one row per (m, n), the values f(m, n, k) for a run of k, and a cell is
asked of the value source, ``inset`` or the injected ``inset_fn``, the first
time it is read and never again.

A checker takes one (m, n) and covers all its k at once: it builds the
right-hand row from rows of the table and compares it with the left-hand
row in one ``==``.  Only a row that fails is scanned for its first differing
k.  An identity with an auxiliary p compares one row per p, and reports the
failure first in (k, p) order.  ``pascal``, ``vertical`` and ``doubling``
add neighbouring rows.  ``binomial_sum`` and ``shifted_window`` sum Pascal
rows weighted by C(n, .): C(m+i, k) and C(k+i, k) as rows over k.  The ``horizontal_*``
sums keep, for each n, the running sum of the rows f(0..m, n, .), one k longer
each m.  ``telescoping`` keeps its running sum over p as one row, and
``parity_shift`` the parity rows of the current m.  What an identity keeps
from one (m, n) to the next lasts only for the run of that identity.

Three identities have an inner sum over an auxiliary index p, and
re-summing it for every p costs O(p^2) work per grid cell.  Instead the table
keeps the current step m of a transform of the rows, and moves it to m+1 with
one subtraction per entry when the grid's m grows (Graham, Knuth and
Patashnik, *Concrete Mathematics*, 2nd ed., section 5.3).  Each entry is a
row over k:

* ``alternating_shift``: the right-hand side at p is the p-th forward
  difference Delta^p f(m-p+1, ., .) along n, taken at n-1.  D[x] holds these
  differences at x for p = 0..m.  It steps to m+1 as
  D[x] <- [f(m+2, x, .), *(D[x+1] - D[x])].
* ``zeros_placement``: the right-hand side at p is the binomial transform
  sum_i C(p,i) f(m+i, n-p, .).  D[n] holds these for p = 0..n, the one at p
  in entry n-p.  It steps to m+1 as D[n] <- D[n+1] - D[n], entry by entry,
  and the top D[n_max] is summed afresh from the rows of cells, one
  Pascal-row sum per entry.
* ``convolution``: the inner sums sum_j C(i,j) C(m, k-i+j) form one table
  per m, which steps to m+1 by Pascal's rule, so each cell is one sum over i.

The transforms read whole rows, k = 0..m_max + n_max + 2, sized from m_max
and n_max; every other row stops where the term-by-term forms above stop
reading.  Every comparison, with its lhs and rhs values, is one those forms
make, and the report carries the first that fails, in their order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat, zip_longest
from operator import add, mul, sub
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


class _Table:
    """The inset values one verification call reads, kept as rows.

    The row of (m, n) holds f(m, n, k) for one run of k.  A read past either
    end of the run grows the run to it, asking the value source once for each
    new cell, so a cell is asked the first time it is read and never again.
    The table also holds the Pascal rows C(p, 0..p) for p <= ``m_max + n_max``.
    The running sums and transforms an identity keeps from one (m, n) to the
    next live in ``steps``, which :func:`_verify` clears when its identity
    finishes; the rows stay for the next identity.
    """

    def __init__(self, source: InsetFn, m_max: int, n_max: int) -> None:
        self.source = source
        self.m_max = m_max
        self.n_max = n_max
        self.pascal = [[math.comb(p, j) for j in range(p + 1)] for p in range(m_max + n_max + 1)]
        self._rows: dict[tuple[int, int], list] = {}  # (m, n) -> [first k, cells]
        # "differences", "placements", "inner": (current step m, its rows);
        # ("sums", n) and "parities": the running rows of one identity
        self.steps: dict[object, object] = {}

    def row(self, m: int, n: int, lo: int, hi: int) -> list[int]:
        """f(m, n, k) for 0 <= lo <= k < hi."""
        run = self._rows.get((m, n))
        if run is None:
            run = self._rows[m, n] = [lo, []]
        start, cells = run
        if lo < start:
            cells[:0] = map(self.source, repeat(m), repeat(n), range(lo, start))
            run[0] = start = lo
        if hi > start + len(cells):
            cells += map(self.source, repeat(m), repeat(n), range(start + len(cells), hi))
        return cells[lo - start:hi - start]

    def cell(self, m: int, n: int, k: int) -> int:
        """f(m, n, k) for k >= 0."""
        return self.row(m, n, k, k + 1)[0]

    def differences(self, m: int) -> list[list[list[int]]]:
        """D[x][p][k] = Delta^p f(m-p+1, ., k) at x, for x < m_max + n_max - m,
        p <= m and k <= m_max + n_max + 2.

        D[x][p][k] = sum_i (-1)^i C(p,i) f(m-p+1, x+p-i, k), and D[n-1][p]
        is the right-hand row of ``alternating_shift`` at (m, n, p).  Moving
        to m+1 takes D[x+1] - D[x] row by row for each x, behind one fresh
        row f(m+2, x, .).
        """
        width = self.m_max + self.n_max + 3
        at, cols = self.steps.get("differences", (-1, []))
        if at < 0:
            at, cols = 0, [[self.row(1, x, 0, width)] for x in range(self.m_max + self.n_max)]
        while at < m:
            at += 1
            cols = [[self.row(at + 1, x, 0, width),
                     *(list(map(sub, b, a)) for a, b in zip(col, nxt))]
                    for x, (col, nxt) in enumerate(zip(cols, cols[1:]))]
        self.steps["differences"] = at, cols
        return cols

    def placements(self, m: int) -> list[list[list[int]]]:
        """D[n][n'][k] = sum_i C(n-n',i) f(m+i, n', k) for n' <= n <= n_max
        and k <= m_max + n_max + 2.

        D[n][n-p] is the right-hand row of ``zeros_placement`` at (m, n, p).
        Moving to m+1 takes D[n+1][n'] - D[n][n'] row by row for n < n_max
        and sums D[n_max] afresh from the rows f(., n', .), which are read
        once, m_max + n_max - n' + 1 of them for each n'.
        """
        at, rows, diags = self.steps.get("placements", (-1, [], []))
        if at < 0:
            width = self.m_max + self.n_max + 3
            rows = [[self.row(i, n, 0, width) for i in range(self.m_max + self.n_max - n + 1)]
                    for n in range(self.n_max + 1)]
            at, diags = 0, [self._pascal_sums(rows, 0, n) for n in range(self.n_max + 1)]
        while at < m:
            at += 1
            diags = [*([list(map(sub, b, a)) for a, b in zip(diag, nxt)]
                       for diag, nxt in zip(diags, diags[1:])),
                     self._pascal_sums(rows, at, self.n_max)]
        self.steps["placements"] = at, rows, diags
        return diags

    def _pascal_sums(self, rows: list[list[list[int]]], m: int, n: int) -> list[list[int]]:
        """sum_i C(n-n',i) rows[n'][m+i] for n' = 0..n, each a row over k."""
        return [[sum(map(mul, self.pascal[n - j], col)) for col in zip(*run[m:m + n - j + 1])]
                for j, run in enumerate(rows[:n + 1])]

    def inner(self, m: int) -> list[list[int]]:
        """T[k][i] = sum_j C(i,j) C(m, k-i+j) for k <= m + n_max + 2, i <= n_max.

        T[k] is 0 past k = m + n_max.  It starts from C(i, k) at m = 0 and
        moves to m+1 by Pascal's rule, T[k] + T[k-1].
        """
        at, rows = self.steps.get("inner", (-1, []))
        if at < 0:
            at, rows = 0, [[row[k] if k < len(row) else 0 for row in self.pascal[:self.n_max + 1]]
                           for k in range(self.n_max + 3)]
        zero = [0] * (self.n_max + 1)
        while at < m:
            at += 1
            rows = [list(map(add, a, b)) for a, b in zip([*rows, zero], [zero, *rows])]
        self.steps["inner"] = at, rows
        return rows

    def sums_along_m(self, m: int, n: int, lo: int, hi: int) -> list[int]:
        """sum_{i<=m} f(i, n, k) for lo <= k < hi.

        For each n its caller asks at m = 0, 1, ... in turn, with lo fixed and
        hi one larger each step.  The sums for m-1 are kept per n in
        ``steps``; moving to m adds the row f(m, n, lo..hi-2) and sums the
        column f(0..m, n, hi-1) for the new k.
        """
        sums = self.row(m, n, lo, hi)
        if m > 0:
            new = sums[-1] + sum(self.cell(i, n, hi - 1) for i in range(m))
            sums = [*map(add, self.steps["sums", n], sums), new]
        self.steps["sums", n] = sums
        return sums

    @cached_property
    def square(self) -> list[list[int]]:
        """C(i+k, k) for i <= m_max and k <= m_max + n_max + 2."""
        return [[math.comb(i + k, k) for k in range(self.m_max + self.n_max + 3)]
                for i in range(self.m_max + 1)]


# table, m, n -> None or (params, lhs, rhs)
_Checker = Callable[[_Table, int, int], Optional[tuple[tuple[int, ...], int, int]]]


def _compare(params: tuple[int, ...], lhs: list[int], rhs: list[int], lo: int = 0):
    """None if the rows agree, else the comparison at the first index that
    differs, that index plus ``lo`` appended to ``params``."""
    if lhs == rhs:
        return None
    i = next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
    return (*params, lo + i), lhs[i], rhs[i]


def _least(found):
    """Of the row comparisons (p, None or (params, lhs, rhs)) made for each p,
    the failed one first in (k, p) order, p appended to its params."""
    return min((((*bad[0], p), *bad[1:]) for p, bad in found if bad is not None), default=None)


def _check_pascal(f, m, n):
    if m < 1:
        return None
    below = f.row(m - 1, n, 0, m + n + 3)
    return _compare((m, n), f.row(m, n, 0, m + n + 3), [below[0], *map(add, below, below[1:])])


def _check_vertical(f, m, n):
    if n < 1:
        return None
    rhs = list(map(add, f.row(m, n - 1, 0, m + n + 3), f.row(m + 1, n - 1, 0, m + n + 3)))
    return _compare((m, n), f.row(m, n, 0, m + n + 3), rhs)


def _check_doubling(f, m, n):
    if n < 1:
        return None
    left = f.row(m, n - 1, 0, m + n + 3)
    rhs = [2 * a + b for a, b in zip(left, [0, *left])]
    return _compare((m, n), f.row(m, n, 0, m + n + 3), rhs)


def _check_alternating_shift(f, m, n):
    if n < 1:
        return None
    lhs = f.row(m + 1, n - 1, 0, m + n + 3)
    # rhs at p is the p-th forward difference of f(m-p+1, ., k), at n-1
    return _least(enumerate(_compare((m, n), lhs, rhs[:m + n + 3])
                            for rhs in f.differences(m)[n - 1]))


def _check_horizontal_full(f, m, n):
    # 2^(n-k-1) C(n,k+1) for k < n, then 0
    head = [c << (n - k - 1) for k, c in enumerate(f.pascal[n][1:])]
    sums = f.sums_along_m(m, n, 0, m + n + 3)
    rhs = [*map(add, head, sums), *sums[n:]]
    return _compare((m, n), f.row(m + 1, n, 1, m + n + 4), rhs)


def _check_horizontal_tail(f, m, n):
    # k runs over n..m+n only
    lhs = f.row(m + 1, n, n + 1, m + n + 2)
    return _compare((m, n), lhs, f.sums_along_m(m, n, n, m + n + 1), n)


def _check_telescoping(f, m, n):
    if n < 1:
        return None
    top = f.row(m, n, 1, m + n + 3)  # f(m, n, k) for k >= 1
    tail = [0] * (m + n + 3)
    found = []
    for p in range(1, n + 1):
        # rows over k = p..m+n+2: f(m, n-p, k-p), and the running sum
        # tail[k-p] = sum_{i=1..p} f(m, n-i, k-i+1), one row more each p
        shifted = f.row(m, n - p, 0, m + n - p + 4)
        tail = list(map(add, tail[1:], shifted[1:]))
        lhs = list(map(sub, top[p - 1:], shifted))
        found.append((p, _compare((m, n), lhs, list(map(add, tail, tail)), p)))
    return _least(found)


def _check_zeros_placement(f, m, n):
    lhs = f.row(m, n, 0, m + n + 3)
    # rhs at p is the binomial transform of f(., n-p, .), taken at p
    diag = f.placements(m)[n]
    return _least((p, _compare((m, n), lhs, diag[n - p][:m + n + 3])) for p in range(n + 1))


def _check_binomial_sum(f, m, n):
    # C(m+i, k) down the Pascal rows m..m+n, 0 past each row's end and at
    # k = m+n+1, m+n+2
    cols = zip_longest(*f.pascal[m:m + n + 1], fillvalue=0)
    rhs = [*(sum(map(mul, f.pascal[n], col)) for col in cols), 0, 0]
    return _compare((m, n), f.row(m, n, 0, m + n + 3), rhs)


def _check_convolution(f, m, n):
    # the inner sums over j, C(i, j) C(m, k-i+j) for each i, are tabled once per m
    rhs = [sum(map(mul, f.pascal[n], inner)) for inner in f.inner(m)[:m + n + 3]]
    return _compare((m, n), f.row(m, n, 0, m + n + 3), rhs)


def _check_shifted_window(f, m, n):
    lo = max(0, n - m)  # m + k >= n
    lhs = [f.cell(m + k - n, n, k) for k in range(lo, m + n + 3)]
    # C(n, m-i) C(k+i, k) for i = max(0, m-n)..m
    coeffs = f.pascal[n][min(m, n)::-1]
    cols = zip(*(row[lo:m + n + 3] for row in f.square[max(0, m - n):m + 1]))
    return _compare((m, n), lhs, [sum(map(mul, coeffs, col)) for col in cols], lo)


def _check_parity_shift(f, m, n):
    ref = f.row(m, n, 0, m + n + 3)
    odd = list(map((1).__and__, ref))
    if n == 0:
        f.steps["parities"] = []
    # the parities of the rows f(m, n', .) for n' <= n; f(m, n-p, k-p) for
    # k = p..m+n+2 is the whole row of n' = n-p
    parities = f.steps["parities"]
    parities.append(odd)
    bad = _least((p, _compare((m, n), parities[n - p], odd[p:], p)) for p in range(1, n + 1))
    if bad is None:
        return None
    (_, _, k, p), _, _ = bad
    return bad[0], f.cell(m, n - p, k - p), ref[k]


def _check_first_row(f, m, n):
    if m != 0:
        return None
    rhs = [c << (n - k) for k, c in enumerate(f.pascal[n])]  # 2^(n-k) C(n,k)
    return _compare((0, n), f.row(0, n, 0, n + 3), [*rhs, 0, 0])


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
                bad = checker(f, m, n)
                if bad is not None:
                    return GridReport(identity, m_max, n_max, False, Counterexample(*bad))
        return GridReport(identity, m_max, n_max, True, None)
    finally:
        f.steps.clear()  # running rows and transforms go with their identity; the cells stay
