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
holds cells and nothing else: one row per (m, n), made the first time the row
is read.  By default a row is the whole f(m, n, 0..m_max + n_max + 3), zeros
past k = m + n, from one ``inset_row`` walk along k with one exact division
a cell; no checker reads past k = m_max + n_max + 3.  An injected
``inset_fn`` is asked each cell the first time it is read and never again,
so it is asked exactly the cells the checkers read.  The table also holds
the Pascal rows, and its ``grid()`` states the one walk order of every
report: m outer, n inner.

A checker walks that grid once.  It takes the table and yields, for each
(m, n) in turn, None or the first comparison there that fails, and the report
carries the first one it yields.  Each (m, n) covers all its k at once: the
checker builds the right-hand row from rows of the table and compares it with
the left-hand row in one ``==``.  Only a row that fails is scanned for its
first differing k.  An identity with an auxiliary p compares one row per p,
and reports the failure first in (k, p) order.  Whatever a checker carries
from one (m, n) to the next is a local of its walk, and goes when the walk
stops.

``pascal``, ``vertical``, ``doubling``, ``telescoping``, ``binomial_sum`` and
``first_row`` carry nothing: each checks one (m, n), and ``_each_cell`` walks
it over the grid.  ``pascal``, ``vertical`` and ``doubling`` add
neighbouring rows, and ``telescoping`` sums over p as one running row.
``binomial_sum`` and ``shifted_window`` sum Pascal rows weighted by C(n, .):
C(m+i, k) and C(k+i, k) as rows over k.  The ``horizontal_*`` checkers share
``_running_sums``, which keeps for each n the running sum of the rows
f(0..m, n, .), one k longer each m.  ``parity_shift`` keeps the parity rows
of the current m.

Three identities have an inner sum over an auxiliary index p, and
re-summing it for every p costs O(p^2) work per grid cell.  Instead the
checker keeps the current step m of a transform of the rows, and moves it to
m+1 with one subtraction per entry when its walk reaches m+1 (Graham, Knuth
and Patashnik, *Concrete Mathematics*, 2nd ed., section 5.3).  Each entry is
a row over k:

* ``alternating_shift``: the right-hand side at p is the p-th forward
  difference Delta^p f(m-p+1, ., .) along n, taken at n-1.  D[x] holds these
  differences at x for p = 0..m.  It steps to m at the first n >= 1 of each
  m, as D[x] <- [f(m+1, x, .), *(D[x+1] - D[x])], so a grid with n_max = 0
  reads none of it.
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
from functools import partial
from itertools import product, zip_longest
from operator import add, mul, sub
from typing import Callable, Iterator, Optional

from .core import inset_row

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


class _Cells(dict):
    """One row read through an injected source: k -> f(m, n, k) for the k read
    so far, each asked as ``ask(k)`` the first time it is read."""

    def __init__(self, ask: Callable[[int], int]) -> None:
        self.ask = ask

    def __missing__(self, k: int) -> int:
        self[k] = value = self.ask(k)
        return value


class _Table(dict):
    """The inset values one verification call reads: (m, n) -> its row, made
    the first time it is read.

    By default the row is a list, f(m, n, k) for 0 <= k <= m_max + n_max + 3,
    from one ``inset_row`` call.  ``horizontal_full`` reads f(m+1, n, m+n+3)
    and no checker reads a larger k, so every read falls inside it.  With an
    injected ``inset_fn`` the row is a :class:`_Cells`, so a cell is asked of
    it the first time it is read and never again.
    The table also holds the Pascal rows C(p, 0..p) for p <= ``m_max + n_max``
    and the bounds of the grid.  It keeps nothing of any identity, so an
    identity that stops early leaves nothing behind for the next one.
    """

    def __init__(self, m_max: int, n_max: int, inset_fn: InsetFn | None) -> None:
        if m_max < 0 or n_max < 0:
            raise ValueError("grid bounds must be nonnegative")
        self.inset_fn = inset_fn
        self.m_max, self.n_max = m_max, n_max
        self.pascal = [[math.comb(p, j) for j in range(p + 1)] for p in range(m_max + n_max + 1)]

    def __missing__(self, key: tuple[int, int]) -> list[int] | _Cells:
        m, n = key
        if self.inset_fn is None:
            # ``inset_row`` is looked up per row, so it can be patched in tests
            self[key] = row = inset_row(m, n, 0, self.m_max + self.n_max + 4)
        else:
            self[key] = row = _Cells(partial(self.inset_fn, m, n))
        return row

    def row(self, m: int, n: int, lo: int, hi: int) -> list[int]:
        """f(m, n, k) for 0 <= lo <= k < hi."""
        row = self[m, n]
        return row[lo:hi] if self.inset_fn is None else list(map(row.__getitem__, range(lo, hi)))

    def cell(self, m: int, n: int, k: int) -> int:
        """f(m, n, k) for k >= 0."""
        return self[m, n][k]

    def grid(self) -> Iterator[tuple[int, int]]:
        """Every (m, n) of the grid in report order: m outer, n inner."""
        return product(range(self.m_max + 1), range(self.n_max + 1))


_Found = Optional[tuple[tuple[int, ...], int, int]]  # None or (params, lhs, rhs)
# table -> one _Found for each (m, n) of table.grid(), in that order
_Checker = Callable[[_Table], Iterator[_Found]]


def _each_cell(check: Callable[[_Table, int, int], _Found]) -> _Checker:
    """The checker that applies ``check(table, m, n)`` at each (m, n) in turn."""
    return lambda f: (check(f, m, n) for m, n in f.grid())


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


@_each_cell
def _check_pascal(f, m, n):
    if m < 1:
        return None
    below = f.row(m - 1, n, 0, m + n + 3)
    return _compare((m, n), f.row(m, n, 0, m + n + 3), [below[0], *map(add, below, below[1:])])


@_each_cell
def _check_vertical(f, m, n):
    if n < 1:
        return None
    rhs = list(map(add, f.row(m, n - 1, 0, m + n + 3), f.row(m + 1, n - 1, 0, m + n + 3)))
    return _compare((m, n), f.row(m, n, 0, m + n + 3), rhs)


@_each_cell
def _check_doubling(f, m, n):
    if n < 1:
        return None
    left = f.row(m, n - 1, 0, m + n + 3)
    rhs = [2 * a + b for a, b in zip(left, [0, *left])]
    return _compare((m, n), f.row(m, n, 0, m + n + 3), rhs)


def _check_alternating_shift(f):
    # rhs at p is the p-th forward difference of f(m-p+1, ., k), at n-1:
    # cols[x][p] = sum_i (-1)^i C(p,i) f(m-p+1, x+p-i, .) for p <= m
    width = f.m_max + f.n_max + 3
    cols = [[]] * (f.m_max + f.n_max + 1)
    for m, n in f.grid():
        if n < 1:
            yield None
            continue
        if n == 1:  # step to m: a fresh f(m+1, x, .), then cols[x+1] - cols[x]
            cols = [[f.row(m + 1, x, 0, width), *(list(map(sub, b, a)) for a, b in zip(col, nxt))]
                    for x, (col, nxt) in enumerate(zip(cols, cols[1:]))]
        lhs = f.row(m + 1, n - 1, 0, m + n + 3)
        yield _least(enumerate(_compare((m, n), lhs, rhs[:m + n + 3]) for rhs in cols[n - 1]))


def _running_sums(f, span):
    """Yield m, n and the sums sum_{i<=m} f(i, n, k) for lo <= k < hi, where
    (lo, hi) = ``span(m, n)``, at each (m, n) of the grid in turn.

    ``span`` keeps lo fixed for each n and moves hi up one per m.  The sums
    of m-1 are kept per n; moving to m adds the row f(m, n, lo..hi-2) and
    sums the column f(0..m, n, hi-1) for the new k.
    """
    sums = {}
    for m, n in f.grid():
        lo, hi = span(m, n)
        row = f.row(m, n, lo, hi)
        if m > 0:
            row = [*map(add, sums[n], row), row[-1] + sum(f.cell(i, n, hi - 1) for i in range(m))]
        sums[n] = row
        yield m, n, row


def _check_horizontal_full(f):
    for m, n, sums in _running_sums(f, lambda m, n: (0, m + n + 3)):
        # 2^(n-k-1) C(n,k+1) for k < n, then 0
        head = [c << (n - k - 1) for k, c in enumerate(f.pascal[n][1:])]
        rhs = [*map(add, head, sums), *sums[n:]]
        yield _compare((m, n), f.row(m + 1, n, 1, m + n + 4), rhs)


def _check_horizontal_tail(f):
    # k runs over n..m+n only
    for m, n, sums in _running_sums(f, lambda m, n: (n, m + n + 1)):
        yield _compare((m, n), f.row(m + 1, n, n + 1, m + n + 2), sums, n)


@_each_cell
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


def _check_zeros_placement(f):
    # rhs at p is the binomial transform of f(., n-p, .), taken at p:
    # diags[n][n'] = sum_i C(n-n',i) f(m+i, n', .) for n' <= n
    width = f.m_max + f.n_max + 3
    # the rows f(i, n', .) the transform reads, each once
    rows = [[f.row(i, n, 0, width) for i in range(f.m_max + f.n_max - n + 1)]
            for n in range(f.n_max + 1)]

    def pascal_sums(m, n):
        """sum_i C(n-n',i) rows[n'][m+i] for n' = 0..n, each a row over k."""
        return [[sum(map(mul, f.pascal[n - j], col)) for col in zip(*run[m:m + n - j + 1])]
                for j, run in enumerate(rows[:n + 1])]

    diags = [pascal_sums(0, n) for n in range(f.n_max + 1)]
    for m, n in f.grid():
        if m > 0 and n == 0:  # step to m: diags[n+1] - diags[n], and the top afresh
            diags = [*([list(map(sub, b, a)) for a, b in zip(diag, nxt)]
                       for diag, nxt in zip(diags, diags[1:])),
                     pascal_sums(m, f.n_max)]
        lhs = f.row(m, n, 0, m + n + 3)
        yield _least((p, _compare((m, n), lhs, diags[n][n - p][:m + n + 3])) for p in range(n + 1))


@_each_cell
def _check_binomial_sum(f, m, n):
    # C(m+i, k) down the Pascal rows m..m+n, 0 past each row's end and at
    # k = m+n+1, m+n+2
    cols = zip_longest(*f.pascal[m:m + n + 1], fillvalue=0)
    rhs = [*(sum(map(mul, f.pascal[n], col)) for col in cols), 0, 0]
    return _compare((m, n), f.row(m, n, 0, m + n + 3), rhs)


def _check_convolution(f):
    # inner[k][i] = sum_j C(i,j) C(m, k-i+j) for k <= m + n_max + 2, 0 past
    # k = m + n_max: C(i, k) at m = 0, moved to m+1 by Pascal's rule
    inner = [[row[k] if k < len(row) else 0 for row in f.pascal[:f.n_max + 1]]
             for k in range(f.n_max + 3)]
    zero = [0] * (f.n_max + 1)
    for m, n in f.grid():
        if m > 0 and n == 0:
            inner = [list(map(add, a, b)) for a, b in zip([*inner, zero], [zero, *inner])]
        rhs = [sum(map(mul, f.pascal[n], sums)) for sums in inner[:m + n + 3]]
        yield _compare((m, n), f.row(m, n, 0, m + n + 3), rhs)


def _check_shifted_window(f):
    # C(i+k, k) for i <= m_max and k <= m_max + n_max + 2
    square = [[math.comb(i + k, k) for k in range(f.m_max + f.n_max + 3)]
              for i in range(f.m_max + 1)]
    for m, n in f.grid():
        lo = max(0, n - m)  # m + k >= n
        lhs = [f.cell(m + k - n, n, k) for k in range(lo, m + n + 3)]
        # C(n, m-i) C(k+i, k) for i = max(0, m-n)..m
        coeffs = f.pascal[n][min(m, n)::-1]
        cols = zip(*(row[lo:m + n + 3] for row in square[max(0, m - n):m + 1]))
        yield _compare((m, n), lhs, [sum(map(mul, coeffs, col)) for col in cols], lo)


def _check_parity_shift(f):
    for m, n in f.grid():
        ref = f.row(m, n, 0, m + n + 3)
        # the parities of the rows f(m, n', .) for n' <= n; f(m, n-p, k-p) for
        # k = p..m+n+2 is the whole row of n' = n-p
        if n == 0:
            parities = []
        parities.append(list(map((1).__and__, ref)))
        bad = _least((p, _compare((m, n), parities[n - p], parities[n][p:], p))
                     for p in range(1, n + 1))
        if bad is not None:
            (_, _, k, p), _, _ = bad
            bad = bad[0], f.cell(m, n - p, k - p), ref[k]
        yield bad


@_each_cell
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
    most once per call, and only the cells the checker reads.  Without it
    each (m, n) read is one ``inset_row`` walk from k = 0, made the first
    time the row is read, and ``inset`` is not called.

    On some grids an identity makes no comparison that could fail, and the
    report passes whatever the values are: ``pascal`` with m_max = 0 reads
    no cell; ``vertical``, ``doubling``, ``telescoping`` and
    ``alternating_shift`` with n_max = 0 read none either, and
    ``parity_shift`` with n_max = 0 has no p; ``zeros_placement`` with
    n_max = 0 and ``alternating_shift`` with m_max = 0 have only p = 0,
    where both sides are the same cell.  On every other grid each identity
    has a comparison that a wrong value can fail.
    """
    if identity not in _CHECKERS:
        raise ValueError(f"unknown identity: {identity!r}")
    return _verify(_Table(m_max, n_max, inset_fn), identity)


def verify_all(
    m_max: int, n_max: int, *, inset_fn: InsetFn | None = None
) -> list[GridReport]:
    """Run every identity, reported in declaration order, on one shared table."""
    table = _Table(m_max, n_max, inset_fn)
    return [_verify(table, name) for name in IDENTITY_NAMES]


def _verify(f: _Table, identity: str) -> GridReport:
    bad = next(filter(None, _CHECKERS[identity](f)), None)
    return GridReport(identity, f.m_max, f.n_max, bad is None, bad and Counterexample(*bad))
