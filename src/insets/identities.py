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
is read, and every row is one list of f(m, n, 0..m_max + n_max + 3); no
checker reads past k = m_max + n_max + 3.  By default the row is filled at
once, zeros past k = m + n, from one ``inset_row`` walk along k with one
exact division a cell.  With an injected ``inset_fn`` the row starts unread,
and each read fills the cells it covers that are still unread, asking the
source for each in ascending k; a cell once asked is never asked again, so
the source is asked exactly the cells the checkers read.  The table's
``grid()`` states the one walk order of every report: m outer, n inner.

A checker walks that grid once.  It takes the table and yields, for each
(m, n) in turn, None or the first comparison there that fails, and the report
carries the first one it yields; a checker may stop yielding once none of its
comparisons can fail.  Each (m, n) covers all its k at once: the checker
builds the right-hand row and compares it with the left-hand row in one
``==``.  Only a row that fails is scanned for its first differing k.
``shifted_window``, whose left side runs along diagonals of the table,
compares each row (a, n) they cross instead and yields once, after all of
them.  Whatever a checker carries from one (m, n) to the next is a local of
its walk, and goes when the walk stops.

``pascal``, ``vertical``, ``doubling``, ``telescoping`` and ``parity_shift``
carry nothing: each checks one (m, n) from neighbouring rows, and
``_each_cell`` walks it over the grid.  The ``horizontal_*`` checkers share
``_running_sums``, which keeps for each n the running sum of the rows
f(0..m, n, .), one k longer each m.  ``binomial_sum``, ``convolution`` and
``first_row`` share ``_check_trapeze``, which keeps one trapeze table for
each n; ``first_row`` is its walk stopped past m = 0.

No checker re-sums an inner sum over an auxiliary index p on a passing grid,
so each (m, n) costs O(m + n) row entries where re-summing costs O(p^2)
(Graham, Knuth and Patashnik, *Concrete Mathematics*, 2nd ed., section 5.3).
The report is still the first failure of the term-by-term forms, p included:

* ``telescoping`` and ``parity_shift`` compare at p = 1 alone.  At (m, n, k),
  lhs - rhs at p less lhs - rhs at p-1 is lhs - rhs of the p = 1 comparison
  at (m, n-p+1, k-p+1), mod 2 for ``parity_shift``.  For p > 1 that is at a
  smaller n, which the walk has passed, so a failure at p > 1 follows a
  failure at p = 1 in the report's order.  The first counterexample, with its
  lhs and rhs, is therefore a p = 1 one.
* ``alternating_shift`` and ``zeros_placement`` first check a certificate,
  the vertical residual R(a, y) = f(a, y, .) - f(a, y-1, .) - f(a+1, y-1, .)
  on whole rows.  Their lhs - rhs at p is a fixed combination of residuals:
  sum_{i<=j<p} C(j,i) R(m+i, n-j) for ``zeros_placement``, and for
  ``alternating_shift`` a signed one of the R(b, y) with m-p+1 <= b <= m,
  y >= n and b + y <= m + n.  The certificate covers 1 <= y <= n_max and
  a + y <= m_max + n_max for ``zeros_placement``, and 1 <= a <= m_max, y >= 1
  and a + y <= m_max + n_max for ``alternating_shift`` (nothing where
  n_max = 0, which has no comparison).  Where every residual is zero the grid
  passes.  Only where one is not are the term-by-term forms above compared,
  each (m, n) on rows over k for every p in turn, for the exact first
  counterexample.
* ``binomial_sum``, ``convolution``, ``shifted_window`` and ``first_row``
  read one closed form, sum_i C(n,i) C(a+i, k), the coefficients of
  (1+x)^a (2+x)^n, at a = m, m, m+k-n and 0 (``convolution``'s inner sum
  over j is C(m+i, k), by Vandermonde's convolution).  That is row a
  of ``core.trapeze_table(n, .)``: row 0 is 2^(n-k) C(n,k) = sum_i C(n,i)
  C(i,k), and Pascal's rule on C(a+i, k) steps each row to the next.  The
  table is built by its own Pascal step, which shares no code with the
  ``inset_row`` walk that fills the table of values, so no side is built
  from the values it is compared with.  ``shifted_window`` compares each
  row (a, n) once over the k its grid reads, then yields one found value:
  the failed cell first in (m, n, k) order, with m = a+n-k.

The certificates read whole rows, k = 0..m_max + n_max + 2, one cell short
of the table's rows; every other row stops where the term-by-term forms above
stop reading.  Every comparison, with its lhs and rhs values, is one those
forms make, and the report carries the first that fails, in their order.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from itertools import product
from operator import add, mul, sub

from . import _EXPORTS
from ._record import Record
from .core import inset_row, trapeze_table

__all__ = _EXPORTS["identities"]

InsetFn = Callable[[int, int, int], int]


class Counterexample(Record):
    params: tuple[int, ...]
    lhs: int
    rhs: int


class GridReport(Record):
    identity: str
    m_max: int
    n_max: int
    passed: bool
    counterexample: Counterexample | None


_UNREAD = object()  # a cell of an injected source's row not yet asked


class _Table(dict):
    """The inset values one verification call reads: (m, n) -> its row, made
    the first time it is read.

    Every row is a list of ``width`` = m_max + n_max + 4 cells, f(m, n, k) for
    0 <= k < width.  ``horizontal_full`` reads f(m+1, n, m+n+3) and no
    checker reads a larger k, so every read falls inside it.  By default the
    row comes whole from one ``inset_row`` call.  With an injected
    ``inset_fn`` it starts as ``_UNREAD`` cells, and a cell is asked of the
    source the first time it is read, then kept in the row.  The table also
    holds the bounds of the grid.  It keeps nothing of any identity, so an
    identity that stops early leaves nothing behind for the next one.
    """

    def __init__(self, m_max: int, n_max: int, inset_fn: InsetFn | None) -> None:
        if m_max < 0 or n_max < 0:
            raise ValueError("grid bounds must be nonnegative")
        self.inset_fn = inset_fn
        self.m_max, self.n_max = m_max, n_max
        self.width = m_max + n_max + 4

    def __missing__(self, key: tuple[int, int]) -> list:
        # ``inset_row`` is looked up per row, so it can be patched in tests
        self[key] = row = (inset_row(*key, 0, self.width) if self.inset_fn is None
                           else [_UNREAD] * self.width)
        return row

    def row(self, m: int, n: int, lo: int, hi: int) -> list[int]:
        """f(m, n, k) for 0 <= lo <= k < hi."""
        row = self[m, n]
        if self.inset_fn is not None:
            for k in range(lo, hi):  # ascending k, each cell asked once
                if row[k] is _UNREAD:
                    row[k] = self.inset_fn(m, n, k)
        return row[lo:hi]

    def grid(self) -> Iterator[tuple[int, int]]:
        """Every (m, n) of the grid in report order: m outer, n inner."""
        return product(range(self.m_max + 1), range(self.n_max + 1))


_Found = tuple[tuple[int, ...], int, int] | None  # None or (params, lhs, rhs)
# table -> one _Found for each (m, n) of table.grid(), in that order, or
# fewer once none of the rest can fail, or one _Found for the whole grid
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


def _row_sum(f, hi, terms):
    """sum c f(a, y, k) over the (c, a, y) of ``terms``, a row over 0 <= k < hi."""
    weights, rows = zip(*((c, f.row(a, y, 0, hi)) for c, a, y in terms))
    return [sum(map(mul, weights, col)) for col in zip(*rows)]


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
    # every comparison holds once the vertical residuals vanish at
    # 1 <= a <= m_max, y >= 1, a + y <= m_max + n_max; with n_max = 0 there
    # is no comparison
    if f.n_max and not _residuals_vanish(f, 1, f.m_max, f.m_max + f.n_max):
        yield from _alternating_shift_terms(f)


@_each_cell
def _alternating_shift_terms(f, m, n):
    if n < 1:
        return None
    hi = m + n + 3
    lhs = f.row(m + 1, n - 1, 0, hi)
    sides = (_row_sum(f, hi, [((-1) ** i * math.comb(p, i), m - p + 1, n + p - 1 - i)
                              for i in range(p + 1)]) for p in range(m + 1))
    return _least(enumerate(_compare((m, n), lhs, rhs) for rhs in sides))


def _residuals_vanish(f, a_lo, a_hi, y_hi):
    """Whether the vertical residual f(a, y, .) - f(a, y-1, .) - f(a+1, y-1, .)
    is zero on whole rows, k = 0..m_max + n_max + 2, at every a_lo <= a <= a_hi
    and 1 <= y <= y_hi with a + y <= m_max + n_max."""
    top, width = f.m_max + f.n_max, f.width - 1
    for y in range(1, y_hi + 1):
        hi = min(a_hi, top - y)
        if hi < a_lo:
            break
        below = [f.row(a, y - 1, 0, width) for a in range(a_lo, hi + 2)]
        if any(f.row(a, y, 0, width) != list(map(add, left, right))
               for a, left, right in zip(range(a_lo, hi + 1), below, below[1:])):
            return False
    return True


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
            row = [*map(add, sums[n], row), sum(f.row(i, n, hi - 1, hi)[0] for i in range(m + 1))]
        sums[n] = row
        yield m, n, row


def _check_horizontal_full(f):
    for m, n, sums in _running_sums(f, lambda m, n: (0, m + n + 3)):
        # 2^(n-k-1) C(n,k+1) for k < n, then 0
        head = [math.comb(n, k + 1) << (n - k - 1) for k in range(n)]
        rhs = [*map(add, head, sums), *sums[n:]]
        yield _compare((m, n), f.row(m + 1, n, 1, m + n + 4), rhs)


def _check_horizontal_tail(f):
    # k runs over n..m+n only
    for m, n, sums in _running_sums(f, lambda m, n: (n, m + n + 1)):
        yield _compare((m, n), f.row(m + 1, n, n + 1, m + n + 2), sums, n)


@_each_cell
def _check_telescoping(f, m, n):
    # p = 1 alone: lhs - rhs at p, less that at p-1, is lhs - rhs of the p = 1
    # comparison at (m, n-p+1, k-p+1), made earlier in the walk
    if n < 1:
        return None
    below = f.row(m, n - 1, 0, m + n + 3)
    lhs = list(map(sub, f.row(m, n, 1, m + n + 3), below))  # k = 1..m+n+2
    bad = _compare((m, n), lhs, [v + v for v in below[1:]], 1)
    return bad and ((*bad[0], 1), *bad[1:])


def _check_zeros_placement(f):
    # every comparison holds once the vertical residuals vanish at
    # 1 <= y <= n_max, a + y <= m_max + n_max
    if not _residuals_vanish(f, 0, f.m_max + f.n_max, f.n_max):
        yield from _zeros_placement_terms(f)


@_each_cell
def _zeros_placement_terms(f, m, n):
    hi = m + n + 3
    lhs = f.row(m, n, 0, hi)
    sides = (_row_sum(f, hi, [(math.comb(p, i), m + i, n - p) for i in range(p + 1)])
             for p in range(n + 1))
    return _least(enumerate(_compare((m, n), lhs, rhs) for rhs in sides))


def _check_trapeze(f, top=None):
    # sum_i C(n,i) C(m+i, k) over k = 0..m+n is row m of trapeze_table(n, .);
    # the walk stops past row m = ``top``
    top = f.m_max if top is None else top
    tables = [trapeze_table(n, top) for n in range(f.n_max + 1)]
    for m, n in f.grid():
        if m > top:
            return
        yield _compare((m, n), f.row(m, n, 0, m + n + 3), [*tables[n][m], 0, 0])


def _check_shifted_window(f):
    # rhs(m, n, k) = sum_j C(n,j) C(k+m-j, k) is row a = m+k-n of
    # trapeze_table(n, .) at k.  Row (a, n) holds the cells of m = a+n-k for
    # max(0, a+n-m_max) <= k <= min(a+n, (a+2n+2)//2); within it the first
    # cell in (m, n, k) order is the one of largest k
    bad = []
    for n in range(f.n_max + 1):
        for a, side in enumerate(trapeze_table(n, 2 * f.m_max + 2)):
            lo, hi = max(0, a + n - f.m_max), min(a + n, (a + 2 * n + 2) // 2) + 1
            lhs, rhs = f.row(a, n, lo, hi), side[lo:hi]
            if lhs != rhs:
                bad += [((a + n - k, n, k), x, y)
                        for k, x, y in zip(range(lo, hi), lhs, rhs) if x != y]
    yield min(bad, default=None)


@_each_cell
def _check_parity_shift(f, m, n):
    # p = 1 alone: the comparison at p, less that at p-1, is the p = 1
    # comparison at (m, n-p+1, k-p+1) mod 2, made earlier in the walk
    if n < 1:
        return None
    lhs, rhs = f.row(m, n - 1, 0, m + n + 2), f.row(m, n, 1, m + n + 3)  # k = 1..m+n+2
    bad = _compare((m, n), [v & 1 for v in lhs], [v & 1 for v in rhs], 1)
    if bad is None:
        return None
    (_, _, k), _, _ = bad
    return (m, n, k, 1), lhs[k - 1], rhs[k - 1]


_CHECKERS: dict[str, _Checker] = {
    "pascal": _check_pascal,
    "vertical": _check_vertical,
    "doubling": _check_doubling,
    "alternating_shift": _check_alternating_shift,
    "horizontal_full": _check_horizontal_full,
    "horizontal_tail": _check_horizontal_tail,
    "telescoping": _check_telescoping,
    "zeros_placement": _check_zeros_placement,
    "binomial_sum": _check_trapeze,
    "convolution": _check_trapeze,
    "shifted_window": _check_shifted_window,
    "parity_shift": _check_parity_shift,
    # row 0 of trapeze_table(n, .) is 2^(n-k) C(n,k)
    "first_row": lambda f: _check_trapeze(f, 0),
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
