"""Enumeration of the restricted ternary words counted by inset numbers.

A word satisfies the constraint (m, n, k) when it has length m + n, exactly
k letters equal to 2, and no 0 among its first m letters.  Words are plain
digit strings such as ``"1022"`` so that leading zeros survive.

The enumerator :func:`iter_words` streams only satisfying words.  It splits
each word into a head and a tail of the last TAIL_LENGTH letters.  Once per
call it tabulates the lex-sorted tails grouped by their count of 2s; it then
walks the heads in lex order, pruned by the remaining budget of 2s, and
joins each head to the tails that complete its count, all of a head's words
in one ``str.join``.  The exhaustive filter over all 3^(m+n) raw words
survives as :func:`count_bruteforce`, the independent test oracle.

Only the oracle has a cap, BRUTEFORCE_CAP on m + n, since its work is
3^(m+n) whatever it returns.  A listing is lazy and has none: how much of
it to print is the CLI's policy, stated in the ``words`` row of
``cli._GRAMMAR``.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator

from . import _EXPORTS
from .errors import CapExceededError

__all__ = _EXPORTS["words"]

# the last TAIL_LENGTH letters come from a per-call table of at most 3^8 tails
TAIL_LENGTH = 8
BRUTEFORCE_CAP = 14


def _check_constraint(m: int, n: int, k: int) -> None:
    if m < 0 or n < 0 or k < 0:
        raise ValueError(f"word constraint must be nonnegative, got ({m}, {n}, {k})")


def iter_words(m: int, n: int, k: int) -> Iterator[str]:
    """Iterate over the satisfying words in lexicographic order (0 < 1 < 2).

    Yields inset(m, n, k) words, lazily: past a table of at most
    3^TAIL_LENGTH tails, a head's words are built only when the first of
    them is read, so the start of a listing is cheap at any length.  The
    arguments are checked at the call, not at the first ``next()``: raises
    ValueError for a negative argument.  The one limit left is the stack:
    ``_heads`` recurses once per letter before the last TAIL_LENGTH, and
    with Python 3.11.7's default recursion limit the first ``next()``
    worked at m + n = 1000 and raised RecursionError at 1100.
    """
    _check_constraint(m, n, k)
    total = m + n
    alphabets = ["12" if pos < m else "012" for pos in range(total)]
    split = max(0, total - TAIL_LENGTH)
    # tails[j]: the lex-sorted tails holding j 2s; product yields lex order
    tails: list[list[str]] = [[] for _ in range(total - split + 1)]
    for letters in itertools.product(*alphabets[split:]):
        tail = "".join(letters)
        tails[tail.count("2")].append(tail)
    heads = _heads(alphabets[:split], k - (total - split), k)
    # one join and one split per head build its words; no group tails[j] is
    # empty, since every tail alphabet holds a 2 and a letter that is not
    return itertools.chain.from_iterable(
        (head + ("\n" + head).join(tails[k - twos])).split("\n") for head, twos in heads
    )


def _heads(
    alphabets: list[str], lo: int, hi: int, prefix: str = "", twos: int = 0
) -> Iterator[tuple[str, int]]:
    """Lex-ordered (head, count of 2s) over ``alphabets`` with lo..hi 2s.

    Subtrees that cannot reach the window are pruned, so a head that must
    be all 2s is found without walking the heads before it.
    """
    pos = len(prefix)
    if twos > hi or twos + len(alphabets) - pos < lo:
        return
    if pos == len(alphabets):
        yield prefix, twos
        return
    for d in alphabets[pos]:
        yield from _heads(alphabets, lo, hi, prefix + d, twos + (d == "2"))


def enumerate_words(m: int, n: int, k: int) -> list[str]:
    """All satisfying words in lexicographic order, as a list.

    The list length equals inset(m, n, k), so it is held whole: a caller
    that wants a few words of a long listing reads :func:`iter_words`.
    """
    return list(iter_words(m, n, k))


# one entry per (m, n); 128 covers the 120 pairs with m + n <= BRUTEFORCE_CAP
@functools.lru_cache(maxsize=128)
def _counts_by_twos(m: int, n: int) -> tuple[int, ...]:
    # one pass over all 3^(m+n) raw words, bucketed by number of 2s
    counts = [0] * (m + n + 1)
    for w in itertools.product((0, 1, 2), repeat=m + n):
        if 0 not in w[:m]:
            counts[w.count(2)] += 1
    return tuple(counts)


def count_bruteforce(m: int, n: int, k: int) -> int:
    """Count satisfying words by exhaustive filtering of all raw words.

    Test oracle only; per-(m, n) scans are cached so sweeping k is cheap.
    Raises CapExceededError when m + n exceeds BRUTEFORCE_CAP.
    """
    _check_constraint(m, n, k)
    if m + n > BRUTEFORCE_CAP:
        raise CapExceededError(f"word length {m + n} exceeds brute-force cap {BRUTEFORCE_CAP}")
    counts = _counts_by_twos(m, n)
    return counts[k] if k <= m + n else 0


def is_satisfying(word: str, m: int, n: int, k: int) -> bool:
    """True iff ``word`` has length m+n, exactly k 2s, and a zero-free m-prefix."""
    _check_constraint(m, n, k)
    if len(word) != m + n or any(ch not in "012" for ch in word):
        return False
    return word.count("2") == k and "0" not in word[:m]
