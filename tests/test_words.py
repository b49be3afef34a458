import itertools
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insets.core import binomial, inset, inset_dp
from insets.errors import CapExceededError
from insets.words import count_bruteforce, enumerate_words, is_satisfying, iter_words

@pytest.mark.parametrize(
    "word,constraint,expected",
    [
        ("1022", (1, 3, 2), True),
        ("0122", (1, 3, 2), False),
        ("122", (1, 3, 2), False),
        ("", (0, 0, 0), True),
        ("1x2", (1, 2, 1), False),
    ],
)
def test_is_satisfying(word, constraint, expected):
    assert is_satisfying(word, *constraint) is expected


def test_bruteforce_cap():
    with pytest.raises(CapExceededError):
        count_bruteforce(8, 7, 3)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 9))
def test_enumerated_words_satisfy(m, n, k):
    listing = enumerate_words(m, n, k)
    assert len(listing) == inset(m, n, k)
    assert len(set(listing)) == len(listing)
    for word in listing:
        assert is_satisfying(word, m, n, k)


def test_iter_words_checks_arguments_at_the_call():
    with pytest.raises(ValueError):
        iter_words(1, 2, -1)


def test_iter_words_streams_past_length_20():
    # no cap and no recursion: a listing's work follows what is read, so the
    # start of one is cheap at any length
    start = time.perf_counter()
    first = list(itertools.islice(iter_words(30, 30, 10), 1000))
    assert time.perf_counter() - start < 0.1
    assert len(first) == 1000
    assert all(is_satisfying(w, 30, 30, 10) for w in first)
    assert all(a < b for a, b in zip(first, first[1:]))
    # the lex-smallest: the m places 1s, then 0s, then the k 2s at the end
    assert first[0] == "1" * 30 + "0" * 20 + "2" * 10
    # at length 900 the next two raise the last 0 to 1, then to 2
    head = "1" * 450 + "0" * 149
    expected = [head + "0" + "2" * 300, head + "1" + "2" * 300, head + "20" + "2" * 299]
    assert list(itertools.islice(iter_words(450, 450, 300), 3)) == expected
    # length 4000 is past the default recursion limit; the heads are walked on a stack
    head = "1" * 2000 + "0" * 1699
    expected = [head + "0" + "2" * 300, head + "1" + "2" * 300, head + "20" + "2" * 299]
    assert list(itertools.islice(iter_words(2000, 2000, 300), 3)) == expected


_FIRST_WORDS_16000 = """
import itertools
from insets.words import iter_words
head = "1" * 8000 + "0" * 7699
expected = [head + "0" + "2" * 300, head + "1" + "2" * 300, head + "20" + "2" * 299]
assert list(itertools.islice(iter_words(8000, 8000, 300), 3)) == expected
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_iter_words_start_takes_memory_linear_in_length(peak_rss):
    # the heads share one list of letters: the first 3 words of (8000, 8000,
    # 300) took 16 MB of peak RSS against 13 MB for a bare interpreter, where
    # a stack of head strings took 234 MB (2 cores, Python 3.11.7)
    status, peak = peak_rss("-c", _FIRST_WORDS_16000)
    assert status == 0
    assert peak < 60 * 1024, peak


@pytest.mark.parametrize("total", range(11))
def test_exact_lexicographic_order(total):
    # the tail holds the last 8 letters, so totals 8, 9 and 10 give heads of
    # length 0, 1 and 2: total 10 is the first where the stack order of the
    # head walk and its pruning act across more than one head letter
    raw = list(map("".join, itertools.product("012", repeat=total)))
    for m in range(total + 1):
        n = total - m
        # is_satisfying(w, m, n, k) holds iff it holds with k = w.count("2")
        # and that count is k; one filtering pass per m serves every k
        good = [w for w in raw if is_satisfying(w, m, n, w.count("2"))]
        for k in range(total + 2):
            expected = [w for w in good if w.count("2") == k]
            assert list(iter_words(m, n, k)) == expected, (m, n, k)


def _completions(zero_free: int, free: int, twos: int) -> int:
    """Words of length zero_free + free with ``twos`` 2s and a zero-free start."""
    if twos < 0:
        return 0
    if zero_free == 0:
        return binomial(free, twos) * 2 ** (free - min(twos, free))
    return inset_dp(zero_free, free, twos)


def _lex_rank(word: str, m: int, n: int, k: int) -> int:
    """Number of satisfying words lexicographically before ``word``."""
    rank = twos = 0
    for pos, letter in enumerate(word):
        rest = m + n - pos - 1
        zero_free = max(0, m - pos - 1)
        for d in "12" if pos < m else "012":
            if d == letter:
                break
            rank += _completions(zero_free, rest - zero_free, k - twos - (d == "2"))
        twos += letter == "2"
    return rank


# m + n in {12, 17, 20}; in (10, 2, 5) and (15, 5, 7) m exceeds TAIL_LENGTH
# and the tail starts inside the zero-free prefix
@pytest.mark.parametrize(
    "m,n,k", [(10, 2, 5), (0, 12, 6), (3, 14, 9), (15, 5, 7), (6, 14, 12), (0, 20, 20)]
)
def test_prefix_has_consecutive_ranks(m, n, k):
    prefix = list(itertools.islice(iter_words(m, n, k), 50))
    assert len(prefix) == min(50, inset(m, n, k))
    for i, word in enumerate(prefix):
        assert is_satisfying(word, m, n, k)
        assert _lex_rank(word, m, n, k) == i, (word, i)
