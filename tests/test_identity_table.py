from collections import Counter

from insets import verify_all
from insets.core import inset


def test_cell_the_source_gives_as_none_is_asked_once():
    # On the 6 x 6 grid f(7, 6, 8) is read only as a left-hand side, by
    # horizontal_full, horizontal_tail and shifted_window, so a source that
    # gives None there fails those three without raising.  The table keeps
    # the None it was given: None cannot also stand for a cell not yet read.
    cell = (7, 6, 8)
    asked = Counter()

    def source(m, n, k):
        asked[m, n, k] += 1
        return None if (m, n, k) == cell else inset(m, n, k)

    reports = verify_all(6, 6, inset_fn=source)
    failed = [r.identity for r in reports if not r.passed]
    assert failed == ["horizontal_full", "horizontal_tail", "shifted_window"]
    assert asked[cell] == 1
    assert max(asked.values()) == 1
