"""Reading and parsing of the committed b-file sequence fixtures.

A b-file is the plain-text OEIS dump format: one "index value" pair per
line, '#' comments and blank lines allowed, indices strictly increasing and
contiguous.  The package ships a committed fixture for every catalogued
sequence, regenerated by ``tools/make_fixtures.py``; this module only reads
them and never fetches or writes a file.  ``load(fixture_id, fixture_dir)``
reads one fixture from ``fixture_dir``, else from the packaged fixtures;
nothing else names the directory.
"""

from __future__ import annotations

import re
from pathlib import Path

from . import _EXPORTS
from ._record import Record
from .errors import BFileFormatError, FixtureNotFoundError

__all__ = _EXPORTS["oeis"]

_OEIS_ID_RE = re.compile(r"A([0-9]{6})")
# a line's index and value: each an optional "-" and ASCII digits, which
# int() alone would widen to "+8", "1_3" and non-ASCII digits
_LINE_RE = re.compile(r"(-?[0-9]+)\s+(-?[0-9]+)")
_FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"


class BFile(Record):
    """Parsed fixture: ordered, contiguous (index, value) pairs."""

    entries: tuple[tuple[int, int], ...]

    @property
    def values(self) -> list[int]:
        return [v for _, v in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


def bfile_name(fixture_id: str) -> str:
    """File name for a fixture id: A008288 -> b008288.txt, else <id>.txt."""
    m = _OEIS_ID_RE.fullmatch(fixture_id)
    return f"b{m.group(1)}.txt" if m else f"{fixture_id}.txt"


def parse_bfile(text: str, oeis_id: str) -> BFile:
    """Parse b-file text; malformed lines and index gaps are errors."""
    entries: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        pair = _LINE_RE.fullmatch(line)
        if pair is None:
            raise BFileFormatError(f"{oeis_id}: malformed line {lineno}: {raw!r}")
        index, value = int(pair[1]), int(pair[2])
        if entries and index != entries[-1][0] + 1:
            raise BFileFormatError(
                f"{oeis_id}: non-contiguous index at line {lineno}: "
                f"expected {entries[-1][0] + 1}, got {index}"
            )
        entries.append((index, value))
    return BFile(entries=tuple(entries))


def load(fixture_id: str, fixture_dir: str | Path | None = None) -> BFile:
    """Parsed fixture file for ``fixture_id``.

    The directory is ``fixture_dir``, else the packaged fixtures; an empty
    string also means the packaged fixtures.  Raises FixtureNotFoundError
    when the directory holds no file for ``fixture_id``, and BFileFormatError
    when the file is not UTF-8 or is malformed.
    """
    directory = Path(fixture_dir) if fixture_dir else _FIXTURE_DIR
    path = directory / bfile_name(fixture_id)
    if not path.is_file():
        raise FixtureNotFoundError(f"no fixture for {fixture_id} in {directory}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise BFileFormatError(f"{fixture_id}: not UTF-8 at byte {exc.start}") from None
    return parse_bfile(text, fixture_id)
