"""Loading, parsing, and caching of b-file sequence fixtures.

A b-file is the plain-text OEIS dump format: one "index value" pair per
line, '#' comments and blank lines allowed, indices strictly increasing and
contiguous.  The package ships committed fixtures for every catalogued
sequence so the whole test suite runs offline; remote fetching happens only
for a fixture missing from the cache directory and goes through an
injectable text-by-URL transport.
The default transport imports ``urllib.request`` on the first remote fetch,
so loading committed fixtures never pays for it.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import BFileFormatError, FixtureError, FixtureNotFoundError

__all__ = [
    "BFile",
    "CacheConfig",
    "bfile_name",
    "default_config",
    "load",
    "parse_bfile",
]

ENV_FIXTURE_DIR = "INSETS_FIXTURES"
ENV_OFFLINE = "INSETS_OFFLINE"
DEFAULT_URL_TEMPLATE = "https://oeis.org/{id}/b{digits}.txt"

_OEIS_ID_RE = re.compile(r"\AA(\d{6})\Z")


@dataclass(frozen=True)
class BFile:
    """Parsed fixture: ordered, contiguous (index, value) pairs."""

    oeis_id: str
    entries: tuple[tuple[int, int], ...]

    @property
    def first_index(self) -> int:
        return self.entries[0][0]

    @property
    def values(self) -> list[int]:
        return [v for _, v in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


def _default_fixture_dir() -> Path:
    return Path(__file__).resolve().parent / "fixtures"


@dataclass(frozen=True)
class CacheConfig:
    fixture_dir: Path = field(default_factory=_default_fixture_dir)
    remote_base_url: str | None = DEFAULT_URL_TEMPLATE
    offline: bool = False
    fetch: Callable[[str], str] | None = None  # injectable transport


def default_config(
    fixture_dir: str | Path | None = None, offline: bool | None = None
) -> CacheConfig:
    """Config honoring the INSETS_FIXTURES and INSETS_OFFLINE environment overrides."""
    if fixture_dir is None:
        fixture_dir = os.environ.get(ENV_FIXTURE_DIR)
    if offline is None:
        offline = os.environ.get(ENV_OFFLINE, "").strip().lower() in ("1", "true", "yes")
    return CacheConfig(
        fixture_dir=Path(fixture_dir) if fixture_dir else _default_fixture_dir(),
        offline=offline,
    )


def bfile_name(fixture_id: str) -> str:
    """File name for a fixture id: A008288 -> b008288.txt, else <id>.txt."""
    m = _OEIS_ID_RE.match(fixture_id)
    return f"b{m.group(1)}.txt" if m else f"{fixture_id}.txt"


def parse_bfile(text: str, oeis_id: str) -> BFile:
    """Parse b-file text; malformed lines and index gaps are errors."""
    entries: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileFormatError(f"{oeis_id}: malformed line {lineno}: {raw!r}")
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileFormatError(
                f"{oeis_id}: malformed line {lineno}: {raw!r}"
            ) from None
        if entries and index != entries[-1][0] + 1:
            raise BFileFormatError(
                f"{oeis_id}: non-contiguous index at line {lineno}: "
                f"expected {entries[-1][0] + 1}, got {index}"
            )
        entries.append((index, value))
    return BFile(oeis_id=oeis_id, entries=tuple(entries))


def _fetch_with_urllib(url: str) -> str:
    import urllib.request

    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.read().decode("utf-8")


def _store_atomic(path: Path, text: str) -> None:
    # partial files never appear under the final name
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def load(fixture_id: str, cfg: CacheConfig | None = None) -> BFile:
    """Fixture from the cache directory, fetching and persisting on a miss.

    Offline mode performs no network operation of any kind.  Only OEIS-form
    ids (A followed by six digits) are ever fetched; failed transport is
    reported as a FixtureError.
    """
    cfg = cfg or default_config()
    path = Path(cfg.fixture_dir) / bfile_name(fixture_id)
    if path.is_file():
        return parse_bfile(path.read_text(encoding="utf-8"), fixture_id)
    if cfg.offline or cfg.remote_base_url is None or not _OEIS_ID_RE.match(fixture_id):
        raise FixtureNotFoundError(f"no fixture for {fixture_id} in {cfg.fixture_dir}")
    url = cfg.remote_base_url.format(id=fixture_id, digits=fixture_id[1:])
    fetch = cfg.fetch if cfg.fetch is not None else _fetch_with_urllib
    try:
        text = fetch(url)
    except FixtureError:
        raise
    except Exception as exc:
        raise FixtureError(f"fetching {fixture_id} from {url} failed: {exc}") from exc
    bfile = parse_bfile(text, fixture_id)  # a malformed fetch is never stored
    path.parent.mkdir(parents=True, exist_ok=True)
    _store_atomic(path, text)
    return bfile
