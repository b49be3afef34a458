import socket
import subprocess
import sys
from pathlib import Path

import pytest

from insets.errors import BFileFormatError, FixtureNotFoundError
from insets.oeis import (
    BFile,
    CacheConfig,
    bfile_name,
    default_config,
    load,
    parse_bfile,
)


def test_parse_basic():
    parsed = parse_bfile("0 1\n1 3\n2 13\n", "A001850")
    assert parsed.entries == ((0, 1), (1, 3), (2, 13))
    assert parsed.first_index == 0
    assert parsed.values == [1, 3, 13]
    assert len(parsed) == 3


def test_parse_skips_comments_and_blanks():
    parsed = parse_bfile("# comment\n\n0 1\n  \n1 2\n", "A000001")
    assert parsed.entries == ((0, 1), (1, 2))


def test_parse_whitespace_tolerant():
    parsed = parse_bfile("  0   1 \n\t1\t5\n", "A000001")
    assert parsed.entries == ((0, 1), (1, 5))


def test_parse_negative_indices_and_values():
    parsed = parse_bfile("-1 -5\n0 7\n", "A000001")
    assert parsed.entries == ((-1, -5), (0, 7))


def test_parse_rejects_gap():
    with pytest.raises(BFileFormatError, match="non-contiguous"):
        parse_bfile("0 1\n2 5\n", "A000001")


@pytest.mark.parametrize("text", ["0 1 2\n", "zero 1\n", "0\n"])
def test_parse_rejects_malformed(text):
    with pytest.raises(BFileFormatError, match="line 1"):
        parse_bfile(text, "A000001")


def test_parse_reports_line_number():
    with pytest.raises(BFileFormatError, match="line 3"):
        parse_bfile("# head\n0 1\n1 2 3\n", "A000001")


def test_bfile_name():
    assert bfile_name("A008288") == "b008288.txt"
    assert bfile_name("braun_hough_cells") == "braun_hough_cells.txt"


def test_load_from_packaged_fixtures():
    parsed = load("A008288", default_config())
    assert parsed.values[:6] == [1, 1, 1, 1, 3, 1]


def test_load_missing_offline(tmp_path):
    cfg = CacheConfig(fixture_dir=tmp_path)
    with pytest.raises(FixtureNotFoundError):
        load("A008288", cfg)


def test_missing_fixture_opens_no_connection(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("network access attempted")

    for name in ("socket", "create_connection", "getaddrinfo"):
        monkeypatch.setattr(socket, name, refuse)
    with pytest.raises(FixtureNotFoundError, match="no fixture for A001850 in"):
        load("A001850", CacheConfig(fixture_dir=tmp_path))
    assert list(tmp_path.iterdir()) == []  # nothing stored either


def test_local_ids_are_never_fetched(tmp_path):
    cfg = CacheConfig(fixture_dir=tmp_path)
    with pytest.raises(FixtureNotFoundError):
        load("braun_hough_cells", cfg)


def test_env_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("INSETS_FIXTURES", str(tmp_path))
    cfg = default_config()
    assert cfg.fixture_dir == tmp_path


def test_all_packaged_fixtures_parse():
    cfg = default_config()
    files = sorted(cfg.fixture_dir.glob("*.txt"))
    assert files, "no packaged fixtures found"
    for path in files:
        stem = path.stem
        fixture_id = f"A{stem[1:]}" if stem.startswith("b") and stem[1:].isdigit() else stem
        parsed = load(fixture_id, cfg)
        assert isinstance(parsed, BFile)
        assert len(parsed) >= 15


def test_make_fixtures_regenerates_the_packaged_files(tmp_path):
    # every committed fixture is the output of tools/make_fixtures.py, byte for byte
    root = Path(__file__).resolve().parent.parent
    script = root / "tools" / "make_fixtures.py"
    subprocess.run([sys.executable, str(script), str(tmp_path)], check=True)
    packaged = root / "src" / "insets" / "fixtures"
    names = sorted(path.name for path in packaged.iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (packaged / name).read_bytes(), name
