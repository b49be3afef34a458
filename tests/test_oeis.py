import importlib.util
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from insets import oeis
from insets.errors import BFileFormatError, FixtureNotFoundError
from insets.oeis import BFile, bfile_name, load, parse_bfile

PACKAGED_FIXTURES = Path(oeis.__file__).resolve().parent / "fixtures"


def test_parse_basic():
    parsed = parse_bfile("0 1\n1 3\n2 13\n", "A001850")
    assert parsed.entries == ((0, 1), (1, 3), (2, 13))
    assert parsed.entries[0][0] == 0
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


# what int() takes but a b-file number is not: a plus sign, an underscore
# separator, a non-ASCII digit (ARABIC-INDIC DIGIT FIVE)
@pytest.mark.parametrize("number", ["+8", "1_3", "\u0665"])
def test_parse_rejects_numbers_that_are_not_plain_decimal(number):
    for line in (f"{number} 1", f"1 {number}"):
        with pytest.raises(BFileFormatError, match="malformed line 2"):
            parse_bfile(f"0 1\n{line}\n", "A000001")


def test_parse_reports_line_number():
    with pytest.raises(BFileFormatError, match="line 3"):
        parse_bfile("# head\n0 1\n1 2 3\n", "A000001")


def test_bfile_name():
    assert bfile_name("A008288") == "b008288.txt"
    assert bfile_name("braun_hough_cells") == "braun_hough_cells.txt"
    assert bfile_name("cell_counts") == "cell_counts.txt"
    # only A and six ASCII digits is an OEIS id
    assert bfile_name("A12") == "A12.txt"
    arabic_digits = "A\u0660\u0660\u0668\u0662\u0668\u0668"
    assert bfile_name(arabic_digits) == f"{arabic_digits}.txt"
    assert bfile_name("Aztec_cells") == "Aztec_cells.txt"


def test_load_from_packaged_fixtures():
    parsed = load("A008288")
    assert parsed.values[:6] == [1, 1, 1, 1, 3, 1]


def test_load_missing_offline(tmp_path):
    with pytest.raises(FixtureNotFoundError):
        load("A008288", tmp_path)


def test_missing_fixture_opens_no_connection(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("network access attempted")

    for name in ("socket", "create_connection", "getaddrinfo"):
        monkeypatch.setattr(socket, name, refuse)
    with pytest.raises(FixtureNotFoundError, match="no fixture for A001850 in"):
        load("A001850", tmp_path)
    assert list(tmp_path.iterdir()) == []  # nothing stored either


def test_local_ids_are_never_fetched(tmp_path):
    with pytest.raises(FixtureNotFoundError):
        load("braun_hough_cells", tmp_path)


def test_load_reads_the_directory_given(tmp_path):
    (tmp_path / "b008288.txt").write_text("0 5\n1 6\n", encoding="utf-8")
    assert load("A008288", tmp_path).values == [5, 6]
    assert load("A008288", str(tmp_path)).values == [5, 6]


def test_empty_strings_mean_the_packaged_fixtures():
    packaged = (PACKAGED_FIXTURES / "b008288.txt").read_text(encoding="utf-8")
    expected = parse_bfile(packaged, "A008288")
    assert load("A008288", "") == expected
    assert load("A008288") == expected


def test_all_packaged_fixtures_parse():
    files = sorted(PACKAGED_FIXTURES.glob("*.txt"))
    assert files, "no packaged fixtures found"
    for path in files:
        stem = path.stem
        fixture_id = f"A{stem[1:]}" if stem.startswith("b") and stem[1:].isdigit() else stem
        parsed = load(fixture_id)
        assert isinstance(parsed, BFile)
        assert len(parsed) >= 15


def test_fixture_not_utf8_is_a_format_error(tmp_path):
    (tmp_path / "b000045.txt").write_bytes(b"0 1\n1 \xff\xfe\n")
    with pytest.raises(BFileFormatError, match=r"^A000045: not UTF-8 at byte 6$"):
        load("A000045", tmp_path)


def test_make_fixtures_names_files_as_load_reads_them(tmp_path, monkeypatch):
    script = Path(__file__).resolve().parent.parent / "tools" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    ids = ["A000045", "A12", "Aztec_cells"]
    monkeypatch.setattr(tool, "build_all", lambda: {i: ("note", 0, [1] * 15) for i in ids})
    monkeypatch.setattr(sys, "argv", ["make_fixtures.py", str(tmp_path)])
    tool.main()
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(map(bfile_name, ids))
    assert [load(i, tmp_path).values for i in ids] == [[1] * 15] * 3


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
