import http.server
import threading

import pytest

from insets.errors import BFileFormatError, FixtureError, FixtureNotFoundError
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
    cfg = CacheConfig(fixture_dir=tmp_path, offline=True)
    with pytest.raises(FixtureNotFoundError):
        load("A008288", cfg)


def test_offline_never_touches_transport(tmp_path):
    def explode(url):
        raise AssertionError(f"network access attempted: {url}")

    cfg = CacheConfig(fixture_dir=tmp_path, offline=True, fetch=explode)
    with pytest.raises(FixtureNotFoundError):
        load("A001850", cfg)


def test_local_ids_are_never_fetched(tmp_path):
    def explode(url):
        raise AssertionError(f"network access attempted: {url}")

    cfg = CacheConfig(fixture_dir=tmp_path, offline=False, fetch=explode)
    with pytest.raises(FixtureNotFoundError):
        load("braun_hough_cells", cfg)


def test_fetch_persists_and_roundtrips(tmp_path):
    text = "# fetched\n0 1\n1 3\n2 13\n"
    urls = []

    def fake_fetch(url):
        urls.append(url)
        return text

    cfg = CacheConfig(
        fixture_dir=tmp_path,
        remote_base_url="https://example.test/{id}/b{digits}.txt",
        fetch=fake_fetch,
    )
    first = load("A001850", cfg)
    assert urls == ["https://example.test/A001850/b001850.txt"]
    stored = tmp_path / "b001850.txt"
    assert stored.read_text(encoding="utf-8") == text  # byte-identical persistence
    assert not list(tmp_path.glob(".*tmp*"))  # no temp litter

    second = load("A001850", cfg)
    assert urls == ["https://example.test/A001850/b001850.txt"]  # cache hit, no refetch
    assert first == second


def test_fetch_failure_is_wrapped(tmp_path):
    def broken(url):
        raise OSError("connection refused")

    cfg = CacheConfig(fixture_dir=tmp_path, fetch=broken)
    with pytest.raises(FixtureError, match="connection refused"):
        load("A001850", cfg)


def test_malformed_fetch_is_not_persisted(tmp_path):
    texts = ["0 1\n1 3 5\n", "0 1\n1 3\n2 13\n"]

    def fetch(url):
        return texts.pop(0)

    cfg = CacheConfig(fixture_dir=tmp_path, fetch=fetch)
    with pytest.raises(BFileFormatError):
        load("A001850", cfg)
    assert list(tmp_path.iterdir()) == []  # no final file and no .tmp file
    # the next load fetches again instead of failing on a stored bad file
    assert load("A001850", cfg).values == [1, 3, 13]
    assert [p.name for p in tmp_path.iterdir()] == ["b001850.txt"]


def test_fetch_from_local_stub_server(tmp_path):
    text = "0 1\n1 3\n2 13\n3 63\n"

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            body = text.encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        cfg = CacheConfig(
            fixture_dir=tmp_path,
            remote_base_url=f"http://127.0.0.1:{port}/{{id}}/b{{digits}}.txt",
        )
        parsed = load("A001850", cfg)
        assert parsed.values == [1, 3, 13, 63]
        assert (tmp_path / "b001850.txt").read_text(encoding="utf-8") == text
    finally:
        server.shutdown()
        thread.join()


def test_env_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("INSETS_FIXTURES", str(tmp_path))
    monkeypatch.setenv("INSETS_OFFLINE", "1")
    cfg = default_config()
    assert cfg.fixture_dir == tmp_path
    assert cfg.offline


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
