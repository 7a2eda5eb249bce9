import hashlib
import http.client
import importlib.util
import io
import shutil
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from causalsteer.autompg import AUTOMPG_URL, COLUMNS, cache_file, fetch_autompg, parse_autompg
from causalsteer.cli import main
from causalsteer.errors import NetworkUnavailable, ParseError

DATA = Path(__file__).parent / "data" / "autompg_synthetic.data"

# The report on the synthetic stand-in with the bundled structure and the
# default desired values; any change to the plan arithmetic shows here.
EXPECTED_DEMO = """\
intervention variable: cylinders (observed range 4 .. 8)
 desired mpg      optimal          naive
          15        8.814 (!)         54.408 (!)
          21        6.429         18.804 (!)
          30        2.852 (!)        -34.601 (!)
(!) outside the observed range of the intervention variable
"""

ROW = '18.0   8   307.0      130.0      3504.   12.0   70  1\t"chevrolet chevelle malibu"'


def test_demo_output_is_pinned(capsys):
    assert main(["demo-autompg", "--data-file", str(DATA)]) == 0
    assert capsys.readouterr().out == EXPECTED_DEMO


def test_demo_out_writes_the_report(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["demo-autompg", "--data-file", str(DATA), "--out", str(out)]) == 0
    assert out.read_text() == EXPECTED_DEMO
    assert capsys.readouterr().out == ""


def test_parse_reorders_columns():
    data = parse_autompg(ROW + "\n\n")
    assert data.names == COLUMNS
    assert data.rows.tolist() == [[8.0, 3504.0, 307.0, 130.0, 12.0, 18.0]]


def test_parse_drops_missing_horsepower_rows():
    text = DATA.read_text()
    lines = [line for line in text.splitlines() if line.strip()]
    missing = sum("?" in line for line in lines)
    assert missing > 0
    assert parse_autompg(text).m == len(lines) - missing


@pytest.mark.parametrize(
    "text, line",
    [
        (ROW + "\n18.0 8 307.0\n", 2),
        (ROW + "\n18.0 8 307.0 x 3504. 12.0 70 1\n", 2),
        ("", 1),
        ("\n  \n", 1),
    ],
)
def test_parse_errors_name_the_line(text, line):
    with pytest.raises(ParseError) as exc:
        parse_autompg(text)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}:")


def refuse(*args, **kwargs):
    raise urllib.error.URLError("offline")


@pytest.fixture
def offline(monkeypatch):
    """Every download attempt fails, so a test passes only from the cache."""
    monkeypatch.setattr(urllib.request, "urlopen", refuse)


def test_fetch_reads_a_cached_file_and_writes_its_checksum(tmp_path, offline):
    shutil.copy(DATA, tmp_path / "auto-mpg.data")
    data = fetch_autompg(tmp_path / "auto-mpg.data")
    assert data.names == COLUMNS
    assert data.rows.tolist() == parse_autompg(DATA.read_text()).rows.tolist()
    assert (tmp_path / "auto-mpg.sha256").read_text() == hashlib.sha256(DATA.read_bytes()).hexdigest() + "\n"


def test_fetch_downloads_once_then_reads_the_cache(tmp_path, monkeypatch):
    requested = []

    def serve(url, timeout):
        requested.append(url)
        return io.BytesIO(DATA.read_bytes())

    monkeypatch.setattr(urllib.request, "urlopen", serve)
    raw = tmp_path / "new" / "auto-mpg.data"
    expected = parse_autompg(DATA.read_text())
    data = fetch_autompg(raw)
    assert requested == [AUTOMPG_URL]
    assert raw.read_bytes() == DATA.read_bytes()
    assert (raw.parent / "auto-mpg.sha256").read_text() == hashlib.sha256(DATA.read_bytes()).hexdigest() + "\n"
    assert (data.names, data.rows.tolist()) == (expected.names, expected.rows.tolist())
    monkeypatch.setattr(urllib.request, "urlopen", refuse)
    assert fetch_autompg(raw).rows.tolist() == expected.rows.tolist()


def test_fetch_rejects_a_file_changed_after_its_checksum(tmp_path, offline):
    raw = tmp_path / "auto-mpg.data"
    shutil.copy(DATA, raw)
    fetch_autompg(raw)
    payload = bytearray(raw.read_bytes())
    payload[0] ^= 1
    raw.write_bytes(bytes(payload))
    with pytest.raises(ParseError, match="checksum") as exc:
        fetch_autompg(raw)
    # The fault is in the whole file, not in a line of it.
    assert exc.value.line is None
    assert not str(exc.value).startswith("line")
    assert "auto-mpg.sha256" in str(exc.value)


@pytest.mark.parametrize("cache_dir", [None, ""], ids=["unset", "empty"])
def test_fetch_takes_the_cache_from_the_environment(tmp_path, monkeypatch, capsys, offline, cache_dir):
    # An empty --cache-dir is unset too: the file is read from, and named at, $CAUSALSTEER_CACHE.
    cache, work = tmp_path / "cache", tmp_path / "work"
    cache.mkdir()
    work.mkdir()
    monkeypatch.setenv("CAUSALSTEER_CACHE", str(cache))
    monkeypatch.chdir(work)
    shutil.copy(DATA, cache / "auto-mpg.data")
    m = parse_autompg(DATA.read_text()).m
    assert cache_file(cache_dir) == cache / "auto-mpg.data"
    assert fetch_autompg(cache_file(cache_dir)).m == m
    assert (cache / "auto-mpg.sha256").exists()
    argv = ["fetch-autompg"] + ([] if cache_dir is None else ["--cache-dir", cache_dir])
    assert main(argv) == 0
    assert capsys.readouterr().out == f"{cache / 'auto-mpg.data'}: {m} rows x 6 columns\n"
    assert list(work.iterdir()) == []


def test_fetch_without_a_cached_file_names_where_to_put_it(tmp_path, offline):
    raw = tmp_path / "new" / "auto-mpg.data"
    message = f"could not download {AUTOMPG_URL}: <urlopen error offline>; place the raw file there manually"
    with pytest.raises(NetworkUnavailable) as exc:
        fetch_autompg(raw)
    assert str(exc.value) == message
    assert not raw.parent.exists()


def test_fetch_offline_names_the_cache_file_once(tmp_path, capsys, offline):
    # The path comes from naming alone, and a download that failed makes no directory.
    raw = tmp_path / "newcache" / "auto-mpg.data"
    assert main(["fetch-autompg", "--cache-dir", str(raw.parent)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {raw}: could not download {AUTOMPG_URL}: <urlopen error offline>; place the raw file there manually\n"
    assert err.count(str(raw)) == 1
    assert list(tmp_path.iterdir()) == []


def test_fetch_of_a_truncated_download_is_one_error_line(tmp_path, monkeypatch, capsys):
    # A body cut short raises IncompleteRead, an HTTPException and not an OSError.
    class Truncated(io.BytesIO):
        def read(self, *args):
            raise http.client.IncompleteRead(b"18.0", 1000)

    monkeypatch.setattr(urllib.request, "urlopen", lambda *args, **kwargs: Truncated())
    cache = tmp_path / "cache"
    cache.mkdir()
    assert main(["fetch-autompg", "--cache-dir", str(cache)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"could not download {AUTOMPG_URL}: IncompleteRead" in err
    assert list(cache.iterdir()) == []


def test_standin_matches_its_generator():
    # The synthetic file is exactly what tools/make_autompg_standin.py writes.
    tool = Path(__file__).parent.parent / "tools" / "make_autompg_standin.py"
    spec = importlib.util.spec_from_file_location("make_autompg_standin", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.standin_text().encode() == DATA.read_bytes()
