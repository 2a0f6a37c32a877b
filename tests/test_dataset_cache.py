"""The dataset cache: a hit gives the report a parse gives, and anything amiss is a miss.

``cli._read_dataset`` keeps the parsed columns of a large regular file in
``$XDG_CACHE_HOME/vartests``, keyed by the sha256 of its bytes.  The
tests below lower the size floor so that small files are cached, and
check that no entry, directory or file change can alter stdout, stderr or
the exit code.  That every reading of ``tests/test_ingest.py``'s edge
files (a label with a trailing NUL, non-ASCII labels, a BOM) comes back
exactly from the cache is checked there.
"""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from test_ingest import EDGE_FILES, _entry, _no_parse, _write
from vartests import cli

ROWS = "group,value\n" + "".join(f"g{i % 3},{(i * 0.37) ** 2!r}\n" for i in range(60))
ARGV = ("test", "--method", "levene", "--format", "text")


@pytest.fixture()
def cached(monkeypatch):
    """Cache every regular file, however small."""
    monkeypatch.setattr(cli, "_MIN_CACHED_BYTES", 1)


def _report(capsys, path, argv=ARGV):
    code = cli.main([*argv, "--input", path])
    out, err = capsys.readouterr()
    return code, out, err


def _cold(capsys, path, argv=ARGV):
    """The report with the cache out of reach."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_MIN_CACHED_BYTES", float("inf"))
        return _report(capsys, path, argv)


def _cache_files():
    directory = os.path.join(os.environ["XDG_CACHE_HOME"], "vartests")
    return sorted(os.listdir(directory)) if os.path.isdir(directory) else []


def _write_entry(entry, labels, *arrays):
    with open(entry, "wb") as out:
        out.write(labels if isinstance(labels, bytes) else json.dumps(labels).encode() + b"\n")
        for array in arrays:
            np.save(out, array, allow_pickle=array.dtype == object)


def _columns(entry):
    with open(entry, "rb") as cached:
        return json.loads(cached.readline()), np.load(cached), np.load(cached)


def test_undoing_a_tests_patches_keeps_its_fresh_cache(monkeypatch):
    fresh = os.environ["XDG_CACHE_HOME"]
    monkeypatch.undo()
    assert os.environ.get("XDG_CACHE_HOME") == fresh


def test_a_hit_gives_the_cold_report(tmp_path, capsys, monkeypatch, cached):
    path = _write(tmp_path, "data.csv", ROWS)
    cold = _cold(capsys, path)
    assert cold[0] == 0 and cold[2] == ""
    assert _report(capsys, path) == cold
    assert _cache_files() == [os.path.basename(_entry(path))]
    commands = (ARGV, ("trend", "--group-order", "g2,g0,g1"), ("anova",))
    colds = [_cold(capsys, path, argv) for argv in commands]
    monkeypatch.setattr(cli, "_read_columns", _no_parse)
    assert [_report(capsys, path, argv) for argv in commands] == colds


MALFORMED = {
    "truncated": lambda labels, codes, values: None,
    "truncated after the labels": lambda labels, codes, values: (labels,),
    "lengths differ": lambda labels, codes, values: (labels, codes[:-1], values),
    "code out of range": lambda labels, codes, values: (labels, np.where(codes == 0, len(labels), codes).astype(np.uint32), values),
    "codes not uint32": lambda labels, codes, values: (labels, codes.astype(np.float64), values),
    "values not float64": lambda labels, codes, values: (labels, codes, values.astype(np.float32)),
    "values pickled": lambda labels, codes, values: (labels, codes, values.astype(object)),
    "values 2-d": lambda labels, codes, values: (labels, codes, values[:, None]),
    "label not a str": lambda labels, codes, values: ([1, *labels[1:]], codes, values),
    "labels not a list": lambda labels, codes, values: ({label: 0 for label in labels}, codes, values),
    "labels not JSON": lambda labels, codes, values: (b"\xff\n", codes, values),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_a_malformed_entry_is_a_miss_and_is_replaced(tmp_path, capsys, cached, name):
    path = _write(tmp_path, "data.csv", ROWS)
    cold = _report(capsys, path)
    entry = _entry(path)
    with open(entry, "rb") as handle:
        good = handle.read()
    malformed = MALFORMED[name](*_columns(entry))
    if malformed is None:
        with open(entry, "wb") as handle:
            handle.write(good[: len(good) // 2])
    else:
        _write_entry(entry, *malformed)
    assert _report(capsys, path) == cold
    with open(entry, "rb") as handle:
        assert handle.read() == good


def test_a_file_rewritten_in_place_with_its_times_put_back_misses(tmp_path, capsys, cached):
    path = _write(tmp_path, "data.csv", ROWS)
    first = _report(capsys, path)
    status = os.stat(path)
    _write(tmp_path, "data.csv", ROWS.replace("g1,", "g2,", 1))
    os.utime(path, ns=(status.st_atime_ns, status.st_mtime_ns))
    assert os.stat(path).st_size == status.st_size
    rewritten = _report(capsys, path)
    assert rewritten == _cold(capsys, path) and rewritten != first


def test_a_file_that_changes_during_the_parse_is_not_stored(tmp_path, capsys, monkeypatch, cached):
    path = _write(tmp_path, "data.csv", ROWS)
    cold = _cold(capsys, path)
    parse = cli._read_columns

    def parse_then_touch(*args):
        columns = parse(*args)
        status = os.stat(path)
        os.utime(path, ns=(status.st_atime_ns, status.st_mtime_ns + 1))
        return columns

    monkeypatch.setattr(cli, "_read_columns", parse_then_touch)
    assert _report(capsys, path) == cold
    assert _cache_files() == []


def _plant(path):
    """A well-formed entry for ``path`` whose values are twice the file's, in a new private cache directory."""
    entry = _entry(path)
    with open(path, "rb") as handle:
        labels, codes, values = cli._read_columns(handle.fileno(), path, os.fstat(handle.fileno()).st_size)
    _write_entry(entry, labels, codes, values * 2)
    with open(entry, "rb") as handle:
        return entry, handle.read()


@pytest.mark.parametrize("fault", ["group-writable", "not-owned"])
def test_a_cache_directory_others_could_write_is_not_used(tmp_path, capsys, monkeypatch, cached, fault):
    path = _write(tmp_path, "data.csv", ROWS)
    cold = _cold(capsys, path)
    entry, planted = _plant(path)
    assert _report(capsys, path) != cold  # from a private directory, the planted entry is read
    if fault == "group-writable":
        os.chmod(os.path.dirname(entry), 0o770)
    else:
        monkeypatch.setattr(os, "getuid", lambda uid=os.getuid(): uid + 1)
    assert _report(capsys, path) == cold
    assert _cache_files() == [os.path.basename(entry)]  # and nothing is written there
    with open(entry, "rb") as handle:
        assert handle.read() == planted


def test_an_unwritable_cache_location_is_a_miss(tmp_path, capsys, monkeypatch, cached):
    path = _write(tmp_path, "data.csv", ROWS)
    cold = _cold(capsys, path)
    blocker = _write(tmp_path, "not-a-directory", "")
    monkeypatch.setenv("XDG_CACHE_HOME", blocker)
    assert _report(capsys, path) == cold
    assert _report(capsys, path) == cold


def test_a_relative_cache_home_is_ignored(tmp_path, capsys, monkeypatch, cached):
    path = _write(tmp_path, "data.csv", ROWS)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", "relative")
    monkeypatch.chdir(tmp_path)
    _report(capsys, path)
    assert not os.path.exists(tmp_path / "relative")
    assert os.listdir(tmp_path / "home" / ".cache" / "vartests") == [os.path.basename(_entry(path))]


def test_no_home_directory_means_no_cache(tmp_path, capsys, monkeypatch, cached):
    path = _write(tmp_path, "data.csv", ROWS)
    cold = _cold(capsys, path)
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setattr(os.path, "expanduser", lambda path: path)  # as when neither HOME nor the user's entry gives one
    monkeypatch.chdir(tmp_path)
    assert _report(capsys, path) == cold
    assert not os.path.exists(tmp_path / "~")


def test_a_pipe_a_small_file_and_a_bad_file_write_no_entry(tmp_path, capsys, monkeypatch):
    small = _write(tmp_path, "small.csv", ROWS)
    assert _report(capsys, small)[0] == 0 and _cache_files() == []  # below the real floor
    monkeypatch.setattr(cli, "_MIN_CACHED_BYTES", 1)
    bad = _write(tmp_path, "bad.csv", EDGE_FILES["bad_value"])
    code, out, err = _report(capsys, bad)
    assert (code, out) == (2, "") and err.endswith(":3: bad value 'oops'\n")
    fifo = str(tmp_path / "data.fifo")
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: _write(tmp_path, "data.fifo", ROWS))
    writer.start()
    try:
        piped = _report(capsys, fifo)
    finally:
        writer.join()
    assert piped == _cold(capsys, small)
    assert _cache_files() == []


def test_the_four_newest_entries_are_kept(tmp_path, capsys, cached):
    paths = [_write(tmp_path, f"data{i}.csv", ROWS + f"g0,{i}\n") for i in range(5)]
    for age, path in enumerate(paths[:4]):
        _report(capsys, path)
        status = os.stat(_entry(path))
        os.utime(_entry(path), ns=(status.st_atime_ns, status.st_mtime_ns - 10**9 * (100 - age)))
    _report(capsys, paths[0])  # a hit makes the oldest entry the newest
    _report(capsys, paths[4])
    assert _cache_files() == sorted(os.path.basename(_entry(p)) for p in [paths[0], *paths[2:]])


def test_the_cli_caches_a_file_at_the_floor(tmp_path):
    row = "g{},{!r}\n"
    lines, size, i = ["group,value\n"], 12, 0
    while size < cli._MIN_CACHED_BYTES:
        lines.append(row.format(i % 4, (i * 0.37) ** 2))
        size += len(lines[-1])
        i += 1
    path = _write(tmp_path, "large.csv", "".join(lines))
    command = [sys.executable, "-m", "vartests", "anova", "--input", path]
    runs = [subprocess.run(command, capture_output=True) for _ in range(2)]
    assert runs[0].returncode == 0 and runs[0].stderr == b""
    assert (runs[1].returncode, runs[1].stdout, runs[1].stderr) == (0, runs[0].stdout, b"")
    directory = os.path.join(os.environ["XDG_CACHE_HOME"], "vartests")
    assert os.stat(directory).st_mode & 0o777 == 0o700
    assert _cache_files() == [os.path.basename(_entry(path))]
    assert os.stat(_entry(path)).st_mode & 0o777 == 0o600
