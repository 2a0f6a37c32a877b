"""Dataset ingestion: the block loop, in one part, in parts and from a pipe, against the csv row loop.

``cli._read_dataset`` reads every input in blocks of lines: a plain
block is parsed in bulk, and any other alone by the csv row loop, which
reads on into the next blocks only while a quoted field is open.  A large
regular file is parsed in parts by forked workers.  Whatever path a file
takes, the groups must be byte-identical and every error must carry the
same message.  Six readings of each file are compared: the default
reader, the reader with tiny blocks (so block boundaries fall mid-file),
the row loop alone, the split reader forced onto the file (so that it is
cut into 2-3 parts), a hit in the dataset cache, and the file's bytes
fed through a pipe.  Successful readings are also checked against a
plain ``csv.DictReader`` loop with per-label buckets.
"""

import contextlib
import csv
import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_parts import truncated_value
from vartests import ValidationError, _parts, cli


def _outcome(path, group_order=None):
    try:
        sample = cli._read_dataset(path, group_order)
    except ValidationError as exc:
        return ("error", type(exc).__name__, str(exc))
    return [(label, arr.dtype.str, arr.tobytes()) for label, arr in sample.groups]


def _force_split(mp, cpus=3):
    """Make the split reader cut any file with a plain header into up to ``cpus`` parts."""
    mp.setattr(cli, "_MIN_PART_BYTES", 1)
    mp.setattr(cli, "_usable_cpus", lambda: cpus)


def _no_parse(*args):
    raise AssertionError("a file with a cache entry was parsed")


def _entry(path):
    """The dataset cache's entry for the file at ``path``, as a path."""
    with open(path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    return os.path.join(cli._cache_dir(), digest + cli._CACHE_SUFFIX)


def _cached_outcome(path, group_order=None):
    """The outcome of a read that stores the file's cache entry, then of one that loads it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_MIN_CACHED_BYTES", 1)
        stored = _outcome(path, group_order)
        if os.path.exists(_entry(path)):
            mp.setattr(cli, "_read_columns", _no_parse)
        else:
            assert stored[0] == "error"
        return _outcome(path, group_order)


def _piped_outcome(path, group_order=None):
    """The outcome of reading the file's bytes from a pipe that a thread writes, with the file's path in messages."""
    with open(path, "rb") as handle:
        content = handle.read()
    read_end, write_end = os.pipe()

    def write():
        with contextlib.suppress(BrokenPipeError), open(write_end, "wb") as out:
            out.write(content)

    writer = threading.Thread(target=write)
    writer.start()
    piped = f"/dev/fd/{read_end}"
    try:
        outcome = _outcome(piped, group_order)
    finally:
        os.close(read_end)  # so that a writer left with bytes nobody reads stops
        writer.join(timeout=60)
    assert not writer.is_alive()
    return (*outcome[:2], outcome[2].replace(piped, path)) if outcome[0] == "error" else outcome


def _readings(path, group_order=None, block_chars=7):
    """(default reader, tiny blocks, row loop only, split reader, cache hit, pipe) outcomes for one file."""
    default = _outcome(path, group_order)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_BLOCK_BYTES", block_chars)
        small_blocks = _outcome(path, group_order)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_parse_plain_block", lambda *args: None)
        rows_only = _outcome(path, group_order)
    with pytest.MonkeyPatch.context() as mp:
        _force_split(mp)
        mp.setattr(cli, "_BLOCK_BYTES", block_chars)
        split = _outcome(path, group_order)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_BLOCK_BYTES", block_chars)
        piped = _piped_outcome(path, group_order)
    return default, small_blocks, rows_only, split, _cached_outcome(path, group_order), piped


def _dictreader_groups(path, group_order=None):
    buckets = {}
    with open(path, newline="", encoding="utf-8-sig") as handle:
        for row in csv.DictReader(handle):
            label = (row.get("group") or "").strip()
            buckets.setdefault(label, []).append(float((row.get("value") or "").strip()))
    order = list(buckets) if group_order is None else group_order
    return [(label, buckets[label]) for label in order]


def assert_equivalent(path, group_order=None, block_chars=7):
    default, small_blocks, rows_only, split, cached, piped = _readings(path, group_order, block_chars)
    assert default == rows_only
    assert small_blocks == rows_only
    assert split == rows_only
    assert cached == rows_only
    assert piped == rows_only
    if default[0] != "error":
        got = [(label, list(memoryview(raw).cast("d"))) for label, _, raw in default]
        assert got == _dictreader_groups(path, group_order)
    return default


def _write(tmp_path, name, content):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(content)
    return str(path)


EDGE_FILES = {
    "plain": "group,value\na,1\nb,2\na,3\nb,5\n",
    "bom_padded_underscore": "﻿group,value\n  a ,1_000\na, 2.5 \nb,\t3e2\nb,-0.0\n",
    "crlf": "group,value\r\na,1\r\na,2.5\r\nb,3\r\nb,7\r\n",
    "lone_cr": "group,value\ra,1\ra,2.5\rb,3\rb,7\r",
    "lone_cr_after_header": "group,value\ra,1\na,2.5\nb,3\nb,7\n",
    "blank_lines": "group,value\n\na,1\na,2\n\n\nb,3\nb,7\n\n",
    "no_final_newline": "group,value\na,1\na,2\nb,3\nb,7",
    "quoted": 'group,value\n"a,x",1\n"a,x",2\nb,"3"\nb,7\n',
    "quoted_newline": 'group,value\n"a\nx",1\n"a\nx",2\nb,"3"\nb,7\n',
    "extra_columns": "group,value,note\na,1,x\na,2,y\nb,3,z\nb,7,w\n",
    "ragged_rows": "group,value,note\na,1\na,2,x,y\nb,3,z\nb,7,w\n",
    "swapped_columns": "value,group\n1,a\n2,a\n3,b\n7,b\n",
    "repeated_column": "group,value,value\na,1,5\na,2,6\nb,3,8\nb,7,1\n",
    "unicode_labels": "group,value\nα,1\nβ γ,2\nα,3\nβ γ,4\n",
    "nul_in_label": "group,value\na\x00,1\na\x00,2\nb,3\nb,7\n",
    "bad_value": "group,value\na,1\na,oops\nb,3\nb,7\n",
    "bad_value_after_blank_lines": "group,value\na,1\n\n\nb,oops\n",
    "empty_value": "group,value\na,1\na,\nb,3\nb,7\n",
    "short_row": "group,value\na\nb,2\n",
    "empty_label": "group,value\na,1\n ,2\nb,3\nb,7\n",
    "whitespace_line": "group,value\na,1\n   \nb,3\n",
    "nan": "group,value\na,1\na,nan\nb,3\nb,7\n",
    "inf_padded": "group,value\na,1\na, -inf \nb,3\nb,7\n",
    "missing_column": "group,weight\na,1\nb,2\n",
    "header_only": "group,value\n",
    "empty_file": "",
    "huge_field": "group,value\n" + "a" * 200_000 + ",1\nb,2\n",
    "huge_header_field": "group,value," + "x" * 200_000 + "\na,1\nb,2\n",
    "not_utf8": b"group,value\na,1\n\xe9,2\nb,3\n",
    "bad_value_then_not_utf8": b"group,value\na,1\na,oops\nb,3\n\xe9,2\n",
    "bad_value_far_before_not_utf8": b"group,value\na,1\na,oops\n" + b"".join(b"b,%d\n" % i for i in range(5000)) + b"\xe9,2\n",
}


@pytest.mark.parametrize("name", sorted(EDGE_FILES))
@pytest.mark.parametrize("block_chars", [1, 7, 64])
def test_edge_files_read_the_same_on_every_path(tmp_path, name, block_chars):
    assert_equivalent(_write(tmp_path, f"{name}.csv", EDGE_FILES[name]), block_chars=block_chars)


def test_group_order_is_applied_on_every_path(tmp_path):
    path = _write(tmp_path, "order.csv", "group,value\nb,1\na,2\nc,3\na,4\nb,5\nc,6\n")
    default = assert_equivalent(path, group_order=["c", "a", "b"])
    assert [label for label, _, _ in default] == ["c", "a", "b"]
    assert assert_equivalent(path, group_order=["a", "b"])[0] == "error"


@pytest.mark.parametrize(
    "name, message",
    [
        ("bad_value_after_blank_lines", ":5: bad value 'oops'"),
        ("nan", ":3: non-finite value 'nan'"),
        ("inf_padded", ":3: non-finite value '-inf'"),
        ("empty_label", ":3: empty group label"),
        ("short_row", ":2: bad value ''"),
        ("huge_field", ":2: field larger than field limit"),
        ("huge_header_field", ":1: field larger than field limit"),
        ("not_utf8", "is not UTF-8 text"),
        ("bad_value_then_not_utf8", ":3: bad value 'oops'"),
        ("bad_value_far_before_not_utf8", ":3: bad value 'oops'"),
    ],
)
def test_errors_cite_the_physical_line(tmp_path, name, message):
    path = _write(tmp_path, f"{name}.csv", EDGE_FILES[name])
    outcome = _outcome(path)
    assert outcome[0] == "error" and message in outcome[2]


@pytest.mark.parametrize("name", ["bad_value_then_not_utf8", "bad_value_far_before_not_utf8"])
@pytest.mark.parametrize("block_bytes", [1, 7, 64, 1 << 12, 1 << 20])
def test_the_first_bad_line_is_reported_whatever_the_block_size(tmp_path, monkeypatch, name, block_bytes):
    # A bad row comes before a byte that is not UTF-8: the row's error is the one reported.
    path = _write(tmp_path, f"{name}.csv", EDGE_FILES[name])
    monkeypatch.setattr(cli, "_BLOCK_BYTES", block_bytes)
    for outcome in (_outcome(path), _piped_outcome(path)):
        assert outcome[0] == "error" and outcome[2].endswith(":3: bad value 'oops'")


def _padded_label(i):
    # Blocks of 1000 characters hold 46-51 of these lines: labels are padded
    # on the left in the first two blocks and on the right from the third
    # on, and one label first appears in block 98 of 114.
    if i == 4321:
        return "late"
    return f" g{i % 7}" if i < 100 else f"g{i % 7} "


def test_plain_files_never_take_the_row_loop(tmp_path, monkeypatch):
    lines = ["group,value"] + [f"{_padded_label(i)},{(i * 0.37) ** 3!r}" for i in range(5000)]
    path = _write(tmp_path, "plain.csv", "\r\n".join(lines) + "\r\n")
    monkeypatch.setattr(cli, "_BLOCK_BYTES", 1000)

    def no_row_loop(*args):
        raise AssertionError("a plain file fell back to the row loop")

    monkeypatch.setattr(cli, "_read_rows", no_row_loop)
    sample = cli._read_dataset(path)
    assert sample.labels == (*(f"g{i}" for i in range(7)), "late")
    assert sample.total == 5000
    assert [(label, arr.tolist()) for label, arr in sample.groups] == _dictreader_groups(path)


def _spy_rows(monkeypatch, tmp_path):
    """Record each call of the row loop, in this process or a worker, as (pid, first byte, end, lines before, lines).

    The bytes are those of the block handed to the row loop, and the lines
    are counted from the start of the reader's part.  Returns a function
    that gives the records so far.
    """
    log = tmp_path / "rows.log"
    read_rows = cli._read_rows

    def spy(source, text, *rest):
        start, before = source.at - len(text.encode()), source.line
        parsed = read_rows(source, text, *rest)
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {start} {source.at} {before} {source.line - before}\n")
        return parsed

    monkeypatch.setattr(cli, "_read_rows", spy)
    return lambda: [tuple(map(int, line.split())) for line in log.read_text().splitlines()] if log.exists() else []


def _block_around(content, offset, block_bytes, lo=None):
    """The (first byte, end) of the block holding ``offset`` when a part from ``lo`` to the end is read in blocks.

    By default the part is the whole file, whose first block is its header line.
    """
    end = content.index(b"\n") + 1 if lo is None else lo
    while end <= offset:
        lo, end = end, content.index(b"\n", end + block_bytes - 1) + 1
    return lo, end


def test_only_a_block_that_is_not_plain_takes_the_row_loop(tmp_path, monkeypatch):
    lines = ["group,value"] + [f"g{i % 2},{i}" for i in range(400)]
    lines[300] = '"g0",1.5'
    content = ("\n".join(lines) + "\n").encode()
    path = _write(tmp_path, "late_quote.csv", content)
    monkeypatch.setattr(cli, "_BLOCK_BYTES", 512)
    rows = _spy_rows(monkeypatch, tmp_path)
    outcome = _outcome(path)
    start, end = _block_around(content, content.index(b'"'), 512)
    assert 0 < start and end < len(content)  # plain blocks come before and after it
    # the row loop saw that block's lines and no others: the blocks after it were parsed in bulk
    assert rows() == [(os.getpid(), start, end, content[:start].count(b"\n"), content[start:end].count(b"\n"))]
    monkeypatch.undo()
    assert outcome == assert_equivalent(path)


def test_a_plain_fifo_never_takes_the_row_loop(tmp_path, monkeypatch):
    lines = ["group,value"] + [f"{_padded_label(i)},{(i * 0.37) ** 3!r}" for i in range(5000)]
    content = "\r\n".join(lines) + "\r\n"
    path = _write(tmp_path, "plain.csv", content)
    fifo = str(tmp_path / "plain.fifo")
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: _write(tmp_path, "plain.fifo", content))
    writer.start()
    monkeypatch.setattr(cli, "_BLOCK_BYTES", 1000)

    def no_row_loop(*args):
        raise AssertionError("a plain pipe fell back to the row loop")

    monkeypatch.setattr(cli, "_read_rows", no_row_loop)
    try:
        sample = cli._read_dataset(fifo)
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive() and sample.total == 5000
    assert [(label, arr.tolist()) for label, arr in sample.groups] == _dictreader_groups(path)


def test_a_bad_value_after_a_quoted_line_break_cites_its_physical_line(tmp_path, monkeypatch):
    # The quoted label spans lines 101-102, so the row written as lines[350] is on physical line 352.
    lines = ["group,value"] + [f"g{i % 2},{i}" for i in range(400)]
    lines[100], lines[350] = '"a\nx",1', "g1,oops"
    content = ("\n".join(lines) + "\n").encode()
    path = _write(tmp_path, "quote_then_bad.csv", content)
    monkeypatch.setattr(cli, "_BLOCK_BYTES", 512)
    rows = _spy_rows(monkeypatch, tmp_path)
    outcome = _outcome(path)
    assert outcome[0] == "error" and outcome[2].endswith(":352: bad value 'oops'")
    first, last = rows()[0], _block_around(content, content.index(b"oops"), 512)
    assert first[1:3] == _block_around(content, content.index(b'"'), 512) and first[2] < last[0]  # two blocks apart
    monkeypatch.undo()
    assert outcome == assert_equivalent(path)
    assert outcome == assert_equivalent(path, block_chars=300)


def _first_break_end(data, start):
    """``cli._break_end``, one byte at a time."""
    for i in range(start, len(data)):
        if data[i : i + 1] == b"\n" or (data[i : i + 1] == b"\r" and data[i + 1 : i + 2] not in (b"\n", b"")):
            return i + 1
    return 0  # a carriage return that ends the data may yet be a CRLF's


def test_a_line_break_is_a_line_feed_or_a_lone_carriage_return():
    for n in range(7):
        for data in map(bytes, itertools.product(b"\r\nx", repeat=n)):
            for start in range(n + 1):
                assert cli._break_end(data, start) == _first_break_end(data, start), (data, start)


@pytest.mark.parametrize("source", ["file", "pipe"])
def test_lines_that_end_in_a_lone_carriage_return_are_read_in_blocks(tmp_path, monkeypatch, source):
    lines = ["group,value"] + [f"g{i % 3},{(i * 0.37) ** 3!r}" for i in range(2000)]
    plain = _write(tmp_path, "lf.csv", "\n".join(lines) + "\n")
    content = ("\r".join(lines) + "\r").encode()
    path = _write(tmp_path, "cr.csv", content)
    monkeypatch.setattr(cli, "_BLOCK_BYTES", 512)
    rows = _spy_rows(monkeypatch, tmp_path)
    outcome = _outcome(path) if source == "file" else _piped_outcome(path)
    # every block has a carriage return, so each goes to the row loop: one block and at most one line more each
    longest = max(map(len, content.split(b"\r"))) + 1
    assert len(rows()) >= len(content) // (512 + longest) and all(end - start <= 512 + longest for _, start, end, _, _ in rows())
    monkeypatch.undo()
    assert outcome == _outcome(plain)


# ---------------------------------------------------------------------------
# the split reader


def _spy_parts(monkeypatch):
    """Record each split read as (whether each worker gave its value, how many parts this process read itself)."""
    reads = []
    forked, read, parent = _parts.forked, cli._Reader.read, os.getpid()

    @contextlib.contextmanager
    def spy_forked(jobs):
        with forked(jobs) as results:
            values = list(results)
            reads.append(([value is not None for value in values], 0))
            yield iter(values)

    def spy_read(self, *args):
        if reads and os.getpid() == parent:
            reads[-1] = (reads[-1][0], reads[-1][1] + 1)
        return read(self, *args)

    monkeypatch.setattr(_parts, "forked", spy_forked)
    monkeypatch.setattr(cli._Reader, "read", spy_read)
    return reads


def _rows_file(tmp_path, name, labels, newline="\n"):
    lines = ["group,value"] + [f"{label},{(i * 0.37) ** 3!r}" for i, label in enumerate(labels)]
    return _write(tmp_path, name, newline.join(lines) + newline)


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_label_first_seen_in_the_last_part_keeps_its_place(tmp_path, monkeypatch, cpus):
    # The parts meet their labels in different orders; the file meets them as b, a, c, late.
    labels = ["b", "a"] * 40 + ["c", "a", "b"] * 20 + ["late", "c"]
    path = _rows_file(tmp_path, "late.csv", labels)
    reads = _spy_parts(monkeypatch)
    _force_split(monkeypatch, cpus)
    split = _outcome(path)
    assert reads == [([True] * (cpus - 1), 1)]
    assert [label for label, _, _ in split] == ["b", "a", "c", "late"]
    monkeypatch.undo()
    assert split == assert_equivalent(path)


def test_group_order_applies_to_the_split_reader(tmp_path, monkeypatch):
    path = _rows_file(tmp_path, "order.csv", ["b", "a", "c"] * 30)
    reads = _spy_parts(monkeypatch)
    _force_split(monkeypatch)
    split = _outcome(path, ["c", "a", "b"])
    assert reads == [([True, True], 1)] and [label for label, _, _ in split] == ["c", "a", "b"]
    assert _outcome(path, ["a", "b"])[0] == "error"
    monkeypatch.undo()
    assert split == assert_equivalent(path, group_order=["c", "a", "b"])


def _middle_cut_target(content):
    """Where the split reader, cutting in two, starts looking for a line break."""
    return len(content) // 2


@pytest.mark.parametrize(
    "middle, hit",
    [("\r\n", "\r"), ("\r\n", "\n"), ('"a\nx",1\n', "\n"), ('"a\nx",1\n', '"')],
    ids=["crlf-cut-at-cr", "crlf-cut-at-lf", "quoted-newline-cut-inside", "quoted-newline-cut-at-quote"],
)
def test_a_cut_near_a_line_break_pair_or_a_quoted_newline(tmp_path, middle, hit):
    # Pad the last label until the cut target falls on the wanted character.
    for pad in range(64):
        head = ["group,value", "a,1"] + [f"b,{i}" for i in range(20)]
        tail = [f"a,{i}" for i in range(20)] + [f"{'a' * (pad + 1)},1"]
        if middle == "\r\n":
            content = ("\r\n".join(head + tail) + "\r\n").encode()
        else:
            content = ("\n".join(head) + "\n" + middle + "\n".join(tail) + "\n").encode()
        target = _middle_cut_target(content)
        if content[target : target + 1] == hit.encode() and (middle == "\r\n" or hit == '"' or b'"a' in content[:target]):
            break
    else:
        pytest.fail("no padding puts the cut target on the wanted character")
    path = _write(tmp_path, "cut.csv", content)
    with pytest.MonkeyPatch.context() as mp:
        _force_split(mp, cpus=2)
        assert _outcome(path) == assert_equivalent(path)


@pytest.mark.parametrize(
    "bad, message",
    [(b"b,oops", ":2990: bad value 'oops'"), (b"\xe9,2", "is not UTF-8 text (invalid continuation byte)")],
    ids=["bad-value", "not-utf8"],
)
def test_an_error_in_the_last_part_is_the_serial_error(tmp_path, monkeypatch, bad, message):
    lines = [b"group,value"] + [f"g{i % 3},{i}".encode() for i in range(3000)]
    lines[2989] = bad
    path = _write(tmp_path, "late_error.csv", b"\n".join(lines) + b"\n")
    reads = _spy_parts(monkeypatch)
    _force_split(monkeypatch)
    split = _outcome(path)
    assert reads == [([True, False], 2)]  # the last worker raises, and this process reads that part itself
    assert split[0] == "error" and message in split[2]
    monkeypatch.undo()
    assert split == assert_equivalent(path)


def _in_workers(parse, fault):
    """``parse`` in this process; in a forked worker, ``fault()`` instead."""
    parent = os.getpid()

    def parse_part(*args):
        return parse(*args) if os.getpid() == parent else fault()

    return parse_part


def _raise():
    raise RuntimeError("a worker fails")


@pytest.mark.parametrize("fault", [_raise, truncated_value], ids=["parser-raises", "stream-ends-early"])
def test_a_failing_worker_gives_the_serial_result(tmp_path, monkeypatch, capfd, fault):
    path = _rows_file(tmp_path, "plain.csv", ["a", "b", "c"] * 50)
    serial = _outcome(path)
    monkeypatch.setattr(cli._Reader, "read", _in_workers(cli._Reader.read, fault))
    reads = _spy_parts(monkeypatch)
    _force_split(monkeypatch)
    assert _outcome(path) == serial
    assert reads == [([False, False], 3)]
    assert capfd.readouterr() == ("", "")


def test_a_split_read_sends_only_the_quoted_block_to_the_row_loop(tmp_path, monkeypatch):
    # Three parts; the last holds a quoted label.  Its worker hands that
    # block alone to the row loop and parses the others in bulk, and this
    # process uses every worker's rows.
    lines = ["group,value"] + [f"g{i % 3},{i}" for i in range(3000)]
    lines[2500] = '"g1",2499'
    content = ("\n".join(lines) + "\n").encode()
    path = _write(tmp_path, "late_quote.csv", content)
    last_cut = content.index(b"\n", len(content) * 2 // 3) + 1
    one_process = _outcome(path)
    reads = _spy_parts(monkeypatch)
    rows = _spy_rows(monkeypatch, tmp_path)
    _force_split(monkeypatch)
    monkeypatch.setattr(cli, "_BLOCK_BYTES", 1000)
    split = _outcome(path)
    assert reads == [([True, True], 1)]
    start, end = _block_around(content, content.index(b'"'), 1000, last_cut)
    assert last_cut < start and end < len(content)
    (pid, *seen), = rows()
    assert pid != os.getpid() and seen == [start, end, content[last_cut:start].count(b"\n"), content[start:end].count(b"\n")]
    assert split == one_process


def test_a_quoted_field_across_the_cut_is_read_by_this_process(tmp_path, monkeypatch):
    # A quoted label of about 4 KB of line feeds lies across the middle cut.
    # The worker starts inside the field and misparses it, so this process
    # discards that part and reads it itself.
    rows = [f"a,{i}" for i in range(400)]
    content = ("group,value\n" + "\n".join(rows) + '\n"late' + "\n" * 4000 + 'label",1\n' + "\n".join(rows) + "\n").encode()
    assert content.index(b'"') < _middle_cut_target(content) < content.rindex(b'"')
    path = _write(tmp_path, "long_quote.csv", content)
    reads = _spy_parts(monkeypatch)
    _force_split(monkeypatch, cpus=2)
    monkeypatch.setattr(cli, "_BLOCK_BYTES", 256)
    split = _outcome(path)
    assert reads == [([True], 2)]
    monkeypatch.undo()
    assert split == assert_equivalent(path)


def _no_fork():
    raise AssertionError("a process was started")


def test_a_fifo_is_read_in_one_process(tmp_path, monkeypatch):
    path = str(tmp_path / "data.fifo")
    os.mkfifo(path)
    content = EDGE_FILES["plain"]  # a plain file that the split reader would cut into parts
    writer = threading.Thread(target=lambda: _write(tmp_path, "data.fifo", content))
    writer.start()
    _force_split(monkeypatch)
    monkeypatch.setattr(os, "fork", _no_fork)
    try:
        outcome = _outcome(path)
    finally:
        writer.join()
    assert [(label, list(memoryview(raw).cast("d"))) for label, _, raw in outcome] == [("a", [1.0, 3.0]), ("b", [2.0, 5.0])]


def test_a_file_below_the_part_size_is_read_in_one_process(tmp_path, monkeypatch):
    path = _rows_file(tmp_path, "small.csv", ["a", "b"] * 1000)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 64)
    monkeypatch.setattr(os, "fork", _no_fork)
    assert cli._read_dataset(path).sizes == (1000, 1000)


def test_a_small_file_imports_no_process_machinery(tmp_path):
    path = _rows_file(tmp_path, "small.csv", ["a", "b"] * 1000)
    code = (
        "import sys; from vartests import cli; cli._read_dataset(sys.argv[1]); "
        "print(sorted({'multiprocessing', 'concurrent.futures', 'vartests._parts'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code, path], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "[]\n"


# ---------------------------------------------------------------------------
# generated datasets

_label = st.text(alphabet="abXY09_-é", min_size=1, max_size=4)
_pad = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _value_text(draw):
    kind = draw(st.sampled_from(["repr", "scientific", "general", "underscore"]))
    if kind == "underscore":
        text = f"{draw(st.integers(-10**7, 10**7)):_}"
    else:
        x = draw(st.floats(allow_nan=False, allow_infinity=False))
        text = {"repr": repr, "scientific": "{:.12e}".format, "general": "{:g}".format}[kind](x)
    return draw(_pad) + text + draw(_pad)


@st.composite
def _dataset(draw):
    pool = draw(st.lists(_label, min_size=2, max_size=5, unique=True))
    rows = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), _pad, _pad, _value_text()),
            min_size=1,
            max_size=40,
        )
    )
    lines = [f"{left}{label}{right},{value}" for label, left, right, value in rows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(lines) - 1))
        bad = draw(st.sampled_from(["oops", "", "nan", "-inf", '"1.5"', " ", "1,2", "0x10"]))
        lines[at] = f"{pool[0]},{bad}"
    header = draw(st.sampled_from(["group,value", "﻿group,value"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    tail = newline if draw(st.booleans()) else ""
    return newline.join([header] + lines) + tail


@settings(max_examples=150)
@given(content=_dataset(), block_chars=st.integers(1, 200))
def test_generated_datasets_read_the_same_on_every_path(content, block_chars):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(content)
        assert_equivalent(path, block_chars=block_chars)
