"""Dataset ingestion: the block reader against the csv row loop.

``cli._read_dataset`` parses plain blocks of a file in bulk and hands
anything else to the csv row loop.  Whatever path a file takes, the
groups must be byte-identical and every error must carry the same
message.  Three readings of each file are compared: the default reader,
the reader with tiny blocks (so block boundaries fall mid-file), and the
row loop alone.  Successful readings are also checked against a plain
``csv.DictReader`` loop with per-label buckets.
"""

import csv
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vartests import ValidationError, cli


def _outcome(path, group_order=None):
    try:
        sample = cli._read_dataset(path, group_order)
    except ValidationError as exc:
        return ("error", type(exc).__name__, str(exc))
    return [(label, arr.dtype.str, arr.tobytes()) for label, arr in sample.groups]


def _readings(path, group_order=None, block_chars=7):
    """(default reader, tiny blocks, row loop only) outcomes for one file."""
    default = _outcome(path, group_order)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_BLOCK_CHARS", block_chars)
        small_blocks = _outcome(path, group_order)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_parse_plain_block", lambda *args: None)
        rows_only = _outcome(path, group_order)
    return default, small_blocks, rows_only


def _dictreader_groups(path, group_order=None):
    buckets = {}
    with open(path, newline="", encoding="utf-8-sig") as handle:
        for row in csv.DictReader(handle):
            label = (row.get("group") or "").strip()
            buckets.setdefault(label, []).append(float((row.get("value") or "").strip()))
    order = list(buckets) if group_order is None else group_order
    return [(label, buckets[label]) for label in order]


def assert_equivalent(path, group_order=None, block_chars=7):
    default, small_blocks, rows_only = _readings(path, group_order, block_chars)
    assert default == rows_only
    assert small_blocks == rows_only
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
    "not_utf8": b"group,value\na,1\n\xe9,2\nb,3\n",
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
        ("not_utf8", "is not UTF-8 text"),
    ],
)
def test_errors_cite_the_physical_line(tmp_path, name, message):
    path = _write(tmp_path, f"{name}.csv", EDGE_FILES[name])
    outcome = _outcome(path)
    assert outcome[0] == "error" and message in outcome[2]


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
    monkeypatch.setattr(cli, "_BLOCK_CHARS", 1000)

    def no_row_loop(*args):
        raise AssertionError("a plain file fell back to the row loop")

    monkeypatch.setattr(cli, "_read_rows", no_row_loop)
    sample = cli._read_dataset(path)
    assert sample.labels == (*(f"g{i}" for i in range(7)), "late")
    assert sample.total == 5000
    assert [(label, arr.tolist()) for label, arr in sample.groups] == _dictreader_groups(path)


def test_only_the_rest_of_the_file_takes_the_row_loop(tmp_path, monkeypatch):
    lines = ["group,value"] + [f"g{i % 2},{i}" for i in range(400)]
    lines[300] = '"g0",1.5'
    path = _write(tmp_path, "late_quote.csv", "\n".join(lines) + "\n")
    monkeypatch.setattr(cli, "_BLOCK_CHARS", 512)
    seen = []
    row_loop = cli._read_rows

    def spy(rows, path, lines_before, *rest):
        seen.append(lines_before)
        return row_loop(rows, path, lines_before, *rest)

    monkeypatch.setattr(cli, "_read_rows", spy)
    outcome = _outcome(path)
    assert len(seen) == 1 and 0 < seen[0] < 300
    monkeypatch.undo()
    assert outcome == assert_equivalent(path)


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


@settings(max_examples=150, deadline=None)
@given(content=_dataset(), block_chars=st.integers(1, 200))
def test_generated_datasets_read_the_same_on_every_path(content, block_chars):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(content)
        assert_equivalent(path, block_chars=block_chars)
