"""A large plain dataset file read in parts, one forked process per part.

``cli`` decides whether a file is worth splitting and parses each block
of lines; this module cuts the file's data bytes at line feeds, parses
the first part in the calling process and every other part in a forked
worker, and joins the parts' columns.  It is imported only to split a
file, so that no other command loads it or ``multiprocessing``.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

Columns = tuple[np.ndarray, np.ndarray]  # each row's group code and value
# parse_block(text, codes, labels): a block of lines as columns, or None if
# it is not plain; ``codes`` and ``labels`` are the part's own code dicts.
BlockParser = Callable[[str, dict, dict], "Columns | None"]


def read(
    fd: int, start: int, stop: int, count: int, block_bytes: int, parse_block: BlockParser
) -> tuple[list[str], np.ndarray, np.ndarray] | None:
    """The labels, codes and values of the lines in bytes ``start:stop`` of a file, or None to read it serially.

    The bytes are cut at line feeds into at most ``count`` parts.  This
    process parses the first part and a forked worker each other one, in
    blocks of about ``block_bytes`` that end at a line feed; each part
    codes its labels in its own order of first appearance, and the codes
    are remapped here to the order over the whole range.  A part that is
    not plain or not UTF-8, a worker that fails and a platform without
    ``fork`` all give None.
    """
    cuts = sorted({start, stop, *(_line_end(fd, start + (stop - start) * i // count, stop) for i in range(1, count))})
    context = _fork_context()
    if context is None:
        return None
    workers, joined = [], None
    try:
        for lo, hi in zip(cuts[1:], cuts[2:]):
            read_end, write_end = os.pipe()
            try:
                worker = context.Process(target=_worker, args=(fd, lo, hi, block_bytes, parse_block, write_end))
                worker.start()
            except OSError:  # no process to spare
                os.close(read_end)
                return None
            finally:
                os.close(write_end)  # so that a worker's death ends its stream
            workers.append((worker, open(read_end, "rb", buffering=0)))
        mine = _parse_part(fd, cuts[0], cuts[1], block_bytes, parse_block)
        if mine is not None:
            joined = _join(mine, [pipe for _, pipe in workers])
        return joined
    finally:
        for worker, pipe in workers:
            pipe.close()
            if joined is None:  # the serial reader starts over: stop the parts still being parsed
                worker.kill()
            worker.join()


def _fork_context():
    """multiprocessing's fork context, or None where the platform cannot fork."""
    import multiprocessing  # imported here: most reads never split a file

    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def _line_end(fd: int, offset: int, stop: int) -> int:
    """The offset just past the first line feed at or after ``offset``, or ``stop`` if none comes before it."""
    while offset < stop:
        window = os.pread(fd, min(1 << 12, stop - offset), offset)
        if not window:
            break
        found = window.find(b"\n")
        if found >= 0:
            return offset + found + 1
        offset += len(window)
    return stop


def _parse_part(
    fd: int, lo: int, hi: int, block_bytes: int, parse_block: BlockParser
) -> tuple[list[str], list[Columns]] | None:
    """The lines in bytes ``lo:hi`` as labels and blocks of (codes, values), or None if any is not plain."""
    codes: dict[str, int] = {}
    labels: dict[str, int] = {}
    blocks = []
    while lo < hi:
        end = _line_end(fd, min(lo + block_bytes, hi) - 1, hi)
        try:
            text = os.pread(fd, end - lo, lo).decode("utf-8")
        except UnicodeDecodeError:
            return None
        parsed = parse_block(text, codes, labels)
        if parsed is None:
            return None
        blocks.append(parsed)
        lo = end
    return list(labels), blocks


def _worker(fd: int, lo: int, hi: int, block_bytes: int, parse_block: BlockParser, write_end: int) -> None:
    """Parse one part in a forked process and write it to ``write_end``: nothing at all if it is not plain.

    The stream is the row count, the byte length of the labels, the labels
    joined by newlines (a plain label holds none), then every code and every
    value.  The worker leaves by ``os._exit``: it prints no traceback and
    flushes none of the buffers it shares with the parent.
    """
    try:
        parsed = _parse_part(fd, lo, hi, block_bytes, parse_block)
        if parsed is not None:
            labels, blocks = parsed
            names = "\n".join(labels).encode("utf-8")
            rows = sum(c.size for c, _ in blocks)
            with open(write_end, "wb", closefd=False) as out:
                out.write(rows.to_bytes(8, "little") + len(names).to_bytes(8, "little") + names)
                for column in (0, 1):
                    for block in blocks:
                        out.write(block[column])
    finally:
        os._exit(0)


def _join(mine: tuple[list[str], list[Columns]], pipes: list) -> tuple[list[str], np.ndarray, np.ndarray] | None:
    """This process's part and the workers' streams as one set of columns, or None if a stream ends early.

    Each column is written once, into arrays of the final length; a
    worker's codes are then remapped to the labels' order over the file.
    """
    own_labels, blocks = mine
    heads = []
    for pipe in pipes:
        head = _read_exactly(pipe, bytearray(16))
        names = None if head is None else _read_exactly(pipe, bytearray(int.from_bytes(head[8:], "little")))
        if names is None:
            return None
        heads.append((int.from_bytes(head[:8], "little"), names.decode("utf-8").split("\n")))
    own_rows = sum(c.size for c, _ in blocks)
    codes = np.empty(own_rows + sum(rows for rows, _ in heads), dtype=np.uint32)
    values = np.empty(codes.size)
    np.concatenate([c for c, _ in blocks], out=codes[:own_rows])
    np.concatenate([v for _, v in blocks], out=values[:own_rows])
    labels = {label: code for code, label in enumerate(own_labels)}
    lo = own_rows
    for pipe, (rows, part_labels) in zip(pipes, heads):
        part_codes, part_values = codes[lo : lo + rows], values[lo : lo + rows]
        for column in (part_codes, part_values):
            if _read_exactly(pipe, memoryview(column).cast("B")) is None:
                return None
        remap = np.array([labels.setdefault(label, len(labels)) for label in part_labels], dtype=np.uint32)
        part_codes[:] = remap[part_codes]
        lo += rows
    return list(labels), codes, values


def _read_exactly(pipe, buffer):
    """``buffer`` filled from ``pipe``, or None if the stream ends first."""
    view = memoryview(buffer)
    while view.nbytes:
        got = pipe.readinto(view)
        if not got:
            return None
        view = view[got:]
    return buffer
