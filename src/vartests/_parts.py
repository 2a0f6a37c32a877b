"""Work in parts on forked workers: a simulation's chunks, and a large plain dataset file.

``forked`` starts the workers.  For a file, ``cli`` decides whether it is
worth splitting and parses each block of lines; ``read`` cuts the data
bytes at line feeds, parses the first part here and every other part in
a worker, and joins the parts' columns.  The module is imported only to fork.
"""

from __future__ import annotations

import contextlib
import functools
import os
import signal
from typing import Callable, Iterable, Iterator

import numpy as np

Columns = tuple[np.ndarray, np.ndarray]  # each row's group code and value
# parse_block(text, codes, labels): a block of lines as columns, or None if
# it is not plain; ``codes`` and ``labels`` are the part's own code dicts.
BlockParser = Callable[[str, dict, dict], "Columns | None"]


@contextlib.contextmanager
def forked(jobs: Iterable[Callable[[int], None]]) -> Iterator[list]:
    """Run each ``job(write_end)`` in a forked worker; yields the read ends of their pipes, None where none started.

    No job starts without ``fork``.  Leaving the block closes the pipes, then kills and reaps the workers.
    """
    workers = []
    try:
        for job in jobs:
            read_end, write_end = os.pipe()
            pid = -1
            with contextlib.suppress(OSError):  # no process to spare
                pid = os.fork() if hasattr(os, "fork") else -1
            if pid == 0:
                try:
                    job(write_end)
                finally:  # no traceback, and none of the buffers shared with the parent flushed
                    os._exit(0)
            os.close(write_end)  # so that a worker's death ends its stream
            workers.append((pid, open(read_end, "rb", buffering=0)))
        yield [pipe if pid > 0 else None for pid, pipe in workers]
    finally:
        for pid, pipe in workers:
            pipe.close()
            if pid > 0:
                os.kill(pid, signal.SIGKILL)  # a finished worker has nothing more to give
                os.waitpid(pid, 0)


def read(
    fd: int, start: int, stop: int, count: int, block_bytes: int, parse_block: BlockParser
) -> tuple[list[str], np.ndarray, np.ndarray] | None:
    """The labels, codes and values of the lines in bytes ``start:stop`` of a file, or None to read it serially.

    The bytes are cut at line feeds into at most ``count`` parts.  This
    process parses the first part and a forked worker each other one, in
    blocks of about ``block_bytes`` that end at a line feed; each part
    codes its labels in its own order of first appearance, and the codes
    are remapped here to the order over the whole range.  A part that is
    not plain or not UTF-8, a worker that fails or does not start, and a
    platform without ``fork`` all give None.
    """
    cuts = sorted({start, stop, *(_line_end(fd, start + (stop - start) * i // count, stop) for i in range(1, count))})
    jobs = (functools.partial(_worker, fd, lo, hi, block_bytes, parse_block) for lo, hi in zip(cuts[1:], cuts[2:]))
    with forked(jobs) as pipes:
        if None in pipes:
            return None
        mine = _parse_part(fd, cuts[0], cuts[1], block_bytes, parse_block)
        return None if mine is None else _join(mine, pipes)


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
    """Parse one part and write it to ``write_end``: nothing at all if it is not plain.

    The stream is the row count, the byte length of the labels, the labels
    joined by newlines (a plain label holds none), then every code and every
    value.
    """
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
