"""Work in parts on forked workers: a simulation's chunks, and a large plain dataset file.

``forked`` runs each job in a forked worker and gives back the values the
jobs return, pickled through a pipe; it is the only way a worker talks to
its parent.  For a file, ``cli`` decides whether it is worth splitting and
parses each block of lines; ``read`` cuts the data bytes at line feeds,
parses the first part here and every other part in a worker, and joins
the parts' plain blocks up to the first block that is not plain, from
which the caller reads on.  The module is imported only to fork.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import signal
from typing import Any, Callable, Iterable, Iterator

import numpy as np

Columns = tuple[np.ndarray, np.ndarray]  # each row's group code and value
# parse_block(text, codes, labels): a block of lines as columns, or None if
# it is not plain; ``codes`` and ``labels`` are the part's own code dicts.
BlockParser = Callable[[str, dict, dict], "Columns | None"]


@contextlib.contextmanager
def forked(jobs: Iterable[Callable[[], Any]]) -> Iterator[Iterator[Any]]:
    """Run each job in a forked worker; yields an iterator over the values they return, in job order.

    Each value is pickled into a pipe.  A job that did not start (no
    ``fork``, or no process to spare), raised, exited early or wrote a
    truncated stream gives None.  Leaving the block closes the pipes, then
    kills and reaps the workers.
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
                    value = job()
                    with open(write_end, "wb") as out:
                        pickle.dump(value, out, protocol=pickle.HIGHEST_PROTOCOL)
                finally:  # no traceback, and none of the buffers shared with the parent flushed
                    os._exit(0)
            os.close(write_end)  # so that a worker's death, or none started, ends its stream
            workers.append((pid, open(read_end, "rb")))
        yield (_loaded(pipe) for _, pipe in workers)
    finally:
        for pid, pipe in workers:
            pipe.close()
            if pid > 0:
                os.kill(pid, signal.SIGKILL)  # a finished worker has nothing more to give
                os.waitpid(pid, 0)


def _loaded(pipe) -> Any:
    """The value pickled into ``pipe``, or None if the stream ends before it does."""
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        return None


def read(
    fd: int, start: int, stop: int, count: int, block_bytes: int, parse_block: BlockParser
) -> tuple[list[str], list[Columns], int]:
    """The plain lines in bytes ``start:stop`` of a file, up to the first block that is not.

    Gives the labels, the blocks of (codes, values), and the offset where
    they stop: ``stop``, or the start of the first block that is not plain
    (or not UTF-8).  The bytes are cut at line feeds into at most ``count``
    parts.  This process parses the first part and a forked worker each
    other one, in blocks of about ``block_bytes`` that end at a line feed;
    each part codes its labels in its own order of first appearance, and a
    worker's codes are remapped here to the order over the whole range.  A
    worker that fails or does not start stops its part at its first byte.
    """
    cuts = sorted({start, stop, *(_line_end(fd, start + (stop - start) * i // count, stop) for i in range(1, count))})
    jobs = (functools.partial(_parse_part, fd, lo, hi, block_bytes, parse_block) for lo, hi in zip(cuts[1:], cuts[2:]))
    with forked(jobs) as results:
        parts = [_parse_part(fd, cuts[0], cuts[1], block_bytes, parse_block), *results]
    labels, blocks, resume_at = parts[0]  # the first part's codes are already in file order
    order = {label: code for code, label in enumerate(labels)}
    for lo, part in zip(cuts[1:], parts[1:]):
        if resume_at < lo:  # the part before stopped early
            break
        part_labels, part_blocks, resume_at = part or ([], [], lo)
        remap = np.array([order.setdefault(label, len(order)) for label in part_labels], dtype=np.uint32)
        for codes, _ in part_blocks:
            codes[:] = remap[codes]
        blocks += part_blocks
    return list(order), blocks, resume_at


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
) -> tuple[list[str], list[Columns], int]:
    """The plain blocks in bytes ``lo:hi`` as labels and (codes, values), and the offset where they stop.

    That offset is ``hi``, or the start of the first block that is not plain or not UTF-8.
    """
    codes: dict[str, int] = {}
    labels: dict[str, int] = {}
    blocks = []
    while lo < hi:
        end = _line_end(fd, min(lo + block_bytes, hi) - 1, hi)
        try:
            parsed = parse_block(os.pread(fd, end - lo, lo).decode("utf-8"), codes, labels)
        except UnicodeDecodeError:
            parsed = None
        if parsed is None:
            break
        blocks.append(parsed)
        lo = end
    return list(labels), blocks, lo
