"""Run jobs on forked workers and give back the values they return.

``forked`` runs each job in a forked worker and gives back the value it
returns, pickled through a pipe; it is the only way a worker talks to its
parent.  A simulation's chunks and the parts of a large dataset file are
run this way.  The module is imported only to fork.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
from typing import Any, Callable, Iterable, Iterator


@contextlib.contextmanager
def forked(jobs: Iterable[Callable[[], Any]]) -> Iterator[Iterator[Any]]:
    """Run each job in a forked worker; yields an iterator over the values they return, in job order.

    Each value is pickled into a pipe.  A job that did not start (no
    ``fork``, or no process to spare), raised, exited early or wrote a
    truncated stream gives None.  Leaving the ``with`` statement closes the
    pipes, then kills and reaps the workers.
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
