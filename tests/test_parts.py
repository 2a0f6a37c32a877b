"""``_parts.forked``: each job's value comes back from its forked worker, in job order, or None."""

import os

import pytest

from vartests import _parts


class ExitWhilePickled:
    """A value whose pickling ends the worker."""

    def __reduce__(self):
        os._exit(0)


def truncated_value():
    """A job's value that its worker dies while writing; past a pickle frame, so part of it reaches the pipe."""
    return b"x" * (1 << 20), ExitWhilePickled()


def _raise():
    raise RuntimeError("a job fails")


def _leave():
    os._exit(0)


def test_values_come_back_in_job_order_and_none_for_a_failed_job(capfd):
    jobs = [lambda: "first", _raise, _leave, truncated_value, lambda: {"last": [1.5, None]}]
    with _parts.forked(jobs) as results:
        assert list(results) == ["first", None, None, None, {"last": [1.5, None]}]
    assert capfd.readouterr() == ("", "")


def test_a_job_that_does_not_start_gives_none(monkeypatch):
    def no_fork():
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    with _parts.forked([lambda: 1, lambda: 2]) as results:
        assert list(results) == [None, None]


def test_leaving_the_block_reaps_every_worker():
    pids = []
    real_fork = os.fork

    def counted_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", counted_fork)
        with _parts.forked([lambda: 1, lambda: os.pause()]) as results:
            assert next(results) == 1  # the second worker is still waiting
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
