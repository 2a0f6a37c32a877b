"""Shared pytest wiring: one Hypothesis profile, a fresh dataset cache per test, and the acceptance checklist printed after the run."""

import pytest
from hypothesis import settings

# Every property suite draws the same examples on every run, so a failure
# can be checked again on another commit; a suite sets only max_examples.
settings.register_profile("vartests", derandomize=True, deadline=None)
settings.load_profile("vartests")

ACCEPTANCE_LOG: list[str] = []


@pytest.fixture(autouse=True)
def _fresh_dataset_cache(tmp_path_factory):
    """Every test, and every CLI process it starts, reads and writes its own empty dataset cache, never the user's.

    A patch of its own, so that a test's ``monkeypatch.undo()`` leaves it set.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="-")
    for line in ACCEPTANCE_LOG:
        terminalreporter.write_line(line)
