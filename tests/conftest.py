"""Shared pytest wiring: one Hypothesis profile, and the acceptance checklist printed after the run."""

from hypothesis import settings

# Every property suite draws the same examples on every run, so a failure
# can be checked again on another commit; a suite sets only max_examples.
settings.register_profile("vartests", derandomize=True, deadline=None)
settings.load_profile("vartests")

ACCEPTANCE_LOG: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="-")
    for line in ACCEPTANCE_LOG:
        terminalreporter.write_line(line)
