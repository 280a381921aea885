"""Shared pytest wiring for the test suite."""

import sys

import pytest

from revprime.arith import build_table


@pytest.fixture(scope="session")
def table():
    """One sieve over [2, 10^5], shared by every test that reads a table."""
    return build_table(10**5)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance verdict lines after capture is torn down.

    Each acceptance test prints one pass/fail line, but pytest swallows
    stdout of passing tests.  The acceptance module records every line it
    prints; echoing them here keeps the one-line-per-criterion summary
    visible in a plain ``pytest -v`` run.
    """
    module = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    recorded = getattr(module, "RECORDED", None) if module else None
    if not recorded:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(recorded):
        terminalreporter.write_line(line)
