"""Shared pytest wiring for the test suite."""

import contextlib
import importlib
import json
import pkgutil
import sys
import threading

import pytest

# the code object of every frame entered under tracing(): the package's
# import below, then the commands of command_trace
ENTERED = set()


@contextlib.contextmanager
def tracing():
    """Record each frame entered, in this thread and in threads started meanwhile."""

    def profile(frame, event, arg):
        if event == "call":
            ENTERED.add(frame.f_code)

    before = sys.getprofile(), threading.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        yield
    finally:
        sys.setprofile(before[0])
        threading.setprofile(before[1])


# the package loads here, before any test module imports it, so what runs
# only at import (the verify suite registry) counts as reached
with tracing():
    import revprime

    for info in pkgutil.iter_modules(revprime.__path__):
        importlib.import_module(f"revprime.{info.name}")

from revprime import cli  # noqa: E402
from revprime.arith import build_table  # noqa: E402
from revprime.verify import SUITES  # noqa: E402

# what the reachability gate traces besides the default verify: README's
# three census examples, calibrate, a --config run and two usage errors (an
# option the suite does not read, a flag no command has), each with the
# exit code it must give; {tmp} is the folder the outputs go to
TRACED = (
    (0, "census --g 10 --L 4,5 --q 1,3,9 --format csv --out {tmp}/census.csv"),
    (0, "census --g 2 --L 16 --q 7 --a 5 --format json --out {tmp}/census.json"),
    (0, "census --g 10 --L 4,5 --q 1,3,7,9 --format table --out {tmp}/census.txt"),
    (0, "calibrate --out {tmp}/calibration.json"),
    (0, "census --g 10 --L 3 --q 3 --config {tmp}/config.json --out {tmp}/config.csv"),
    (1, "verify vdc --limit 5"),
    (1, "verify vdc --x 1"),
)


@pytest.fixture(scope="session")
def primes():
    """Every prime up to 10^5, one sieve shared by the tests that read them."""
    return build_table(10**5)


@pytest.fixture(scope="session")
def command_trace(tmp_path_factory):
    """(folder, ENTERED) after the default 13-suite verify and TRACED ran traced.

    The verify writes default.jsonl in the folder, and TRACED's outputs
    land there too.
    """
    tmp = tmp_path_factory.mktemp("commands")
    (tmp / "config.json").write_text(json.dumps({"census_tolerance": 0.25}))
    runs = [["verify", *SUITES, "--threads", "1", "--out", str(tmp / "default.jsonl")]]
    runs += [[part.format(tmp=tmp) for part in line.split()] for _, line in TRACED]
    # a memo an earlier test filled would hide the call that fills it
    for info in pkgutil.iter_modules(revprime.__path__):
        for value in vars(sys.modules[f"revprime.{info.name}"]).values():
            getattr(value, "cache_clear", lambda: None)()
    with tracing():
        codes = [cli.main(argv) for argv in runs]
    assert codes == [0] + [code for code, _ in TRACED]
    return tmp, ENTERED


@pytest.fixture(scope="session")
def default_run(command_trace):
    """(text, {suite: (header, report lines)}) of one default 13-suite verify."""
    text = (command_trace[0] / "default.jsonl").read_text()
    lines, chunks = text.splitlines(), {}
    while lines:
        header = json.loads(lines[0])
        end = 1 + header["reports"]
        chunks[header["suite"]] = (header, lines[1:end])
        lines = lines[end:]
    return text, chunks


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
