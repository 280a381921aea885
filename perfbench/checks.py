"""Output checks behind the benchmark's failure count.

An op fails when a command raises, exits non-zero, or writes any record
that differs from the reference.  Census CSVs are compared on their data
rows (the config-hash comment and the column header are left out), and
the base-2, L=20 window is recounted here by string reversal of bin(p).
Verify output is compared on its report lines per suite, never on the
header lines, whose fields may grow.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

RECOUNT_G, RECOUNT_L, RECOUNT_MODULI = 2, 20, (3, 5, 7)


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def census_rows(text: str) -> tuple[list[str], list[str]]:
    """(column names, data rows) of a census CSV."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), lines[1:]


def string_reversal_counts() -> dict[tuple[int, int], int]:
    """(a, q) -> primes in [2^19, 2^20) whose binary reverse is a mod q.

    An independent recount: its own sieve, reversal by reading bin(p)
    backwards, one pass per modulus.
    """
    hi = RECOUNT_G**RECOUNT_L
    lo = hi // RECOUNT_G
    sieve = np.ones(hi, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(hi) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    revs = [int(bin(int(p))[:1:-1], 2) for p in np.flatnonzero(sieve[lo:hi]) + lo]
    counts = {}
    for q in RECOUNT_MODULI:
        per_class = [0] * q
        for r in revs:
            per_class[r % q] += 1
        counts.update(((a, q), n) for a, n in enumerate(per_class))
    return counts


def census_problems(
    text: str, expected_digest: str, recount: dict[tuple[int, int], int]
) -> list[str]:
    columns, rows = census_rows(text)
    problems = []
    if digest(rows) != expected_digest:
        problems.append("census rows differ from the reference digest")
    try:
        col = {name: columns.index(name) for name in ("g", "L", "a", "q", "observed")}
    except ValueError:
        return problems + ["census header lacks g, L, a, q or observed"]
    for row in rows:
        cells = row.split(",")
        try:
            key = [int(cells[col[n]]) for n in ("g", "L", "a", "q", "observed")]
        except (IndexError, ValueError):
            problems.append(f"unparsable census row {row!r}")
            continue
        g, L, a, q, observed = key
        if (g, L) == (RECOUNT_G, RECOUNT_L) and recount.get((a, q)) != observed:
            problems.append(
                f"g={g} L={L} a={a} q={q}: observed {observed}, recount {recount.get((a, q))}"
            )
    return problems


def verify_records(text: str) -> tuple[dict[str, tuple[int, str]], int]:
    """suite -> (report count, digest of its report lines), and failed reports.

    Raises ValueError on a line that is not JSON or a report before any
    suite header.
    """
    lines: dict[str, list[str]] = {}
    current = None
    failed = 0
    for line in text.splitlines():
        obj = json.loads(line)
        if "suite" in obj:
            current = lines.setdefault(obj["suite"], [])
            continue
        if current is None:
            raise ValueError("report line before any suite header")
        if obj.get("pass") is not True:
            failed += 1
        current.append(line)
    return {name: (len(rows), digest(rows)) for name, rows in lines.items()}, failed


def verify_problems(
    records: dict[str, tuple[int, str]],
    failed_reports: int,
    suites: tuple[str, ...],
    expected: dict[str, list],
) -> list[str]:
    """Problems of one verify output against the reference records it must equal.

    expected maps a suite to [report count, digest]; suites missing from
    it are checked for presence and pass only.
    """
    problems = []
    if failed_reports:
        problems.append(f"{failed_reports} report(s) with pass != true")
    if tuple(records) != suites:
        problems.append(f"suites written {list(records)}, expected {list(suites)}")
    for name, want in expected.items():
        got = records.get(name)
        if got is not None and list(got) != list(want):
            problems.append(f"{name}: records differ from the reference")
    return problems
