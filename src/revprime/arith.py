"""Sieve-backed arithmetic functions and the four-term von Mangoldt split.

The one sieve, prime_segments, walks the odd numbers of a range one
cache-sized segment of flags at a time from a wheel pattern that already
strikes the multiples of 3, 5, 7, 11 and 13, and yields runs of primes:
build_table copies those of [2, limit] into one sorted int64 array, and
revcount's counts stream those of their ranges.  No bitmap of limit/2
flags is ever held, and no prime table is kept: each function here
sieves the primes it reads.  prime_powers walks the powers of an array
of primes, for Lambda here and for revcount's psi.  mobius_values sieves
mu over the range it is asked for with the primes up to its square root.
vaughan_arrays splits Lambda(n) into the classical four pieces
controlled by a threshold z (Vaughan's identity) for every n up to a
bound in one sieve-order pass.
The per-n reference for each of these arrays (trial-division Lambda, mu
and divisors, and Vaughan's split one divisor at a time) lives in
tests/oracles.py.

vaughan_terms, mangoldt_tail and mobius_mangoldt_window are views: each
returns entry n of vaughan_arrays(z, n).  No command calls them.
They stay only because perfbench's traced run wraps verify.vaughan_terms,
verify.mangoldt_tail and verify.mobius_mangoldt_window by name; they
leave with those entries of its PLAN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SieveBudgetError",
    "VaughanArrays",
    "build_table",
    "check_sieve_limit",
    "prime_segments",
    "prime_powers",
    "vaughan_terms",
    "vaughan_arrays",
    "mangoldt_tail",
    "mobius_mangoldt_window",
    "mangoldt_array",
    "mobius_values",
    "DEFAULT_MAX_LIMIT",
]

# The largest integer any sieve may reach (check_sieve_limit).  The
# primes up to it take 8 bytes each (~30 MiB at 2^26); mobius_values
# holds 9 bytes per integer of the range it sieves.  The census and
# revcount's counts hold one segment whatever the reach.
DEFAULT_MAX_LIMIT = 1 << 26

# the odd primes whose multiples the wheel pattern already strikes
_WHEEL = (3, 5, 7, 11, 13)
_PERIOD = math.prod(_WHEEL)
# flags sieved per pass: 1 MiB, half a 2 MiB per-core L2
_SEGMENT = 1 << 20


class SieveBudgetError(ValueError):
    """Raised when a requested sieve limit exceeds the memory budget (a usage error)."""


def prime_segments(start: int, stop: int):
    """Yield the primes in [start, stop), ascending, in runs: int64 arrays.

    Flag i of a segment starting at odd index lo says whether
    2(lo + i) + 1 is prime; the odd numbers of [start, stop) have the
    indices [start // 2, stop // 2).  A segment is filled from one period
    of 3*5*7*11*13 = 15015 flags with the odd multiples of those five
    struck, at phase lo mod 15015, and the five are set back to prime and
    1 to not prime where they fall inside it.  Each prime p from 17 to
    sqrt(stop - 1), which this generator yields too, strikes its odd
    multiples from the first at or above max(p*p, start), carrying the
    next one from segment to segment.  At 2^20 flags (1 MiB) a segment
    keeps the strided stores inside a 2 MiB per-core L2; of 2^17..2^22
    it was the fastest, as smaller segments pay Python's per-slice cost
    more often.  Each quarter segment is read out as one run, so a
    consumer holds one segment and two runs (256 KiB each near 2^24),
    at no more cost than whole-segment runs.
    """
    if start <= 2 < stop:
        yield np.array([2], dtype=np.int64)
    first, end = start // 2, stop // 2
    if first >= end:
        return
    # 2i + 1 is a multiple of the odd prime p exactly when i = p // 2 mod p
    wheel = np.ones(_PERIOD, dtype=bool)
    for p in _WHEEL:
        wheel[p // 2 :: p] = False
    base = [p for run in prime_segments(_WHEEL[-1] + 1, math.isqrt(stop - 1) + 1)
            for p in run.tolist()]
    # the index of p*j, j the least odd number >= p with p*j >= start
    starts = [p * (max(p, -(-start // p)) | 1) // 2 for p in base]
    segment = np.empty(min(_SEGMENT, end - first), dtype=bool)
    read = max(1, _SEGMENT // 4)
    for lo in range(first, end, _SEGMENT):
        hi = min(lo + _SEGMENT, end)
        flags = segment[: hi - lo]
        _fill_wheel(flags, wheel, lo % _PERIOD)
        for i in [p // 2 for p in _WHEEL]:
            if lo <= i < hi:
                flags[i - lo] = True
        if lo == 0:
            flags[0] = False
        for k, p in enumerate(base):
            s = starts[k]
            if s >= hi:
                continue
            flags[s - lo :: p] = False
            starts[k] = hi + (s - hi) % p
        for part in range(0, hi - lo, read):
            run = np.flatnonzero(flags[part : part + read])
            run *= 2
            run += 2 * (lo + part) + 1
            yield run


def _fill_wheel(flags: np.ndarray, wheel: np.ndarray, phase: int) -> None:
    """flags[i] = wheel[(phase + i) % len(wheel)], copied in doubling runs."""
    head = min(flags.size, wheel.size - phase)
    flags[:head] = wheel[phase : phase + head]
    flags[head : wheel.size] = wheel[: min(phase, flags.size - head)]
    done = min(flags.size, wheel.size)
    while done < flags.size:
        step = min(done, flags.size - done)
        flags[done : done + step] = flags[:step]
        done += step


def check_sieve_limit(limit: int) -> None:
    """Raise ValueError below 2 and SieveBudgetError above DEFAULT_MAX_LIMIT."""
    if limit < 2:
        raise ValueError("sieve limit must be at least 2")
    if limit > DEFAULT_MAX_LIMIT:
        raise SieveBudgetError(
            f"sieve limit {limit} exceeds the sieve budget {DEFAULT_MAX_LIMIT}"
        )


def build_table(limit: int) -> np.ndarray:
    """Every prime <= limit, ascending, as one int64 array; nothing is persisted.

    The array is allocated once, to Rosser and Schoenfeld's bound
    pi(x) < 1.25506 x / ln x (x > 1), and the slice the runs fill is
    returned, so the pages past the last prime are never resident.
    Shrinking it with ndarray.resize instead cost 573 minor faults per
    build_table(2^24) in steady state, against 0 (glibc's defaults).
    """
    check_sieve_limit(limit)
    primes = np.empty(math.floor(1.25506 * limit / math.log(limit)) + 1, dtype=np.int64)
    at = 0
    for run in prime_segments(2, limit + 1):
        primes[at : at + run.size] = run
        at += run.size
    return primes[:at]


def _check_reach(top: int) -> None:
    """Raise ValueError below 1 and SieveBudgetError above DEFAULT_MAX_LIMIT."""
    if top < 1:
        raise ValueError(f"top = {top} below 1")
    check_sieve_limit(max(top, 2))


def mobius_values(n: np.ndarray) -> np.ndarray:
    """mu(v) for every entry v of the 1-d integer array n, as int8.

    A Moebius sieve over [lo, hi], the least and largest entry: each
    prime p <= sqrt(hi) flips the sign at its multiples, zeroes the
    multiples of p^2 and multiplies p into each multiple's product of
    small prime factors.  A squarefree v whose product falls short of v
    has exactly one prime factor above sqrt(hi), so its sign flips once
    more.  The product divides v, so it never exceeds hi.  The
    sieve holds 9 bytes per integer of [lo, hi], and the last comparison
    8 more.  Entries must be at least 1, and hi within the sieve budget.
    """
    n = np.asarray(n, dtype=np.int64)
    if not n.size:
        return np.ones(n.shape, dtype=np.int8)
    lo, hi = int(n.min()), int(n.max())
    if lo < 1:
        raise ValueError(f"mobius query {lo} below 1")
    _check_reach(hi)
    mu = np.ones(hi - lo + 1, dtype=np.int8)
    small = np.ones(hi - lo + 1, dtype=np.int64)
    # below 4 the prime 2 is sieved too: a prime above sqrt(hi) changes no mu
    for p in build_table(max(math.isqrt(hi), 2)).tolist():
        mu[-lo % p :: p] *= -1
        small[-lo % p :: p] *= p
        mu[-lo % (p * p) :: p * p] = 0
    mu[small < np.arange(lo, hi + 1)] *= -1
    return mu[n - lo]


def prime_powers(primes: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """(p^k, p) for each p of primes and each k >= 1 with p^k <= top.

    primes is ascending int64, every entry at most top.  Walked one level
    of k at a time, so primes come first, then their squares, and so on:
    the entries past len(primes) are the powers with k >= 2.
    """
    values, bases = [primes], [primes]
    while values[-1].size:
        keep = values[-1] <= top // bases[-1]
        bases.append(bases[-1][keep])
        values.append(values[-1][keep] * bases[-1])
    return np.concatenate(values), np.concatenate(bases)


def _log_table(top: int) -> np.ndarray:
    # math.log, not np.log, because the oracles use math.log: np.log can
    # differ in the last bit (for 54 integers up to 10^6 with numpy 2.4
    # on x86-64, the first being 9170)
    log = np.zeros(top + 1, dtype=np.float64)
    log[1:] = np.fromiter(map(math.log, range(1, top + 1)), np.float64, count=top)
    return log


def _mangoldt_table(top: int, log: np.ndarray) -> np.ndarray:
    lam = np.zeros(top + 1, dtype=np.float64)
    if top >= 2:  # no prime is below 2
        powers, primes = prime_powers(build_table(top), top)
        lam[powers] = log[primes]
    return lam


def mangoldt_array(top: int) -> np.ndarray:
    """Lambda(n) for 0 <= n <= top (index 0 holds 0): log p at every power of a prime p."""
    _check_reach(top)
    return _mangoldt_table(top, _log_table(top))


def _floor_at_most(x: float, top: int) -> int:
    """The largest integer d <= x, capped at top."""
    return top if x >= top else math.floor(x)


@dataclass(frozen=True)
class VaughanArrays:
    """Every threshold-z Vaughan piece for all n <= top, indexed by n.

    Index 0 is padding and holds 0.  a1 sums mu(d) log(n/d) over the
    divisors d <= z; a2 pairs mu(d) for d > z against mangoldt_tail(n/d),
    the sum of Lambda over the divisors of n/d above z; a3 subtracts
    mobius_mangoldt_window(d), the sum of mu(u) Lambda(d/u) over u, d/u
    <= z, for every divisor d <= z^2; a4 keeps Lambda(n) when n <= z.
    The four add back to Lambda(n).  log, mobius and mangoldt hold
    math.log(n), mu(n) and Lambda(n).  tests/oracles.py computes every
    field one n at a time, and each entry is bit-identical to it.
    """

    z: float
    log: np.ndarray
    mobius: np.ndarray
    mangoldt: np.ndarray
    mangoldt_tail: np.ndarray
    mobius_mangoldt_window: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    a4: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.a1 + self.a2 + self.a3 + self.a4


def vaughan_arrays(z: float, top: int) -> VaughanArrays:
    """The four Vaughan pieces and their two coefficient sums for n <= top.

    Each divisor sum is built by sieve-order accumulation: for each d in
    ascending order the term for d is added to every multiple of d.  The
    per-n reference in tests/oracles.py adds its terms in that same
    ascending order, so each entry comes out bit-identical.  A d whose
    coefficient is 0 is skipped, since adding +-0.0 to a sum that started
    at +0.0 never changes it.  Costs O(top log top) array work.
    """
    _check_reach(top)
    if not z > 0:
        raise ValueError("threshold z must be positive")
    zf = _floor_at_most(z, top)
    zsqf = _floor_at_most(z * z, top)
    n = np.arange(top + 1, dtype=np.int64)
    log = _log_table(top)
    mobius = np.zeros(top + 1, dtype=np.float64)
    mobius[1:] = mobius_values(n[1:])
    mangoldt = _mangoldt_table(top, log)

    tail = np.zeros(top + 1, dtype=np.float64)
    for d in np.flatnonzero(mangoldt[zf + 1 :]) + zf + 1:
        tail[d::d] += mangoldt[d]
    window = np.zeros(top + 1, dtype=np.float64)
    short = np.flatnonzero(mobius[1 : zf + 1]) + 1
    for d in short:
        ms = n[1 : min(zf, top // d) + 1]
        window[d * ms] += mobius[d] * mangoldt[ms]

    a1 = np.zeros(top + 1, dtype=np.float64)
    for d in short:
        a1[d::d] += mobius[d] * log[1 : top // d + 1]
    a2 = np.zeros(top + 1, dtype=np.float64)
    for d in np.flatnonzero(mobius[zf + 1 : top // (zf + 1) + 1]) + zf + 1:
        ms = n[zf + 1 : top // d + 1]
        a2[d * ms] += mobius[d] * tail[ms]
    a3 = np.zeros(top + 1, dtype=np.float64)
    for d in np.flatnonzero(window[1 : zsqf + 1]) + 1:
        a3[d::d] -= window[d]
    a4 = np.zeros(top + 1, dtype=np.float64)
    a4[: zf + 1] = mangoldt[: zf + 1]
    return VaughanArrays(z, log, mobius, mangoldt, tail, window, a1, a2, a3, a4)


def vaughan_terms(n: int, z: float) -> tuple[float, float, float, float]:
    """(a1, a2, a3, a4) of n at threshold z: entry n of vaughan_arrays(z, n)."""
    va = vaughan_arrays(z, n)
    return float(va.a1[n]), float(va.a2[n]), float(va.a3[n]), float(va.a4[n])


def mangoldt_tail(n: int, z: float) -> float:
    """Sum of Lambda(d) over the divisors d > z of n: entry n of vaughan_arrays."""
    return float(vaughan_arrays(z, n).mangoldt_tail[n])


def mobius_mangoldt_window(n: int, z: float) -> float:
    """Sum of mu(d) Lambda(n/d) over d | n with d, n/d <= z: entry n of vaughan_arrays."""
    return float(vaughan_arrays(z, n).mobius_mangoldt_window[n])
