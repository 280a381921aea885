"""Sieve-backed arithmetic functions and the four-term von Mangoldt split.

The one sieve, prime_segments, walks the odd numbers of a range one
cache-sized segment of flags at a time from a wheel pattern that already
strikes the multiples of 3, 5, 7, 11 and 13, and yields runs of primes:
build_table copies those of [2, limit] into the one sorted array a
PrimeTable keeps, and the census streams those of its windows.  No
bitmap of limit/2 flags is ever held.  A smallest-prime-factor table,
which mobius_values chases, is built from a table's primes the first
time a caller factors.  vaughan_arrays splits Lambda(n) into the
classical four pieces controlled by a threshold z
(Vaughan's identity) for every n up to a bound in one sieve-order pass.
The per-n reference for each of these arrays (trial-division Lambda, mu
and divisors, and Vaughan's split one divisor at a time) lives in
tests/oracles.py.

No command calls vaughan_terms, mangoldt_tail, mobius_mangoldt_window
or the per-n PrimeTable queries they read.  They stay only because
perfbench's traced run wraps verify.vaughan_terms, verify.mangoldt_tail
and verify.mobius_mangoldt_window by name; they leave with those
entries of its PLAN.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SieveBudgetError",
    "PrimeTable",
    "VaughanTerms",
    "VaughanArrays",
    "build_table",
    "check_sieve_limit",
    "prime_segments",
    "vaughan_terms",
    "vaughan_arrays",
    "mangoldt_tail",
    "mobius_mangoldt_window",
    "mangoldt_array",
    "mobius_values",
    "DEFAULT_MAX_LIMIT",
]

# The largest sieve limit.  A table holds 8 bytes per prime (~30 MiB at
# 2^26), and a caller that factors adds 4 * limit bytes of uint32 least
# prime factors (256 MiB).  The census builds no table: its windows end
# at or below the limit, and it holds one segment whatever the limit.
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


class PrimeTable:
    """Immutable prime table over [2, limit]; build_table sieves one.

    primes holds every prime <= limit in ascending order.
    smallest_prime_factor[n] is the least prime dividing n (and equals n
    exactly when n is prime); indices 0 and 1 hold 0.  It is built on
    first use, so a caller that only reads primes never pays for it.
    mobius_values, mangoldt_array and vaughan_arrays read it whole, and
    tests/oracles.py holds the per-n reference for each.  The per-n
    queries below chase it in O(log n) for vaughan_terms alone.
    """

    def __init__(self, limit: int, primes: np.ndarray):
        self.limit = limit
        self.primes = primes
        self._spf: np.ndarray | None = None
        self._spf_lock = threading.Lock()

    @property
    def smallest_prime_factor(self) -> np.ndarray:
        """uint32 least prime factor of every index in [0, limit]; 0 and 1 get 0."""
        if self._spf is None:
            with self._spf_lock:
                if self._spf is None:
                    self._spf = self._factor_table()
        return self._spf

    def _factor_table(self) -> np.ndarray:
        # every odd composite n with least prime p is in p*p + 2p*k, and
        # the primes write from the largest down, so p is the last write
        spf = np.zeros(self.limit + 1, dtype=np.uint32)
        spf[self.primes] = self.primes
        small = self.primes[1 : self.prime_count(math.isqrt(self.limit))]
        for p in small[::-1].tolist():
            spf[p * p :: 2 * p] = p
        spf[4::2] = 2
        return spf

    def _check(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise ValueError(f"query {n} outside table range [1, {self.limit}]")
        return n

    def factorize(self, n: int) -> tuple[tuple[int, int], ...]:
        """Prime factorization ((p, exponent), ...), p ascending; divisors walks it."""
        self._check(n)
        out: list[tuple[int, int]] = []
        spf = self.smallest_prime_factor
        while n > 1:
            p = int(spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return tuple(out)

    def mangoldt(self, n: int) -> float:
        """log p when n is a power of the prime p, else 0: vaughan_terms' Lambda."""
        self._check(n)
        if n == 1:
            return 0.0
        p = int(self.smallest_prime_factor[n])
        while n % p == 0:
            n //= p
        return math.log(p) if n == 1 else 0.0

    def mobius(self, n: int) -> int:
        """mu(n): the Moebius function of vaughan_terms."""
        self._check(n)
        sign = 1
        spf = self.smallest_prime_factor
        while n > 1:
            p = int(spf[n])
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        return sign

    def divisors(self, n: int) -> tuple[int, ...]:
        """All positive divisors of n, ascending: the divisor walk of vaughan_terms."""
        out = [1]
        for p, e in self.factorize(n):
            out = [d * p**k for d in out for k in range(e + 1)]
        return tuple(sorted(out))

    def prime_count(self, x: float) -> int:
        """Number of primes <= x."""
        if x < 2:
            return 0
        if x > self.limit:
            raise ValueError(f"prime count beyond table limit {self.limit}")
        return int(np.searchsorted(self.primes, math.floor(x), side="right"))

    def prime_powers(self, top: int) -> tuple[np.ndarray, np.ndarray]:
        """(p^k, p) for every prime power p^k <= top with k >= 1.

        Walked one level of k at a time, so the primes come first, then
        their squares, and so on.
        """
        primes = self.primes[: self.prime_count(top)]
        values, bases = [primes], [primes]
        while values[-1].size:
            keep = values[-1] <= top // bases[-1]
            bases.append(bases[-1][keep])
            values.append(values[-1][keep] * bases[-1])
        return np.concatenate(values), np.concatenate(bases)


def check_sieve_limit(limit: int) -> None:
    """Raise ValueError below 2 and SieveBudgetError above DEFAULT_MAX_LIMIT."""
    if limit < 2:
        raise ValueError("sieve limit must be at least 2")
    if limit > DEFAULT_MAX_LIMIT:
        raise SieveBudgetError(
            f"sieve limit {limit} exceeds the sieve budget {DEFAULT_MAX_LIMIT}"
        )


def build_table(limit: int) -> PrimeTable:
    """Sieve a PrimeTable covering [2, limit]; nothing is persisted.

    The primes array is allocated once, to Rosser and Schoenfeld's bound
    pi(x) < 1.25506 x / ln x (x > 1), and the table keeps the slice the
    runs fill, so the pages past the last prime are never resident.
    Shrinking it with ndarray.resize instead cost 573 minor faults per
    build_table(2^24) in steady state, against 0 (glibc's defaults).
    """
    check_sieve_limit(limit)
    primes = np.empty(math.floor(1.25506 * limit / math.log(limit)) + 1, dtype=np.int64)
    at = 0
    for run in prime_segments(2, limit + 1):
        primes[at : at + run.size] = run
        at += run.size
    return PrimeTable(limit, primes[:at])


@dataclass(frozen=True)
class VaughanTerms:
    """The four pieces of Lambda(n) relative to a threshold z.

    a1 sums mu(d) log(n/d) over divisors d <= z; a2 pairs mu against the
    above-threshold von Mangoldt tail; a3 subtracts the doubly truncated
    mu*Lambda convolution over divisors up to z^2; a4 keeps Lambda(n)
    itself when n <= z.  They always add back to Lambda(n).
    """

    n: int
    z: float
    a1: float
    a2: float
    a3: float
    a4: float

    @property
    def total(self) -> float:
        return self.a1 + self.a2 + self.a3 + self.a4


def mangoldt_tail(n: int, z: float, pt: PrimeTable) -> float:
    """Sum of Lambda(d) over divisors d of n with d > z.

    Nonzero only when n has a prime-power divisor above z, so in
    particular only for n > z; always between 0 and log n.
    """
    total = 0.0
    for d in pt.divisors(n):
        if d > z:
            total += pt.mangoldt(d)
    return total


def mobius_mangoldt_window(n: int, z: float, pt: PrimeTable) -> float:
    """Sum of mu(d) Lambda(m) over factorizations d*m = n with d, m <= z.

    Supported on n <= z^2; magnitude at most log n.
    """
    total = 0.0
    for d in pt.divisors(n):
        m = n // d
        if d <= z and m <= z:
            total += pt.mobius(d) * pt.mangoldt(m)
    return total


def vaughan_terms(n: int, z: float, pt: PrimeTable) -> VaughanTerms:
    """Split Lambda(n) into the four threshold-z pieces.

    The split is exact: a1 + a2 + a3 + a4 recovers Lambda(n) up to float
    rounding for every n and every z > 0.
    """
    if n < 1:
        raise ValueError("vaughan_terms requires n >= 1")
    if n > pt.limit:
        raise ValueError(f"n = {n} beyond table limit {pt.limit}")
    if not z > 0:
        raise ValueError("threshold z must be positive")
    divisors = pt.divisors(n)
    a1 = 0.0
    a2 = 0.0
    a3 = 0.0
    for d in divisors:
        m = n // d
        if d <= z:
            a1 += pt.mobius(d) * math.log(m)
        elif m > z:
            a2 += pt.mobius(d) * mangoldt_tail(m, z, pt)
        if d <= z * z:
            a3 -= mobius_mangoldt_window(d, z, pt)
    a4 = pt.mangoldt(n) if n <= z else 0.0
    return VaughanTerms(n, z, a1, a2, a3, a4)


def mobius_values(pt: PrimeTable, n: np.ndarray) -> np.ndarray:
    """mu(v) for every entry v of the 1-d integer array n, as int8.

    One vectorized chase of the smallest-prime-factor table: each round
    divides every live entry by its smallest prime factor, zeroes the
    entries that factor divides twice and flips the sign of the rest.
    Entries must lie in [1, limit].
    """
    n = np.asarray(n, dtype=np.int64)
    if n.size and (n.min() < 1 or n.max() > pt.limit):
        raise ValueError(f"mobius query outside table range [1, {pt.limit}]")
    mu = np.ones(n.shape, dtype=np.int8)
    idx = np.flatnonzero(n > 1)
    rest = n[idx]
    spf = pt.smallest_prime_factor
    while idx.size:
        p = spf[rest].astype(np.int64)
        rest = rest // p
        square = rest % p == 0
        mu[idx[square]] = 0
        mu[idx[~square]] *= -1
        keep = ~square & (rest > 1)
        idx, rest = idx[keep], rest[keep]
    return mu


def _log_table(top: int) -> np.ndarray:
    # math.log, not np.log, because the oracles use math.log: np.log can
    # differ in the last bit (for 54 integers up to 10^6 with numpy 2.4
    # on x86-64, the first being 9170)
    log = np.zeros(top + 1, dtype=np.float64)
    log[1:] = np.fromiter(map(math.log, range(1, top + 1)), np.float64, count=top)
    return log


def _mangoldt_table(pt: PrimeTable, top: int, log: np.ndarray) -> np.ndarray:
    lam = np.zeros(top + 1, dtype=np.float64)
    powers, primes = pt.prime_powers(top)
    lam[powers] = log[primes]
    return lam


def mangoldt_array(pt: PrimeTable, top: int) -> np.ndarray:
    """Lambda(n) for 0 <= n <= top (index 0 holds 0): log p at every power of a prime p."""
    if not 1 <= top <= pt.limit:
        raise ValueError(f"top = {top} outside table range [1, {pt.limit}]")
    return _mangoldt_table(pt, top, _log_table(top))


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


def vaughan_arrays(pt: PrimeTable, z: float, top: int) -> VaughanArrays:
    """The four Vaughan pieces and their two coefficient sums for n <= top.

    Each divisor sum is built by sieve-order accumulation: for each d in
    ascending order the term for d is added to every multiple of d.  The
    per-n reference in tests/oracles.py adds its terms in that same
    ascending order, so each entry comes out bit-identical.  A d whose
    coefficient is 0 is skipped, since adding +-0.0 to a sum that started
    at +0.0 never changes it.  Costs O(top log top) array work.
    """
    if not 1 <= top <= pt.limit:
        raise ValueError(f"top = {top} outside table range [1, {pt.limit}]")
    if not z > 0:
        raise ValueError("threshold z must be positive")
    zf = _floor_at_most(z, top)
    zsqf = _floor_at_most(z * z, top)
    n = np.arange(top + 1, dtype=np.int64)
    log = _log_table(top)
    mobius = np.zeros(top + 1, dtype=np.float64)
    mobius[1:] = mobius_values(pt, n[1:])
    mangoldt = _mangoldt_table(pt, top, log)

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
