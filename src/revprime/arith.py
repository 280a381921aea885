"""Sieve-backed arithmetic functions and the four-term von Mangoldt split.

A smallest-prime-factor table answers Lambda, mu, tau, phi and primality
queries in O(log n) each after one linear-memory sieve pass.  The table
persists to a small versioned, checksummed binary cache so repeated runs
skip the build.  vaughan_terms splits Lambda(n) into the classical four
pieces controlled by a threshold z (Vaughan's identity), with every
divisor sum evaluated by factor enumeration from the table; it and its
two coefficient sums are the reference oracles for vaughan_arrays, which
builds every piece for all n up to a bound in one sieve-order pass.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .fileio import atomic_write

__all__ = [
    "SieveBudgetError",
    "PrimeTable",
    "VaughanTerms",
    "VaughanArrays",
    "build_table",
    "vaughan_terms",
    "vaughan_arrays",
    "mangoldt_tail",
    "mobius_mangoldt_window",
    "mangoldt_array",
    "mobius_values",
    "DEFAULT_MAX_LIMIT",
]

# ~256 MiB of uint32 factors; census and calibration grids stay far below.
DEFAULT_MAX_LIMIT = 1 << 26

_CACHE_MAGIC = b"RVSPF"
_CACHE_VERSION = 2
_HEADER = struct.Struct("<5sHQI")  # magic, version, limit, CRC-32 of the payload


class SieveBudgetError(RuntimeError):
    """Raised when a requested sieve limit exceeds the memory budget."""


def _sieve_spf(limit: int) -> np.ndarray:
    """Smallest prime factor for every index in [0, limit]; 0 and 1 get 0."""
    spf = np.zeros(limit + 1, dtype=np.uint32)
    if limit >= 2:
        spf[2::2] = 2
    for p in range(3, math.isqrt(limit) + 1, 2):
        if spf[p] == 0:
            spf[p] = p
            seg = spf[p * p :: 2 * p]
            seg[seg == 0] = p
    # whatever is still unmarked above 1 has no factor <= sqrt(limit)
    rest = np.flatnonzero(spf[3:] == 0) + 3
    spf[rest] = rest
    return spf


class PrimeTable:
    """Immutable factor table over [2, limit] built from one sieve pass.

    smallest_prime_factor[n] is the least prime dividing n (and equals n
    exactly when n is prime); indices 0 and 1 hold 0.  All the classical
    multiplicative queries chase that array, so each costs O(log n).
    """

    def __init__(self, limit: int, spf: np.ndarray):
        if limit < 2:
            raise ValueError("table limit must be at least 2")
        if spf.shape != (limit + 1,):
            raise ValueError("factor array does not match the stated limit")
        self.limit = limit
        self.smallest_prime_factor = spf
        self._primes: np.ndarray | None = None

    def _check(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise ValueError(f"query {n} outside table range [1, {self.limit}]")
        return n

    def is_prime(self, n: int) -> bool:
        self._check(n)
        return n >= 2 and int(self.smallest_prime_factor[n]) == n

    def factorize(self, n: int) -> tuple[tuple[int, int], ...]:
        """Prime factorization as ((p, exponent), ...) with p ascending."""
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
        """log p when n is a power of the prime p, else 0."""
        self._check(n)
        if n == 1:
            return 0.0
        p = int(self.smallest_prime_factor[n])
        while n % p == 0:
            n //= p
        return math.log(p) if n == 1 else 0.0

    def mobius(self, n: int) -> int:
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

    def divisor_count(self, n: int) -> int:
        count = 1
        for _, e in self.factorize(n):
            count *= e + 1
        return count

    def totient(self, n: int) -> int:
        value = 1
        for p, e in self.factorize(n):
            value *= p ** (e - 1) * (p - 1)
        return value

    def divisors(self, n: int) -> tuple[int, ...]:
        """All positive divisors of n, ascending."""
        out = [1]
        for p, e in self.factorize(n):
            out = [d * p**k for d in out for k in range(e + 1)]
        return tuple(sorted(out))

    @property
    def primes(self) -> np.ndarray:
        """Sorted array of all primes <= limit (computed once, then kept)."""
        if self._primes is None:
            idx = np.arange(self.limit + 1, dtype=np.uint32)
            mask = self.smallest_prime_factor == idx
            mask[0] = False
            self._primes = np.flatnonzero(mask).astype(np.int64)
        return self._primes

    def prime_count(self, x: float) -> int:
        """Number of primes <= x."""
        if x < 2:
            return 0
        if x > self.limit:
            raise ValueError(f"prime count beyond table limit {self.limit}")
        return int(np.searchsorted(self.primes, math.floor(x), side="right"))


def _cache_path(limit: int, cache_dir: str) -> str:
    return os.path.join(cache_dir, f"spf_{limit}.bin")


def _load_cache(limit: int, cache_dir: str) -> np.ndarray | None:
    path = _cache_path(limit, cache_dir)
    try:
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            if len(header) != _HEADER.size:
                return None
            magic, version, cached_limit, checksum = _HEADER.unpack(header)
            if magic != _CACHE_MAGIC or version != _CACHE_VERSION:
                return None
            if cached_limit != limit:
                return None
            raw = fh.read()
    except OSError:
        return None
    if len(raw) != 4 * (limit + 1) or zlib.crc32(raw) != checksum:
        return None
    return np.frombuffer(raw, dtype="<u4").astype(np.uint32)


def _store_cache(limit: int, cache_dir: str, spf: np.ndarray) -> None:
    payload = spf.astype("<u4")
    header = _HEADER.pack(_CACHE_MAGIC, _CACHE_VERSION, limit, zlib.crc32(payload))
    atomic_write(_cache_path(limit, cache_dir), [header, payload])


def build_table(
    limit: int,
    cache_dir: str | None = None,
    max_limit: int = DEFAULT_MAX_LIMIT,
) -> PrimeTable:
    """Sieve (or load from cache) a PrimeTable covering [2, limit].

    cache_dir falls back to the REVPRIME_CACHE_DIR environment variable;
    with neither set, nothing is persisted.  A cache file whose header
    or payload checksum does not match is regenerated silently.
    """
    if limit < 2:
        raise ValueError("sieve limit must be at least 2")
    if limit > max_limit:
        raise SieveBudgetError(
            f"sieve limit {limit} exceeds the configured budget {max_limit}"
        )
    if cache_dir is None:
        cache_dir = os.environ.get("REVPRIME_CACHE_DIR") or None
    if cache_dir is not None:
        cached = _load_cache(limit, cache_dir)
        if cached is not None:
            return PrimeTable(limit, cached)
    spf = _sieve_spf(limit)
    if cache_dir is not None:
        _store_cache(limit, cache_dir, spf)
    return PrimeTable(limit, spf)


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
    p = np.flatnonzero(pt.smallest_prime_factor[: top + 1] == np.arange(top + 1))
    p = p[p >= 2]
    q = p
    while p.size:
        lam[q] = log[p]
        keep = q <= top // p
        p, q = p[keep], q[keep] * p[keep]
    return lam


def mangoldt_array(pt: PrimeTable, top: int) -> np.ndarray:
    """Lambda(n) for 0 <= n <= top (index 0 holds 0), equal to pt.mangoldt."""
    if not 1 <= top <= pt.limit:
        raise ValueError(f"top = {top} outside table range [1, {pt.limit}]")
    return _mangoldt_table(pt, top, _log_table(top))


def _floor_at_most(x: float, top: int) -> int:
    """The largest integer d <= x, capped at top."""
    return top if x >= top else math.floor(x)


@dataclass(frozen=True)
class VaughanArrays:
    """Every threshold-z Vaughan piece for all n <= top, indexed by n.

    Index 0 is padding and holds 0.  Entry n of a1..a4 equals the field
    of vaughan_terms(n, z, pt), entry n of mangoldt_tail and
    mobius_mangoldt_window equals the function of that name, and log,
    mobius and mangoldt hold math.log(n), pt.mobius(n) and
    pt.mangoldt(n); every entry is bit-identical to its oracle.
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
    per-n oracles add their terms in that same ascending order, so each
    entry comes out bit-identical.  A d whose coefficient is 0 is
    skipped, since adding +-0.0 to a sum that started at +0.0 never
    changes it.  Costs O(top log top) array work.
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
