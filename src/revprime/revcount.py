"""Digit-reversed prime counts: the census layer of the Dirichlet and
Siegel-Walfisz analogues for reversed primes.

rho is the exact rational density with which primes' digit reverses hit
a fixed residue class; census_grid compares windowed sieve counts
against it, many cells per pass.  Every count of reversed primes here
reads one stream: arith.prime_segments sieves the primes of a range in
runs, and reverse_chunks reverses each run a chunk at a time.
census_grid bins its window's chunks into one histogram per group of
moduli whose lcm is at most 2^16; a larger modulus counts only the
residues its cells ask for.  sharp_factor_deviation feeds the same
counter one digit length at a time, and psi_theta_pi weighs the chunks
of [2, x] and, for psi, the higher prime powers, walked from
arith.build_table's primes up to sqrt(x), the one prime array made
here; no prime table is kept.  The sharp variants reduce the modulus
to the part that interacts with reversal, gcd(q, g^L (g^2-1)).
Only the sieve (arith) and digit arithmetic (basedigits) are read here;
the exponential sums behind the theorems live in expsum and primesum.
The per-n references the counts are tested against (window_reverse,
trial-division primes and factors) live in tests/oracles.py.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import build_table, check_sieve_limit, prime_powers, prime_segments
from .basedigits import INT64_MAX, check_base, ilog, reverse_chunks
# reverse is not called here or by any command; it stays importable as
# revcount.reverse only because perfbench's PLAN counts reversals through
# that name, and it goes when that entry does
from .basedigits import reverse  # noqa: F401

__all__ = [
    "CensusRecord",
    "rho",
    "zero_density_strays",
    "check_window",
    "census_grid",
    "psi_theta_pi",
    "sharp_factor_deviation",
]


def _prime_divisors(n: int) -> list[int]:
    """Distinct primes dividing n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _totient(n: int) -> int:
    value = n
    for p in _prime_divisors(n):
        value -= value // p
    return value


def rho(g: int, a: int, q: int) -> Fraction:
    """Exact density weight of the residue class a mod q for base-g reverses.

    Zero exactly when the class can hold at most finitely many reversed
    primes: a shared factor with g^2 - 1, or a leading-digit obstruction
    g | (a, q).  Otherwise a product of a leading-digit factor and the
    inverse totient density of the g^2 - 1 part.
    """
    check_base(g)
    if q < 1:
        raise ValueError("modulus must be positive")
    wheel = g * g - 1
    aq = math.gcd(a, q)
    if math.gcd(aq, wheel) != 1 or aq % g == 0:
        return Fraction(0)
    dg = math.gcd(q, g)
    lead = g - dg if a % dg == 0 else g
    dw = math.gcd(q, wheel)
    # (lead / g) * (dw / phi(dw)), reduced once
    return Fraction(lead * dw, g * _totient(dw))


def zero_density_strays(g: int, L: int, a: int, q: int) -> int:
    """Exact prime count of a zero-density cell (rho(g, a, q) = 0) at window L.

    rev_L(n) = n mod g-1 and rev_L(n) = (-1)^(L-1) n mod g+1.  So a prime
    r dividing a, q and g^2-1 divides the reverse of every prime p of the
    cell, hence p itself: p = r.  Without such an r the density is zero
    only because g | gcd(a, q); then a reverse in the class ends in digit
    0, p would lead with 0, and the cell is empty.  The count is the
    number of primes r | gcd(a, q, g^2-1) with g^(L-1) <= r < g^L and
    rev_L(r) = a mod q; only g^2-1 is factored.
    """
    check_base(g)
    strays = [
        r for r in _prime_divisors(math.gcd(a, q, g * g - 1))
        if g ** (L - 1) <= r < g**L
    ]
    chunks = reverse_chunks(np.array(strays, dtype=np.int64), g, L)
    return sum(rev % q == a % q for _, revs in chunks for rev in revs.tolist())


@dataclass(frozen=True)
class CensusRecord:
    """One census cell: window count against the density main term."""

    g: int
    L: int
    a: int
    q: int
    observed: int
    main_term: float
    relative_dev: float
    sharp_observed: int
    modulus_sharp: int


def _sharp_modulus(g: int, L: int, q: int) -> int:
    """gcd(q, g^L (g^2-1)), the part of q that interacts with reversal."""
    return math.gcd(q, g**L * (g * g - 1))


# one residue pass bins every modulus that divides a group lcm up to this
_GROUP_CAP = 2**16


def _modulus_groups(moduli) -> list[tuple[int, list[int]]]:
    """(lcm, members) groups of the distinct moduli, first fit in ascending order.

    A modulus joins the first group whose lcm stays at most _GROUP_CAP
    with it; one above the cap is a group of its own.
    """
    groups: list[tuple[int, list[int]]] = []
    for m in sorted(set(moduli)):
        for i, (lcm, members) in enumerate(groups):
            joined = math.lcm(lcm, m)
            if joined <= _GROUP_CAP:
                groups[i] = (joined, members + [m])
                break
        else:
            groups.append((m, [m]))
    return groups


def _mod(values: np.ndarray, m: int) -> np.ndarray:
    """values mod m, for nonnegative int64 values and m >= 1.

    An m beyond int64 exceeds every entry: values is its own residues
    and is returned.  Otherwise values - (values // m) * m, a fresh array:
    numpy divides an int64 array by a scalar with a multiply and shift,
    and np.remainder, which has no such path, took 110 us on 2^15 entries
    against 48 us for these three passes (x86-64, numpy 2.4).
    """
    if m > INT64_MAX:
        return values
    out = values // m
    out *= m
    return np.subtract(values, out, out=out)


class _ClassCounts:
    """Running counts of the cells (a, m): reverses that are a mod m.

    Reverses arrive one chunk at a time through add.  Each group of
    moduli with lcm M <= _GROUP_CAP keeps one histogram of M bins, which
    every chunk's residues mod M are added to with np.bincount; a
    modulus m of the group folds it with reshape(-1, m).sum(0).  A
    modulus above the cap, where a histogram would take up to g^L bins,
    counts only the residues its cells ask for: each chunk's residues
    are searched in the sorted wanted list and the hits are binned by
    position.  A residue beyond int64 exceeds every reverse, so its
    count stays 0.
    """

    def __init__(self, cells):
        cells = list(cells)
        groups = _modulus_groups(m for _, m in cells)
        self._group_of = {m: lcm for lcm, members in groups for m in members}
        self._bins = {
            lcm: np.zeros(lcm, dtype=np.int64) for lcm, _ in groups if lcm <= _GROUP_CAP
        }
        self._wanted = {
            lcm: np.array(
                sorted({a % lcm for a, m in cells if m == lcm and a % lcm <= INT64_MAX}),
                dtype=np.int64,
            )
            for lcm, _ in groups if lcm > _GROUP_CAP
        }
        self._hits = {m: np.zeros(w.size, dtype=np.int64) for m, w in self._wanted.items()}
        self._folded: dict[int, np.ndarray] = {}

    def add(self, revs: np.ndarray) -> None:
        """Count one chunk of nonnegative int64 reverses."""
        for lcm, bins in self._bins.items():
            bins += np.bincount(_mod(revs, lcm), minlength=lcm)
        for m, wanted in self._wanted.items():
            if not wanted.size:
                continue
            residues = _mod(revs, m)
            at = np.minimum(wanted.searchsorted(residues), wanted.size - 1)
            self._hits[m] += np.bincount(at[wanted[at] == residues], minlength=wanted.size)

    def count(self, a: int, m: int) -> int:
        """Reverses that are a mod m, for a cell given at construction.

        Read after the last add: each modulus' fold of its group's
        histogram is made on its first read and kept.
        """
        r = a % m
        lcm = self._group_of[m]
        if lcm > _GROUP_CAP:
            wanted = self._wanted[m]
            at = int(wanted.searchsorted(r)) if r <= INT64_MAX else wanted.size
            return int(self._hits[m][at]) if at < wanted.size and wanted[at] == r else 0
        if m not in self._folded:
            self._folded[m] = self._bins[lcm].reshape(-1, m).sum(0)
        return int(self._folded[m][r])


def check_window(g: int, L: int, limit: int) -> None:
    """Raise ValueError unless the window [g^(L-1), g^L) ends at or below
    limit, a sieve limit arith.check_sieve_limit takes."""
    check_base(g)
    if L < 1:
        raise ValueError("window length must be at least 1")
    check_sieve_limit(limit)
    # g^L - 1 > limit exactly when g^L > limit + 1; g^L is never formed
    if L > ilog(limit + 1, g):
        raise ValueError(f"window end {g}^{L} - 1 beyond sieve limit {limit}")


def census_grid(g: int, L: int, pairs, limit: int) -> list[CensusRecord]:
    """CensusRecords for many (a, q) cells from one pass over the window.

    Only the window [g^(L-1), g^L), which check_window holds under the
    sieve limit, is sieved.  Its primes all have exactly L digits, so
    their window reverses are the plain ones.  Each run of them from
    arith.prime_segments goes through reverse_chunks and each chunk of
    reverses is binned.  Every requested cell, q and sharp modulus alike,
    is read from those counts.
    """
    check_window(g, L, limit)
    pairs = list(pairs)
    if any(q < 1 for _, q in pairs):
        raise ValueError("modulus must be positive")
    sharp = [_sharp_modulus(g, L, q) for _, q in pairs]
    counts = _ClassCounts(pairs + [(a, m) for (a, _), m in zip(pairs, sharp)])
    for primes in prime_segments(g ** (L - 1), g**L):
        for _, revs in reverse_chunks(primes, g, L):
            counts.add(revs)
    scale = g**L / (L * math.log(g))
    records = []
    for (a, q), modulus_sharp in zip(pairs, sharp):
        observed = counts.count(a, q)
        main_term = float(rho(g, a, q) / q) * scale
        relative_dev = observed / main_term - 1.0 if main_term > 0.0 else math.nan
        records.append(
            CensusRecord(
                g, L, a, q, observed, main_term, relative_dev,
                counts.count(a, modulus_sharp), modulus_sharp,
            )
        )
    return records


def psi_theta_pi(
    g: int, L: int, x: float, a: int, q: int, kind: str, sharp: bool = False
) -> float:
    """One of the three weighted counts over {n <= x : rev_L(n) = a mod q}.

    These are the psi, theta and pi of the Siegel-Walfisz analogue.
    kind selects the weight: "psi" sums Lambda over all integers, "theta"
    sums log p over primes, "pi" counts primes.  With sharp the modulus
    drops to gcd(q, g^L (g^2-1)).  The primes of [2, x] are sieved and
    reversed in runs and chunks, like the census window; psi adds each
    p^k <= x with k >= 2, walked by arith.prime_powers from the primes up
    to sqrt(x).  Log weights are summed with fsum, which reads them one
    chunk at a time and whose total does not depend on their order.  x
    may not exceed the sieve budget, arith.DEFAULT_MAX_LIMIT.
    """
    if kind not in ("psi", "theta", "pi"):
        raise ValueError(f"unknown kind {kind!r}")
    check_base(g)
    if L < 1 or q < 1:
        raise ValueError("need L >= 1 and q >= 1")
    if not 1 <= x <= g**L:
        raise ValueError("x must lie in [1, g^L]")
    check_sieve_limit(max(x, 2))  # below 2 nothing is sieved
    top = math.floor(x)
    modulus = _sharp_modulus(g, L, q) if sharp else q
    # (log bases, their reverse chunks) per run: a prime is its own base
    runs = ((run, reverse_chunks(run, g, L)) for run in prime_segments(2, top + 1))
    if kind == "psi" and top >= 4:  # 4 is the least p^k with k >= 2
        small = build_table(math.isqrt(top))
        powers, bases = (v[small.size :] for v in prime_powers(small, top))
        runs = itertools.chain(runs, [(bases, reverse_chunks(powers, g, L))])
    hits = (
        (weights[lo : lo + revs.size], _mod(revs, modulus) == a % modulus)
        for weights, chunks in runs
        for lo, revs in chunks
    )
    if kind == "pi":
        return float(sum(np.count_nonzero(hit) for _, hit in hits))
    return math.fsum(w for weights, hit in hits for w in np.log(weights[hit]).tolist())


def sharp_factor_deviation(g: int, x: float, a: int, q: int) -> float:
    """|pi(x,a,q) - (m/q) pi_sharp(x,a,q)| / x for absolute reverses.

    The cost of the Siegel-Walfisz analogue's reduction to the sharp modulus.
    m = gcd(q, g^L (g^2-1)) with L the digit length of x, ilog(x, g) + 1.
    Both counts run over all primes up to x with the plain digit reverse:
    for each k <= L the primes of k digits, [g^(k-1), g^k), are sieved in
    runs, reversed in chunks within k digits and binned into one
    _ClassCounts, so the counts are exact integers.  x may not exceed the
    sieve budget, arith.DEFAULT_MAX_LIMIT.
    """
    if not x >= 1:  # NaN too
        raise ValueError("x must be at least 1")
    check_sieve_limit(max(x, 2))  # inf too, before floor
    if q < 1:
        raise ValueError("modulus must be positive")
    L = ilog(x, g) + 1
    modulus = _sharp_modulus(g, L, q)
    top = math.floor(x)
    counts = _ClassCounts([(a, q), (a, modulus)])
    for k in range(1, L + 1):
        for primes in prime_segments(g ** (k - 1), min(g**k, top + 1)):
            for _, revs in reverse_chunks(primes, g, k):
                counts.add(revs)
    plain, sharp = counts.count(a, q), counts.count(a, modulus)
    return abs(plain - (modulus / q) * sharp) / x
