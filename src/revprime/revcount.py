"""Digit-reversed prime counts: the census layer of the Dirichlet and
Siegel-Walfisz analogues for reversed primes.

rho is the exact rational density with which primes' digit reverses hit
a fixed residue class; census_grid compares windowed sieve counts
against it, many cells per pass, binning the reverses once per group of
moduli whose lcm is at most 2^16; the sharp variants reduce the modulus
to the part that interacts with reversal, gcd(q, g^L (g^2-1)).  Only
the sieve (arith) and digit arithmetic (basedigits) are read here; the
exponential sums behind the theorems live in expsum and primesum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import PrimeTable
# reverse is not called here; it stays importable as revcount.reverse,
# the name perfbench counts reversal calls through
from .basedigits import ilog, reverse, reverse_array  # noqa: F401

__all__ = [
    "CensusRecord",
    "rho",
    "rho_total",
    "zero_density_strays",
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
    if g < 2:
        raise ValueError("base must be at least 2")
    if q < 1:
        raise ValueError("modulus must be positive")
    wheel = g * g - 1
    aq = math.gcd(a, q)
    if math.gcd(aq, wheel) != 1 or aq % g == 0:
        return Fraction(0)
    dg = math.gcd(q, g)
    lead = Fraction(1)
    if a % dg == 0:
        lead -= Fraction(dg, g)
    dw = math.gcd(q, wheel)
    return lead * Fraction(dw, _totient(dw))


def rho_total(g: int, q: int) -> Fraction:
    """Total density mass: sum of rho(g, a, q) / q over all a, exact (criterion 09)."""
    return sum(rho(g, a, q) for a in range(q)) / Fraction(q)


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
    strays = [
        r for r in _prime_divisors(math.gcd(a, q, g * g - 1))
        if g ** (L - 1) <= r < g**L
    ]
    return sum(rev % q == a % q for rev in reverse_array(strays, g, L).tolist())


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


def _residues(revs: np.ndarray, m: int) -> np.ndarray:
    """The entries of revs mod m.

    A modulus beyond the range of revs' dtype exceeds every entry (all
    are nonnegative), so the entries are their own residues.
    """
    return revs if m > np.iinfo(revs.dtype).max else revs % m


def _window_reverses(g: int, L: int, pt: PrimeTable) -> np.ndarray:
    """Digit reverses of every prime in [g^(L-1), g^L), one sieve scan.

    Every such prime has exactly L digits, so the window-relative
    reverse is the plain one.
    """
    primes = pt.primes
    first, last = np.searchsorted(primes, (g ** (L - 1), g**L))
    return reverse_array(primes[first:last], g, L)


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


def _class_counter(revs: np.ndarray, moduli):
    """count(a, m) for m in moduli: entries of revs that are a mod m.

    Each group of moduli with lcm M <= _GROUP_CAP takes one bincount of
    revs % M, which each m in the group folds with reshape(-1, m).sum(0).
    A modulus above the cap keeps its residues sorted and counts a class
    by binary search, so it holds one entry per reverse; a bincount
    there would take one bin per value up to the largest residue, up to
    g^L of them.
    """
    bins: dict[int, np.ndarray] = {}
    ranked: dict[int, np.ndarray] = {}
    for lcm, members in _modulus_groups(moduli):
        if lcm > _GROUP_CAP:
            ranked[lcm] = np.sort(_residues(revs, lcm))
            continue
        full = np.bincount(revs % lcm, minlength=lcm)
        for m in members:
            bins[m] = full.reshape(-1, m).sum(0)

    def count(a: int, m: int) -> int:
        r = a % m
        if m in bins:
            return int(bins[m][r])
        return int(ranked[m].searchsorted(r, "right") - ranked[m].searchsorted(r))

    return count


def census_grid(
    g: int, L: int, pairs, pt: PrimeTable
) -> list[CensusRecord]:
    """CensusRecords for many (a, q) cells from one pass over the window.

    The reverses are computed once, every q and sharp modulus is binned
    by one residue pass per group of moduli, and every requested cell is
    read from those bins.
    """
    if L < 1:
        raise ValueError("window length must be at least 1")
    if g**L - 1 > pt.limit:
        raise ValueError(f"window end {g}^{L} - 1 beyond sieve limit {pt.limit}")
    pairs = list(pairs)
    if any(q < 1 for _, q in pairs):
        raise ValueError("modulus must be positive")
    sharp = [_sharp_modulus(g, L, q) for _, q in pairs]
    count = _class_counter(
        _window_reverses(g, L, pt), [q for _, q in pairs] + sharp
    )
    scale = g**L / (L * math.log(g))
    records = []
    for (a, q), modulus_sharp in zip(pairs, sharp):
        observed = count(a, q)
        main_term = float(rho(g, a, q) / q) * scale
        if main_term > 0.0:
            relative_dev = observed / main_term - 1.0
        else:
            relative_dev = math.nan
        records.append(
            CensusRecord(
                g, L, a, q, observed, main_term, relative_dev,
                count(a, modulus_sharp), modulus_sharp,
            )
        )
    return records


def psi_theta_pi(
    g: int,
    L: int,
    x: float,
    a: int,
    q: int,
    pt: PrimeTable,
    kind: str,
    sharp: bool = False,
) -> float:
    """One of the three weighted counts over {n <= x : rev_L(n) = a mod q}.

    These are the psi, theta and pi of the Siegel-Walfisz analogue.
    kind selects the weight: "psi" sums Lambda over all integers, "theta"
    sums log p over primes, "pi" counts primes.  With sharp the modulus
    drops to gcd(q, g^L (g^2-1)).  Log weights are summed with fsum, so
    the total does not depend on the order of the terms.
    """
    if kind not in ("psi", "theta", "pi"):
        raise ValueError(f"unknown kind {kind!r}")
    if L < 1 or q < 1:
        raise ValueError("need L >= 1 and q >= 1")
    if not 1 <= x <= g**L:
        raise ValueError("x must lie in [1, g^L]")
    top = math.floor(x)
    if top > pt.limit:
        raise ValueError(f"x = {x} beyond sieve limit {pt.limit}")
    modulus = _sharp_modulus(g, L, q) if sharp else q
    if kind == "psi":
        values, bases = pt.prime_powers(top)
    else:
        values = bases = pt.primes[: pt.prime_count(top)]
    hits = _residues(reverse_array(values, g, L), modulus) == a % modulus
    if kind == "pi":
        return float(np.count_nonzero(hits))
    return math.fsum(np.log(bases[hits]).tolist())


def sharp_factor_deviation(
    g: int, x: float, a: int, q: int, pt: PrimeTable
) -> float:
    """|pi(x,a,q) - (m/q) pi_sharp(x,a,q)| / x for absolute reverses.

    The cost of the Siegel-Walfisz analogue's reduction to the sharp modulus.
    m = gcd(q, g^L (g^2-1)) with L one more than the digit length of x.
    Both counts run over all primes up to x with the plain digit reverse.
    """
    if x < 1:
        raise ValueError("x must be at least 1")
    if x > pt.limit:
        raise ValueError(f"x beyond sieve limit {pt.limit}")
    if q < 1:
        raise ValueError("modulus must be positive")
    L = ilog(x, g) + 1
    modulus = _sharp_modulus(g, L, q)
    primes = pt.primes[: pt.prime_count(x)]
    # a prime of k digits has the plain reverse rev_k
    by_length = np.split(primes, np.searchsorted(primes, [g**k for k in range(1, L)]))
    revs = np.concatenate(
        [reverse_array(part, g, k) for k, part in enumerate(by_length, start=1)]
    )
    plain = int(np.count_nonzero(_residues(revs, q) == a % q))
    sharp = int(np.count_nonzero(_residues(revs, modulus) == a % modulus))
    return abs(plain - (modulus / q) * sharp) / x
