"""Digit-reversed prime counts and their limiting density.

rho is the exact rational density with which primes' digit reverses hit
a fixed residue class; census compares windowed sieve counts against the
density prediction; the sharp variants reduce the modulus to the part
that actually interacts with reversal, gcd(q, g^L (g^2-1)).  At the
bottom, i0_landing and sigma_lower_blocks carry the exact-arithmetic
floor arguments that keep reversal phases away from integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import PrimeTable
# reverse is not called here; it stays importable as revcount.reverse,
# the name perfbench counts reversal calls through
from .basedigits import ilog, power_residues, reverse, reverse_array  # noqa: F401
from .expsum import BoundReport, expsum_context, gamma_coefficient, make_report, sigma
from .seeds import reverse_seed

__all__ = [
    "DegenerateSeedError",
    "CensusRecord",
    "rho",
    "rho_total",
    "exceptional_cap",
    "census",
    "census_grid",
    "census_sharp",
    "psi_theta_pi",
    "sharp_factor_deviation",
    "i0_landing",
    "sigma_lower_blocks",
]


class DegenerateSeedError(ValueError):
    """Raised when every reversal phase of a scale is an exact integer."""


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
    """Sum of rho(g, a, q) / q over a full residue system, exact."""
    return sum(rho(g, a, q) for a in range(q)) / Fraction(q)


def exceptional_cap(g: int, q: int) -> int:
    """Number of distinct primes dividing g*q.

    A zero-density class can still catch a reversed prime when the prime
    divides g*q; this caps how many such strays a census cell may hold.
    """
    return len(_prime_divisors(g * q))


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


def _window_reverses(g: int, L: int, pt: PrimeTable) -> np.ndarray:
    """Digit reverses of every prime in [g^(L-1), g^L), one sieve scan.

    Every such prime has exactly L digits, so the window-relative
    reverse is the plain one.
    """
    primes = pt.primes
    first, last = np.searchsorted(primes, (g ** (L - 1), g**L))
    return reverse_array(primes[first:last], g, L)


def _class_counter(revs: np.ndarray):
    """count(a, m): entries of revs that are a mod m, one bincount per m.

    The bins stop at the largest residue present, so their size is
    bounded by the window, not by m.
    """
    bins: dict[int, np.ndarray] = {}

    def count(a: int, m: int) -> int:
        if m not in bins:
            bins[m] = np.bincount(revs % m)
        r = a % m
        return int(bins[m][r]) if r < bins[m].size else 0

    return count


def census_grid(
    g: int, L: int, pairs, pt: PrimeTable
) -> list[CensusRecord]:
    """CensusRecords for many (a, q) cells from one pass over the window.

    The reverses are computed once, each distinct modulus is binned once,
    and every requested cell is read from those bins.
    """
    if L < 1:
        raise ValueError("window length must be at least 1")
    if g**L > pt.limit:
        raise ValueError(f"window end {g}^{L} beyond sieve limit {pt.limit}")
    count = _class_counter(_window_reverses(g, L, pt))
    wheel = g * g - 1
    scale = g**L / (L * math.log(g))
    records = []
    for a, q in pairs:
        if q < 1:
            raise ValueError("modulus must be positive")
        observed = count(a, q)
        modulus_sharp = math.gcd(q, g**L * wheel)
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


def census(g: int, L: int, a: int, q: int, pt: PrimeTable) -> CensusRecord:
    """Count primes with L digits whose reverse is a mod q, with main term."""
    return census_grid(g, L, [(a, q)], pt)[0]


def census_sharp(
    g: int, L: int, a: int, q: int, pt: PrimeTable, x: float | None = None
) -> int:
    """Primes p <= x whose window-relative reverse is a mod (q, g^L (g^2-1)).

    x defaults to the full window end g^L and may be truncated below it;
    this is the sharp prime count of psi_theta_pi.
    """
    x = g**L if x is None else x
    return int(psi_theta_pi(g, L, x, a, q, pt, "pi", sharp=True))


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
    if g**L > pt.limit:
        raise ValueError(f"window end {g}^{L} beyond sieve limit {pt.limit}")
    modulus = math.gcd(q, g**L * (g * g - 1)) if sharp else q
    top = math.floor(x)
    if kind == "psi":
        values, bases = pt.prime_powers(top)
    else:
        values = bases = pt.primes[: pt.prime_count(top)]
    hits = reverse_array(values, g, L) % modulus == a % modulus
    if kind == "pi":
        return float(np.count_nonzero(hits))
    return math.fsum(np.log(bases[hits]).tolist())


def sharp_factor_deviation(
    g: int, x: float, a: int, q: int, pt: PrimeTable
) -> float:
    """|pi(x,a,q) - (m/q) pi_sharp(x,a,q)| / x for absolute reverses.

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
    modulus = math.gcd(q, g**L * (g * g - 1))
    revs = reverse_array(pt.primes[: pt.prime_count(x)], g)
    plain = int(np.count_nonzero(revs % q == a % q))
    sharp = int(np.count_nonzero(revs % modulus == a % modulus))
    return abs(plain - (modulus / q) * sharp) / x


def i0_landing(g: int, alpha) -> tuple[int, float]:
    """Shift count landing g^i * alpha at least 1/(g+1) away from integers.

    Returns (i0, distance of g^i0 * alpha to the nearest integer).  The
    walk and the final distance are exact rational arithmetic on alpha,
    so the landing inequality is decided without float noise.
    """
    if g < 2:
        raise ValueError("base must be at least 2")
    frac = Fraction(alpha) % 1
    d = min(frac, 1 - frac)
    if d == 0:
        raise ValueError("landing position undefined for integer shifts")
    i0 = 0
    while Fraction(g) ** (i0 + 1) * (g + 1) * d <= g:
        i0 += 1
    landed = Fraction(alpha) * g**i0 % 1
    return i0, float(min(landed, 1 - landed))


def sigma_lower_blocks(g: int, L: int, lam: int, alpha) -> BoundReport:
    """Blocked lower bound K/(g+1)^2 for the tail of reversal phase gaps.

    Computes sigma_hat = min over 0 <= i <= L of the distance from
    g^i (g^2-1) alpha to the integers (exact), the block length J it
    dictates, K = [lam/J] full blocks, and the blocked sum of squared
    distances over the top lam positions.  The returned report checks
    K/(g+1)^2 <= blocked sum; on top of that the cumulative decay weight
    of the reversal seed itself is checked to dominate the blocked sum
    with the explicit per-pair prefactor, and a failure there raises.
    """
    if g < 2:
        raise ValueError("base must be at least 2")
    if not 0 <= lam <= L:
        raise ValueError("need 0 <= lam <= L")
    num, den = (Fraction(alpha) * (g * g - 1)).as_integer_ratio()
    # distance of g^i (g^2-1) alpha to the integers is near[i] / den
    near = [min(r, den - r) for r in power_residues(num, den, g, L + 1)]
    sigma_hat = Fraction(min(near), den)
    if sigma_hat == 0:
        raise DegenerateSeedError(
            f"g^i (g^2-1) alpha hits an integer for some i <= {L}"
        )
    J = 1
    while Fraction(g) ** J * (g + 1) * sigma_hat <= g:
        J += 1
    K = lam // J
    blocked = math.fsum((near[i] / den) ** 2 for i in range(L - lam, L))
    report = make_report(
        K / (g + 1) ** 2,
        blocked,
        params={
            "g": g, "L": L, "lam": lam, "alpha": float(alpha),
            "sigma_hat": float(sigma_hat), "J": J, "K": K,
        },
    )
    es = expsum_context(reverse_seed(g, L, Fraction(alpha)))
    floor = gamma_coefficient(g) / g**2 * blocked
    got = sigma(es, lam, 0)
    if got + 1e-12 < floor:
        raise RuntimeError(
            f"cumulative decay weight {got} under its blocked floor {floor}"
        )
    return report
