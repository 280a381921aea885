"""The one reference for each fact the tests check the package against.

Everything here is plain Python over integers and Fractions, written to
be read, not to be fast: the base-g window reversal, trial-division
factoring and what follows from it, the exact digit weights of the seed
families and their digit sums, the row-phase loops the phase kernels
replaced, the two-sided van der Corput loop, and raw float bytes.
Nothing here calls the code it checks; from the package it reads only
the seed family types.
"""

import math
from fractions import Fraction

import numpy as np

from revprime.seeds import ReverseSeed, SodSeed, TableSeed


def window_reverse(n, g, L=None):
    """Reversal of n within L base-g digits: digit i (i < L) lands at L-1-i.

    Digits at or past position L are ignored.  L defaults to the digit
    length of n, which gives the plain reversal.
    """
    if L is None:
        L = 0
        while g**L <= n:
            L += 1
    out = 0
    for _ in range(L):
        n, d = divmod(n, g)
        out = out * g + d
    return out


def factorize(n):
    """((p, e), ...) with p ascending, by trial division; () for n = 1."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def is_prime(n):
    f = factorize(n)
    return len(f) == 1 and f[0][1] == 1


def prime_divisors(n):
    return [p for p, _ in factorize(n)]


def primes_upto(x):
    return [n for n in range(2, math.floor(x) + 1) if is_prime(n)]


def mangoldt(n):
    f = factorize(n)
    return math.log(f[0][0]) if len(f) == 1 else 0.0


def mobius(n):
    f = factorize(n)
    return 0 if any(e > 1 for _, e in f) else (-1) ** len(f)


def divisors(n):
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def weight(seed, i, d):
    """The exact weight of digit d at position i; frac_rows holds it mod 1."""
    if isinstance(seed, SodSeed):
        return Fraction(seed.scale) * d
    if isinstance(seed, ReverseSeed):
        return Fraction(seed.scale) * d * Fraction(seed.base) ** (seed.window - i - 1)
    if isinstance(seed, TableSeed):
        return Fraction(seed.rows[i % len(seed.rows)][d])
    raise TypeError(f"no weight oracle for {type(seed).__name__}")


def digit_sum(seed, lam, j, n):
    """Exact sum over the low lam digits of n of the weights read from position j on."""
    total = Fraction(0)
    for i in range(lam):
        n, d = divmod(n, seed.base)
        total += weight(seed, j + i, d)
    return total


def row_phases(tab, values, g):
    """sum_i tab[i][digit i of v] for each v, one Python loop per integer."""
    out = []
    for v in values:
        total = 0.0
        for row in tab:
            v, d = divmod(v, g)
            total += row[d]
        out.append(total)
    return out


def divmod_phases(tab, n, g):
    """row_phases as one numpy divmod pass per row; higher digits are ignored."""
    rem = np.asarray(n, dtype=np.int64)
    phase = np.zeros(rem.shape, dtype=np.float64)
    for row in tab:
        rem, d = np.divmod(rem, g)
        phase += row[d]
    return phase


def bits(values):
    """Raw float64 bytes: equal only when every entry, sign of zero included, is equal."""
    return np.asarray(values, dtype=np.float64).tobytes()


def vdc_two_sided(z, R):
    """vdc_lhs_rhs with one correlation sum per lag r in -R < r < R."""
    z = np.asarray(z, dtype=np.complex128)
    N = z.size
    lhs = abs(complex(np.sum(z))) ** 2
    total = 0j
    for r in range(-R + 1, R):
        k = abs(r)
        if k >= N:
            continue
        corr = complex(np.sum(z[k:] * np.conj(z[: N - k])))
        if r < 0:
            corr = corr.conjugate()
        total += (1.0 - k / R) * corr
    return lhs, (N + R - 1) / R * total.real
