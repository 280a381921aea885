"""Base-g digit utilities.

Full and window-relative digit reversal, plus the distance to the
nearest integer that the rest of the package shares.  Everything here
is integer arithmetic; no float logarithms are used to make
digit-length decisions.  reverse_array is the window reversal every
command runs: it reverses a block of k digits per step through one
table of g^k <= 2^12 entries.  The scalar reverse is the plain
reversal of one integer.  Powers of g live here too: ilog is the exact
g-adic length and power_residues the exact ladder num*g^i mod den.
check_base is the one check of a base, shared by the reversals and the
seeds.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "check_base",
    "reverse",
    "reverse_array",
    "dist",
    "ilog",
    "power_residues",
]


def check_base(g) -> None:
    """Raise ValueError unless g is an integer base g >= 2."""
    if not isinstance(g, int) or g < 2:
        raise ValueError(f"base must be an integer >= 2, got {g!r}")


def reverse(n: int, g: int) -> int:
    """Digit reversal of n in base g; maps 0 to 0.

    Leading zeros of n (there are none) and trailing zeros of n collapse,
    so reverse is not injective; it is an involution on integers whose
    least significant digit is nonzero.  On an n with exactly L digits it
    is reverse_array with window L.
    """
    check_base(g)
    if n < 0:
        raise ValueError("reverse is defined for nonnegative integers")
    out = 0
    while n:
        n, d = divmod(n, g)
        out = out * g + d
    return out


_INT64_MAX = 2**63 - 1
# reversal tables hold at most this many int64 entries (32 KiB): base g
# reverses k digits per step, k the largest with g^k <= _TABLE_ENTRIES
_TABLE_ENTRIES = 2**12


def _reverse_digits(n: np.ndarray, g: int, width: int) -> np.ndarray:
    """Window reversal of the int64 array n, one divmod step per digit.

    Builds the block tables of reverse_array: applied to arange(g^s)
    with width s it gives T_s[x], the reversal of x within s digits.
    """
    out = np.zeros_like(n)
    for _ in range(width):
        n, d = np.divmod(n, g)
        out *= g
        out += d
    return out


def reverse_array(values, g: int, L: int) -> np.ndarray:
    """Reversal of every entry of values within a window of L digits, as int64.

    Digit i of n (i < L) lands at position L - 1 - i, and digits at
    positions >= L are ignored; on an n with exactly L digits this is
    the plain reverse.  The reversal takes k digits per step, k the
    largest with g^k <= 2^12: the low s digits d = n - (n // g^s) g^s go
    through the table T_s[d] of their reversals within s digits, and the
    last step takes the L mod k
    digits left over.  With k = 1 the digit is its own reverse and no
    table is built.

    Raises TypeError on values whose dtype does not cast to int64 (uint64
    and Python integers beyond int64 among them), and ValueError on
    negative entries and whenever a result could exceed int64:
    g^L > 2^63 - 1.
    """
    check_base(g)
    if L < 0:
        raise ValueError("window length must be nonnegative")
    arr = np.asarray(values)
    if arr.size == 0:
        return np.zeros(arr.shape, dtype=np.int64)
    if arr.dtype.kind not in "iu" or not np.can_cast(arr.dtype, np.int64):
        raise TypeError(f"values must cast to int64, got dtype {arr.dtype}")
    if arr.min() < 0:
        raise ValueError("reverse is defined for nonnegative integers")
    if g**L > _INT64_MAX:
        raise ValueError(f"{g}^{L} overflows int64")
    # a fresh array, also for 0-d input: the block loop writes into n
    n = np.array(arr, dtype=np.int64)
    k = max(1, ilog(_TABLE_ENTRIES, g))
    steps = [k] * (L // k)
    if L % k:
        steps.append(L % k)
    tables = {
        s: _reverse_digits(np.arange(g**s, dtype=np.int64), g, s)
        for s in set(steps) if s > 1
    }
    # n, q, low and out are the only full-size buffers the loop touches
    q = np.empty_like(n)
    low = np.empty_like(n)
    out = np.zeros_like(n)
    for s in steps:
        block = g**s
        np.floor_divide(n, block, out=q)
        np.multiply(q, block, out=low)
        np.subtract(n, low, out=n)
        digits = n
        if s > 1:
            # every index is below g^s; clip mode writes low unbuffered
            digits = np.take(tables[s], n, out=low, mode="clip")
        out *= block
        out += digits
        n, q = q, n
    return out


def dist(x: float) -> float:
    """Distance from x to the nearest integer, |x - round(x)|.

    Ties round half to even, which does not affect the distance.
    """
    return abs(x - round(x))


def ilog(x, g: int) -> int:
    """Largest integer k >= 0 with g^k <= x, computed by exact comparison.

    Accepts integer or real x >= 1 of any size, Fractions included.  A
    float logarithm of floor(x) only provides the starting guess; the
    answer is fixed up with exact integer powers so boundary cases like
    x = g^k never misclassify.
    """
    if g < 2:
        raise ValueError("base must be >= 2")
    if x < 1:
        raise ValueError("ilog requires x >= 1")
    # g^k <= x exactly when g^k <= floor(x), and math.log takes integers
    # of any size where a float conversion would overflow
    n = math.floor(x)
    k = max(0, int(math.log(n) / math.log(g)))
    while g ** (k + 1) <= n:
        k += 1
    while k > 0 and g**k > n:
        k -= 1
    return k


def power_residues(num: int, den: int, g: int, count: int) -> list[int]:
    """Exact residues num * g^i mod den for i = 0..count-1.

    The ladder of fractional parts: frac((num/den) * g^i) is entry i
    over den.  Each rung is one modular multiply, so the walk stays
    exact however long it runs; r / den rounds an entry once.
    """
    if den < 1:
        raise ValueError("denominator must be positive")
    if count < 0:
        raise ValueError("count must be nonnegative")
    out = []
    r = num % den
    for _ in range(count):
        out.append(r)
        r = r * g % den
    return out
