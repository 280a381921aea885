"""Base-g digit utilities.

Full and window-relative digit reversal, plus the distance to the
nearest integer that the rest of the package shares.  Everything here
is integer arithmetic; no float logarithms are used to make
digit-length decisions.  Chunked reversal has one home: reverse_chunks
walks an int64 array _CHUNK entries at a time through one workspace,
reversing each slice with the private kernel _reverse_into, a block of
k digits per step through a cached read-only table of g^k <= 2^14
entries; every count of revcount reads its chunks, and none copies them
into an array of all the reverses.  The per-n reference, window_reverse,
lives in tests/oracles.py.  No command calls the scalar reverse: it
stays only because perfbench's traced run counts calls to
revcount.reverse by name, and it leaves with that entry of its PLAN.
Powers of g live here too: ilog is the exact g-adic length and
power_residues the exact ladder num*g^i mod den.  check_base is the one
check of a base.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "INT64_MAX",
    "check_base",
    "reverse",
    "reverse_chunks",
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
    is what reverse_chunks gives with window L.
    """
    check_base(g)
    if n < 0:
        raise ValueError("reverse is defined for nonnegative integers")
    out = 0
    while n:
        n, d = divmod(n, g)
        out = out * g + d
    return out


# the largest int64, the ceiling of every reverse and of revcount's residues
INT64_MAX = 2**63 - 1
# reversal tables hold at most this many int64 entries (128 KiB): base g
# reverses k digits per step, k the largest with g^k <= _TABLE_ENTRIES;
# base 10 takes L = 7 in 2 steps, and 2^12 was slower, 2^16 no faster
_TABLE_ENTRIES = 2**14
# entries reversed per kernel call: at 2^13 each int64 buffer is 64 KiB,
# below glibc's default 128 KiB mmap threshold, so a chunk-sized buffer
# comes from the heap's free lists on every call, never from fresh pages
_CHUNK = 2**13


@functools.lru_cache(maxsize=64)
def _block_table(g: int, s: int) -> np.ndarray:
    """Read-only T_s with T_s[x] the reversal of x within s digits, x < g^s.

    One divmod step per digit over arange(g^s); at most _TABLE_ENTRIES
    entries, so the 64 cached tables hold at most 8 MiB.
    """
    n = np.arange(g**s, dtype=np.int64)
    table = np.zeros_like(n)
    for _ in range(s):
        n, d = np.divmod(n, g)
        table *= g
        table += d
    table.flags.writeable = False
    return table


def _reverse_into(values: np.ndarray, g: int, L: int, out: np.ndarray, work, fits: bool) -> None:
    """Write the reversal of every entry of values within L digits into out.

    values is a 1-d int64 slice of nonnegative entries, read and never
    written; out and the three int64 buffers of work have its length and
    are owned by the caller, so a caller that reverses chunk after chunk
    allocates nothing per chunk.  Each step splits off the low s digits
    d = n - (n // g^s) g^s and appends T_s[d], their reversal within s
    digits, to out, which the first step writes; k digits per step, k
    the largest with g^k <= _TABLE_ENTRIES, and a last step of the L mod
    k digits left over.  fits says every entry is below g^L, so the last
    step needs no divide.  With s = 1 the digit is its own reverse and no
    table is read.  The caller checks the base and that g^L fits int64.
    """
    k = max(1, ilog(_TABLE_ENTRIES, g))
    steps = [k] * (L // k) + ([L % k] if L % k else [])
    if not steps:
        out.fill(0)
    n = values
    q, low, spare = work
    for i, s in enumerate(steps):
        block = g**s
        if fits and i == len(steps) - 1:
            # n is below g^s, its own low digits; q is free scratch
            low, spare = n, q
        else:
            np.floor_divide(n, block, out=q)
            np.multiply(q, block, out=low)
            np.subtract(n, low, out=low)
        digits = low
        if s > 1:
            # every index is below g^s; clip mode writes unbuffered
            digits = np.take(_block_table(g, s), low, out=spare if i else out, mode="clip")
        if i:
            out *= block
            out += digits
        elif s == 1:
            np.copyto(out, digits)
        # the quotient is the next step's n; the old n is free scratch
        n, q, spare = q, spare, q


def reverse_chunks(values: np.ndarray, g: int, L: int):
    """Yield (lo, revs, scratch) for each _CHUNK-entry slice of values.

    revs is the reversal within L digits of values[lo : lo + revs.size]:
    digit i of n (i < L) lands at position L - 1 - i and digits at
    positions >= L are ignored, so on an n with exactly L digits it is
    the plain reverse.  scratch is a free int64 buffer of its length;
    both are views into one workspace of four chunk-sized int64 buffers
    that the next slice reuses.  values is 1-d nonnegative int64 and g a
    checked base; the callers check both.  When iteration starts, _CHUNK
    is read, and ValueError is raised if values is not empty and
    g^L > 2^63 - 1.
    """
    if values.size and g**L > INT64_MAX:
        raise ValueError(f"{g}^{L} overflows int64")
    fits = not values.size or int(values.max()) < g**L
    revs, *work = [np.empty(min(_CHUNK, values.size), dtype=np.int64) for _ in range(4)]
    for lo in range(0, values.size, _CHUNK):
        size = min(_CHUNK, values.size - lo)
        chunk = [w[:size] for w in work]
        _reverse_into(values[lo : lo + size], g, L, revs[:size], chunk, fits)
        yield lo, revs[:size], chunk[0]


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
    check_base(g)
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
