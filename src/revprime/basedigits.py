"""Base-g digit utilities.

Exact integer digit decomposition, digit-string length, full and
window-relative digit reversal, plus the small numeric helpers (unit
circle map, distance to the nearest integer, floor) that the rest of
the package shares.  Everything here is integer arithmetic; no float
logarithms are used to make digit-length decisions.  reverse_array is
the vectorized form of both reversals; the scalar functions are the
oracles it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BaseContext",
    "DigitVector",
    "digits_of",
    "digit_length",
    "reverse",
    "reverse_relative",
    "reverse_array",
    "e",
    "dist",
    "floor_part",
    "ilog",
]


@dataclass(frozen=True)
class BaseContext:
    """An integer base g >= 2 together with a cache of exact powers of g.

    The cache holds g^0 .. g^K as exact integers.  K defaults to roughly
    64 bits worth of magnitude (64 for g = 2, scaled down for larger g)
    and is configurable.  Powers beyond the cache are computed on demand,
    still exactly.
    """

    g: int
    max_pow: int = 0
    pow_cache: tuple[int, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.g, int) or self.g < 2:
            raise ValueError(f"base must be an integer >= 2, got {self.g!r}")
        k = self.max_pow
        if k <= 0:
            k = max(8, int(round(64 * math.log(2) / math.log(self.g))))
            object.__setattr__(self, "max_pow", k)
        if not self.pow_cache:
            cache = tuple(self.g**i for i in range(k + 1))
            object.__setattr__(self, "pow_cache", cache)

    def power(self, i: int) -> int:
        """Exact g^i for i >= 0."""
        if i < 0:
            raise ValueError("negative power requested")
        if i < len(self.pow_cache):
            return self.pow_cache[i]
        return self.g**i


@dataclass(frozen=True)
class DigitVector:
    """Digits of a nonnegative integer, least significant first.

    The zero integer has the empty digit vector, and a nonempty vector
    never ends in a trailing zero (the most significant digit is nonzero).
    """

    digits: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)

    def __getitem__(self, i: int) -> int:
        return self.digits[i]

    def to_int(self, ctx: BaseContext) -> int:
        """Reassemble the integer this vector encodes, exactly."""
        value = 0
        for d in reversed(self.digits):
            value = value * ctx.g + d
        return value


def digits_of(n: int, ctx: BaseContext) -> DigitVector:
    """Base-g digits of n >= 0, least significant first, no trailing zeros."""
    if n < 0:
        raise ValueError("digits are defined for nonnegative integers")
    g = ctx.g
    out: list[int] = []
    while n:
        n, d = divmod(n, g)
        out.append(d)
    return DigitVector(tuple(out))


def digit_length(n: int, ctx: BaseContext) -> int:
    """Number of base-g digits of n; zero has length 0."""
    if n < 0:
        raise ValueError("digit length is defined for nonnegative integers")
    g = ctx.g
    length = 0
    while n:
        n //= g
        length += 1
    return length


def reverse(n: int, ctx: BaseContext) -> int:
    """Digit reversal of n in base g; maps 0 to 0.

    Leading zeros of n (there are none) and trailing zeros of n collapse,
    so reverse is not injective; it is an involution on integers whose
    least significant digit is nonzero.
    """
    if n < 0:
        raise ValueError("reverse is defined for nonnegative integers")
    g = ctx.g
    out = 0
    while n:
        n, d = divmod(n, g)
        out = out * g + d
    return out


def reverse_relative(n: int, L: int, ctx: BaseContext) -> int:
    """Reversal of n within a window of L digit positions.

    Digit i of n (i < L) lands at position L-1-i; digits at positions
    >= L are ignored.  For n with exactly L digits this coincides with
    plain reverse; shorter n pick up the factor g^(L - len(n)).
    """
    if n < 0:
        raise ValueError("reverse_relative is defined for nonnegative integers")
    if L < 0:
        raise ValueError("window length must be nonnegative")
    g = ctx.g
    out = 0
    for _ in range(L):
        n, d = divmod(n, g)
        out = out * g + d
    return out


_INT64_MAX = 2**63 - 1


def reverse_array(values, g: int, L: int | None = None) -> np.ndarray:
    """Digit reversal of every entry of values, as an int64 array.

    With L this is reverse_relative(n, L) for each n: exactly L divmod
    steps, digits at positions >= L ignored.  Without L it is the
    absolute reverse(n): the loop runs while any entry is nonzero and
    drops entries from the working set as they run out of digits.
    Raises ValueError on negative entries, and whenever a result could
    exceed int64: g^L > 2^63 - 1, or without L, g^(digit length of the
    largest entry) > 2^63 - 1.
    """
    if not isinstance(g, int) or g < 2:
        raise ValueError(f"base must be an integer >= 2, got {g!r}")
    if L is not None and L < 0:
        raise ValueError("window length must be nonnegative")
    arr = np.asarray(values)
    if arr.size == 0:
        return np.zeros(arr.shape, dtype=np.int64)
    if arr.dtype.kind not in "iuO":
        raise TypeError(f"integer values required, got dtype {arr.dtype}")
    if arr.min() < 0:
        raise ValueError("reverse is defined for nonnegative integers")
    if L is not None:
        if g**L > _INT64_MAX:
            raise ValueError(f"{g}^{L} overflows int64")
        if not np.can_cast(arr.dtype, np.int64):
            # uint64 or Python integers: digits >= L are ignored anyway,
            # and the residues mod g^L convert to int64 exactly
            arr = arr % g**L
        n = arr.astype(np.int64)
        out = np.zeros_like(n)
        for _ in range(L):
            n, d = np.divmod(n, g)
            out *= g
            out += d
        return out
    top = int(arr.max())
    if g ** digit_length(top, BaseContext(g)) > _INT64_MAX:
        raise ValueError(f"reverse of {top} in base {g} overflows int64")
    flat = arr.astype(np.int64).ravel()
    out = np.zeros_like(flat)
    live = np.flatnonzero(flat)
    n, acc = flat[live], np.zeros(live.size, dtype=np.int64)
    while live.size:
        n, d = np.divmod(n, g)
        acc = acc * g + d
        done = n == 0
        if done.any():
            out[live[done]] = acc[done]
            keep = ~done
            live, n, acc = live[keep], n[keep], acc[keep]
    return out.reshape(arr.shape)


def e(x: float) -> complex:
    """Point exp(2*pi*i*x) on the unit circle."""
    t = 2.0 * math.pi * x
    return complex(math.cos(t), math.sin(t))


def dist(x: float) -> float:
    """Distance from x to the nearest integer, |x - round(x)|.

    Ties round half to even, which does not affect the distance.
    """
    return abs(x - round(x))


def floor_part(x: float) -> int:
    """Integer part [x], the floor."""
    return math.floor(x)


def ilog(x, g: int) -> int:
    """Largest integer k >= 0 with g^k <= x, computed by exact comparison.

    Accepts integer or real x >= 1.  Float logarithms only provide the
    starting guess; the answer is fixed up with exact integer powers so
    boundary cases like x = g^k never misclassify.
    """
    if g < 2:
        raise ValueError("base must be >= 2")
    if x < 1:
        raise ValueError("ilog requires x >= 1")
    k = max(0, int(math.log(float(x)) / math.log(g)))
    while g ** (k + 1) <= x:
        k += 1
    while k > 0 and g**k > x:
        k -= 1
    return k
