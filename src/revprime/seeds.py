"""Position-indexed digit weights and the additive functionals they generate.

A seed assigns a real weight to every (position, digit) pair for a fixed
base g.  Summing the weights of the digits of n over a window of positions
gives a periodic, additive digit functional; a shift j, the j argument
of frac_rows, reads the weights from position j on.  Named families:

  sod_seed(g, a)          weight a*d at every position (scaled digit sum);
                          a = 0.0 gives the zero family, every weight +0.0
  reverse_seed(g, L, a)   weight a*d*g^(L-i-1) at position i, so the window
                          sum over L positions equals a times the reversal
                          of n within that window
  table_seed(g, rows)     explicit weight table, cycled past its rows

A seed is its base and its frac_rows.  The package only ever needs a
weight mod 1, so frac_rows returns the weights already reduced, each the
double nearest the exact fractional part: the sod and reverse families
reduce their closed forms on basedigits.power_residues ladders, so
positions with astronomically large weights still produce exact
fractional parts.  A negative shift raises ValueError in every family.
A seed is the whole context of the sums: frozen and hashable, its base
checked by check_base when it is built, and seeds that compare equal
(sod_seed(g, 0.0) and sod_seed(g, -0.0), a Fraction scale and its
float) give bit-identical rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .basedigits import check_base, power_residues

__all__ = [
    "Seed",
    "SodSeed",
    "ReverseSeed",
    "TableSeed",
    "sod_seed",
    "reverse_seed",
    "table_seed",
]


class Seed:
    """Digit-weight table: deterministic map (position i, digit d) -> real."""

    base: int

    def __post_init__(self) -> None:
        check_base(self.base)

    def frac_rows(self, j: int, count: int) -> np.ndarray:
        """Array of shape (count, g): row i holds position j + i's weights mod 1."""
        raise NotImplementedError

    def _check(self, j: int) -> None:
        if j < 0:
            raise ValueError("shift must be nonnegative")


@dataclass(frozen=True)
class SodSeed(Seed):
    """Scaled digit sum: weight a*d at every position."""

    base: int
    scale: float

    def frac_rows(self, j: int, count: int) -> np.ndarray:
        self._check(j)
        num, den = Fraction(self.scale).as_integer_ratio()
        # the weight a*d carries g^0 at every position: a ladder of one rung
        row = _residue_rows(power_residues(num, den, self.base, 1), den, self.base)
        return np.tile(row, (count, 1))


@dataclass(frozen=True)
class ReverseSeed(Seed):
    """Weights a*d*g^(L-i-1): window sums evaluate a times a digit reversal.

    Positions at or beyond L get fractional powers of g (exact rationals),
    so the seed stays defined for every position.
    """

    base: int
    window: int
    scale: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.window < 0:
            raise ValueError("window must be nonnegative")

    def frac_rows(self, j: int, count: int) -> np.ndarray:
        self._check(j)
        g = self.base
        out = np.zeros((count, g), dtype=np.float64)
        if self.scale == 0 or count == 0:
            return out
        num, den = Fraction(self.scale).as_integer_ratio()
        # Inside the window row i holds the residue num*g^(window-j-i-1)
        # mod den, so the in-window rows, last to first, are one power
        # ladder.  Past the window a weight is num*d / (den*g^k), and each
        # row has its own denominator.
        top = min(count, max(0, self.window - j))
        if top > 0:
            start = num * pow(g, self.window - j - top, den)
            out[:top] = _residue_rows(power_residues(start, den, g, top)[::-1], den, g)
        for i in range(top, count):
            big = den * g ** (j + i + 1 - self.window)
            out[i] = _residue_rows([num], big, g)
        return out


@dataclass(frozen=True)
class TableSeed(Seed):
    """Explicit weight table over finitely many positions.

    Positions past the table re-read it periodically: position i takes
    row i mod len(rows).
    """

    base: int
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.rows:
            raise ValueError("table seed needs at least one row")
        for row in self.rows:
            if len(row) != self.base:
                raise ValueError("each row needs one weight per digit")

    def frac_rows(self, j: int, count: int) -> np.ndarray:
        self._check(j)
        rows = np.array(self.rows, dtype=np.float64)
        return rows[(j % len(rows) + np.arange(count)) % len(rows)] % 1.0


def _residue_rows(residues: list[int], den: int, g: int) -> np.ndarray:
    """Rows (r*d mod den) / den over the digits d = 0..g-1, one per residue r.

    Each entry is one correctly rounded integer division, the double
    nearest the exact fractional part of the weight r*d/den.
    """
    rows = [[r * d % den / den for d in range(g)] for r in residues]
    return np.array(rows, dtype=np.float64).reshape(len(residues), g)


def sod_seed(g: int, a: float) -> SodSeed:
    return SodSeed(g, a)


def reverse_seed(g: int, L: int, a: float) -> ReverseSeed:
    return ReverseSeed(g, L, a)


def table_seed(g: int, rows) -> TableSeed:
    frozen = tuple(tuple(float(v) for v in row) for row in rows)
    return TableSeed(g, frozen)
