"""Linear and bilinear exponential sums with digit-weight phases.

type_i_sum scans every arithmetic progression m, 2m, ... with an exact
prefix supremum; type_ii_sum is the bilinear box sum with pluggable
bounded coefficients; prime_exp_sum is the von Mangoldt weighted sum the
two of them control, with an optional self-check through the four-term
split of arith.vaughan_terms.  The van der Corput, sine-sum and digit
truncation helpers feeding the bilinear estimate are exposed with both
sides computable so the inequalities can be swept numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .arith import PrimeTable, mangoldt_array, mobius_values, vaughan_arrays
from .basedigits import dist, ilog
from .expsum import BoundReport, CostBudgetError, ExpSumContext, make_report, sigma

__all__ = [
    "X_BUDGET",
    "TypeIParams",
    "TypeIIParams",
    "PrimeSumResult",
    "type_i_params",
    "type_i_sum",
    "type_i_bound_shape",
    "type_ii_params",
    "type_ii_sum",
    "type_ii_bound_shape",
    "mobius_coefficients",
    "mangoldt_tail_coefficients",
    "unimodular_coefficients",
    "zero_coefficients",
    "truncation_set_size",
    "vdc_lhs_rhs",
    "sin_sum_check",
    "prime_exp_sum",
]

# Enumeration budget shared by every sum that walks up to x.
X_BUDGET = 10**6

Coefficients = Callable[[np.ndarray], np.ndarray]


def _phases(es: ExpSumContext, L: int, n: np.ndarray) -> np.ndarray:
    """Digit-weight phase values (mod 1) for an array of integers >= 0.

    Position i of each entry contributes the seed's weight at (i, digit).
    Entries are allowed to have more than L digits; the excess digits are
    ignored, matching the finite window of the phase function.
    """
    g = es.ctx.g
    rows = es.seed.frac_rows(0, L)
    # weight of an all-zero digit tail starting at each level
    zero_tail = np.concatenate([np.cumsum(rows[::-1, 0])[::-1], [0.0]])
    m = np.asarray(n, dtype=np.int64)
    vals = np.zeros(m.shape, dtype=np.float64)
    for i in range(L):
        if not m.any():
            vals += zero_tail[i]
            break
        m, d = np.divmod(m, g)
        vals += rows[i][d]
    return vals


@dataclass(frozen=True)
class TypeIParams:
    """Window length, range, and progression count for a linear sum."""

    L: int
    x: float
    M: float
    xi_I: int
    kappa_I: float


def type_i_params(es: ExpSumContext, L: int, x: float, M: float) -> TypeIParams:
    g = es.ctx.g
    if not 2 <= x <= g**L:
        raise ValueError(f"need 2 <= x <= {g}^{L}")
    if x > X_BUDGET:
        raise CostBudgetError(f"x = {x} beyond enumeration budget {X_BUDGET}")
    if not M > 0:
        raise ValueError("progression count M must be positive")
    if M * M > x * (1.0 + 1e-12):
        raise ValueError("M must stay at or below sqrt(x)")
    xi = ilog(x, g)
    return TypeIParams(L, x, M, xi, sigma(es, xi, 0))


def type_i_sum(es: ExpSumContext, p: TypeIParams) -> float:
    """Sum over m <= M of the exact prefix supremum of the phase sum.

    The supremum over real cutoffs t in [1, x/m] is attained at integer
    prefixes, so a running cumulative maximum evaluates it exactly.
    """
    parts = []
    for m in range(1, math.floor(p.M) + 1):
        top = math.floor(p.x / m)
        n = np.arange(1, top + 1, dtype=np.int64)
        prefix = np.cumsum(np.exp(2j * np.pi * _phases(es, p.L, m * n)))
        parts.append(float(np.abs(prefix).max()))
    return math.fsum(parts)


def type_i_bound_shape(es: ExpSumContext, p: TypeIParams) -> float:
    """x * g^(-kappa_I) * (log x)^2, the bound up to its calibrated constant."""
    return p.x * es.ctx.g ** (-p.kappa_I) * math.log(p.x) ** 2


@dataclass(frozen=True)
class TypeIIParams:
    """Dyadic box, exponents, and coefficient generators for a bilinear sum."""

    L: int
    x: float
    M: float
    N: float
    theta: float
    a_coeff: Coefficients
    b_coeff: Coefficients
    xi_II: int
    kappa_II: float
    R: float
    lam: int
    mu: int


def _theta_ilog(x: float, g: int, theta: float) -> int:
    """Largest k >= 0 with g^k <= x^theta.

    Exact integer comparison when x is integral and theta has a small
    exact rational form; otherwise a float evaluation with a one-sided
    nudge so clean powers land on the right side.
    """
    fr = Fraction(theta)
    if x == int(x) and fr.denominator <= 64 and fr.numerator <= 64:
        xp = int(x) ** fr.numerator
        k = 0
        while g ** ((k + 1) * fr.denominator) <= xp:
            k += 1
        return k
    return max(0, math.floor(theta * math.log(x) / math.log(g) + 1e-9))


def type_ii_params(
    es: ExpSumContext,
    L: int,
    x: float,
    M: float,
    N: float,
    theta: float,
    a_coeff: Coefficients,
    b_coeff: Coefficients,
) -> TypeIIParams:
    g = es.ctx.g
    if not (x >= 2 and x <= g**L):
        raise ValueError(f"need 2 <= x <= {g}^{L}")
    if x > X_BUDGET:
        raise CostBudgetError(f"x = {x} beyond enumeration budget {X_BUDGET}")
    if not theta > 0:
        raise ValueError("theta must be positive")
    if min(M, N) < 1:
        raise ValueError("box corners must be at least 1")
    floor_xtheta = x**theta * (1.0 - 1e-12)
    if M < floor_xtheta or N < floor_xtheta:
        raise ValueError("box corners must be at least x^theta")
    xi = _theta_ilog(x, g, theta)
    kappa = sigma(es, xi, 0) / 10.0
    R = float(g) ** (2.0 * kappa)
    lam = ilog(M * R * R, g) + 1
    mu = ilog(M, g) + 1
    return TypeIIParams(L, x, M, N, theta, a_coeff, b_coeff, xi, kappa, R, lam, mu)


def type_ii_sum(es: ExpSumContext, p: TypeIIParams) -> complex:
    """Bilinear sum of a(m) b(n) e(phase(mn)) over the box, mn <= x.

    Rows are reduced with numpy's pairwise summation and collected in
    ascending m order, so the result is reproducible bit for bit.
    """
    m_first = math.floor(p.M) + 1
    m_last = math.floor(2.0 * p.M)
    if m_last < m_first:
        return 0j
    a_vals = np.asarray(
        p.a_coeff(np.arange(m_first, m_last + 1, dtype=np.int64)),
        dtype=np.complex128,
    )
    n_lo = math.floor(p.N)
    n_cap = math.floor(2.0 * p.N)
    parts = []
    for m, a in zip(range(m_first, m_last + 1), a_vals):
        n_hi = min(n_cap, math.floor(p.x / m))
        if n_hi <= n_lo or a == 0:
            continue
        n = np.arange(n_lo + 1, n_hi + 1, dtype=np.int64)
        b = np.asarray(p.b_coeff(n), dtype=np.complex128)
        phase = np.exp(2j * np.pi * _phases(es, p.L, m * n))
        parts.append(complex(a) * complex(np.sum(b * phase)))
    if not parts:
        return 0j
    return complex(np.sum(np.asarray(parts, dtype=np.complex128)))


def type_ii_bound_shape(es: ExpSumContext, p: TypeIIParams) -> float:
    """x * g^(-kappa_II) * log x, the bound up to its calibrated constant."""
    return p.x * es.ctx.g ** (-p.kappa_II) * math.log(p.x)


def mobius_coefficients(pt: PrimeTable) -> Coefficients:
    def gen(n: np.ndarray) -> np.ndarray:
        return mobius_values(pt, n).astype(np.complex128)

    return gen


def mangoldt_tail_coefficients(pt: PrimeTable, z: float, x: float) -> Coefficients:
    """Above-threshold von Mangoldt tail scaled by 1/log x; bounded by 1 on [1, x].

    The tail is tabulated up to the largest n asked for so far (a
    prefix of the table over [1, x] is the table over a shorter range);
    entries outside [1, x] raise.
    """
    top = math.floor(x)
    scale = 1.0 / math.log(x)
    values = np.zeros(1, dtype=np.float64)

    def gen(n: np.ndarray) -> np.ndarray:
        nonlocal values
        n = np.asarray(n, dtype=np.int64)
        if n.size == 0:
            return np.zeros(0, dtype=np.complex128)
        if n.min() < 1 or n.max() > top:
            raise ValueError(f"tail coefficients cover [1, {top}] only")
        if n.max() >= values.size:
            values = vaughan_arrays(pt, z, int(n.max())).mangoldt_tail * scale
        return values[n].astype(np.complex128)

    return gen


def zero_coefficients() -> Coefficients:
    def gen(n: np.ndarray) -> np.ndarray:
        return np.zeros(n.shape, dtype=np.complex128)

    return gen


def unimodular_coefficients(salt: int = 0) -> Coefficients:
    """Deterministic unit-modulus stress coefficients.

    The phase of each entry is a pure function of (n, salt) through a
    64-bit mixing permutation, so sweeps are reproducible no matter how
    the index range is chunked.
    """

    def gen(n: np.ndarray) -> np.ndarray:
        v = n.astype(np.uint64) + np.uint64(salt & 0xFFFFFFFFFFFFFFFF)
        v = (v ^ (v >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        v = (v ^ (v >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        v = v ^ (v >> np.uint64(31))
        t = v.astype(np.float64) * 2.0**-64
        return np.exp(2j * np.pi * t)

    return gen


def truncation_set_size(
    es: ExpSumContext,
    M: float,
    N: float,
    R: float,
    r: int,
    L: int,
    lam: int,
) -> tuple[int, int]:
    """Count box pairs whose long and short phase differences disagree.

    Membership compares sum_{lam <= i < L} (weight of digit i of m(n+r)
    minus weight of digit i of mn) against zero in exact rational
    arithmetic over the stored weight values, so no float-equality
    ambiguity enters.  Also counts the superset of pairs with a multiple
    of g^lam inside (mn, m(n+r)], raising if containment ever fails;
    returns (member count, superset count).
    """
    g = es.ctx.g
    if min(M, N, R) < 1:
        raise ValueError("M, N, R must be at least 1")
    if not 0 <= r <= R:
        raise ValueError("shift r must lie in [0, R]")
    if not lam <= L:
        raise ValueError("short window must not exceed the long one")
    if not g ** (lam - 1) <= M * R * R < g**lam:
        raise ValueError("window length does not match M R^2")
    if R * R > N * (1.0 + 1e-12):
        raise ValueError("R must stay at or below sqrt(N)")
    glam = g**lam
    rows = es.seed.frac_rows(0, L)
    weights = [[Fraction(rows[i, d]) for d in range(g)] for i in range(L)]
    members = 0
    superset = 0
    for m in range(math.floor(M) + 1, math.floor(2.0 * M) + 1):
        for n in range(math.floor(N) + 1, math.floor(2.0 * N) + 1):
            low, high = m * n, m * (n + r)
            k_low, k_high = low // glam, high // glam
            in_superset = k_high > k_low
            delta = Fraction(0)
            a, b = k_high, k_low
            for i in range(lam, L):
                if a == b == 0:
                    break
                wrow = weights[i]
                delta += wrow[a % g] - wrow[b % g]
                a //= g
                b //= g
            member = delta != 0
            if member and not in_superset:
                raise RuntimeError(
                    f"containment failed at (m, n) = ({m}, {n}), r = {r}"
                )
            members += member
            superset += in_superset
    return members, superset


def vdc_lhs_rhs(z, R: int) -> tuple[float, float]:
    """Both sides of the shift-averaged squared-sum inequality.

    Returns (|sum z|^2, (N+R-1)/R * sum over |r| < R of the triangular
    weight times the shifted correlation).  The correlation total is
    real up to rounding by r <-> -r symmetry; its real part is reported.
    """
    z = np.asarray(z, dtype=np.complex128)
    N = z.size
    if N < 1:
        raise ValueError("need at least one term")
    if R < 1:
        raise ValueError("shift count R must be at least 1")
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
    rhs = (N + R - 1) / R * total.real
    return lhs, rhs


def sin_sum_check(a: int, m: int, b: float, M: float) -> BoundReport:
    """Reciprocal-sine sum against its three-term closed bound.

    Terms with a vanishing sine are capped at M on both sides, matching
    the min in the statement.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    if not M > 0:
        raise ValueError("cap M must be positive")
    lhs = 0.0
    for n in range(m):
        s = abs(math.sin(math.pi * (a * n + b) / m))
        lhs += M if s == 0.0 else min(M, 1.0 / s)
    d = math.gcd(a, m)
    s_main = math.sin(math.pi * (d / m) * dist(b / d))
    term_main = d * (M if s_main == 0.0 else min(M, 1.0 / s_main))
    term_mid = d / math.sin(math.pi * d / (2.0 * m))
    term_log = (2.0 * m / math.pi) * math.log(2.0 * m / (math.pi * d))
    return make_report(
        lhs,
        term_main + term_mid + term_log,
        params={"a": a, "m": m, "b": b, "M": M, "d": d},
    )


@dataclass(frozen=True)
class PrimeSumResult:
    """Prime-weighted phase sum with its decay exponent and bound shape."""

    S: complex
    kappa: float
    xi: int
    z: float
    bound_shape: float
    ratio: float


def _vaughan_route(
    es: ExpSumContext, L: int, x: float, z: float, pt: PrimeTable
) -> complex:
    """S rebuilt from the four-term split, summed in split order.

    Each piece is organized as an outer loop over the short factor with
    a vectorized inner range, mirroring how the pieces are estimated.
    """
    top = math.floor(x)
    va = vaughan_arrays(pt, z, top)
    lam, mu, c2 = va.mangoldt, va.mobius, va.mangoldt_tail
    zsq = z * z

    def inner_phase(m: int, hi: int) -> np.ndarray:
        n = np.arange(1, hi + 1, dtype=np.int64)
        return np.exp(2j * np.pi * _phases(es, L, m * n))

    s1 = 0j
    for m in range(1, math.floor(z) + 1):
        if mu[m] == 0:
            continue
        hi = math.floor(x / m)
        n = np.arange(1, hi + 1, dtype=np.int64)
        s1 += mu[m] * complex(np.sum(np.log(n) * inner_phase(m, hi)))

    s2 = 0j
    for m in range(math.floor(z) + 1, top + 1):
        if mu[m] == 0:
            continue
        hi = math.floor(x / m)
        if hi <= z:
            continue
        n = np.arange(math.floor(z) + 1, hi + 1, dtype=np.int64)
        phase = np.exp(2j * np.pi * _phases(es, L, m * n))
        s2 += mu[m] * complex(np.sum(c2[n] * phase))

    s3 = 0j
    for m in range(1, min(math.floor(zsq), top) + 1):
        w = va.mobius_mangoldt_window[m]
        if w == 0.0:
            continue
        hi = math.floor(x / m)
        s3 -= w * complex(np.sum(inner_phase(m, hi)))

    hi4 = min(math.floor(z), top)
    n4 = np.arange(1, hi4 + 1, dtype=np.int64)
    s4 = complex(np.sum(lam[n4] * np.exp(2j * np.pi * _phases(es, L, n4))))
    return s1 + s2 + s3 + s4


def prime_exp_sum(
    es: ExpSumContext,
    L: int,
    x: float,
    pt: PrimeTable,
    vaughan_check: bool = False,
) -> PrimeSumResult:
    """Sum of Lambda(n) e(phase(n)) for n <= x, with its decay exponent.

    With vaughan_check the sum is recomputed through the four-term split
    (threshold z = x^(1/4)) and the two routes must agree to 1e-6
    relative; disagreement raises.
    """
    g = es.ctx.g
    if not 2 <= x <= g**L:
        raise ValueError(f"need 2 <= x <= {g}^{L}")
    if x > pt.limit:
        raise ValueError(f"x = {x} beyond sieve limit {pt.limit}")
    if x > X_BUDGET:
        raise CostBudgetError(f"x = {x} beyond enumeration budget {X_BUDGET}")
    top = math.floor(x)
    lam = mangoldt_array(pt, top)
    n = np.arange(2, top + 1, dtype=np.int64)
    S = complex(np.sum(lam[n] * np.exp(2j * np.pi * _phases(es, L, n))))
    xi = ilog(x, g) // 4
    kappa = sigma(es, xi, 0) / 10.0
    if kappa > xi / 20.0 + 1e-12:
        raise RuntimeError(f"decay exponent {kappa} above its cap {xi / 20.0}")
    bound_shape = x * g ** (-kappa) * math.log(x) ** 4
    ratio = abs(S) / bound_shape
    if vaughan_check:
        z = x**0.25
        other = _vaughan_route(es, L, x, z, pt)
        if abs(S - other) > 1e-6 * max(1.0, abs(S)):
            raise RuntimeError(
                f"four-term route {other} disagrees with direct sum {S}"
            )
    return PrimeSumResult(S, kappa, xi, x**0.25, bound_shape, ratio)
