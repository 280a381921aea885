"""Linear and bilinear exponential sums with digit-weight phases.

type_i_sum scans every arithmetic progression m, 2m, ... with an exact
prefix supremum; type_ii_sum is the bilinear box sum with pluggable
bounded coefficients; prime_exp_sum is the von Mangoldt weighted sum the
two of them control through the four-term split of arith.vaughan_arrays.
Each of the three is one call that checks its own inputs and returns a
SumResult: the sum S, its decay exponent kappa over xi digits, and the
bound shape that the verifier scales by a calibrated constant.
The van der Corput, sine-sum and digit truncation helpers feeding the
bilinear estimate are exposed with both sides computable so the
inequalities can be swept numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .arith import mangoldt_array, mobius_values, vaughan_arrays
from .basedigits import dist, ilog
from .expsum import (
    WORK_BUDGET,
    BoundReport,
    CostBudgetError,
    _cis,
    _phase_tree,
    make_report,
    sigma,
)
from .seeds import Seed

__all__ = [
    "SumResult",
    "type_i_sum",
    "type_ii_sum",
    "mobius_coefficients",
    "mangoldt_tail_coefficients",
    "unimodular_coefficients",
    "truncation_set_size",
    "vdc_lhs_rhs",
    "sin_sum_check",
    "prime_exp_sum",
]

Coefficients = Callable[[np.ndarray], np.ndarray]


def _unit_phases(seed: Seed, L: int, top: int) -> np.ndarray:
    """e(phase(n)) for every 0 <= n <= top, from expsum's digit-phase tree.

    Digits at or beyond L are ignored, matching the finite window of the
    phase function: the table has period g^L.
    """
    return _cis(_phase_tree(seed.frac_rows(0, L), seed.base, top))


def _row_sums(table, a, m_first, b, n_lo, n_cap, top) -> list[complex]:
    """a(m) times the sum of b(n) e(phase(mn)) over n_lo < n <= min(n_cap, top // m).

    table is a _unit_phases table over [0, top] and row m reads a[m - m_first];
    b holds b(n) for n_lo < n <= n_cap, or is None for b = 1.  Rows with
    a(m) = 0 or an empty range are skipped; the rest come back in ascending
    m, each reduced by one pairwise np.sum.
    """
    parts = []
    for m, coeff in enumerate(a, start=m_first):
        n_hi = min(n_cap, top // m)
        if n_hi <= n_lo or coeff == 0:
            continue
        phase = table[m * (n_lo + 1) : m * n_hi + 1 : m]
        terms = phase if b is None else b[: n_hi - n_lo] * phase
        parts.append(complex(coeff) * complex(np.sum(terms)))
    return parts


def _check_window(seed: Seed, L: int, x: float) -> None:
    """x must lie in [2, g^L] and within the work budget."""
    g = seed.base
    if not 2 <= x <= g**L:
        raise ValueError(f"need 2 <= x <= {g}^{L}")
    if x > WORK_BUDGET:
        raise CostBudgetError(f"x = {x} beyond the work budget {WORK_BUDGET}")


def _decay(seed: Seed, x: float) -> tuple[int, float]:
    """Decay exponent shared by the Type II and prime sums, whose split is at x^(1/4).

    xi is the largest k with g^k <= x^(1/4), that is g^(4k) <= floor(x).
    """
    xi = ilog(x, seed.base) // 4
    return xi, sigma(seed, xi, 0) / 10.0


@dataclass(frozen=True)
class SumResult:
    """A phase sum S with its decay exponent kappa and bound shape.

    xi is the number of digits kappa is summed over; S is a float for
    the Type I sum and complex for the other two.
    """

    S: complex
    kappa: float
    xi: int
    bound_shape: float


def type_i_sum(seed: Seed, L: int, x: float, M: float) -> SumResult:
    """Sum over m <= M of the exact prefix supremum of the phase sum.

    The supremum over real cutoffs t in [1, x/m] is attained at integer
    prefixes, so a running cumulative maximum evaluates it exactly.
    kappa is sigma over the xi = ilog(x, g) digits below x, and the bound
    shape is x * g^(-kappa) * (log x)^2, up to its calibrated constant.
    """
    _check_window(seed, L, x)
    if not M > 0:
        raise ValueError("progression count M must be positive")
    # exact on the rationals the doubles hold; an infinite M is above sqrt(x)
    if not math.isfinite(M) or Fraction(M) ** 2 > x:
        raise ValueError("M must stay at or below sqrt(x)")
    top = math.floor(x)
    table = _unit_phases(seed, L, top)
    parts = []
    for m in range(1, math.floor(M) + 1):
        prefix = np.cumsum(table[m : m * (top // m) + 1 : m])
        parts.append(float(np.abs(prefix).max()))
    xi = ilog(x, seed.base)
    kappa = sigma(seed, xi, 0)
    bound_shape = x * seed.base ** (-kappa) * math.log(x) ** 2
    return SumResult(math.fsum(parts), kappa, xi, bound_shape)


def type_ii_sum(
    seed: Seed,
    L: int,
    x: float,
    M: float,
    N: float,
    a_coeff: Coefficients,
    b_coeff: Coefficients,
) -> SumResult:
    """Bilinear sum of a(m) b(n) e(phase(mn)) over the box, mn <= x.

    Rows are reduced with numpy's pairwise summation and collected in
    ascending m order, so the result is reproducible bit for bit.  The
    box corners are checked before either coefficient generator runs.
    (xi, kappa) come from _decay and the bound shape is
    x * g^(-kappa) * log x, up to its calibrated constant.
    """
    _check_window(seed, L, x)
    if not all(1 <= v < math.inf for v in (M, N)):
        raise ValueError("box corners must be at least 1 and finite")
    if Fraction(M) ** 4 < x or Fraction(N) ** 4 < x:
        raise ValueError("box corners must be at least x^(1/4)")
    xi, kappa = _decay(seed, x)
    m_first = math.floor(M) + 1
    m_last = math.floor(2.0 * M)
    n_lo = math.floor(N)
    top = math.floor(x)
    n_cap = min(math.floor(2.0 * N), top // m_first)
    S = 0j
    if m_first <= m_last and n_lo < n_cap:
        a = np.asarray(a_coeff(np.arange(m_first, m_last + 1, dtype=np.int64)), np.complex128)
        b = np.asarray(b_coeff(np.arange(n_lo + 1, n_cap + 1, dtype=np.int64)), np.complex128)
        parts = _row_sums(_unit_phases(seed, L, top), a, m_first, b, n_lo, n_cap, top)
        if parts:
            S = complex(np.sum(np.asarray(parts, dtype=np.complex128)))
    return SumResult(S, kappa, xi, x * seed.base ** (-kappa) * math.log(x))


def mobius_coefficients() -> Coefficients:
    def gen(n: np.ndarray) -> np.ndarray:
        return mobius_values(n).astype(np.complex128)

    return gen


def mangoldt_tail_coefficients(z: float, x: float) -> Coefficients:
    """Above-threshold von Mangoldt tail scaled by 1/log x; bounded by 1 on [1, x].

    Each call tabulates the tail up to its largest n (entry n of the
    table does not depend on how far it runs); entries outside [1, x]
    raise.
    """
    top = math.floor(x)
    scale = 1.0 / math.log(x)

    def gen(n: np.ndarray) -> np.ndarray:
        n = np.asarray(n, dtype=np.int64)
        if n.size == 0:
            return np.zeros(0, dtype=np.complex128)
        if n.min() < 1 or n.max() > top:
            raise ValueError(f"tail coefficients cover [1, {top}] only")
        values = vaughan_arrays(z, int(n.max())).mangoldt_tail[n] * scale
        return values.astype(np.complex128)

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
        return _cis(t)

    return gen


def truncation_set_size(
    seed: Seed,
    M: float,
    N: float,
    R: float,
    r: int,
    L: int,
    lam: int,
) -> tuple[int, int]:
    """Count box pairs whose long and short phase differences disagree.

    With k = mn // g^lam and k' = m(n+r) // g^lam, the pair (m, n) is a
    member when Phi(k') != Phi(k), where Phi(k) is the exact rational sum
    of the stored weights of digits lam..L-1 of k g^lam, so no
    float-equality ambiguity enters.  Phi is evaluated once per distinct
    quotient in the box and pairs compare integer ids of its values.
    Also counts the superset of pairs with k' > k (a multiple of g^lam
    inside (mn, m(n+r)]), raising at the first pair in (m, n) order where
    containment fails; returns (member count, superset count).
    """
    g = seed.base
    if not all(1 <= v < math.inf for v in (M, N, R)):
        raise ValueError("M, N, R must be at least 1 and finite")
    if not 0 <= r <= R:
        raise ValueError("shift r must lie in [0, R]")
    if not lam <= L:
        raise ValueError("short window must not exceed the long one")
    if not g ** (lam - 1) <= M * R * R < g**lam:
        raise ValueError("window length does not match M R^2")
    if Fraction(R) ** 2 > N:
        raise ValueError("R must stay at or below sqrt(N)")
    glam = g**lam
    weights = [[Fraction(w) for w in row] for row in seed.frac_rows(0, L)[lam:]]
    m = np.arange(math.floor(M) + 1, math.floor(2.0 * M) + 1, dtype=np.int64)[:, None]
    n = np.arange(math.floor(N) + 1, math.floor(2.0 * N) + 1, dtype=np.int64)
    low, high = m * n // glam, m * (n + r) // glam
    quotients, where = np.unique(np.stack([low, high]), return_inverse=True)
    classes: dict[Fraction, int] = {}
    ids = []
    for k in quotients.tolist():
        phi = Fraction(0)
        for row in weights:
            k, d = divmod(k, g)
            phi += row[d]
        ids.append(classes.setdefault(phi, len(classes)))
    class_low, class_high = np.asarray(ids, dtype=np.int64)[where].reshape(2, *low.shape)
    member = class_high != class_low
    superset = high > low
    stray = member & ~superset
    if stray.any():
        i, j = np.unravel_index(np.argmax(stray), stray.shape)
        raise RuntimeError(f"containment failed at (m, n) = ({m[i, 0]}, {n[j]}), r = {r}")
    return int(np.count_nonzero(member)), int(np.count_nonzero(superset))


def vdc_lhs_rhs(z, R: int) -> tuple[float, float]:
    """Both sides of the shift-averaged squared-sum inequality.

    Returns (|sum z|^2, (N+R-1)/R * sum over |r| < R of the triangular
    weight times the shifted correlation).  The correlation total is
    real up to rounding by r <-> -r symmetry; its real part is reported.
    Each lag's correlation is summed once and conjugated for r < 0, and
    the weighted terms are added in order r = -R+1, ..., R-1; a lag of
    N or more has no pairs and adds nothing.
    """
    z = np.asarray(z, dtype=np.complex128)
    N = z.size
    if N < 1:
        raise ValueError("need at least one term")
    if R < 1:
        raise ValueError("shift count R must be at least 1")
    lhs = abs(complex(np.sum(z))) ** 2
    K = min(R, N)
    corrs = [complex(np.sum(z[k:] * np.conj(z[: N - k]))) for k in range(K)]
    total = 0j
    for r in range(1 - K, K):
        corr = corrs[abs(r)]
        total += (1.0 - abs(r) / R) * (corr.conjugate() if r < 0 else corr)
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
    # a*n is rounded to a double once, as the scalar a*n + b rounds it;
    # int64 holds every product below 2^63 and Python ints the rest
    n = np.arange(m, dtype=np.int64 if abs(a) * m < 2**63 else object)
    s = np.abs(np.sin(math.pi * ((a * n).astype(np.float64) + b) / m))
    # 1/s is inf for a zero or tiny sine, and such terms take the cap M
    with np.errstate(divide="ignore", over="ignore"):
        terms = np.where(s == 0.0, M, np.minimum(M, 1.0 / s))
    # cumsum adds left to right, as a running += does
    lhs = float(np.cumsum(terms)[-1])
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


def prime_exp_sum(seed: Seed, L: int, x: float) -> SumResult:
    """Sum of Lambda(n) e(phase(n)) for n <= x, with its decay exponent.

    S is summed directly over n, with Lambda sieved up to x (the work
    budget keeps x inside the sieve budget).  z = x^(1/4) is
    the threshold of the four-term split behind its estimate, whose bound
    shape is x * g^(-kappa) * (log x)^4, up to its calibrated constant.
    """
    _check_window(seed, L, x)
    top = math.floor(x)
    table = _unit_phases(seed, L, top)
    S = complex(np.sum(mangoldt_array(top)[2:] * table[2:]))
    xi, kappa = _decay(seed, x)
    # every gamma is below gamma_upper_bound(g) <= 1/(32 log 2) < 0.046, so
    # kappa = sigma/10 < 0.0046 xi against the cap 0.05 xi: no float slack needed
    if kappa > xi / 20.0:
        raise RuntimeError(f"decay exponent {kappa} above its cap {xi / 20.0}")
    bound_shape = x * seed.base ** (-kappa) * math.log(x) ** 4
    return SumResult(S, kappa, xi, bound_shape)
