"""Normalized exponential sums of additive digit functionals.

The central object is the full-period average

    F(lam, j, beta) = g^(-lam) * sum_{n < g^lam} e(f(n) - beta*n)

where f sums shifted seed weights over the low lam digits of n.  Its
absolute value factors into single-position sums, which is what makes
window lengths in the tens of thousands tractable.  The rest of the
module provides the per-position decay weights, their cumulative sums,
the digit-autocorrelation defect, the divisor-pair averages, the L1
moment over arithmetic progressions of grid points, and the Farey-point
hybrid sum, together with the closed-form exponent constants used by
every verifier.

All phase arithmetic is done on exactly reduced fractional parts: seed
weights via Seed.frac, grid offsets via integer residues, and powers of
the base via an exact dyadic ladder, so the direct and product routes
agree to near machine precision instead of drifting with g^lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .basedigits import BaseContext
from .seeds import Seed

__all__ = [
    "CostBudgetError",
    "DIRECT_BUDGET",
    "ExplicitConstants",
    "ExpSumContext",
    "BoundReport",
    "make_report",
    "expsum_context",
    "theta_lower_bound",
    "eta_tilde",
    "omega_exponent",
    "phi",
    "F_direct",
    "F_abs_product",
    "F_abs_grid",
    "F_grid_full",
    "gamma_i",
    "gamma_coefficient",
    "gamma_upper_bound",
    "sigma",
    "theta_i",
    "psi",
    "l1_moment",
    "l1_moment_bound",
    "hybrid_sum",
    "hybrid_bound_shape",
]

TWO_PI = 2.0 * math.pi

# Direct summation over g^lam terms is refused beyond this many terms.
DIRECT_BUDGET = 1 << 24

_CHUNK = 1 << 20

_REPORT_TOL = 1e-9


class CostBudgetError(RuntimeError):
    """Raised when a direct evaluation would exceed its term budget."""


def theta_lower_bound(g: int) -> float:
    """Closed-form floor for the digit-autocorrelation defect.

    Every seed's defect at every position is at least this value, which
    is strictly larger than 1/g^3.  Written as x/(1+sqrt(1-x)) rather
    than 1-sqrt(1-x): the plain form cancels so badly for g in the
    hundreds that the 1/g^3 comparison becomes noise.
    """
    x = 2.0 / (g * g * (g - 1))
    return (1.0 - 1.0 / g) * x / (1.0 + math.sqrt(1.0 - x))


def eta_tilde(g: int) -> float:
    """Exponent governing divisor-pair averages and L1 moments.

    Maximum of two branches; strictly between 0.2075187 and
    1/2 - 1/(4 g^3 log g) for every base.
    """
    b1 = 0.5 - math.log(1.5) / (4.0 * math.log(g) - 2.0 * math.log(2.0))
    b2 = 0.5 + math.log1p(-theta_lower_bound(g)) / (4.0 * math.log(g))
    return max(b1, b2)


def omega_exponent(g: int) -> float:
    """Savings exponent (log 2 / log g) * (1/2 - eta_tilde(g))."""
    return (math.log(2.0) / math.log(g)) * (0.5 - eta_tilde(g))


def gamma_coefficient(g: int) -> float:
    """Prefactor of the per-position decay weight."""
    return 2.0 * math.log(2.0) / ((g - 1) * g**4 * math.log(g) ** 2)


def gamma_upper_bound(g: int) -> float:
    """Strict upper bound log 2 / (4 g^3 (log g)^2) on every decay weight."""
    return math.log(2.0) / (4.0 * g**3 * math.log(g) ** 2)


@dataclass(frozen=True)
class ExplicitConstants:
    """Base-level exponents shared by the verifiers."""

    eta_tilde: float
    omega: float
    theta_lower: float


@dataclass(frozen=True)
class ExpSumContext:
    """A base, a seed over that base, and the base's exponent constants."""

    ctx: BaseContext
    seed: Seed
    constants: ExplicitConstants
    _gamma_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        g = self.ctx.g
        if self.seed.base != g:
            raise ValueError("seed base does not match context base")
        c = self.constants
        # upper comparison is non-strict: past base ~314 the true margin
        # drops below one ulp of 0.5 and the two sides round together
        if not 0.2075187 < c.eta_tilde <= 0.5 - 1.0 / (4.0 * g**3 * math.log(g)):
            raise ValueError(f"eta constant out of range for base {g}")
        if not c.theta_lower > 1.0 / g**3:
            raise ValueError(f"theta floor out of range for base {g}")
        expect_omega = (math.log(2.0) / math.log(g)) * (0.5 - c.eta_tilde)
        if abs(c.omega - expect_omega) > 1e-15:
            raise ValueError("omega inconsistent with eta")


def expsum_context(seed: Seed) -> ExpSumContext:
    """Context for a seed, with constants derived from its base."""
    g = seed.base
    constants = ExplicitConstants(eta_tilde(g), omega_exponent(g), theta_lower_bound(g))
    return ExpSumContext(BaseContext(g), seed, constants)


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: lhs against rhs with slack 1e-9."""

    lhs: float
    rhs: float
    ratio: float
    params: dict
    passed: bool

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "pass": self.passed,
            "params": self.params,
        }


def make_report(lhs: float, rhs: float, params: dict | None = None) -> BoundReport:
    if rhs != 0.0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0.0 else math.inf
    passed = lhs <= rhs * (1.0 + _REPORT_TOL)
    return BoundReport(lhs, rhs, ratio, dict(params or {}), passed)


def _phi_row(row: np.ndarray, t: float) -> float:
    """Magnitude of sum_d e(row[d] - t*d) for one weight row."""
    g = len(row)
    total = 0j
    for d in range(g):
        arg = TWO_PI * (row[d] - t * d)
        total += complex(math.cos(arg), math.sin(arg))
    return abs(total)


def _phi_vec(row: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Vectorized _phi_row over an array of arguments."""
    total = np.zeros(t.shape, dtype=np.complex128)
    for d, w in enumerate(row):
        total += np.exp(2j * np.pi * (w - t * d))
    return np.abs(total)


def phi(es: ExpSumContext, i: int, j: int, beta: float) -> float:
    """Single-position sum |sum_{d<g} e(weight(i+j, d) - beta*d)|.

    Lies in [0, g] and has period 1 in beta.
    """
    if i < 0 or j < 0:
        raise ValueError("position and shift must be nonnegative")
    row = es.seed.frac_rows(i + j, 1)[0]
    return _phi_row(row, beta % 1.0)


def _split26(x: float) -> tuple[float, float]:
    # Dekker split: hi carries ~26 significant bits, so hi*n is exact
    # for n below 2^26 and fmod against 1.0 stays exact.
    c = float((1 << 27) + 1)
    t = c * x
    hi = t - (t - x)
    return hi, x - hi


def F_direct(
    es: ExpSumContext, lam: int, j: int, beta: float, budget: int = DIRECT_BUDGET
) -> complex:
    """Full-period average computed term by term; costs g^lam evaluations.

    Refuses windows with more than ``budget`` terms.  The beta*n phase is
    reduced mod 1 in split precision so the result can be compared with
    the product form at 1e-10 tolerances.
    """
    if lam < 0 or j < 0:
        raise ValueError("window and shift must be nonnegative")
    g = es.ctx.g
    n_total = g**lam
    if n_total > budget:
        raise CostBudgetError(
            f"direct evaluation needs {n_total} terms, budget is {budget}"
        )
    tab = es.seed.frac_rows(j, lam)
    beta = beta % 1.0
    bhi, blo = _split26(beta)
    total = 0.0 + 0.0j
    for start in range(0, n_total, _CHUNK):
        stop = min(start + _CHUNK, n_total)
        n = np.arange(start, stop, dtype=np.int64)
        phase = np.zeros(stop - start, dtype=np.float64)
        rem = n.copy()
        for i in range(lam):
            phase += tab[i][rem % g]
            rem //= g
        nf = n.astype(np.float64)
        phase -= np.mod(bhi * nf, 1.0) + blo * nf
        total += complex(np.exp(2j * np.pi * phase).sum())
    return total / n_total


def _dyadic_ladder(beta: float, count: int, g: int):
    """Exact fractional parts of beta * g^i for i = 0..count-1.

    beta is a double, hence a dyadic rational; multiplying its numerator
    by g modulo the denominator walks the ladder without precision loss.
    """
    num, den = Fraction(beta % 1.0).as_integer_ratio()
    out = np.empty(count, dtype=np.float64)
    for i in range(count):
        out[i] = float(Fraction(num, den))
        num = (num * g) % den
    return out


def F_abs_product(es: ExpSumContext, lam: int, j: int, beta: float) -> float:
    """|F| via the position-product identity: one row sum per position.

    Cost is lam*g regardless of g^lam, so windows of length 10^5 are fine.
    """
    if lam < 0 or j < 0:
        raise ValueError("window and shift must be nonnegative")
    g = es.ctx.g
    tab = es.seed.frac_rows(j, lam)
    args = _dyadic_ladder(beta, lam, g)
    acc = 1.0
    for i in range(lam):
        acc *= _phi_row(tab[i], args[i]) / g
    return acc


def F_abs_grid(es: ExpSumContext, lam: int, j: int, betas: np.ndarray) -> np.ndarray:
    """Product-form |F| over an array of arguments.

    Fast float path: arguments are scaled by g^i before reduction, so it
    is meant for the moderate windows the sweep drivers use (g^lam well
    inside the exact range of a double).
    """
    g = es.ctx.g
    tab = es.seed.frac_rows(j, lam)
    betas = np.mod(np.asarray(betas, dtype=np.float64), 1.0)
    acc = np.ones(betas.shape, dtype=np.float64)
    scale = 1.0
    for i in range(lam):
        acc *= _phi_vec(tab[i], np.mod(betas * scale, 1.0)) / g
        scale *= g
    return acc


def F_grid_full(es: ExpSumContext, lam: int, j: int, beta: float) -> np.ndarray:
    """|F((h + beta)/g^lam)| for every h in [0, g^lam), in one pass.

    Shares per-position factor arrays across all grid points: position i
    only depends on h mod g^(lam-i), so each level is computed once and
    tiled.  Offsets stay exact because the integer part is removed with
    integer mods before any division.
    """
    g = es.ctx.g
    n_total = g**lam
    tab = es.seed.frac_rows(j, lam)
    beta = beta % 1.0
    res = np.ones(n_total, dtype=np.float64)
    for i in range(lam):
        m = g ** (lam - i)
        u = np.mod((np.arange(m, dtype=np.float64) + beta) / m, 1.0)
        level = _phi_vec(tab[i], u) / g
        res *= np.tile(level, n_total // m)
    return res


def gamma_i(es: ExpSumContext, i: int, j: int) -> float:
    """Decay weight of position i+j: scaled pairwise digit separation.

    Always in [0, log 2 / (4 g^3 (log g)^2)), hence below 1/20.
    """
    if i < 0 or j < 0:
        raise ValueError("position and shift must be nonnegative")
    p = i + j
    cached = es._gamma_cache.get(p)
    if cached is not None:
        return cached
    g = es.ctx.g
    rows = es.seed.frac_rows(p, 2)
    v = [g * rows[0][d] - rows[1][d] for d in range(g)]
    total = 0.0
    for m in range(g):
        for n in range(m + 1, g):
            u = (v[m] - v[n]) % 1.0
            total += min(u, 1.0 - u) ** 2
    value = gamma_coefficient(g) * total
    es._gamma_cache[p] = value
    return value


def sigma(es: ExpSumContext, lam: int, j: int) -> float:
    """Cumulative decay weight over positions j .. j+lam-1; at most lam/20."""
    if lam < 0 or j < 0:
        raise ValueError("window and shift must be nonnegative")
    return sum(gamma_i(es, i, j) for i in range(lam))


def theta_i(es: ExpSumContext, i: int) -> float:
    """Autocorrelation defect of the weight row at position i.

    At least theta_lower_bound(g) for every seed and position.
    """
    if i < 0:
        raise ValueError("position must be nonnegative")
    g = es.ctx.g
    row = es.seed.frac_rows(i, 1)[0]
    acc = 0.0
    for h in range(1, g):
        c = 0j
        for n in range(g - h):
            arg = TWO_PI * (row[n + h] - row[n])
            c += complex(math.cos(arg), math.sin(arg))
        acc += abs(c) ** 2
    inner = 1.0 - 2.0 * acc / (g * g * (g - 1))
    inner = max(inner, 0.0)
    return (1.0 - 1.0 / g) * (1.0 - math.sqrt(inner))


def psi(es: ExpSumContext, i: int, t, R: int, S: int):
    """Divisor-pair average of two adjacent single-position sums.

    R and S must divide the base.  Normalized by g^2; the sampling offset
    t may be a scalar or an array (one average per entry).
    """
    g = es.ctx.g
    if R < 1 or S < 1 or g % R or g % S:
        raise ValueError(f"R and S must divide the base {g}")
    if i < 0:
        raise ValueError("position must be nonnegative")
    rows = es.seed.frac_rows(i, 2)
    tarr = np.asarray(t, dtype=np.float64)
    total = np.zeros(tarr.shape, dtype=np.float64)
    for r in range(R):
        u = (tarr + r) / (R * S)
        inner = np.zeros(tarr.shape, dtype=np.float64)
        for s in range(S):
            inner += _phi_vec(rows[0], np.mod(u + s / S, 1.0))
        total += _phi_vec(rows[1], np.mod(g * u, 1.0)) * inner
    total /= g * g
    if tarr.ndim == 0:
        return float(total)
    return total


def _validate_l1(g: int, lam: int, k: int, delta: int) -> None:
    if not 0 <= delta <= lam:
        raise ValueError("delta must lie in [0, lam]")
    if k < 1:
        raise ValueError("k must be positive")
    if k % g == 0:
        raise ValueError("k must not be divisible by the base")
    if (g**lam) % (k * g**delta):
        raise ValueError("k * g^delta must divide g^lam")


def l1_moment(
    es: ExpSumContext, lam: int, j: int, k: int, delta: int, a: int, beta: float
) -> float:
    """Sum of |F((h + beta)/g^lam)| over h = a mod k*g^delta in [0, g^lam).

    Position i depends only on h mod m with m = g^(lam-i), which along
    the progression repeats with period m / gcd(step, m); that period
    divides the point count, so each level is evaluated on one period
    and tiled, as in F_grid_full.
    """
    g = es.ctx.g
    _validate_l1(g, lam, k, delta)
    step = k * g**delta
    a %= step
    beta = beta % 1.0
    h = np.arange(a, g**lam, step, dtype=np.int64)
    tab = es.seed.frac_rows(j, lam)
    acc = np.ones(len(h), dtype=np.float64)
    for i in range(lam):
        m = g ** (lam - i)
        period = m // math.gcd(step, m)
        u = np.mod(((h[:period] % m).astype(np.float64) + beta) / m, 1.0)
        acc *= np.tile(_phi_vec(tab[i], u) / g, len(h) // period)
    return float(acc.sum())


def l1_moment_bound(
    es: ExpSumContext, lam: int, j: int, k: int, delta: int, a: int, beta: float
) -> float:
    """Progression-moment ceiling: g * (g^lam/(k g^delta))^eta * |F| at scale delta."""
    g = es.ctx.g
    _validate_l1(g, lam, k, delta)
    step = k * g**delta
    a %= step
    eta = es.constants.eta_tilde
    tail = F_abs_product(es, delta, j + lam - delta, (a + (beta % 1.0)) / g**delta)
    return g * (g**lam / step) ** eta * tail


def hybrid_sum(es: ExpSumContext, lam: int, j: int, M: float) -> float:
    """Sum of |F(k/m)| over reduced fractions with m in [M, 2M)."""
    if M < 1:
        raise ValueError("M must be at least 1")
    total = 0.0
    for m in range(math.ceil(M), math.ceil(2 * M)):
        for k in range(m):
            if math.gcd(k, m) == 1:
                total += F_abs_product(es, lam, j, k / m)
    return total


def hybrid_bound_shape(es: ExpSumContext, lam: int, j: int, M: float) -> float:
    """Two-branch envelope for hybrid_sum, split on window length.

    Short windows pay the full length at the eta exponent; long windows
    pay twice the Farey scale plus the remaining cumulative decay.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    g = es.ctx.g
    eta = es.constants.eta_tilde
    mu = 0
    while g ** (mu + 1) <= M:
        mu += 1
    if 2 * mu <= lam:
        expo = (0.5 - eta) * 2 * mu + sigma(es, lam - 2 * mu, j + 2 * mu)
        return M * g**-expo
    return M * M * g ** (-(1.0 - eta) * lam)
