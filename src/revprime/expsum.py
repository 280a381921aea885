"""Normalized exponential sums of additive digit functionals.

The central object is the full-period average

    F(lam, j, beta) = g^(-lam) * sum_{n < g^lam} e(f(n) - beta*n)

where f sums shifted seed weights over the low lam digits of n.  Its
absolute value factors into single-position sums phi (tests/oracles.py
holds phi's scalar loop), which is what makes window lengths in the tens
of thousands tractable.  The rest of the module provides the decay
weights, summed over a window by sigma (sigma over one position is one
weight), with the exact landing and blocked lower bounds on them
(i0_landing, sigma_lower_blocks), the digit-autocorrelation defect, the
savings exponent omega_exponent of the L-infinity bound, the divisor-pair
averages, the L1 moment over arithmetic progressions of grid points,
and the Farey-point hybrid sum, together with the closed-form exponent
constants used by every verifier.

All phase arithmetic is done on exactly reduced fractional parts: seed
weights via each seed's frac_rows, grid offsets via integer residues,
and powers of the base via exact integer ladders of residues num * g^i
mod den (basedigits.power_residues, and F_abs_product's one walk over
every beta), so the direct and product routes agree to near machine
precision instead of drifting with g^lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .basedigits import check_base, ilog, power_residues
from .seeds import Seed, reverse_seed

__all__ = [
    "CostBudgetError",
    "WORK_BUDGET",
    "BoundReport",
    "make_report",
    "theta_lower_bound",
    "eta_tilde",
    "omega_exponent",
    "F_direct",
    "F_abs_product",
    "gamma_coefficient",
    "gamma_upper_bound",
    "sigma",
    "DegenerateSeedError",
    "i0_landing",
    "sigma_lower_blocks",
    "theta_i",
    "psi",
    "l1_cell_fault",
    "l1_moment",
    "l1_moment_bound",
    "hybrid_sum",
    "hybrid_bound_shape",
]

TWO_PI = 2.0 * math.pi

# The one work budget: F_direct's g^lam terms and every walk up to x.
WORK_BUDGET = 1 << 20

_REPORT_TOL = 1e-9


class CostBudgetError(RuntimeError):
    """Raised when a direct evaluation or a walk up to x would exceed WORK_BUDGET."""


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
    # a plain bool, so reports serialize without a json default
    passed = bool(lhs <= rhs * (1.0 + _REPORT_TOL))
    return BoundReport(lhs, rhs, ratio, dict(params or {}), passed)


def _cis(x) -> np.ndarray:
    """e(x) = exp(2 pi i x) for a float array or scalar: the one e() kernel.

    y = (2 pi) x is formed in the imaginary half of one contiguous
    complex128 array; cos y is written into the real half and sin y over
    y, so no other buffer is made.  The bits equal
    np.exp(2j * np.pi * x): the complex product there has imaginary part
    (2 pi) x rounded once, as here, plus an exact 0 * 0, and a real part
    of +-0, whose exponential is exactly 1, so np.exp returns
    cos y + i sin y.  The one difference is x = -0.0: its imaginary part
    0 + (-0.0) is +0.0, so y += 0.0 turns -0.0 into +0.0 here too, and
    sin(+0.0) = +0.0.  The equality also needs numpy's cos and sin to
    round as its complex exp does; tests/test_numeric_env.py pins that.
    """
    out = np.empty(np.shape(x), dtype=np.complex128)
    y = np.multiply(x, TWO_PI, out=out.imag)
    y += 0.0
    np.cos(y, out=out.real)
    np.sin(y, out=y)
    return out


def _phi_sums(rows: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """Complex sums sum_d e(rows[..., d] - t*d), rows broadcast against t.

    Each term is _cis(rows[..., d] - t*d), which equals
    np.exp(2j * np.pi * (rows[..., d] - t*d)) bit for bit, signed zeros
    included (see _cis), so the sums equal a scalar cos/sin loop bit for
    bit.  The magnitudes do not: abs(complex) agrees with np.hypot, while
    np.abs rounds about a third of them differently.  F_abs_product takes
    the hypot magnitude and psi and the progression moments np.abs,
    because the frozen reports and calibration constants pin each choice.
    The d = 0 term is _cis(rows[..., 0]), formed once for every t:
    rows[..., 0] - t*0 differs from rows[..., 0] at most in the sign of a
    zero for finite t, and _cis drops that sign; a non-finite t makes a
    d >= 1 term, and so the sum, nan either way.
    """
    t = np.asarray(t, dtype=np.float64)
    total = np.zeros(np.broadcast_shapes(rows.shape[:-1], t.shape), dtype=np.complex128)
    total += _cis(rows[..., 0])
    for d in range(1, rows.shape[-1]):
        total += _cis(rows[..., d] - t * d)
    return total


def _split26(x: float) -> tuple[float, float]:
    # Dekker split: hi carries ~26 significant bits, so hi*n is exact
    # for n below 2^26 and fmod against 1.0 stays exact.
    c = float((1 << 27) + 1)
    t = c * x
    hi = t - (t - x)
    return hi, x - hi


def _phase_tree(tab: np.ndarray, g: int, top: int) -> np.ndarray:
    """sum_i tab[i][digit i of n] for every 0 <= n <= top, one position at a time.

    Position i extends the phases of the n < g^i to the n < g^(i+1):
    entry d g^i + r is entry r plus tab[i][d], so every entry adds the
    weights of its digits from the lowest up, as a per-integer digit loop
    does, and equals it bit for bit.  Digits at or beyond len(tab) are
    ignored: the table has period g^len(tab).
    """
    phase = np.zeros(1, dtype=np.float64)
    for row in tab:
        if phase.size > top:
            phase += row[0]
        else:
            # only the leading digits that still reach some n <= top
            digits = min(g, -(-(top + 1) // phase.size))
            phase = (phase[None, :] + row[:digits, None]).ravel()
    if phase.size > top:
        return phase[: top + 1]
    return np.resize(phase, top + 1)


# Largest leaf F_direct forms at once; at least numpy's own pairwise block
# of 64 complex entries, below which numpy stops splitting.
_LEAF = 8192

# Cap on F_direct's table of low-digit phases (512 KiB of doubles): g^k
# <= 2^16 reaches _LEAF for every base up to 16, so a leaf's higher
# digits are added once per block of at least leaf size.
_LOW_TABLE = 2**16


def _pairwise(count: int, leaf, lo: int = 0) -> complex:
    """Sum of leaf(a, b) over a partition of [lo, lo + count), in numpy's order.

    numpy sums a contiguous complex array pairwise: more than 64 entries
    split at (count - count % 8) // 2 and the halves' sums are added.
    Splitting the same way down to leaves of at most _LEAF entries, each
    summed by .sum(), adds the same terms in the same order, so the
    result equals complex(a.sum()) bit for bit up to the sign of a zero;
    tests/test_numeric_env.py pins that split.
    """
    if count <= _LEAF:
        return leaf(lo, lo + count)
    half = (count - count % 8) // 2
    return _pairwise(half, leaf, lo) + _pairwise(count - half, leaf, lo + half)


def F_direct(seed: Seed, lam: int, j: int, beta: float) -> complex:
    """Full-period average computed term by term; costs g^lam evaluations.

    Refuses windows with more than WORK_BUDGET terms.  The beta*n
    phase is split as bhi*n + blo*n, where bhi carries 26 bits so bhi*n
    is exact, and bhi*n is reduced to its fractional part x - floor(x)
    before blo*n is added, so the result can be compared with the product
    form at 1e-10 tolerances.  That reduction is exact and equals
    np.mod(x, 1.0) bit for bit because x >= 0: beta % 1.0 >= 0,
    _split26 keeps bhi >= 0, and n >= 0.

    The g^lam terms are formed and summed one leaf of _pairwise at a
    time, so no array of g^lam entries is made and the sum equals that
    of one array of every term.  A leaf's phases start from the table of
    the low k digits (the largest k with g^k <= _LOW_TABLE, at least 1
    and at most lam) and add the weights of the higher digits one
    position at a time, lowest first, as _phase_tree adds them.
    """
    if lam < 0 or j < 0:
        raise ValueError("window and shift must be nonnegative")
    g = seed.base
    n_total = g**lam
    if n_total > WORK_BUDGET:
        raise CostBudgetError(
            f"direct evaluation needs {n_total} terms, budget is {WORK_BUDGET}"
        )
    bhi, blo = _split26(beta % 1.0)
    tab = seed.frac_rows(j, lam)
    k = min(lam, max(1, ilog(_LOW_TABLE, g)))
    block = g**k
    low = _phase_tree(tab[:k], g, block - 1)

    def leaf(lo: int, hi: int) -> complex:
        phase = np.empty(hi - lo, dtype=np.float64)
        for start in range(lo - lo % block, hi, block):
            a, b = max(lo, start), min(hi, start + block)
            part = phase[a - lo : b - lo]
            part[:] = low[a - start : b - start]
            q = start // block
            for row in tab[k:]:
                part += row[q % g]
                q //= g
        n = np.arange(lo, hi, dtype=np.float64)
        x = n * bhi
        x -= np.floor(x)
        n *= blo
        x += n
        phase -= x
        return complex(_cis(phase).sum())

    return (0.0 + 0.0j + _pairwise(n_total, leaf)) / n_total


def F_abs_product(
    seed: Seed, lam: int, j: int, beta: float | np.ndarray
) -> float | np.ndarray:
    """|F| via the position-product identity: one row sum per position.

    Cost is lam*g per argument regardless of g^lam, so windows of length
    10^5 are fine.  beta may be a scalar or an array (one |F| per entry,
    each bit-identical to a scalar call).
    """
    if lam < 0 or j < 0:
        raise ValueError("window and shift must be nonnegative")
    g = seed.base
    tab = seed.frac_rows(j, lam)
    betas = np.asarray(beta, dtype=np.float64)
    # a double is a dyadic rational, so its ladder frac(b * g^i) is exact
    # in integers, walked for every b at once on object arrays of Python
    # ints, and each rung is rounded once by int / int; rung 0 stays
    # b % 1.0, which rounds up to 1.0 for tiny negative b
    fracs = [b % 1.0 for b in betas.ravel().tolist()]
    r, den = np.array([b.as_integer_ratio() for b in fracs], dtype=object).reshape(-1, 2).T
    args = np.empty((lam, betas.size), dtype=np.float64)
    args[:1] = fracs
    for i in range(1, lam):
        r = r * g % den
        args[i] = r / den
    sums = _phi_sums(tab[:, None, :], args)
    factors = np.hypot(sums.real, sums.imag) / g
    acc = np.ones(betas.size, dtype=np.float64)
    for row in factors:
        acc *= row
    if betas.ndim == 0:
        return float(acc[0])
    return acc.reshape(betas.shape)


# Progression points _progression_abs evaluates at once per level: 2^14
# keeps the l1-moment suite's time and bounds the per-level buffers near
# 1 MiB per beta.
_BLOCK = 2**14


def _progression_abs(
    seed: Seed, lam: int, j: int, step: int, a: int, beta: float | np.ndarray
) -> np.ndarray:
    """|F((h + beta)/g^lam)| for h = a, a + step, ... below g^lam.

    Position i depends only on h mod m with m = g^(lam-i), which along
    the progression repeats with period m / gcd(step, m); that period
    divides the point count, so each level is evaluated on one period
    and multiplied into every row of acc viewed as (points / period,
    period).  The period is walked in blocks of _BLOCK entries, each
    forming its own h = a + step*n in int64, so no array of every h,
    no tiled copy and no complex buffer over a whole period is made:
    memory is acc plus O(_BLOCK * beta.size).  Every point still gets
    one factor per level, in level order, so the result does not depend
    on _BLOCK.  Offsets stay exact because the integer part is removed
    with integer mods before any division.  An array beta gives one row
    of points per entry, shape beta.shape + (points,).
    """
    g = seed.base
    betas = np.mod(np.asarray(beta, dtype=np.float64), 1.0)[..., None]
    tab = seed.frac_rows(j, lam)
    acc = np.ones(betas.shape[:-1] + (len(range(a, g**lam, step)),), dtype=np.float64)
    for i in range(lam):
        m = g ** (lam - i)
        period = m // math.gcd(step, m)
        rows = acc.reshape(acc.shape[:-1] + (acc.shape[-1] // period, period))
        for lo in range(0, period, _BLOCK):
            hi = min(lo + _BLOCK, period)
            h = a + step * np.arange(lo, hi, dtype=np.int64)
            # u >= 0 (h % m >= 0 and betas >= 0), so u - floor(u) is np.mod(u, 1.0)
            u = ((h % m).astype(np.float64) + betas) / m
            u -= np.floor(u)
            rows[..., lo:hi] *= (np.abs(_phi_sums(tab[i], u)) / g)[..., None, :]
    return acc


def sigma(seed: Seed, lam: int, j: int) -> float:
    """Cumulative decay weight over positions j .. j+lam-1; at most lam/20.

    sigma(seed, 1, p) is the weight of position p alone, its scaled
    pairwise digit separation, always in [0, gamma_upper_bound(g)).
    """
    if lam < 0 or j < 0:
        raise ValueError("window and shift must be nonnegative")
    memo = _memo(seed)
    return sum(_gamma(seed, p, memo) for p in range(j, j + lam))


# Seeds are frozen and hashable, and a weight is a pure function of the
# seed and the position, so seeds that compare equal share one memo.
# sigma hashes its seed once per call, not once per position.
@lru_cache(maxsize=1 << 8)
def _memo(seed: Seed) -> dict[int, float]:
    return {}


# stays scalar: Python's u ** 2 (libm pow) and numpy's u**2 round some u apart
def _gamma(seed: Seed, p: int, memo: dict[int, float]) -> float:
    cached = memo.get(p)
    if cached is not None:
        return cached
    g = seed.base
    rows = seed.frac_rows(p, 2)
    v = [g * rows[0][d] - rows[1][d] for d in range(g)]
    total = 0.0
    for m in range(g):
        for n in range(m + 1, g):
            u = (v[m] - v[n]) % 1.0
            total += min(u, 1.0 - u) ** 2
    value = memo[p] = gamma_coefficient(g) * total
    return value


class DegenerateSeedError(ValueError):
    """Raised when every reversal phase of a scale is an exact integer."""


def i0_landing(g: int, alpha) -> tuple[int, float]:
    """Shift count landing g^i * alpha at least 1/(g+1) away from integers.

    Returns (i0, distance of g^i0 * alpha to the nearest integer).  i0 is
    the least i with g^(i+1) (g+1) d > g, d the distance of alpha to the
    integers; both it and the final distance are exact rational
    arithmetic on alpha, so the landing inequality is decided without
    float noise.
    """
    check_base(g)
    frac = Fraction(alpha) % 1
    d = min(frac, 1 - frac)
    if d == 0:
        raise ValueError("landing position undefined for integer shifts")
    # d <= 1/2 keeps the argument of ilog above 1
    i0 = ilog(Fraction(g) / ((g + 1) * d), g)
    landed = Fraction(alpha) * g**i0 % 1
    return i0, float(min(landed, 1 - landed))


def sigma_lower_blocks(g: int, L: int, lam: int, alpha) -> BoundReport:
    """Blocked lower bound K/(g+1)^2 for the tail of reversal phase gaps.

    Computes sigma_hat = min over 0 <= i <= L of the distance from
    g^i (g^2-1) alpha to the integers (exact), the block length J it
    dictates (the least J with g^J (g+1) sigma_hat > g), K = [lam/J]
    full blocks, and the blocked sum of squared distances over the top
    lam positions.  The returned report checks K/(g+1)^2 <= blocked
    sum; on top of that the cumulative decay weight of the reversal
    seed itself is checked to dominate the blocked sum with the
    explicit per-pair prefactor, and a failure there raises.
    """
    check_base(g)
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
    J = ilog(Fraction(g) / ((g + 1) * sigma_hat), g) + 1
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
    seed = reverse_seed(g, L, Fraction(alpha))
    floor = gamma_coefficient(g) / g**2 * blocked
    got = sigma(seed, lam, 0)
    # the slack stays: at g = 2, L = lam = 1 the floor is an exact equality (both
    # sides are gamma_coefficient(2) * ||3 alpha/2||^2 when ||3 alpha|| = 2 ||3 alpha/2||),
    # which floats read as got/floor = 1 - 3.4e-15 at alpha = 5/474
    if got + 1e-12 < floor:
        raise RuntimeError(
            f"cumulative decay weight {got} under its blocked floor {floor}"
        )
    return report


def theta_i(seed: Seed, i: int) -> float:
    """Autocorrelation defect of the weight row at position i.

    At least theta_lower_bound(g) for every seed and position.  Lag h
    sums _cis(row[n+h] - row[n]) left to right by np.cumsum, so its
    magnitude equals a scalar cos/sin loop bit for bit.
    """
    if i < 0:
        raise ValueError("position must be nonnegative")
    g = seed.base
    row = seed.frac_rows(i, 1)[0]
    acc = 0.0
    for h in range(1, g):
        c = complex(np.cumsum(_cis(row[h:] - row[:-h]))[-1])
        acc += abs(c) ** 2
    inner = 1.0 - 2.0 * acc / (g * g * (g - 1))
    inner = max(inner, 0.0)
    return (1.0 - 1.0 / g) * (1.0 - math.sqrt(inner))


def psi(seed: Seed, i: int, t, R: int, S: int):
    """Divisor-pair average of two adjacent single-position sums.

    R and S must divide the base.  Normalized by g^2; the sampling offset
    t may be a scalar or an array (one average per entry).
    """
    g = seed.base
    if R < 1 or S < 1 or g % R or g % S:
        raise ValueError(f"R and S must divide the base {g}")
    if i < 0:
        raise ValueError("position must be nonnegative")
    rows = seed.frac_rows(i, 2)
    tarr = np.asarray(t, dtype=np.float64)
    # u[r] = (t + r)/(RS); every (r, s) sum in one call, then the sums of
    # each r added over s in order, as the per-(r, s) loop adds them
    u = (tarr.ravel() + np.arange(R, dtype=np.float64)[:, None]) / (R * S)
    shifts = np.arange(S, dtype=np.float64)[:, None] / S
    # np.mod, not the floor form: a caller's t, and so u, can be negative
    inner_all = np.abs(_phi_sums(rows[0], np.mod(u[:, None, :] + shifts, 1.0)))
    outer = np.abs(_phi_sums(rows[1], np.mod(g * u, 1.0)))
    # np.cumsum adds left to right, as np.sum need not: over s, then over r
    inner = np.cumsum(inner_all, axis=1)[:, -1]
    total = np.cumsum(outer * inner, axis=0)[-1]
    total /= g * g
    if tarr.ndim == 0:
        return float(total[0])
    return total.reshape(tarr.shape)


def l1_cell_fault(g: int, lam: int, k: int, delta: int) -> str | None:
    """The condition (k, delta) fails as a progression cell at (g, lam), or None."""
    if not 0 <= delta <= lam:
        return "delta must lie in [0, lam]"
    if k < 1:
        return "k must be positive"
    if k % g == 0:
        return "k must not be divisible by the base"
    if (g**lam) % (k * g**delta):
        return "k * g^delta must divide g^lam"
    return None


def l1_moment(
    seed: Seed, lam: int, j: int, k: int, delta: int, a: int, beta: float | np.ndarray
) -> float | np.ndarray:
    """Sum of |F((h + beta)/g^lam)| over h = a mod k*g^delta in [0, g^lam).

    beta may be a scalar or an array (one moment per entry, each summed
    on its own as a scalar call sums it: numpy reduces every row of a
    C-contiguous array along its last axis as it reduces a lone row).
    """
    g = seed.base
    if fault := l1_cell_fault(g, lam, k, delta):
        raise ValueError(fault)
    step = k * g**delta
    return _progression_abs(seed, lam, j, step, a % step, beta).sum(axis=-1)


def l1_moment_bound(
    seed: Seed, lam: int, j: int, k: int, delta: int, a: int, beta: float | np.ndarray
) -> float | np.ndarray:
    """Progression-moment ceiling: g * (g^lam/(k g^delta))^eta * |F| at scale delta.

    beta may be a scalar or an array (one ceiling per entry).
    """
    g = seed.base
    if fault := l1_cell_fault(g, lam, k, delta):
        raise ValueError(fault)
    step = k * g**delta
    a %= step
    eta = eta_tilde(g)
    tail = F_abs_product(seed, delta, j + lam - delta, (a + np.mod(beta, 1.0)) / g**delta)
    return g * (g**lam / step) ** eta * tail


def hybrid_sum(seed: Seed, lam: int, j: int, M: float) -> float:
    """Sum of |F(k/m)| over reduced fractions with m in [M, 2M).

    One F_abs_product call takes every point (the double nearest k/m),
    about 0.9 M^2 of them (3700 at verify's largest M, 64), and the
    values are added left to right by m, then k.
    """
    if not 1 <= M < math.inf:  # NaN too
        raise ValueError("M must be at least 1 and finite")
    points = [
        k / m for m in range(math.ceil(M), math.ceil(2 * M)) for k in range(m)
        if math.gcd(k, m) == 1
    ]
    # 0.0 + |F| is |F|, so the cumsum equals a loop from total = 0.0
    return float(np.cumsum(F_abs_product(seed, lam, j, np.array(points)))[-1])


def hybrid_bound_shape(seed: Seed, lam: int, j: int, M: float) -> float:
    """Two-branch envelope for hybrid_sum, split on window length.

    Short windows pay the full length at the eta exponent; long windows
    pay twice the Farey scale plus the remaining cumulative decay.
    """
    if not 1 <= M < math.inf:  # NaN too
        raise ValueError("M must be at least 1 and finite")
    g = seed.base
    eta = eta_tilde(g)
    mu = ilog(M, g)
    if 2 * mu <= lam:
        expo = (0.5 - eta) * 2 * mu + sigma(seed, lam - 2 * mu, j + 2 * mu)
        return M * g**-expo
    return M * M * g ** (-(1.0 - eta) * lam)
