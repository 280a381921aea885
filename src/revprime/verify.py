"""Verifier suites: replayable inequality sweeps over declared grids.

SUITES registers each suite as its RNG stream id, a cells() that returns
its declared grid after the options' filters, a cell() that returns one
cell's reports and the options those two read.  admit refuses a bad run
before any cell runs, and verify and calibrate admit every suite first;
run_suite admits one and maps its cells over threads.  Each cell draws
its randomness from a stream keyed by (rng_seed, suite id, cell key), so
reports come out byte-identical however cells are spread over threads.
Suites with an implicit constant additionally tag every report with a
dimensionless cal_ratio; calibrate() collects the maxima, and later runs
with a stored ceiling in RunConfig.c_cal check the ratios against it as
a regression gate.  The vaughan suite reads arith.vaughan_arrays;
tests/oracles.py holds the per-n reference (Vaughan's split one divisor
at a time) its reports are recounted from.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from .arith import vaughan_arrays
# build_table and the per-n Vaughan views of vaughan_arrays are not
# called here or by any command (each sum sieves its own primes); they
# stay importable as verify.<name> only because perfbench's PLAN times
# them through these names, and they go when those entries do
from .arith import build_table, mangoldt_tail, mobius_mangoldt_window, vaughan_terms  # noqa: F401
from .basedigits import ilog
from .config import RunConfig, UsageError, make_rng
from .expsum import (
    WORK_BUDGET,
    BoundReport,
    F_abs_product,
    F_direct,
    eta_tilde,
    gamma_upper_bound,
    hybrid_bound_shape,
    hybrid_sum,
    l1_cell_fault,
    l1_moment,
    l1_moment_bound,
    make_report,
    psi,
    sigma,
    theta_i,
)
from .primesum import (
    mangoldt_tail_coefficients,
    mobius_coefficients,
    prime_exp_sum,
    sin_sum_check,
    truncation_set_size,
    type_i_sum,
    type_ii_sum,
    unimodular_coefficients,
    vdc_lhs_rhs,
)
from .seeds import Seed, reverse_seed, sod_seed, table_seed

__all__ = [
    "UsageError",
    "SuiteOptions",
    "Suite",
    "SUITES",
    "CALIBRATED",
    "admit",
    "run_suite",
    "calibrate",
]


@dataclass(frozen=True)
class SuiteOptions:
    g: Optional[int] = None
    lambda_max: Optional[int] = None
    limit: Optional[int] = None
    cases: Optional[int] = None
    seed_family: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("lambda_max", "limit", "cases"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise UsageError(f"{_flag(name)} must be at least 1, got {value}")


def _flag(field: str) -> str:
    """The command-line flag of a SuiteOptions field."""
    return "--" + field.replace("_", "-")


def _or_default(value: Optional[int], default: int) -> int:
    return default if value is None else value


def _grid(grid: tuple) -> Callable[[RunConfig, SuiteOptions], dict]:
    """cells() of a declared grid whose cells are bases or tuples led by one.

    The cells are keyed by base, which is also their RNG key, and cut to
    --g when it is given.
    """

    def cells(cfg: RunConfig, opts: SuiteOptions) -> dict:
        picked = {c if isinstance(c, int) else c[0]: c for c in grid}
        if opts.g is None:
            return picked
        if opts.g not in picked:
            raise UsageError(f"--g {opts.g} is outside the declared grid {tuple(picked)}")
        return {opts.g: picked[opts.g]}

    return cells


def _pick_seeds(pool: list[tuple[str, Any]], which: Optional[str]) -> list[tuple[str, Any]]:
    """The (family, seed) entries of family `which`; all of them when None."""
    if which is None:
        return pool
    picked = [p for p in pool if p[0] == which]
    if not picked:
        names = ", ".join(dict.fromkeys(name for name, _ in pool))
        raise UsageError(
            f"seed family {which!r} empties the declared grid; this suite draws {names}"
        )
    return picked


def _fixed_pair(g: int, window: int) -> list[tuple[str, Seed]]:
    """The sod (scale 0.37) and reverse (scale 0.73, L = window) seeds four pools share."""
    return [("sod", sod_seed(g, 0.37)), ("reverse", reverse_seed(g, window, 0.73))]


def _seed_pool(
    g: int, window: int, rng: np.random.Generator, which: Optional[str]
) -> list[tuple[str, Seed]]:
    rows = tuple(tuple(float(v) for v in row) for row in rng.random((3, g)))
    pool = [
        ("zero", sod_seed(g, 0.0)),
        *_fixed_pair(g, max(window, 2)),
        ("table", table_seed(g, rows)),
    ]
    return _pick_seeds(pool, which)


def _blocks(cfg: RunConfig, opts: SuiteOptions) -> dict[int, int]:
    """--cases (default 1000) split over eight blocks, the first ones one larger."""
    total = _or_default(opts.cases, 1000)
    return {b: total // 8 + (b < total % 8) for b in range(8)}


def _map_cells(fn: Callable, cells: list, threads: int) -> list:
    if threads <= 1 or len(cells) <= 1:
        return [fn(c) for c in cells]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, cells))


def _direct_cap(g: int, lam_cap: int) -> int:
    return max(1, min(lam_cap, ilog(WORK_BUDGET, g)))


def _product_formula(cfg: RunConfig, opts: SuiteOptions, rng, g: int) -> list[BoundReport]:
    per_cell = _or_default(opts.cases, 4)
    lam_max = _direct_cap(g, _or_default(opts.lambda_max, 10))
    out = []
    for name, seed in _seed_pool(g, lam_max, rng, opts.seed_family):
        for lam in range(1, lam_max + 1):
            betas = rng.random(per_cell)
            prods = F_abs_product(seed, lam, 0, betas).tolist()
            # F_direct sums g^lam terms per beta under its budget, one call each
            for beta, prod in zip(betas.tolist(), prods):
                direct = abs(F_direct(seed, lam, 0, beta))
                out.append(
                    make_report(
                        abs(direct - prod),
                        1e-10,
                        {"g": g, "family": name, "lam": lam, "beta": beta},
                    )
                )
    return out


def _linf(cfg: RunConfig, opts: SuiteOptions, rng, g: int) -> list[BoundReport]:
    per_cell = _or_default(opts.cases, 6)
    lam_max = _or_default(opts.lambda_max, 10)
    out = []
    for name, seed in _seed_pool(g, lam_max, rng, opts.seed_family):
        for lam in range(1, lam_max + 1):
            for j in (0, 2):
                ceiling = g ** (1 / 20) * g ** -sigma(seed, lam, j)
                for value in F_abs_product(seed, lam, j, rng.random(per_cell)).tolist():
                    out.append(
                        make_report(
                            value, ceiling, {"g": g, "family": name, "lam": lam, "j": j}
                        )
                    )
    return out


def _l1_moment(cfg: RunConfig, opts: SuiteOptions, rng, g: int) -> list[BoundReport]:
    per_cell = _or_default(opts.cases, 3)
    # the pure form walks g^lam points, so lam stops at the work budget too
    lam_max = _direct_cap(g, _or_default(opts.lambda_max, 6))
    out = []
    for name, seed in _seed_pool(g, lam_max, rng, opts.seed_family):
        eta = eta_tilde(g)
        for lam in range(1, lam_max + 1):
            pure = l1_moment(seed, lam, 0, 1, 0, 0, 0.0)
            out.append(
                make_report(
                    pure,
                    g ** (eta * lam + 1),
                    {"g": g, "family": name, "lam": lam, "form": "pure"},
                )
            )
            valid = [(k, d) for k in range(1, 6) for d in range(lam + 1)
                     if l1_cell_fault(g, lam, k, d) is None]
            for k, delta in valid:
                a = int(rng.integers(0, k * g**delta))
                betas = rng.random(per_cell)
                lhs = l1_moment(seed, lam, 0, k, delta, a, betas).tolist()
                rhs = l1_moment_bound(seed, lam, 0, k, delta, a, betas).tolist()
                for left, right in zip(lhs, rhs):
                    out.append(
                        make_report(
                            left,
                            right,
                            {
                                "g": g, "family": name, "lam": lam,
                                "k": k, "delta": delta, "form": "progression",
                            },
                        )
                    )
    return out


def _divisors_of(g: int) -> list[int]:
    return [d for d in range(1, g + 1) if g % d == 0]


def _psi(cfg: RunConfig, opts: SuiteOptions, rng, g: int) -> list[BoundReport]:
    per_cell = _or_default(opts.cases, 100)
    eta = eta_tilde(g)
    out = []
    for name, seed in _seed_pool(g, 8, rng, opts.seed_family):
        for i in (0, 1):
            ts = rng.random(per_cell) * 3
            for R in _divisors_of(g):
                if R < 2:
                    continue
                for S in _divisors_of(g):
                    # every form needs gcd(R, g/S) = 1 (S = g meets it), so a
                    # pair without it gets no report and no psi
                    if math.gcd(R, g // S) != 1:
                        continue
                    tag = {"g": g, "family": name, "i": i, "R": R, "S": S}
                    vals = psi(seed, i, ts, R, S)
                    if S != g:
                        rhs, form = (2 / 3) * R * S, "partial-depth"
                    else:
                        rhs, form = R * g * (1 - theta_i(seed, i)), "full-depth"
                    out.append(make_report(float(np.max(vals**2)), rhs, dict(tag, form=form)))
                    out.append(
                        make_report(float(np.max(vals)), (R * S) ** eta, dict(tag, form="eta-power"))
                    )
    return out


def _vdc(cfg: RunConfig, opts: SuiteOptions, rng, count: int) -> list[BoundReport]:
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 201))
        r = int(rng.integers(1, 21))
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs, rhs = vdc_lhs_rhs(z, r)
        out.append(make_report(lhs, rhs, {"N": n, "R": r}))
    return out


def _sin_sum(cfg: RunConfig, opts: SuiteOptions, rng, count: int) -> list[BoundReport]:
    out = []
    for _ in range(count):
        a = int(rng.integers(-1000, 1001))
        m = int(rng.integers(1, 501))
        b_shift = float(rng.uniform(-3, 3))
        cap = float(rng.uniform(0.1, 1000))
        out.append(sin_sum_check(a, m, b_shift, cap))
    return out


_TRUNCATION_BOXES = ((16.0, 4.0), (64.0, 4.0), (64.0, 8.0), (128.0, 8.0))


def _truncation_cells(cfg: RunConfig, opts: SuiteOptions) -> dict:
    if opts.g not in (None, 2):
        raise UsageError("truncation grid is declared for g = 2 only")
    boxes = [(m, n, r2) for m in (1.0, 2.0, 4.0, 8.0, 16.0) for n, r2 in _TRUNCATION_BOXES]
    return dict(enumerate(boxes))


def _truncation(cfg: RunConfig, opts: SuiteOptions, rng, box: tuple) -> list[BoundReport]:
    M, N, R = box
    g = 2
    ceiling = cfg.c_cal.get("truncation")
    lam = ilog(M * R * R, g) + 1
    L = lam + 6
    seed = reverse_seed(g, L, 0.73)
    out = []
    for r in range(int(R) + 1):
        members, superset = truncation_set_size(seed, M, N, R, r, L, lam)
        ratio = members * R / (M * N)
        params = {
            "M": M, "N": N, "R": R, "r": r, "lam": lam,
            "superset": superset, "cal_ratio": ratio,
        }
        out.append(make_report(float(members), float(superset), params))
        if ceiling is not None:
            out.append(
                make_report(ratio, ceiling, dict(params, form="regression"))
            )
    return out


def _vaughan_cells(cfg: RunConfig, opts: SuiteOptions) -> dict:
    limit = _or_default(opts.limit, 10_000)
    zs = (2.0, 5.0, 50.0, float(limit) ** 0.25)
    return {i: (limit, z) for i, z in enumerate(zs)}


def _vaughan(cfg: RunConfig, opts: SuiteOptions, rng, cell: tuple) -> list[BoundReport]:
    limit, z = cell
    va = vaughan_arrays(z, limit)
    gap = np.abs(va.total[1:] - va.mangoldt[1:])
    at = int(np.argmax(gap))
    worst, worst_n = (float(gap[at]), at + 1) if gap[at] > 0.0 else (0.0, 1)
    log = va.log[2:]
    cap_ratio = max(
        float(np.max(va.mangoldt_tail[2:] / log, initial=0.0)),
        float(np.max(np.abs(va.mobius_mangoldt_window[2:]) / log, initial=0.0)),
    )
    # the four pieces add back to Lambda(n) exactly, so worst is float
    # cancellation alone, 7.1e-15 at the default limit; 1e-9 bounds that
    return [
        make_report(worst, 1e-9, {"z": z, "limit": limit, "worst_n": worst_n}),
        make_report(cap_ratio, 1.0, {"z": z, "limit": limit, "form": "coefficient-cap"}),
    ]


def _monotonicity(cfg: RunConfig, opts: SuiteOptions, rng, g: int) -> list[BoundReport]:
    lam_max = _or_default(opts.lambda_max, 12)
    cap = gamma_upper_bound(g)
    out = []
    for name, seed in _seed_pool(g, lam_max, rng, opts.seed_family):
        tag = {"g": g, "family": name}
        for lam in range(1, lam_max + 1):
            for j in (0, 3):
                # holds in floats with no slack: both are Python sums of
                # the same nonnegative gammas in the same order, full's
                # starting from gamma_j >= 0 and short's from 0, and
                # rounding is monotone, so each partial sum of full stays
                # >= short's
                full = sigma(seed, lam, j)
                short = sigma(seed, lam - 1, j + 1)
                out.append(
                    make_report(short, full, dict(tag, lam=lam, j=j, form="window-shift"))
                )
                out.append(
                    make_report(
                        max(0.0, full - cap),
                        short,
                        dict(tag, lam=lam, j=j, form="shift-gap-cap"),
                    )
                )
        coeff = 2 * math.log(2) / math.log(g) * (0.5 - eta_tilde(g))
        for lam, j in ((8, 0), (12, 2)):
            vals = [coeff * mu + sigma(seed, lam - mu, j + mu) for mu in range(lam + 1)]
            # each step rises by coeff - gamma > 0 exactly, so worst is a
            # drop made by rounding alone; 1e-12 bounds the rounding of
            # these sums (values below 10, at most 13 terms)
            worst = max(max(a - b for a, b in zip(vals, vals[1:])), 0.0)
            out.append(
                make_report(worst, 1e-12, dict(tag, lam=lam, j=j, form="scale-tradeoff"))
            )
        for j in (0, 2):
            vals = [cap * lam - sigma(seed, lam, j) for lam in range(lam_max + 1)]
            # each step rises by cap - gamma > 0 exactly (cap is a strict
            # bound on gamma), so worst is rounding alone; 1e-12 bounds
            # the rounding of cap * lam and of a sum of lam terms below 1
            worst = max(max(a - b for a, b in zip(vals, vals[1:])), 0.0)
            out.append(
                make_report(worst, 1e-12, dict(tag, j=j, form="linear-slack"))
            )
        for xi in (4, 8, 12):
            out.append(
                make_report(
                    sigma(seed, xi, 0) / 10, xi / 20, dict(tag, xi=xi, form="decay-cap")
                )
            )
    return out


_TYPE_I_CELLS = (
    (2, 12, 2**12, (8.0, 60.0)),
    (3, 7, 3**7, (9.0, 40.0)),
    (10, 4, 10**4, (10.0, 99.0)),
)


def _ratio_report(
    name: str, cfg: RunConfig, lhs: float, shape: float, params: dict
) -> BoundReport:
    """Report for an implicit-constant bound: lhs against C * shape.

    Without a stored ceiling the report records the observed ratio and
    passes; with one it becomes a regression gate.
    """
    ratio = lhs / shape if shape else math.inf
    params = dict(params, cal_ratio=ratio)
    ceiling = cfg.c_cal.get(name)
    if ceiling is None:
        return BoundReport(lhs, lhs, 1.0, dict(params, form="recording"), True)
    return make_report(lhs, ceiling * shape, dict(params, form="regression"))


def _type_i(cfg: RunConfig, opts: SuiteOptions, rng, cell: tuple) -> list[BoundReport]:
    g, L, x, ms = cell
    out = []
    pool = [*_fixed_pair(g, L), ("reverse-rational", reverse_seed(g, L, 3 / 7))]
    for name, seed in _pick_seeds(pool, opts.seed_family):
        for M in ms:
            res = type_i_sum(seed, L, float(x), M)
            out.append(
                _ratio_report(
                    "type-i", cfg, res.S, res.bound_shape,
                    {"g": g, "family": name, "L": L, "x": x, "M": M,
                     "kappa": res.kappa},
                )
            )
    return out


_TYPE_II_CELLS = (
    (2, 16, 2**16, 16.0, 16.0),
    (10, 4, 10**4, 10.0, 10.0),
)


def _type_ii(cfg: RunConfig, opts: SuiteOptions, rng, cell: tuple) -> list[BoundReport]:
    g, L, x, M, N = cell
    pairs = [
        ("mobius-tail", mobius_coefficients(), mangoldt_tail_coefficients(N / 2, x)),
        ("unimodular", unimodular_coefficients(1), unimodular_coefficients(2)),
    ]
    out = []
    for sname, seed in _pick_seeds(_fixed_pair(g, L), opts.seed_family):
        for cname, a_coeff, b_coeff in pairs:
            res = type_ii_sum(seed, L, float(x), M, N, a_coeff, b_coeff)
            out.append(
                _ratio_report(
                    "type-ii", cfg, abs(res.S), res.bound_shape,
                    {"g": g, "family": sname, "coeffs": cname, "L": L,
                     "x": x, "M": M, "N": N, "kappa": res.kappa},
                )
            )
    return out


_PRIME_SUM_CELLS = (
    (2, 13, 2**13),
    (3, 8, 3**8),
    (10, 4, 10**4),
)

_PRIME_SUM_SCALES = (1 / 7, 3 / 7, 2 / 11)


def _prime_exp_sum(cfg: RunConfig, opts: SuiteOptions, rng, cell: tuple) -> list[BoundReport]:
    g, L, x = cell
    out = []
    scales = [("reverse", scale) for scale in _PRIME_SUM_SCALES]
    for _, scale in _pick_seeds(scales, opts.seed_family):
        seed = reverse_seed(g, L, scale)
        res = prime_exp_sum(seed, L, float(x))
        out.append(
            _ratio_report(
                "prime-exp-sum", cfg, abs(res.S), res.bound_shape,
                {"g": g, "L": L, "x": x, "scale": scale,
                 "kappa": res.kappa, "xi": res.xi},
            )
        )
    return out


_HYBRID_CELLS = (
    (2, 14, (4.0, 16.0, 64.0)),
    (10, 6, (5.0, 50.0)),
)


def _hybrid(cfg: RunConfig, opts: SuiteOptions, rng, cell: tuple) -> list[BoundReport]:
    g, lam, ms = cell
    out = []
    for name, seed in _pick_seeds(_fixed_pair(g, lam), opts.seed_family):
        for M in ms:
            lhs = hybrid_sum(seed, lam, 0, M)
            shape = hybrid_bound_shape(seed, lam, 0, M)
            out.append(
                _ratio_report(
                    "hybrid", cfg, lhs, shape,
                    {"g": g, "family": name, "lam": lam, "M": M},
                )
            )
    return out


class Suite(NamedTuple):
    """A registered suite.  stream is its RNG spawn key (fixed: changing
    it moves every report); cells(cfg, opts) maps each cell's RNG key to
    the cell; cell(cfg, opts, rng, cell) returns that cell's reports;
    reads names the SuiteOptions fields those two read, and admit
    rejects any other option that is given.  A suite whose cells sieve
    primes gives reach(cell), the largest integer that cell sieves up
    to, and admit refuses one reaching past min(sieve_limit, WORK_BUDGET)."""

    stream: int
    cells: Callable[[RunConfig, SuiteOptions], dict]
    cell: Callable[..., list[BoundReport]]
    reads: tuple[str, ...]
    reach: Optional[Callable[[tuple], int]] = None


_SEEDED = ("g", "seed_family")
_SWEPT = ("g", "lambda_max", "cases", "seed_family")

SUITES: dict[str, Suite] = {
    "product-formula": Suite(1, _grid((2, 3, 10)), _product_formula, _SWEPT),
    "linf": Suite(2, _grid((2, 3, 10)), _linf, _SWEPT),
    "l1-moment": Suite(3, _grid((2, 6)), _l1_moment, _SWEPT),
    "psi": Suite(4, _grid((2, 6, 10, 12)), _psi, ("g", "cases", "seed_family")),
    "vdc": Suite(5, _blocks, _vdc, ("cases",)),
    "sin-sum": Suite(6, _blocks, _sin_sum, ("cases",)),
    "truncation": Suite(7, _truncation_cells, _truncation, ("g",)),
    "vaughan": Suite(8, _vaughan_cells, _vaughan, ("limit",), lambda c: c[0]),
    "monotonicity": Suite(9, _grid((2, 3, 10)), _monotonicity, ("g", "lambda_max", "seed_family")),
    "type-i": Suite(10, _grid(_TYPE_I_CELLS), _type_i, _SEEDED),
    # the Moebius coefficients read m <= 2M and the tail ones n <= 2N
    "type-ii": Suite(11, _grid(_TYPE_II_CELLS), _type_ii, _SEEDED,
                     lambda c: math.floor(2 * max(c[3], c[4]))),
    "prime-exp-sum": Suite(12, _grid(_PRIME_SUM_CELLS), _prime_exp_sum, _SEEDED, lambda c: c[2]),
    "hybrid": Suite(13, _grid(_HYBRID_CELLS), _hybrid, _SEEDED),
}

CALIBRATED = ("type-i", "type-ii", "prime-exp-sum", "hybrid", "truncation")


def admit(name: str, cfg: RunConfig, opts: SuiteOptions) -> tuple[Suite, dict]:
    """(suite, cells) of a run checked whole: name, options, grid and reach."""
    if name not in SUITES:
        raise UsageError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    suite = SUITES[name]
    for f in fields(opts):
        if getattr(opts, f.name) is not None and f.name not in suite.reads:
            reads = ", ".join(map(_flag, suite.reads))
            raise UsageError(f"suite {name!r} does not read {_flag(f.name)}; it reads {reads}")
    cells = suite.cells(cfg, opts)
    reach = max(map(suite.reach, cells.values())) if suite.reach else 0
    if reach > min(cfg.sieve_limit, WORK_BUDGET):
        raise UsageError(f"suite {name!r} sieves up to {reach} > the least of sieve_limit "
                         f"{cfg.sieve_limit} and the work budget {WORK_BUDGET}")
    return suite, cells


def run_suite(name: str, cfg: RunConfig, opts: SuiteOptions) -> list[BoundReport]:
    suite, cells = admit(name, cfg, opts)

    def run(key: int) -> list[BoundReport]:
        return suite.cell(cfg, opts, make_rng(cfg, suite.stream, key), cells[key])

    return [r for chunk in _map_cells(run, list(cells), cfg.threads) for r in chunk]


def calibrate(names, cfg: RunConfig, opts: SuiteOptions) -> dict[str, float]:
    """Max observed cal_ratio per calibrated verifier on its grid.

    A cal_ratio is lhs over the bound shape whatever cfg.c_cal holds: a
    stored ceiling only makes regression gates of reports that carry the
    same ratios, so the table never depends on it.
    """
    for name in names:
        if name not in CALIBRATED:
            raise UsageError(
                f"{name!r} is not a calibrated verifier; known: {', '.join(CALIBRATED)}"
            )
        admit(name, cfg, opts)
    return {name: max(r.params["cal_ratio"] for r in run_suite(name, cfg, opts))
            for name in names}
