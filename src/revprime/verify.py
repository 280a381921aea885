"""Verifier suites: replayable inequality sweeps over declared grids.

Each suite draws its randomness from a stream keyed by (rng_seed, suite
id, cell index), so reports come out byte-identical no matter how cells
are spread over threads.  Suites with an implicit constant additionally
tag every report with a dimensionless cal_ratio; calibrate() collects
the maxima, and later runs with a stored ceiling in RunConfig.c_cal
check the ratios against it as a regression gate.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

# the per-n oracles are not called here; they stay importable as
# verify.<name>, the names perfbench times the Vaughan pieces through
from .arith import (  # noqa: F401
    build_table,
    mangoldt_tail,
    mobius_mangoldt_window,
    vaughan_arrays,
    vaughan_terms,
)
from .config import RunConfig, make_rng
from .expsum import (
    BoundReport,
    F_abs_product,
    F_direct,
    eta_tilde,
    expsum_context,
    gamma_upper_bound,
    hybrid_bound_shape,
    hybrid_sum,
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
    type_i_bound_shape,
    type_i_params,
    type_i_sum,
    type_ii_bound_shape,
    type_ii_params,
    type_ii_sum,
    unimodular_coefficients,
    vdc_lhs_rhs,
)
from .seeds import Seed, reverse_seed, sod_seed, table_seed, zero_seed

__all__ = [
    "UsageError",
    "SuiteOptions",
    "SUITES",
    "CALIBRATED",
    "run_suite",
    "calibrate",
]


class UsageError(ValueError):
    """Bad suite name or an option combination that empties the grid."""


@dataclass(frozen=True)
class SuiteOptions:
    g: Optional[int] = None
    lambda_max: Optional[int] = None
    limit: Optional[int] = None
    cases: Optional[int] = None
    seed_family: Optional[str] = None


_STREAMS = {
    "product-formula": 1,
    "linf": 2,
    "l1-moment": 3,
    "psi": 4,
    "vdc": 5,
    "sin-sum": 6,
    "truncation": 7,
    "vaughan": 8,
    "monotonicity": 9,
    "type-i": 10,
    "type-ii": 11,
    "prime-exp-sum": 12,
    "hybrid": 13,
}

_FAMILY_NAMES = ("zero", "sod", "reverse", "table")


def _pick_gs(opts: SuiteOptions, default: tuple[int, ...]) -> list[int]:
    if opts.g is None:
        return list(default)
    if opts.g not in default:
        raise UsageError(f"--g {opts.g} is outside the declared grid {default}")
    return [opts.g]


def _seed_pool(
    g: int, window: int, rng: np.random.Generator, which: Optional[str]
) -> list[tuple[str, Seed]]:
    rows = tuple(tuple(float(v) for v in row) for row in rng.random((3, g)))
    pool = [
        ("zero", zero_seed(g)),
        ("sod", sod_seed(g, 0.37)),
        ("reverse", reverse_seed(g, max(window, 2), 0.73)),
        ("table", table_seed(g, rows)),
    ]
    if which is None:
        return pool
    if which not in _FAMILY_NAMES:
        raise UsageError(f"unknown seed family {which!r}")
    return [p for p in pool if p[0] == which]


def _map_cells(fn: Callable, cells: list, threads: int) -> list:
    if threads <= 1 or len(cells) <= 1:
        return [fn(c) for c in cells]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, cells))


def _flatten(chunks: list[list[BoundReport]]) -> list[BoundReport]:
    return [r for chunk in chunks for r in chunk]


def _direct_cap(g: int, lam_cap: int) -> int:
    lam = 1
    while lam < lam_cap and g ** (lam + 1) <= (1 << 20):
        lam += 1
    return lam


def _suite_product_formula(cfg: RunConfig, opts: SuiteOptions) -> list[BoundReport]:
    gs = _pick_gs(opts, (2, 3, 10))
    per_cell = opts.cases or 4

    def cell(g: int) -> list[BoundReport]:
        rng = make_rng(cfg, _STREAMS["product-formula"], g)
        lam_max = _direct_cap(g, opts.lambda_max or 10)
        out = []
        for name, seed in _seed_pool(g, lam_max, rng, opts.seed_family):
            es = expsum_context(seed)
            for lam in range(1, lam_max + 1):
                for beta in rng.random(per_cell):
                    direct = abs(F_direct(es, lam, 0, float(beta)))
                    prod = F_abs_product(es, lam, 0, float(beta))
                    out.append(
                        make_report(
                            abs(direct - prod),
                            1e-10,
                            {"g": g, "family": name, "lam": lam, "beta": float(beta)},
                        )
                    )
        return out

    return _flatten(_map_cells(cell, gs, cfg.threads))


def _suite_linf(cfg: RunConfig, opts: SuiteOptions) -> list[BoundReport]:
    gs = _pick_gs(opts, (2, 3, 10))
    per_cell = opts.cases or 6

    def cell(g: int) -> list[BoundReport]:
        rng = make_rng(cfg, _STREAMS["linf"], g)
        lam_max = opts.lambda_max or 10
        out = []
        for name, seed in _seed_pool(g, lam_max, rng, opts.seed_family):
            es = expsum_context(seed)
            for lam in range(1, lam_max + 1):
                for j in (0, 2):
                    ceiling = g ** (1 / 20) * g ** -sigma(es, lam, j)
                    for beta in rng.random(per_cell):
                        out.append(
                            make_report(
                                F_abs_product(es, lam, j, float(beta)),
                                ceiling,
                                {"g": g, "family": name, "lam": lam, "j": j},
                            )
                        )
        return out

    return _flatten(_map_cells(cell, gs, cfg.threads))


def _valid_l1_cells(g: int, lam: int) -> list[tuple[int, int]]:
    cells = []
    for k in range(1, 6):
        if k % g == 0:
            continue
        for delta in range(lam + 1):
            if (g**lam) % (k * g**delta) == 0:
                cells.append((k, delta))
    return cells


def _suite_l1_moment(cfg: RunConfig, opts: SuiteOptions) -> list[BoundReport]:
    gs = _pick_gs(opts, (2, 6))
    per_cell = opts.cases or 3

    def cell(g: int) -> list[BoundReport]:
        rng = make_rng(cfg, _STREAMS["l1-moment"], g)
        lam_max = opts.lambda_max or 6
        out = []
        for name, seed in _seed_pool(g, lam_max, rng, opts.seed_family):
            es = expsum_context(seed)
            eta = es.constants.eta_tilde
            for lam in range(1, lam_max + 1):
                pure = l1_moment(es, lam, 0, 1, 0, 0, 0.0)
                out.append(
                    make_report(
                        pure,
                        g ** (eta * lam + 1),
                        {"g": g, "family": name, "lam": lam, "form": "pure"},
                    )
                )
                for k, delta in _valid_l1_cells(g, lam):
                    a = int(rng.integers(0, k * g**delta))
                    for beta in rng.random(per_cell):
                        lhs = l1_moment(es, lam, 0, k, delta, a, float(beta))
                        rhs = l1_moment_bound(es, lam, 0, k, delta, a, float(beta))
                        out.append(
                            make_report(
                                lhs,
                                rhs,
                                {
                                    "g": g, "family": name, "lam": lam,
                                    "k": k, "delta": delta, "form": "progression",
                                },
                            )
                        )
        return out

    return _flatten(_map_cells(cell, gs, cfg.threads))


def _divisors_of(g: int) -> list[int]:
    return [d for d in range(1, g + 1) if g % d == 0]


def _suite_psi(cfg: RunConfig, opts: SuiteOptions) -> list[BoundReport]:
    gs = _pick_gs(opts, (2, 6, 10, 12))
    per_cell = opts.cases or 100

    def cell(g: int) -> list[BoundReport]:
        rng = make_rng(cfg, _STREAMS["psi"], g)
        eta = eta_tilde(g)
        out = []
        for name, seed in _seed_pool(g, 8, rng, opts.seed_family):
            es = expsum_context(seed)
            for i in (0, 1):
                ts = rng.random(per_cell) * 3
                for R in _divisors_of(g):
                    if R < 2:
                        continue
                    for S in _divisors_of(g):
                        tag = {"g": g, "family": name, "i": i, "R": R, "S": S}
                        vals = psi(es, i, ts, R, S)
                        if S != g and math.gcd(R, g // S) == 1:
                            out.append(
                                make_report(
                                    float(np.max(vals**2)),
                                    (2 / 3) * R * S,
                                    dict(tag, form="partial-depth"),
                                )
                            )
                        if S == g:
                            out.append(
                                make_report(
                                    float(np.max(vals**2)),
                                    R * g * (1 - theta_i(es, i)),
                                    dict(tag, form="full-depth"),
                                )
                            )
                        if math.gcd(R, g // S) == 1:
                            out.append(
                                make_report(
                                    float(np.max(vals)),
                                    (R * S) ** eta,
                                    dict(tag, form="eta-power"),
                                )
                            )
        return out

    return _flatten(_map_cells(cell, gs, cfg.threads))


def _suite_vdc(cfg: RunConfig, opts: SuiteOptions) -> list[BoundReport]:
    total = opts.cases or 1000
    blocks = list(range(8))

    def cell(b: int) -> list[BoundReport]:
        rng = make_rng(cfg, _STREAMS["vdc"], b)
        out = []
        count = total // len(blocks) + (b < total % len(blocks))
        for _ in range(count):
            n = int(rng.integers(1, 201))
            r = int(rng.integers(1, 21))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lhs, rhs = vdc_lhs_rhs(z, r)
            out.append(make_report(lhs, rhs, {"N": n, "R": r}))
        return out

    return _flatten(_map_cells(cell, blocks, cfg.threads))


def _suite_sin_sum(cfg: RunConfig, opts: SuiteOptions) -> list[BoundReport]:
    total = opts.cases or 1000
    blocks = list(range(8))

    def cell(b: int) -> list[BoundReport]:
        rng = make_rng(cfg, _STREAMS["sin-sum"], b)
        out = []
        count = total // len(blocks) + (b < total % len(blocks))
        for _ in range(count):
            a = int(rng.integers(-1000, 1001))
            m = int(rng.integers(1, 501))
            b_shift = float(rng.uniform(-3, 3))
            cap = float(rng.uniform(0.1, 1000))
            out.append(sin_sum_check(a, m, b_shift, cap))
        return out

    return _flatten(_map_cells(cell, blocks, cfg.threads))


_TRUNCATION_BOXES = ((16.0, 4.0), (64.0, 4.0), (64.0, 8.0), (128.0, 8.0))


def _suite_truncation(cfg: RunConfig, opts: SuiteOptions) -> list[BoundReport]:
    if opts.g not in (None, 2):
        raise UsageError("truncation grid is declared for g = 2 only")
    g = 2
    ceiling = cfg.c_cal.get("truncation")
    cells = [(m, n, r2) for m in (1.0, 2.0, 4.0, 8.0, 16.0) for n, r2 in _TRUNCATION_BOXES]

    def cell(args: tuple[float, float, float]) -> list[BoundReport]:
        M, N, R = args
        lam = 0
        while g ** (lam + 1) <= M * R * R:
            lam += 1
        lam += 1
        L = lam + 6
        es = expsum_context(reverse_seed(g, L, 0.73))
        out = []
        for r in range(int(R) + 1):
            members, superset = truncation_set_size(es, M, N, R, r, L, lam)
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

    return _flatten(_map_cells(cell, cells, cfg.threads))


def _suite_vaughan(cfg: RunConfig, opts: SuiteOptions) -> list[BoundReport]:
    limit = 10_000 if opts.limit is None else opts.limit
    if limit < 1:
        raise UsageError(f"--limit must be at least 1, got {limit}")
    if limit > cfg.sieve_limit:
        raise UsageError(f"--limit {limit} exceeds sieve_limit {cfg.sieve_limit}")
    pt = build_table(cfg.sieve_limit)
    zs = (2.0, 5.0, 50.0, float(limit) ** 0.25)

    def cell(z: float) -> list[BoundReport]:
        va = vaughan_arrays(pt, z, limit)
        gap = np.abs(va.total[1:] - va.mangoldt[1:])
        at = int(np.argmax(gap))
        worst, worst_n = (float(gap[at]), at + 1) if gap[at] > 0.0 else (0.0, 1)
        log = va.log[2:]
        cap_ratio = max(
            float(np.max(va.mangoldt_tail[2:] / log, initial=0.0)),
            float(np.max(np.abs(va.mobius_mangoldt_window[2:]) / log, initial=0.0)),
        )
        return [
            make_report(worst, 1e-9, {"z": z, "limit": limit, "worst_n": worst_n}),
            make_report(cap_ratio, 1.0, {"z": z, "limit": limit, "form": "coefficient-cap"}),
        ]

    return _flatten(_map_cells(cell, list(zs), cfg.threads))


def _suite_monotonicity(cfg: RunConfig, opts: SuiteOptions) -> list[BoundReport]:
    gs = _pick_gs(opts, (2, 3, 10))

    def cell(g: int) -> list[BoundReport]:
        rng = make_rng(cfg, _STREAMS["monotonicity"], g)
        lam_max = opts.lambda_max or 12
        cap = gamma_upper_bound(g)
        out = []
        for name, seed in _seed_pool(g, lam_max, rng, opts.seed_family):
            es = expsum_context(seed)
            tag = {"g": g, "family": name}
            for lam in range(1, lam_max + 1):
                for j in (0, 3):
                    full = sigma(es, lam, j)
                    short = sigma(es, lam - 1, j + 1)
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
                vals = [coeff * mu + sigma(es, lam - mu, j + mu) for mu in range(lam + 1)]
                worst = max(max(a - b for a, b in zip(vals, vals[1:])), 0.0)
                out.append(
                    make_report(worst, 1e-12, dict(tag, lam=lam, j=j, form="scale-tradeoff"))
                )
            for j in (0, 2):
                vals = [cap * lam - sigma(es, lam, j) for lam in range(lam_max + 1)]
                worst = max(max(a - b for a, b in zip(vals, vals[1:])), 0.0)
                out.append(
                    make_report(worst, 1e-12, dict(tag, j=j, form="linear-slack"))
                )
            for xi in (4, 8, 12):
                out.append(
                    make_report(
                        sigma(es, xi, 0) / 10, xi / 20, dict(tag, xi=xi, form="decay-cap")
                    )
                )
        return out

    return _flatten(_map_cells(cell, gs, cfg.threads))


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


def _suite_type_i(cfg: RunConfig, opts: SuiteOptions) -> list[BoundReport]:
    cells = [c for c in _TYPE_I_CELLS if opts.g is None or c[0] == opts.g]
    if not cells:
        raise UsageError(f"--g {opts.g} empties the declared grid")

    def cell(args) -> list[BoundReport]:
        g, L, x, ms = args
        out = []
        seeds = [
            ("sod", sod_seed(g, 0.37)),
            ("reverse", reverse_seed(g, L, 0.73)),
            ("reverse-rational", reverse_seed(g, L, 3 / 7)),
        ]
        if opts.seed_family is not None:
            seeds = [s for s in seeds if s[0] == opts.seed_family]
        for name, seed in seeds:
            es = expsum_context(seed)
            for M in ms:
                p = type_i_params(es, L, float(x), M)
                lhs = type_i_sum(es, p)
                shape = type_i_bound_shape(es, p)
                out.append(
                    _ratio_report(
                        "type-i", cfg, lhs, shape,
                        {"g": g, "family": name, "L": L, "x": x, "M": M,
                         "kappa": p.kappa_I},
                    )
                )
        return out

    return _flatten(_map_cells(cell, cells, cfg.threads))


_TYPE_II_CELLS = (
    (2, 16, 2**16, 0.25, 16.0, 16.0),
    (10, 4, 10**4, 0.25, 10.0, 10.0),
)


def _suite_type_ii(cfg: RunConfig, opts: SuiteOptions) -> list[BoundReport]:
    cells = [c for c in _TYPE_II_CELLS if opts.g is None or c[0] == opts.g]
    if not cells:
        raise UsageError(f"--g {opts.g} empties the declared grid")
    pt = build_table(cfg.sieve_limit)

    def cell(args) -> list[BoundReport]:
        g, L, x, theta, M, N = args
        pairs = [
            ("mobius-tail", mobius_coefficients(pt), mangoldt_tail_coefficients(pt, N / 2, x)),
            ("unimodular", unimodular_coefficients(1), unimodular_coefficients(2)),
        ]
        out = []
        seeds = [("sod", sod_seed(g, 0.37)), ("reverse", reverse_seed(g, L, 0.73))]
        if opts.seed_family is not None:
            seeds = [s for s in seeds if s[0] == opts.seed_family]
        for sname, seed in seeds:
            es = expsum_context(seed)
            for cname, a_coeff, b_coeff in pairs:
                p = type_ii_params(es, L, float(x), M, N, theta, a_coeff, b_coeff)
                lhs = abs(type_ii_sum(es, p))
                shape = type_ii_bound_shape(es, p)
                out.append(
                    _ratio_report(
                        "type-ii", cfg, lhs, shape,
                        {"g": g, "family": sname, "coeffs": cname, "L": L,
                         "x": x, "M": M, "N": N, "kappa": p.kappa_II},
                    )
                )
        return out

    return _flatten(_map_cells(cell, cells, cfg.threads))


_PRIME_SUM_CELLS = (
    (2, 13, 2**13),
    (3, 8, 3**8),
    (10, 4, 10**4),
)

_PRIME_SUM_SCALES = (1 / 7, 3 / 7, 2 / 11)


def _suite_prime_exp_sum(cfg: RunConfig, opts: SuiteOptions) -> list[BoundReport]:
    cells = [c for c in _PRIME_SUM_CELLS if opts.g is None or c[0] == opts.g]
    if not cells:
        raise UsageError(f"--g {opts.g} empties the declared grid")
    pt = build_table(cfg.sieve_limit)

    def cell(args) -> list[BoundReport]:
        g, L, x = args
        out = []
        for scale in _PRIME_SUM_SCALES:
            es = expsum_context(reverse_seed(g, L, scale))
            res = prime_exp_sum(es, L, float(x), pt)
            out.append(
                _ratio_report(
                    "prime-exp-sum", cfg, abs(res.S), res.bound_shape,
                    {"g": g, "L": L, "x": x, "scale": scale,
                     "kappa": res.kappa, "xi": res.xi},
                )
            )
        return out

    return _flatten(_map_cells(cell, cells, cfg.threads))


_HYBRID_CELLS = (
    (2, 14, (4.0, 16.0, 64.0)),
    (10, 6, (5.0, 50.0)),
)


def _suite_hybrid(cfg: RunConfig, opts: SuiteOptions) -> list[BoundReport]:
    cells = [c for c in _HYBRID_CELLS if opts.g is None or c[0] == opts.g]
    if not cells:
        raise UsageError(f"--g {opts.g} empties the declared grid")

    def cell(args) -> list[BoundReport]:
        g, lam, ms = args
        out = []
        seeds = [("sod", sod_seed(g, 0.37)), ("reverse", reverse_seed(g, lam, 0.73))]
        if opts.seed_family is not None:
            seeds = [s for s in seeds if s[0] == opts.seed_family]
        for name, seed in seeds:
            es = expsum_context(seed)
            for M in ms:
                lhs = hybrid_sum(es, lam, 0, M)
                shape = hybrid_bound_shape(es, lam, 0, M)
                out.append(
                    _ratio_report(
                        "hybrid", cfg, lhs, shape,
                        {"g": g, "family": name, "lam": lam, "M": M},
                    )
                )
        return out

    return _flatten(_map_cells(cell, cells, cfg.threads))


SUITES: dict[str, Callable[[RunConfig, SuiteOptions], list[BoundReport]]] = {
    "product-formula": _suite_product_formula,
    "linf": _suite_linf,
    "l1-moment": _suite_l1_moment,
    "psi": _suite_psi,
    "vdc": _suite_vdc,
    "sin-sum": _suite_sin_sum,
    "truncation": _suite_truncation,
    "vaughan": _suite_vaughan,
    "monotonicity": _suite_monotonicity,
    "type-i": _suite_type_i,
    "type-ii": _suite_type_ii,
    "prime-exp-sum": _suite_prime_exp_sum,
    "hybrid": _suite_hybrid,
}

CALIBRATED = ("type-i", "type-ii", "prime-exp-sum", "hybrid", "truncation")


def run_suite(name: str, cfg: RunConfig, opts: SuiteOptions) -> list[BoundReport]:
    if name not in SUITES:
        raise UsageError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    return SUITES[name](cfg, opts)


def calibrate(names, cfg: RunConfig, opts: SuiteOptions) -> dict[str, float]:
    """Max observed cal_ratio per calibrated verifier on its grid."""
    table = {}
    bare = replace(cfg, c_cal={})
    for name in names:
        if name not in CALIBRATED:
            raise UsageError(
                f"{name!r} is not a calibrated verifier; known: {', '.join(CALIBRATED)}"
            )
        reports = run_suite(name, bare, opts)
        table[name] = max(r.params["cal_ratio"] for r in reports)
    return table
