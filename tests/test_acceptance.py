"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single summary
line (visible with -s, or in the failure report) in addition to the
usual pytest verdict.  Tolerances are pinned here, not imported, so a
regression in a module default cannot silently weaken the gate.
"""

import math
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from revprime.arith import build_table
from revprime.config import (
    DEFAULT_C_CAL,
    RunConfig,
    make_rng,
)
from revprime.expsum import (
    F_abs_product,
    F_direct,
    eta_tilde,
    l1_moment,
    l1_moment_bound,
    sigma,
)
from revprime.primesum import truncation_set_size
from revprime.revcount import census_grid, rho
from revprime.seeds import reverse_seed, sod_seed, table_seed
from revprime.verify import CALIBRATED, SuiteOptions, calibrate, run_suite

from oracles import prime_divisors, window_reverse

REPO_ROOT = Path(__file__).resolve().parent.parent
SLACK = 1e-9

# One verdict line per criterion, replayed after the run by conftest so the
# lines survive output capture.
RECORDED: list[str] = []


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    text = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}"
    RECORDED.append(text)
    print(text)


def _families(g: int, window: int, rng):
    rows = tuple(tuple(float(v) for v in row) for row in rng.random((3, g)))
    return [
        ("zero", sod_seed(g, 0.0)),
        ("sod", sod_seed(g, 0.37)),
        ("reverse", reverse_seed(g, max(window, 2), 0.73)),
        ("table", table_seed(g, rows)),
    ]


def test_criterion_01_product_formula_equivalence():
    """Direct and product evaluations of |F| agree to 1e-10.

    3000 random cases over g in {2,3,10}, window lengths up to 10, all
    four seed families.  The direct route enumerates g^lam terms, so the
    largest base caps its window at g^lam <= 2^18 to stay affordable;
    the two smaller bases run the full range.
    """
    t0 = time.perf_counter()
    cases = 0
    worst = 0.0
    for g, per_beta in ((2, 25), (3, 25), (10, 50)):
        lam_cap = max(lam for lam in range(1, 11) if g**lam <= 1 << 18)
        rng = make_rng(RunConfig(), 90, g)
        for _, seed in _families(g, lam_cap, rng):
            for lam in range(1, lam_cap + 1):
                for beta in rng.random(per_beta):
                    direct = abs(F_direct(seed, lam, 0, float(beta)))
                    prod = F_abs_product(seed, lam, 0, float(beta))
                    worst = max(worst, abs(direct - prod))
                    cases += 1
    elapsed = time.perf_counter() - t0
    ok = cases == 3000 and worst <= 1e-10 and elapsed < 30.0
    _line(1, "product-formula", ok, f"{cases} cases, worst {worst:.2e}, {elapsed:.1f}s")
    assert cases == 3000
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_02_linf_bound():
    """|F| never exceeds g^(1/20) * g^(-sigma) on the same grid.

    Same bases, window lengths, and seed families as the product-formula
    sweep; every case is checked at shift depths 0 and 2.
    """
    violations = 0
    cases = 0
    for g in (2, 3, 10):
        rng = make_rng(RunConfig(), 91, g)
        for _, seed in _families(g, 10, rng):
            for lam in range(1, 11):
                for j in (0, 2):
                    ceiling = g ** (1 / 20) * g ** -sigma(seed, lam, j)
                    for beta in rng.random(13):
                        if F_abs_product(seed, lam, j, float(beta)) > ceiling * (1 + SLACK):
                            violations += 1
                        cases += 1
    ok = violations == 0 and cases >= 3000
    _line(2, "linf-bound", ok, f"{cases} cases, {violations} violations")
    assert cases >= 3000
    assert violations == 0


def _l1_cells(g: int, lam: int):
    out = []
    for k in range(1, 6):
        if k % g == 0:
            continue
        for delta in range(lam + 1):
            if (g**lam) % (k * g**delta) == 0:
                out.append((k, delta))
    return out


def test_criterion_03_l1_moment_exhaustive():
    """Progression moment bound, exhaustive over g in {2,6} and lam <= 8.

    Every valid (k <= 5, delta) cell gets 20 random shifts; the plain
    k=1, delta=0 moment is also checked against g^(eta*lam + 1) at every
    window length.  The base-2 grid runs all four seed families, the
    base-6 grid runs the two structured ones (its cells are five orders
    of magnitude heavier).
    """
    jobs = []
    pure_checks = []
    for g in (2, 6):
        rng = make_rng(RunConfig(), 92, g)
        families = _families(g, 8, rng)
        if g == 6:
            families = [f for f in families if f[0] in ("sod", "reverse")]
        for fname, seed in families:
            eta = eta_tilde(g)
            for lam in range(1, 9):
                pure_checks.append((g, fname, lam, seed, g ** (eta * lam + 1)))
                for k, delta in _l1_cells(g, lam):
                    a = int(rng.integers(0, k * g**delta))
                    for beta in rng.random(20):
                        jobs.append((seed, lam, k, delta, a, float(beta)))

    def check(job):
        seed, lam, k, delta, a, beta = job
        lhs = l1_moment(seed, lam, 0, k, delta, a, beta)
        rhs = l1_moment_bound(seed, lam, 0, k, delta, a, beta)
        return lhs <= rhs * (1 + SLACK)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(check, jobs))
    violations = results.count(False)

    pure_bad = 0
    for g, fname, lam, seed, ceiling in pure_checks:
        if l1_moment(seed, lam, 0, 1, 0, 0, 0.0) > ceiling * (1 + SLACK):
            pure_bad += 1

    ok = violations == 0 and pure_bad == 0 and len(jobs) > 0
    _line(3, "l1-moment", ok,
          f"{len(jobs)} progression cases, {len(pure_checks)} pure cells, "
          f"{violations + pure_bad} violations")
    assert (1, 0) in _l1_cells(6, 8) and (4, 6) in _l1_cells(6, 8)
    assert violations == 0
    assert pure_bad == 0


def test_criterion_04_psi_divisor_grid():
    """Three correlation-sum bounds over every divisor pair of the base.

    Bases 2, 6, 10, 12 with 100 random arguments per cell; the suite
    checks the partial-depth, full-depth, and eta-power forms wherever
    their side conditions hold.
    """
    reports = run_suite("psi", RunConfig(threads=8), SuiteOptions(cases=100))
    bad = [r for r in reports if not r.passed]
    forms = {r.params["form"] for r in reports}
    gs = {r.params["g"] for r in reports}
    ok = not bad and forms == {"partial-depth", "full-depth", "eta-power"} and gs == {2, 6, 10, 12}
    _line(4, "psi-forms", ok, f"{len(reports)} reports, {len(bad)} violations")
    assert gs == {2, 6, 10, 12}
    assert forms == {"partial-depth", "full-depth", "eta-power"}
    assert not bad


def test_criterion_05_vaughan_identity_exact():
    """Vaughan decomposition reproduces Lambda(n) to 1e-9 for n <= 10^4.

    Four cut parameters, including the fourth-root cut; the tail and
    window coefficients stay within log n throughout.
    """
    reports = run_suite("vaughan", RunConfig(threads=8), SuiteOptions(limit=10_000))
    identity = [r for r in reports if r.params.get("form") != "coefficient-cap"]
    caps = [r for r in reports if r.params.get("form") == "coefficient-cap"]
    zs = {r.params["z"] for r in reports}
    ok = (
        len(identity) == 4
        and len(caps) == 4
        and all(r.passed for r in reports)
        and all(r.rhs == 1e-9 for r in identity)
        and zs == {2.0, 5.0, 50.0, 10.0}
    )
    worst = max(r.lhs for r in identity)
    _line(5, "vaughan-exact", ok, f"worst gap {worst:.2e}, z grid {sorted(zs)}")
    assert zs == {2.0, 5.0, 50.0, 10.0}
    assert all(r.rhs == 1e-9 for r in identity)
    assert all(r.passed for r in reports)


def test_criterion_06_vdc_and_sin_sum():
    """Shift-averaging and reciprocal-sine inequalities, 1000 cases each."""
    cfg = RunConfig(threads=8)
    vdc = run_suite("vdc", cfg, SuiteOptions(cases=1000))
    sin = run_suite("sin-sum", cfg, SuiteOptions(cases=1000))
    bad = [r for r in vdc + sin if not r.passed]
    ok = len(vdc) == 1000 and len(sin) == 1000 and not bad
    _line(6, "vdc-and-sin-sum", ok, f"{len(vdc)}+{len(sin)} cases, {len(bad)} violations")
    assert len(vdc) == 1000
    assert len(sin) == 1000
    assert not bad


def test_criterion_07_truncation_subset():
    """Carry-detection membership is contained in the crossing superset.

    Exhaustive base-2 grid: M in {1,2,4,8,16}, N in {16,32,64,128},
    R in {2,4,8} with R^2 <= N, all shifts r <= R.  Containment is
    verified pair by pair inside the counting routine, which raises on
    any member outside the superset.
    """
    calls = 0
    for M in (1.0, 2.0, 4.0, 8.0, 16.0):
        for N in (16.0, 32.0, 64.0, 128.0):
            for R in (2.0, 4.0, 8.0):
                if R * R > N:
                    continue
                lam = 0
                while 2 ** (lam + 1) <= M * R * R:
                    lam += 1
                lam += 1
                L = lam + 6
                seed = reverse_seed(2, L, 0.73)
                for r in range(int(R) + 1):
                    members, superset = truncation_set_size(seed, M, N, R, r, L, lam)
                    assert members <= superset
                    calls += 1
    ok = calls == 250
    _line(7, "truncation-subset", ok, f"{calls} boxes, containment exact")
    assert calls == 250


def _strays(g: int, L: int, a: int, q: int) -> int:
    """Primes a zero-density cell holds: the r | gcd(a, q, g^2-1) in the
    window [g^(L-1), g^L) whose reverse is a mod q."""
    rs = prime_divisors(math.gcd(a, q, g * g - 1))
    return sum(g ** (L - 1) <= r < g**L and window_reverse(r, g, L) % q == a % q for r in rs)


def _window_expectation(g: int, q: int, n: np.ndarray, revs: np.ndarray) -> np.ndarray:
    """Finite-window expectation E_L(a, q) for every a mod q.

    n holds the window's integers coprime to g and revs their reverses.
    E_L sums 1/log n over the n coprime to g*q*(g^2-1), binned by
    rev(n) mod q, and scales by prod r/(r-1) over the primes r dividing
    g*q*(g^2-1).  No prime enters it, so it keeps the window's local
    correlation between n and rev(n) modulo those primes and nothing of
    the primes' own distribution.
    """
    rs = prime_divisors(g * q * (g * g - 1))
    keep = np.ones(n.size, dtype=bool)
    for r in rs:
        keep &= n % r != 0
    weights = 1.0 / np.log(n[keep].astype(np.float64))
    scale = float(math.prod(Fraction(r, r - 1) for r in rs))
    return scale * np.bincount(revs[keep] % q, weights=weights, minlength=q)


def test_criterion_08_census_headline():
    """Prime-reversal census against the density main term, desk scale.

    Base 10 at window length 5 stays within 15% of the limiting main term
    rho(a,q)/q * g^L/(L log g) for every admissible residue with q in
    {1,3,7,9}.  On the base-2 family the max over a of |relative_dev|
    against that main term shrinks through the windows 12, 14, 16 for
    each q in {1,3,5,7} and for the pooled grid.  That ladder holds on
    these three windows as chosen; it is not a theorem.  The density is
    a limit as L grows, with no rate, and for q=7 the worst deviation
    rises from 0.309 to 0.396 between L=13 and L=15 and from 0.216 to
    0.346 between L=16 and L=18.

    At L=16 the base-2 census sits up to 0.2158 from the main term: a
    deficit of 21.6% at a=5 mod 7 and an excess of 20.1% at a=3 mod 7.
    The cause is a finite-window bias, not a miscount.  Mod q = 7 = 2^3-1
    both p and rev(p) are linear forms in the same three bit-class sums,
    and with about five bits per class those sums are concentrated, so
    excluding p = 0 mod 7 thins some classes of rev(p).  The 20% pin
    therefore applies to the census measured against the finite-window
    expectation E_L (see _window_expectation), which keeps that bias.
    Every live cell must also lie within 3 Poisson sigma, sqrt(E_L), of
    E_L.  The 0.2158 against the main term is reported as a finding, and
    the test checks that it is explained: at the worst cell E_L departs
    from the main term on the same side as the census, and by more than
    the census departs from E_L.  The base-2 counts are recounted here by
    the oracle window reversal.
    """
    t0 = time.perf_counter()

    pairs10 = [(a, q) for q in (1, 3, 7, 9) for a in range(q)]
    recs10 = census_grid(10, 5, pairs10, 100_000)
    live10 = [r for r in recs10 if not math.isnan(r.relative_dev)]
    dead10 = [r for r in recs10 if math.isnan(r.relative_dev)]
    max10 = max(abs(r.relative_dev) for r in live10)
    assert live10, "base-10 grid has admissible cells"
    assert all(r.observed == _strays(10, 5, r.a, r.q) for r in dead10)
    assert max10 <= 0.15

    ladder = {}
    pooled = {}
    recs16 = []
    for L in (12, 14, 16):
        per_q = {}
        for q in (1, 3, 5, 7):
            recs = census_grid(2, L, [(a, q) for a in range(q)], 1 << 16)
            per_q[q] = max(
                abs(r.relative_dev) for r in recs if not math.isnan(r.relative_dev)
            )
            if L == 16:
                recs16.extend(recs)
        ladder[L] = per_q
        pooled[L] = max(per_q.values())

    # Base 2, L = 16: every odd integer of the window reversed by the oracle,
    # the window's primes picked out of them, and E_L built from the rest.
    n = np.arange(2**15 + 1, 2**16, 2, dtype=np.int64)
    revs = np.array([window_reverse(int(v), 2, 16) for v in n], dtype=np.int64)
    primes = build_table(1 << 16)
    primes = primes[primes >= 2**15]
    prime_revs = revs[np.searchsorted(n, primes)]
    expect = {q: _window_expectation(2, q, n, revs) for q in (1, 3, 5, 7)}

    miscounts = []
    cells = []
    for r in recs16:
        recount = int(np.count_nonzero(prime_revs % r.q == r.a))
        if recount != r.observed:
            miscounts.append((r.a, r.q, r.observed, recount))
        if math.isnan(r.relative_dev):
            continue
        e = float(expect[r.q][r.a])
        cells.append((r, e, r.observed / e - 1.0, abs(r.observed - e) / math.sqrt(e)))
    worst = max(cells, key=lambda c: abs(c[0].relative_dev))
    worst_rec, worst_e, worst_vs_e, _ = worst
    bias = worst_e / worst_rec.main_term - 1.0
    max_vs_e = max(abs(c[2]) for c in cells)
    max_sigma = max(c[3] for c in cells)
    elapsed = time.perf_counter() - t0

    ok = (
        all(ladder[12][q] > ladder[14][q] > ladder[16][q] for q in (1, 3, 5, 7))
        and pooled[12] > pooled[14] > pooled[16]
        and elapsed < 60.0
        and primes.size == 3030
        and not miscounts
        and max_sigma <= 3.0
        and max_vs_e <= 0.20
        and bias * worst_rec.relative_dev > 0
        and abs(bias) > abs(worst_vs_e)
    )
    _line(8, "census-headline", ok,
          f"base-10 max {max10:.4f} (<=0.15), base-2 ladder "
          f"{pooled[12]:.4f} > {pooled[14]:.4f} > {pooled[16]:.4f}, "
          f"L=16 vs E_L max {max_vs_e:.4f} (<=0.20), worst {max_sigma:.2f} sigma (<=3), "
          f"{len(miscounts)} oracle-reversal mismatches, {elapsed:.1f}s; "
          f"FINDING: L=16 vs the rho main term {worst_rec.relative_dev:+.4f} "
          f"at a={worst_rec.a} mod {worst_rec.q}, E_L itself {bias:+.4f} there")

    for q in (1, 3, 5, 7):
        assert ladder[12][q] > ladder[14][q] > ladder[16][q], (
            f"max |relative_dev| against the main term shrinks through the chosen "
            f"windows 12, 14, 16 for q={q} (an observation, not a theorem): "
            f"{ladder[12][q]:.4f}, {ladder[14][q]:.4f}, {ladder[16][q]:.4f}"
        )
    assert pooled[12] > pooled[14] > pooled[16]
    assert elapsed < 60.0

    assert primes.size == 3030, "pi(2^16) - pi(2^15) = 6542 - 3512"
    assert not miscounts, (
        "census_grid against the oracle-reversal recount, (a, q, census, "
        f"recount): {miscounts}"
    )
    assert max_sigma <= 3.0, (
        f"base-2 window-16 census: a live cell sits {max_sigma:.2f} Poisson "
        "sigma from its finite-window expectation E_L (bound 3)"
    )
    assert max_vs_e <= 0.20, (
        "base-2 window-16 residue census: pinned tolerance 0.20 against the "
        f"finite-window expectation E_L, measured max |observed/E_L - 1| = "
        f"{max_vs_e:.4f}"
    )
    assert bias * worst_rec.relative_dev > 0 and abs(bias) > abs(worst_vs_e), (
        f"worst cell a={worst_rec.a} mod {worst_rec.q}: census "
        f"{worst_rec.relative_dev:+.4f} from the main term, E_L {bias:+.4f} from "
        f"it and the census {worst_vs_e:+.4f} from E_L; the finite-window bias "
        "no longer explains the deviation"
    )


def test_criterion_09_density_mass():
    """Density factors carry the full window mass, exactly.

    For every modulus q <= 200 and g in {2,3,10} the rational identity
    sum over a of rho(a, q) / q equals (g-1)/g, the scale of the window
    [g^(L-1), g^L) itself.  The total is never 1: the residue densities
    integrate to the window share of the full count, not to unity, and
    that constant-one normalization is reported here as a finding.
    """
    for g in (2, 3, 10):
        expected = Fraction(g - 1, g)
        for q in range(1, 201):
            total = sum(rho(g, a, q) for a in range(q)) / Fraction(q)
            assert total == expected, f"g={g}, q={q}: {total} != {expected}"
            assert total != 1
    _line(9, "density-mass", True,
          "FINDING: sum_a rho(a,q)/q = (g-1)/g exactly for all tested (g,q); "
          "it is never 1, the unit normalization overcounts by the factor g/(g-1)")


def test_criterion_10_sigma_monotonicity():
    """Window-shift, scale-tradeoff, slack, and decay inequalities.

    Full grid: bases 2, 3, 10, all four seed families, windows up to 12,
    both shift depths per form, plus the tenth-of-sigma decay cap.
    """
    reports = run_suite("monotonicity", RunConfig(threads=8), SuiteOptions())
    bad = [r for r in reports if not r.passed]
    forms = {r.params["form"] for r in reports}
    want = {"window-shift", "shift-gap-cap", "scale-tradeoff", "linear-slack", "decay-cap"}
    ok = not bad and forms == want
    _line(10, "sigma-monotonicity", ok, f"{len(reports)} reports, {len(bad)} violations")
    assert forms == want
    assert not bad


def test_criterion_11_calibration_regressions():
    """Stored ratio ceilings match a fresh calibration bit for bit.

    The five implicit-constant verifiers are recalibrated from the fixed
    seed and compared exactly against the frozen defaults, which are the
    committed src/revprime/calibration.json; the regression gates then
    pass against the stored ceilings with 1e-9 headroom.
    """
    cfg = RunConfig(threads=8)
    observed = calibrate(list(CALIBRATED), cfg, SuiteOptions())
    assert set(observed) == set(DEFAULT_C_CAL)
    drifted = [
        f"{name}: stored {DEFAULT_C_CAL[name]!r}, fresh {value!r}"
        for name, value in sorted(observed.items())
        if value != DEFAULT_C_CAL[name]
    ]
    assert not drifted, (
        "calibration constants drifted from DEFAULT_C_CAL; if intended, re-freeze "
        "them with `revprime calibrate --out src/revprime/calibration.json`: "
        + "; ".join(drifted)
    )
    # a tree that is not a git checkout (an export) has only the file's
    # contents to check, which the comparison above already did
    checkout = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "rev-parse", "--is-inside-work-tree"],
        capture_output=True,
    )
    if checkout.returncode == 0:
        tracked = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "ls-files", "--error-unmatch",
             "src/revprime/calibration.json"],
            capture_output=True,
        )
        assert tracked.returncode == 0, "calibration artifact must be committed"

    gate_bad = []
    for name in CALIBRATED:
        for r in run_suite(name, cfg, SuiteOptions()):
            if not r.passed:
                gate_bad.append((name, r))
    ok = not gate_bad
    _line(11, "calibration-regressions", ok,
          f"5 verifiers recalibrated, exact match, {len(gate_bad)} gate failures")
    assert not gate_bad


def test_criterion_12_thread_determinism(tmp_path):
    """Census and verify commands emit identical bytes at 1 and 8 threads."""
    # the child does not inherit pytest's pythonpath setting
    path = [str(REPO_ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    commands = {
        "census": ["census", "--g", "10", "--L", "2,3", "--q", "1,3,9",
                   "--format", "json", "--tolerance", "0.9"],
        "verify": ["verify", "vdc", "sin-sum"],
    }
    for label, argv in commands.items():
        outputs = []
        for threads in ("1", "8"):
            out = tmp_path / f"{label}-t{threads}.out"
            proc = subprocess.run(
                [sys.executable, "-m", "revprime.cli", *argv,
                 "--threads", threads, "--out", str(out)],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"{label} output differs across thread counts"
    _line(12, "thread-determinism", True, "census and verify byte-identical at 1 and 8 threads")
