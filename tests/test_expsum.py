"""Exponential-sum core: product formula, decay constants, moment bounds.

Oracles: the single-position sum has a Dirichlet-kernel closed form for
flat weights, the full-window sum has a geometric closed form for flat
weights at rational points, and everything else is pinned by running the
same quantity through two independent evaluation routes.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revprime.basedigits import BaseContext
from revprime.expsum import (
    CostBudgetError,
    ExplicitConstants,
    ExpSumContext,
    F_abs_grid,
    F_abs_product,
    F_direct,
    F_grid_full,
    _dyadic_ladder,
    _phi_vec,
    eta_tilde,
    expsum_context,
    gamma_coefficient,
    gamma_i,
    gamma_upper_bound,
    hybrid_bound_shape,
    hybrid_sum,
    l1_moment,
    l1_moment_bound,
    make_report,
    omega_exponent,
    phi,
    psi,
    sigma,
    theta_i,
    theta_lower_bound,
)
from revprime.seeds import reverse_seed, sod_seed, table_seed, zero_seed


def random_table(g, rng, depth=6):
    rows = tuple(tuple(float(x) for x in row) for row in rng.random((depth, g)))
    return table_seed(g, rows)


def seed_pool(g, rng):
    return [
        zero_seed(g),
        sod_seed(g, 0.37),
        sod_seed(g, 1.0 / (g - 1)),
        reverse_seed(g, 8, 0.73),
        reverse_seed(g, 30, 1.0 / 3.0),
        random_table(g, rng),
    ]


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


class TestConstants:
    def test_theta_floor_value(self):
        want = 0.5 * (1.0 - math.sqrt(0.5))
        assert theta_lower_bound(2) == pytest.approx(want, rel=1e-15)
        assert theta_lower_bound(2) > 1 / 8

    def test_theta_floor_beats_inverse_cube(self):
        for g in range(2, 1001):
            assert theta_lower_bound(g) > 1.0 / g**3

    def test_eta_first_branch_at_smallest_base(self):
        b1 = 0.5 - math.log(1.5) / (2 * math.log(2))
        assert 0.2075187 < b1 < 0.2075188

    def test_eta_value_smallest_base(self):
        got = eta_tilde(2)
        want = max(
            0.5 - math.log(1.5) / (2 * math.log(2)),
            0.5 + math.log(1.0 - theta_lower_bound(2)) / (4 * math.log(2)),
        )
        assert got == pytest.approx(want, rel=1e-15)
        # second branch wins; hand arithmetic puts it near 0.4428883
        assert abs(got - 0.442888) < 5e-7

    def test_eta_window(self):
        for g in range(2, 1001):
            v = eta_tilde(g)
            cap = 0.5 - 1.0 / (4 * g**3 * math.log(g))
            assert 0.2075187 < v <= cap
            if g <= 313:
                # doubles resolve the strict gap only up to here; beyond,
                # both sides round to the same float (see strictness test)
                assert v < cap

    def test_eta_window_strict_in_high_precision(self):
        # in the tie region the gap is sub-ulp; widen the arithmetic to
        # confirm the strict inequality really holds there
        import decimal

        decimal.getcontext().prec = 60
        D = decimal.Decimal
        for g in (314, 500, 1000):
            x = D(2) / (D(g) ** 2 * (g - 1))
            th = (1 - 1 / D(g)) * x / (1 + (1 - x).sqrt())
            acc = D(0)
            term = th
            k = 1
            while term > D("1e-50"):
                acc += term / k
                k += 1
                term *= th
            b2 = D("0.5") - acc / (4 * D(g).ln())
            b1 = D("0.5") - D(1.5).ln() / (4 * D(g).ln() - 2 * D(2).ln())
            cap = D("0.5") - 1 / (4 * D(g) ** 3 * D(g).ln())
            assert max(b1, b2) < cap

    def test_omega_consistency(self):
        for g in (2, 3, 10, 100):
            w = omega_exponent(g)
            assert w > 0
            want = math.log(2) / math.log(g) * (0.5 - eta_tilde(g))
            assert w == pytest.approx(want, rel=1e-15)

    def test_gamma_cap_below_one_twentieth(self):
        for g in range(2, 101):
            assert 0 < gamma_upper_bound(g) < 1 / 20

    def test_context_rejects_base_mismatch(self):
        good = expsum_context(zero_seed(3))
        with pytest.raises(ValueError):
            ExpSumContext(BaseContext(2), zero_seed(3), good.constants)

    def test_context_rejects_bad_constants(self):
        c = expsum_context(zero_seed(2)).constants
        with pytest.raises(ValueError):
            ExpSumContext(
                BaseContext(2), zero_seed(2), ExplicitConstants(0.1, c.omega, c.theta_lower)
            )
        with pytest.raises(ValueError):
            ExpSumContext(
                BaseContext(2), zero_seed(2), ExplicitConstants(c.eta_tilde, 0.0, c.theta_lower)
            )
        with pytest.raises(ValueError):
            ExpSumContext(
                BaseContext(2), zero_seed(2), ExplicitConstants(c.eta_tilde, c.omega, 0.125)
            )


class TestPhi:
    def test_flat_peak(self):
        for g in (2, 3, 10):
            es = expsum_context(zero_seed(g))
            assert phi(es, 0, 0, 0.0) == pytest.approx(g, rel=1e-12)
            assert phi(es, 5, 2, 1.0) == pytest.approx(g, rel=1e-12)

    def test_flat_zero_at_half(self):
        es = expsum_context(zero_seed(2))
        assert abs(phi(es, 0, 0, 0.5)) < 1e-12

    def test_flat_matches_dirichlet_kernel(self):
        rng = np.random.default_rng(20260818)
        for g in (2, 3, 10):
            es = expsum_context(zero_seed(g))
            for beta in rng.random(100):
                want = abs(math.sin(math.pi * g * beta) / math.sin(math.pi * beta))
                assert phi(es, 1, 4, float(beta)) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_range_and_period(self):
        rng = np.random.default_rng(7)
        for g in (2, 5):
            for s in seed_pool(g, rng):
                es = expsum_context(s)
                for beta in rng.random(20):
                    v = phi(es, 2, 1, float(beta))
                    assert 0.0 <= v <= g * (1 + 1e-12)
                    assert phi(es, 2, 1, float(beta) + 1.0) == pytest.approx(v, abs=1e-9)

    def test_rejects_negative_arguments(self):
        es = expsum_context(zero_seed(2))
        with pytest.raises(ValueError):
            phi(es, -1, 0, 0.0)
        with pytest.raises(ValueError):
            phi(es, 0, -2, 0.0)


class TestFDirect:
    def test_empty_window(self):
        rng = np.random.default_rng(11)
        for g in (2, 10):
            for s in seed_pool(g, rng):
                es = expsum_context(s)
                assert F_direct(es, 0, 3, 0.377) == 1.0 + 0.0j

    def test_flat_orthogonality(self):
        for g in (2, 3):
            es = expsum_context(zero_seed(g))
            for lam in range(1, 6):
                n = g**lam
                for h in range(1, n):
                    assert abs(F_direct(es, lam, 0, h / n)) < 1e-10

    def test_magnitude_cap(self):
        rng = np.random.default_rng(12)
        for g in (2, 3, 10):
            for s in seed_pool(g, rng):
                es = expsum_context(s)
                lam = int(rng.integers(0, 5))
                assert abs(F_direct(es, lam, 1, float(rng.random()))) <= 1 + 1e-12

    def test_budget_refusal(self):
        es = expsum_context(zero_seed(2))
        with pytest.raises(CostBudgetError):
            F_direct(es, 7, 0, 0.0, budget=100)
        with pytest.raises(CostBudgetError):
            F_direct(es, 25, 0, 0.0)

    def test_plain_python_cross_check(self):
        # a third route with none of the vectorized machinery
        rng = np.random.default_rng(13)
        for g in (2, 3, 10):
            for s in seed_pool(g, rng):
                es = expsum_context(s)
                lam = 3
                beta = float(rng.random())
                total = 0j
                for n in range(g**lam):
                    ph = -beta * n
                    m = n
                    for i in range(lam):
                        ph += s.frac(i, m % g)
                        m //= g
                    total += complex(math.cos(2 * math.pi * ph), math.sin(2 * math.pi * ph))
                want = total / g**lam
                assert abs(F_direct(es, lam, 0, beta) - want) < 1e-10

    @given(st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=40, deadline=None)
    def test_period_one_at_dyadic_points(self, num):
        beta = num / 2**30
        es = expsum_context(sod_seed(2, 0.37))
        assert F_direct(es, 4, 0, beta) == F_direct(es, 4, 0, beta + 1.0)


class TestProductFormula:
    def test_direct_vs_product_sweep(self):
        rng = np.random.default_rng(20260818)
        for g, lam_max in ((2, 10), (3, 8), (10, 5)):
            pool = seed_pool(g, rng)
            for _ in range(60):
                s = pool[int(rng.integers(len(pool)))]
                es = expsum_context(s)
                lam = int(rng.integers(0, lam_max + 1))
                j = int(rng.integers(0, 4))
                beta = float(rng.random())
                d = abs(F_direct(es, lam, j, beta))
                p = F_abs_product(es, lam, j, beta)
                assert abs(d - p) <= 1e-10

    def test_recursion_identity(self):
        rng = np.random.default_rng(2)
        for g, tol in ((2, 1e-12), (4, 1e-12), (3, 1e-8)):
            for s in seed_pool(g, rng):
                es = expsum_context(s)
                for _ in range(10):
                    lam = int(rng.integers(1, 9))
                    j = int(rng.integers(0, 3))
                    beta = float(rng.random())
                    lhs = F_abs_product(es, lam, j, beta)
                    rhs = F_abs_product(es, lam - 1, j + 1, g * beta) * phi(es, 0, j, beta) / g
                    assert lhs == pytest.approx(rhs, rel=tol, abs=tol)

    def test_grid_vector_path(self):
        rng = np.random.default_rng(3)
        for g in (2, 3, 10):
            for s in seed_pool(g, rng):
                es = expsum_context(s)
                betas = rng.random(40)
                grid = F_abs_grid(es, 6, 1, betas)
                for b, v in zip(betas, grid):
                    want = F_abs_product(es, 6, 1, float(b))
                    assert v == pytest.approx(want, rel=1e-8, abs=1e-8)

    def test_full_grid_matches_direct(self):
        rng = np.random.default_rng(4)
        for g, lam in ((2, 5), (3, 4)):
            for s in seed_pool(g, rng):
                es = expsum_context(s)
                beta = float(rng.random())
                grid = F_grid_full(es, lam, 0, beta)
                n = g**lam
                assert grid.shape == (n,)
                for h in range(n):
                    want = abs(F_direct(es, lam, 0, (h + beta) / n))
                    assert abs(grid[h] - want) <= 1e-10

    def test_long_window_smoke(self):
        t0 = time.perf_counter()
        es = expsum_context(reverse_seed(2, 100_000, 1.0 / 3.0))
        v = F_abs_product(es, 100_000, 0, 0.7314)
        assert math.isfinite(v)
        assert 0.0 <= v <= 1.0
        assert time.perf_counter() - t0 < 30.0


class TestPairBound:
    def test_single_position_pair_decay(self):
        rng = np.random.default_rng(5)
        for g in (2, 3, 10):
            for s in seed_pool(g, rng):
                es = expsum_context(s)
                for _ in range(25):
                    i = int(rng.integers(0, 6))
                    j = int(rng.integers(0, 3))
                    beta = float(rng.random())
                    row = s.frac_rows(i + j, 1)[0]
                    v = phi(es, i, j, beta)
                    for m in range(g):
                        for n in range(m + 1, g):
                            u = (row[m] - row[n] - beta * (m - n)) % 1.0
                            sep = min(u, 1.0 - u)
                            cap = g * math.exp(-(8.0 / g) * sep * sep)
                            assert v <= cap * (1 + 1e-9)


class TestDecayBounds:
    def test_consecutive_pair_cap(self):
        rng = np.random.default_rng(6)
        for g in (2, 3, 10):
            for s in seed_pool(g, rng):
                es = expsum_context(s)
                for _ in range(15):
                    lam = int(rng.integers(2, 9))
                    j = int(rng.integers(0, 3))
                    args = _dyadic_ladder(float(rng.random()), lam, g)
                    for i in range(lam - 1):
                        prod = phi(es, i, j, float(args[i])) * phi(es, i + 1, j, float(args[i + 1]))
                        cap = g ** (1.0 - gamma_i(es, i, j))
                        assert math.sqrt(prod) <= cap * (1 + 1e-9)

    def test_sup_norm_decay(self):
        rng = np.random.default_rng(20260819)
        for g in (2, 3, 10):
            for s in seed_pool(g, rng):
                es = expsum_context(s)
                for lam in range(0, 11, 2):
                    for j in (0, 2):
                        cap = g ** (1 / 20) * g ** (-sigma(es, lam, j))
                        for beta in rng.random(20):
                            assert F_abs_product(es, lam, j, float(beta)) <= cap * (1 + 1e-9)


class TestGammaSigma:
    def test_flat_weights_have_zero_weight(self):
        for g in (2, 3, 10):
            es = expsum_context(zero_seed(g))
            for i in range(4):
                assert gamma_i(es, i, 0) == 0.0

    def test_scaled_digit_sum_degenerates(self):
        # weight a*d with a = 1/(g-1): the pairwise combination is an
        # exact integer multiple of m - n, so the weight collapses
        for g in (2, 3, 10):
            es = expsum_context(sod_seed(g, 1.0 / (g - 1)))
            assert gamma_i(es, 2, 1) < 1e-25

    def test_reversal_degenerate_position(self):
        es = expsum_context(reverse_seed(2, 10, 1.0 / 3.0))
        got = gamma_i(es, 3, 0)
        # independent route: exact rationals straight from the family formula
        fa = Fraction(1.0 / 3.0)
        v = [2 * ((fa * d * 2**6) % 1) - ((fa * d * 2**5) % 1) for d in range(2)]
        u = (v[0] - v[1]) % 1
        sep = min(u, 1 - u)
        want = gamma_coefficient(2) * float(sep) ** 2
        assert abs(got - want) < 1e-20
        assert got < 1e-25

    def test_reversal_two_route_general(self):
        for g, L, a, i, j in ((10, 12, 0.37, 2, 1), (3, 9, 0.61, 4, 0), (2, 15, 0.77, 6, 2)):
            es = expsum_context(reverse_seed(g, L, a))
            got = gamma_i(es, i, j)
            fa = Fraction(a)
            p = i + j
            total = Fraction(0)
            for m in range(g):
                for n in range(m + 1, g):
                    vm = (g * fa * m * g ** (L - p - 1) - fa * m * g ** (L - p - 2)) % 1
                    vn = (g * fa * n * g ** (L - p - 1) - fa * n * g ** (L - p - 2)) % 1
                    u = (vm - vn) % 1
                    sep = min(u, 1 - u)
                    total += sep * sep
            want = gamma_coefficient(g) * float(total)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_weight_range(self):
        rng = np.random.default_rng(8)
        for g in (2, 3, 10):
            cap = gamma_upper_bound(g)
            for s in seed_pool(g, rng):
                es = expsum_context(s)
                for p in range(8):
                    v = gamma_i(es, p, 0)
                    assert 0.0 <= v <= cap * (1 + 1e-12)

    def test_weight_cap_attained_in_base_two(self):
        # the extremal two-digit row sits at pairwise distance exactly 1/2
        es = expsum_context(table_seed(2, ((0.0, 0.5),)))
        assert gamma_i(es, 0, 0) == pytest.approx(gamma_upper_bound(2), rel=1e-14)

    def test_cumulative_weights(self):
        rng = np.random.default_rng(9)
        for g in (2, 3, 10):
            for s in seed_pool(g, rng):
                es = expsum_context(s)
                assert sigma(es, 0, 0) == 0.0
                assert sigma(es, 0, 5) == 0.0
                prev = 0.0
                for lam in range(1, 13):
                    v = sigma(es, lam, 0)
                    assert v >= prev - 1e-15
                    assert v <= lam / 20 * (1 + 1e-12)
                    prev = v

    def test_shift_identity(self):
        rng = np.random.default_rng(10)
        for g in (2, 3, 10):
            for s in seed_pool(g, rng):
                es = expsum_context(s)
                for lam in (1, 3, 7):
                    for j in (0, 2):
                        gap = sigma(es, lam, j) - sigma(es, lam - 1, j + 1)
                        assert gap == pytest.approx(gamma_i(es, 0, j), rel=1e-12, abs=1e-15)

    def test_flat_cumulative_is_zero(self):
        es = expsum_context(zero_seed(5))
        assert sigma(es, 40, 3) == 0.0


class TestSigmaMonotonicity:
    def test_one_step_shift_window(self):
        rng = np.random.default_rng(27)
        for g in (2, 3, 10):
            cap = gamma_upper_bound(g)
            for s in seed_pool(g, rng):
                es = expsum_context(s)
                for lam in range(1, 13):
                    for j in (0, 3):
                        full = sigma(es, lam, j)
                        short = sigma(es, lam - 1, j + 1)
                        assert short <= full + 1e-15
                        assert full - cap <= short + 1e-15

    def test_scale_tradeoff_increasing(self):
        rng = np.random.default_rng(28)
        for g in (2, 3, 10):
            for A in (math.log(2) / math.log(g), 2 * math.log(2) / math.log(g)):
                coeff = A * (0.5 - eta_tilde(g))
                for s in seed_pool(g, rng)[:4]:
                    es = expsum_context(s)
                    for lam, j in ((8, 0), (12, 2)):
                        vals = [coeff * mu + sigma(es, lam - mu, j + mu) for mu in range(lam + 1)]
                        for a, b in zip(vals, vals[1:]):
                            assert b >= a - 1e-12

    def test_linear_minus_cumulative_increasing(self):
        rng = np.random.default_rng(29)
        for g in (2, 3, 10):
            for A in (gamma_upper_bound(g), 2 * gamma_upper_bound(g)):
                for s in seed_pool(g, rng)[:4]:
                    es = expsum_context(s)
                    for j in (0, 2):
                        vals = [A * lam - sigma(es, lam, j) for lam in range(13)]
                        for a, b in zip(vals, vals[1:]):
                            assert b >= a - 1e-12


class TestTheta:
    def test_flat_base_two_equals_floor(self):
        es = expsum_context(zero_seed(2))
        assert theta_i(es, 0) == pytest.approx(theta_lower_bound(2), rel=1e-14)

    def test_flat_closed_form(self):
        for g in (3, 5, 10):
            es = expsum_context(zero_seed(g))
            acc = sum((g - h) ** 2 for h in range(1, g))
            want = (1 - 1 / g) * (1 - math.sqrt(1 - 2 * acc / (g * g * (g - 1))))
            assert theta_i(es, 7) == pytest.approx(want, rel=1e-12)

    def test_floor_holds_for_random_weights(self):
        rng = np.random.default_rng(20260820)
        for g in (2, 3, 5):
            floor = theta_lower_bound(g)
            for _ in range(1000):
                s = table_seed(g, (tuple(float(x) for x in rng.random(g)),))
                es = expsum_context(s)
                assert theta_i(es, 0) >= floor * (1 - 1e-12)


class TestPsi:
    def test_single_cell(self):
        rng = np.random.default_rng(14)
        for g in (2, 6):
            for s in seed_pool(g, rng):
                es = expsum_context(s)
                for t in (0.0, 0.31, 5.77):
                    want = phi(es, 1, 0, g * t) * phi(es, 0, 0, t) / g**2
                    got = psi(es, 0, t, 1, 1)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
                    assert got <= 1 + 1e-9

    def test_vector_offsets_match_scalar(self):
        rng = np.random.default_rng(30)
        es = expsum_context(random_table(6, rng))
        ts = rng.random(17) * 4
        grid = psi(es, 1, ts, 2, 3)
        assert grid.shape == ts.shape
        for t, v in zip(ts, grid):
            assert v == pytest.approx(psi(es, 1, float(t), 2, 3), rel=1e-12)

    def test_rejects_bad_arguments(self):
        es = expsum_context(zero_seed(10))
        with pytest.raises(ValueError):
            psi(es, 0, 0.3, 3, 1)
        with pytest.raises(ValueError):
            psi(es, 0, 0.3, 2, 4)
        with pytest.raises(ValueError):
            psi(es, -1, 0.3, 2, 5)

    def test_partial_depth_cap(self):
        rng = np.random.default_rng(15)
        for g in (6, 10, 12):
            for s in (zero_seed(g), reverse_seed(g, 8, 0.73), random_table(g, rng)):
                es = expsum_context(s)
                for R in divisors(g):
                    if R < 2:
                        continue
                    for S in divisors(g):
                        if S == g or math.gcd(R, g // S) != 1:
                            continue
                        vals = psi(es, 1, rng.random(25) * 3, R, S)
                        assert np.all(vals**2 <= (2 / 3) * R * S * (1 + 1e-9))

    def test_full_depth_cap(self):
        rng = np.random.default_rng(16)
        for g in (6, 10, 12):
            for s in (zero_seed(g), sod_seed(g, 0.37), random_table(g, rng)):
                es = expsum_context(s)
                for i in (0, 2):
                    slack = 1 - theta_i(es, i)
                    for R in divisors(g):
                        if R < 2:
                            continue
                        vals = psi(es, i, rng.random(25) * 2, R, g)
                        assert np.all(vals**2 <= R * g * slack * (1 + 1e-9))

    def test_eta_power_cap(self):
        rng = np.random.default_rng(17)
        for g in (2, 6, 10, 12):
            eta = eta_tilde(g)
            for s in (zero_seed(g), reverse_seed(g, 8, 0.73), random_table(g, rng)):
                es = expsum_context(s)
                for R in divisors(g):
                    if R < 2:
                        continue
                    for S in divisors(g):
                        if math.gcd(R, g // S) != 1:
                            continue
                        vals = psi(es, 0, rng.random(20) * 2, R, S)
                        assert np.all(vals <= (R * S) ** eta * (1 + 1e-9))


class TestMomentIdentities:
    def test_l2_orthogonality(self):
        rng = np.random.default_rng(18)
        for g in (2, 6, 12):
            for s in seed_pool(g, rng):
                es = expsum_context(s)
                for R in divisors(g):
                    for a in range(1, R + 1):
                        if math.gcd(a, R) != 1:
                            continue
                        for i in (0, 3):
                            for beta in rng.random(5):
                                tot = sum(
                                    phi(es, i, 0, float(beta) + a * r / R) ** 2
                                    for r in range(R)
                                )
                                assert tot <= g * g * (1 + 1e-9)

    def test_l4_exact_identity(self):
        rng = np.random.default_rng(19)
        for g in (2, 3, 6, 10):
            for s in seed_pool(g, rng):
                es = expsum_context(s)
                row = s.frac_rows(2, 1)[0]
                corr = 0.0
                for h in range(-(g - 1), g):
                    c = 0j
                    for n in range(g):
                        if 0 <= n + h < g:
                            arg = 2 * math.pi * (row[n + h] - row[n])
                            c += complex(math.cos(arg), math.sin(arg))
                    corr += abs(c) ** 2
                for U in (2 * g - 1, 2 * g, 3 * g + 1):
                    for beta in rng.random(4):
                        tot = sum(phi(es, 2, 0, float(beta) + u / U) ** 4 for u in range(U))
                        assert tot == pytest.approx(U * corr, rel=1e-8)


class TestSumCleanup:
    def test_prefix_sums_dominated(self):
        rng = np.random.default_rng(20)
        for g in (2, 3):
            L = 6
            N = g**L
            powers = [g**k for k in range(L + 1)]
            idx = np.arange(N)
            for s in seed_pool(g, rng):
                es = expsum_context(s)
                for j in (0, 1):
                    tab = s.frac_rows(j, L)
                    vals = np.zeros(N)
                    for i in range(L):
                        vals += tab[i][(idx // powers[i]) % g]
                    for beta in rng.random(3):
                        ph = np.exp(2j * np.pi * (vals - beta * idx))
                        lhs = np.abs(np.cumsum(ph))
                        per_scale = [
                            powers[lam] * F_abs_product(es, lam, j, float(beta))
                            for lam in range(L + 1)
                        ]
                        pref = np.cumsum(per_scale)
                        lam_of_x = np.searchsorted(powers, idx + 1, side="right") - 1
                        rhs = (g - 1) * pref[lam_of_x]
                        assert np.all(lhs <= rhs * (1 + 1e-9) + 1e-12)


def l1_moment_per_point(es, lam, j, k, delta, a, beta):
    """Reference: every level evaluated at every point of the progression."""
    g = es.ctx.g
    step = k * g**delta
    a %= step
    beta = beta % 1.0
    h = np.arange(a, g**lam, step, dtype=np.int64)
    tab = es.seed.frac_rows(j, lam)
    acc = np.ones(len(h), dtype=np.float64)
    for i in range(lam):
        m = g ** (lam - i)
        u = np.mod(((h % m).astype(np.float64) + beta) / m, 1.0)
        acc *= _phi_vec(tab[i], u) / g
    return float(acc.sum())


class TestL1Moment:
    @settings(max_examples=40, deadline=None)
    @given(
        g=st.integers(2, 10),
        lam=st.integers(1, 5),
        j=st.integers(0, 3),
        family=st.integers(0, 5),
        rows_seed=st.integers(0, 2**32 - 1),
        a=st.integers(0, 10**6),
        beta=st.floats(-4.0, 4.0, allow_nan=False),
    )
    def test_level_sharing_equals_per_point(self, g, lam, j, family, rows_seed, a, beta):
        es = expsum_context(seed_pool(g, np.random.default_rng(rows_seed))[family])
        cells = [
            (k, delta)
            for delta in range(lam + 1)
            for k in divisors(g ** (lam - delta))
            if k % g
        ]
        for k, delta in cells:
            got = l1_moment(es, lam, j, k, delta, a, beta)
            assert got == l1_moment_per_point(es, lam, j, k, delta, a, beta), (k, delta)

    def test_flat_mass_concentrates(self):
        for g in (2, 3, 10):
            es = expsum_context(zero_seed(g))
            v = l1_moment(es, 4, 0, 1, 0, 0, 0.0)
            assert v == pytest.approx(1.0, abs=1e-9)
            assert v <= g ** (eta_tilde(g) * 4 + 1)

    def test_degenerate_window_is_single_point(self):
        rng = np.random.default_rng(21)
        for g in (2, 6):
            for s in seed_pool(g, rng)[:4]:
                es = expsum_context(s)
                for delta in (0, 2, 3):
                    a = int(rng.integers(0, g**delta))
                    beta = float(rng.random())
                    got = l1_moment(es, delta, 1, 1, delta, a, beta)
                    want = F_abs_product(es, delta, 1, (a + beta) / g**delta)
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
                    cap = l1_moment_bound(es, delta, 1, 1, delta, a, beta)
                    assert got <= cap * (1 + 1e-9)

    def test_validation(self):
        es = expsum_context(zero_seed(6))
        with pytest.raises(ValueError):
            l1_moment(es, 3, 0, 1, 4, 0, 0.0)
        with pytest.raises(ValueError):
            l1_moment(es, 3, 0, 0, 0, 0, 0.0)
        with pytest.raises(ValueError):
            l1_moment(es, 3, 0, 12, 0, 0, 0.0)
        with pytest.raises(ValueError):
            l1_moment(es, 3, 0, 5, 0, 0, 0.0)
        with pytest.raises(ValueError):
            l1_moment(es, 3, 0, 4, 2, 0, 0.0)

    def test_matches_direct_and_grid(self):
        rng = np.random.default_rng(22)
        for g, lam in ((2, 5), (3, 4), (6, 3)):
            for s in seed_pool(g, rng)[:5]:
                es = expsum_context(s)
                beta = float(rng.random())
                grid = F_grid_full(es, lam, 1, beta)
                n = g**lam
                for h in rng.integers(0, n, 5):
                    want = abs(F_direct(es, lam, 1, (int(h) + beta) / n))
                    assert grid[int(h)] == pytest.approx(want, abs=1e-10)
                for k in (1, 2, 3, 4, 5):
                    for delta in range(lam + 1):
                        step = k * g**delta
                        if k % g == 0 or n % step:
                            continue
                        for a in (0, 1, step - 1, int(rng.integers(0, step))):
                            got = l1_moment(es, lam, 1, k, delta, a, beta)
                            want = float(grid[a % step :: step].sum())
                            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
                            cap = l1_moment_bound(es, lam, 1, k, delta, a, beta)
                            assert got <= cap * (1 + 1e-9)

    def test_pure_form_cap(self):
        rng = np.random.default_rng(23)
        for g, lam in ((2, 8), (3, 6), (6, 4)):
            cap = g ** (eta_tilde(g) * lam + 1)
            for s in seed_pool(g, rng):
                es = expsum_context(s)
                for beta in rng.random(4):
                    assert l1_moment(es, lam, 0, 1, 0, 0, float(beta)) <= cap * (1 + 1e-9)


class TestHybrid:
    def test_unit_scale_is_single_term(self):
        rng = np.random.default_rng(24)
        for g in (2, 10):
            for s in seed_pool(g, rng)[:4]:
                es = expsum_context(s)
                got = hybrid_sum(es, 5, 2, 1.0)
                want = F_abs_product(es, 5, 2, 0.0)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_flat_geometric_oracle(self):
        for g, lam in ((2, 6), (3, 5)):
            es = expsum_context(zero_seed(g))
            N = g**lam
            for M in (1.0, 1.5, 3.0, 4.7):
                want = 0.0
                for m in range(math.ceil(M), math.ceil(2 * M)):
                    for k in range(m):
                        if math.gcd(k, m) != 1:
                            continue
                        if k == 0:
                            want += 1.0
                        else:
                            num = math.sin(math.pi * k * N / m)
                            den = math.sin(math.pi * k / m)
                            want += abs(num / den) / N
                got = hybrid_sum(es, lam, 0, M)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_bound_shape_branches(self):
        rng = np.random.default_rng(25)
        for g in (2, 3):
            eta = eta_tilde(g)
            for s in seed_pool(g, rng)[:3]:
                es = expsum_context(s)
                M = float(g**2)
                want = M * g ** (-(0.5 - eta) * 4 - sigma(es, 6, 1 + 4))
                assert hybrid_bound_shape(es, 10, 1, M) == pytest.approx(want, rel=1e-12)
                M = float(g**3)
                want = M * M * g ** (-(1 - eta) * 5)
                assert hybrid_bound_shape(es, 5, 1, M) == pytest.approx(want, rel=1e-12)

    def test_ratio_is_finite(self):
        es = expsum_context(reverse_seed(2, 12, 1 / 3))
        for lam, M in ((6, 2.0), (8, 4.0)):
            num = hybrid_sum(es, lam, 0, M)
            den = hybrid_bound_shape(es, lam, 0, M)
            assert num >= 0 and den > 0
            assert math.isfinite(num / den)

    def test_rejects_tiny_scale(self):
        es = expsum_context(zero_seed(2))
        with pytest.raises(ValueError):
            hybrid_sum(es, 3, 0, 0.5)
        with pytest.raises(ValueError):
            hybrid_bound_shape(es, 3, 0, 0.5)


class TestSpacedPoints:
    def test_farey_family_bound(self):
        rng = np.random.default_rng(26)
        g = 2
        for lam in (4, 6):
            N = g**lam
            n = np.arange(N)
            for s in seed_pool(g, rng)[:4]:
                es = expsum_context(s)
                tab = s.frac_rows(0, lam)
                vals = np.zeros(N)
                for i in range(lam):
                    vals += tab[i][(n // g**i) % g]
                M = 3
                pts = [
                    Fraction(k, m)
                    for m in range(M + 1, 2 * M + 1)
                    for k in range(m)
                    if math.gcd(k, m) == 1
                ]
                delta = 1.0 / (2 * M) ** 2
                lhs = sum(F_abs_product(es, lam, 0, float(p)) for p in pts)
                grid = (np.arange(20000) + 0.5) / 20000
                E = np.exp(2j * np.pi * (vals[None, :] - np.outer(grid, n)))
                f_abs = np.abs(E.mean(axis=1))
                fprime_abs = np.abs((E * (-2j * np.pi * n)[None, :]).mean(axis=1))
                rhs = f_abs.mean() / delta + 0.5 * fprime_abs.mean()
                assert lhs <= rhs * (1 + 1e-4)


class TestBoundReport:
    def test_pass_logic(self):
        r = make_report(1.0, 1.0, {"g": 2})
        assert r.passed
        assert r.ratio == 1.0
        assert r.params == {"g": 2}
        assert make_report(1.0 + 1e-8, 1.0).passed is False
        assert make_report(1.0 + 1e-10, 1.0).passed is True

    def test_zero_edge_cases(self):
        assert make_report(0.0, 0.0).ratio == 0.0
        assert make_report(0.0, 0.0).passed is True
        degenerate = make_report(1.0, 0.0)
        assert degenerate.ratio == math.inf
        assert degenerate.passed is False

    def test_serialization_keys(self):
        d = make_report(0.5, 1.0, {"lam": 3}).to_dict()
        assert d["pass"] is True
        assert set(d) == {"lhs", "rhs", "ratio", "pass", "params"}
