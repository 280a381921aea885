"""Exponential-sum core: product formula, decay constants, moment bounds.

Oracles: the single-position sum has a Dirichlet-kernel closed form for
flat weights, the full-window sum has a geometric closed form for flat
weights at rational points, and everything else is pinned by running the
same quantity through two independent evaluation routes.
"""

import math
import random
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from revprime.expsum import (
    WORK_BUDGET,
    CostBudgetError,
    DegenerateSeedError,
    F_abs_product,
    F_direct,
    _cis,
    _gamma,
    _memo,
    _phase_tree,
    _phi_sums,
    _progression_abs,
    _split26,
    eta_tilde,
    gamma_coefficient,
    gamma_upper_bound,
    hybrid_bound_shape,
    hybrid_sum,
    i0_landing,
    l1_moment,
    l1_moment_bound,
    make_report,
    omega_exponent,
    psi,
    sigma,
    sigma_lower_blocks,
    theta_i,
    theta_lower_bound,
)
from revprime.seeds import reverse_seed, sod_seed, table_seed

from oracles import bits, divisors, divmod_phases, phi, row_phases, weight


def random_table(g, rng, depth=6):
    rows = tuple(tuple(float(x) for x in row) for row in rng.random((depth, g)))
    return table_seed(g, rows)


def seed_pool(g, rng):
    return [
        sod_seed(g, 0.0),
        sod_seed(g, 0.37),
        sod_seed(g, 1.0 / (g - 1)),
        reverse_seed(g, 8, 0.73),
        reverse_seed(g, 30, 1.0 / 3.0),
        random_table(g, rng),
    ]


def fraction_ladder(beta, count, g):
    """frac(beta * g^i) for i < count, each rung exact before one rounding."""
    return np.array([float(Fraction(beta) * g**i % 1) for i in range(count)])


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


class TestPhi:
    def test_flat_peak(self):
        for g in (2, 3, 10):
            seed = sod_seed(g, 0.0)
            assert phi(seed, 0, 0, 0.0) == pytest.approx(g, rel=1e-12)
            assert phi(seed, 5, 2, 1.0) == pytest.approx(g, rel=1e-12)

    def test_flat_zero_at_half(self):
        seed = sod_seed(2, 0.0)
        assert abs(phi(seed, 0, 0, 0.5)) < 1e-12

    def test_flat_matches_dirichlet_kernel(self):
        rng = np.random.default_rng(20260818)
        for g in (2, 3, 10):
            seed = sod_seed(g, 0.0)
            for beta in rng.random(100):
                want = abs(math.sin(math.pi * g * beta) / math.sin(math.pi * beta))
                assert phi(seed, 1, 4, float(beta)) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_range_and_period(self):
        rng = np.random.default_rng(7)
        for g in (2, 5):
            for s in seed_pool(g, rng):
                for beta in rng.random(20):
                    v = phi(s, 2, 1, float(beta))
                    assert 0.0 <= v <= g * (1 + 1e-12)
                    assert phi(s, 2, 1, float(beta) + 1.0) == pytest.approx(v, abs=1e-9)


class TestFDirect:
    def test_empty_window(self):
        rng = np.random.default_rng(11)
        for g in (2, 10):
            for s in seed_pool(g, rng):
                assert F_direct(s, 0, 3, 0.377) == 1.0 + 0.0j

    def test_flat_orthogonality(self):
        for g in (2, 3):
            seed = sod_seed(g, 0.0)
            for lam in range(1, 6):
                n = g**lam
                for h in range(1, n):
                    assert abs(F_direct(seed, lam, 0, h / n)) < 1e-10

    def test_magnitude_cap(self):
        rng = np.random.default_rng(12)
        for g in (2, 3, 10):
            for s in seed_pool(g, rng):
                lam = int(rng.integers(0, 5))
                assert abs(F_direct(s, lam, 1, float(rng.random()))) <= 1 + 1e-12

    def test_budget_refusal(self):
        # 2^20 terms is the budget itself, 2^21 one window past it
        seed = sod_seed(2, 0.0)
        assert 2**20 == WORK_BUDGET
        assert F_direct(seed, 20, 0, 0.0) == pytest.approx(1.0)
        with pytest.raises(CostBudgetError):
            F_direct(seed, 21, 0, 0.0)
        with pytest.raises(CostBudgetError):
            F_direct(sod_seed(3, 0.0), 13, 0, 0.0)

    def test_plain_python_cross_check(self):
        # a third route with none of the vectorized machinery
        rng = np.random.default_rng(13)
        for g in (2, 3, 10):
            for s in seed_pool(g, rng):
                lam = 3
                beta = float(rng.random())
                total = 0j
                for n in range(g**lam):
                    ph = -beta * n
                    m = n
                    for i in range(lam):
                        ph += float(weight(s, i, m % g) % 1)
                        m //= g
                    total += complex(math.cos(2 * math.pi * ph), math.sin(2 * math.pi * ph))
                want = total / g**lam
                assert abs(F_direct(s, lam, 0, beta) - want) < 1e-10

    @given(st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=40, deadline=None)
    def test_period_one_at_dyadic_points(self, num):
        beta = num / 2**30
        seed = sod_seed(2, 0.37)
        assert F_direct(seed, 4, 0, beta) == F_direct(seed, 4, 0, beta + 1.0)

    def test_allocation_peak_at_the_budget(self):
        # terms are formed one leaf at a time: a few buffers of at most
        # 8192 entries and the low-digit table of at most 2^16 doubles
        # (512 KiB), under 1 MiB in all.  One float array of every term
        # would take 8 MiB on its own
        for g, lam in [(2, 20), (10, 6)]:
            tracemalloc.start()
            try:
                F_direct(sod_seed(g, 0.37), lam, 0, 1 / 3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 2**20, f"({g}, {lam}): peak {peak / 2**20:.2f} MiB"


# doubles that stress e(x): signed zeros, subnormals, integers, |x| up to 2^40
cis_arguments = st.one_of(
    st.floats(-(2.0**40), 2.0**40, allow_nan=False),
    st.floats(-1.0, 1.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310]),
    st.integers(-(2**40), 2**40).map(float),
)


class TestCis:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(cis_arguments, max_size=40))
    def test_equals_complex_exp_bit_for_bit(self, values):
        x = np.array(values, dtype=np.float64)
        assert _cis(x).tobytes() == np.exp(2j * np.pi * x).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(cis_arguments)
    def test_scalar_and_shape(self, v):
        want = np.exp(2j * np.pi * v)
        got = _cis(np.float64(v))
        assert got.shape == () and got.dtype == np.complex128
        assert got.tobytes() == np.complex128(want).tobytes()
        grid = np.full((2, 3), v)
        assert _cis(grid).shape == (2, 3)
        assert _cis(grid).tobytes() == np.exp(2j * np.pi * grid).tobytes()

    def test_signed_zero(self):
        # np.exp gives e(-0.0) = 1 + 0j with a +0.0 imaginary part
        for v in (0.0, -0.0):
            z = complex(_cis(np.array([v]))[0])
            assert (math.copysign(1.0, z.imag), z.real) == (1.0, 1.0)


class TestFloorReduction:
    """x - floor(x) is the exact fractional part, as np.mod(x, 1.0) is, for x >= 0."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(0.0, 2.0**60, allow_nan=False),
                st.floats(0.0, 4.0, allow_nan=False),
                st.integers(0, 2**53).map(float),
                # just below an integer
                st.integers(1, 2**40).map(lambda k: math.nextafter(float(k), 0.0)),
                st.sampled_from([0.0, 5e-324, 1.0 - 2.0**-53]),
            ),
            max_size=40,
        )
    )
    def test_equals_mod_for_nonnegative(self, values):
        x = np.array(values, dtype=np.float64)
        assert (x - np.floor(x)).tobytes() == np.mod(x, 1.0).tobytes()

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.0, 1.0, allow_nan=False, exclude_max=True))
    def test_split_products_below_the_budget(self, beta):
        # F_direct's bhi * n for every n < 2^20
        bhi, _ = _split26(beta)
        x = bhi * np.arange(1 << 20, dtype=np.float64)
        assert (x - np.floor(x)).tobytes() == np.mod(x, 1.0).tobytes()


class TestProductFormula:
    def test_direct_vs_product_sweep(self):
        rng = np.random.default_rng(20260818)
        for g, lam_max in ((2, 10), (3, 8), (10, 5)):
            pool = seed_pool(g, rng)
            for _ in range(60):
                s = pool[int(rng.integers(len(pool)))]
                lam = int(rng.integers(0, lam_max + 1))
                j = int(rng.integers(0, 4))
                beta = float(rng.random())
                d = abs(F_direct(s, lam, j, beta))
                p = F_abs_product(s, lam, j, beta)
                assert abs(d - p) <= 1e-10

    def test_recursion_identity(self):
        rng = np.random.default_rng(2)
        for g, tol in ((2, 1e-12), (4, 1e-12), (3, 1e-8)):
            for s in seed_pool(g, rng):
                for _ in range(10):
                    lam = int(rng.integers(1, 9))
                    j = int(rng.integers(0, 3))
                    beta = float(rng.random())
                    lhs = F_abs_product(s, lam, j, beta)
                    rhs = F_abs_product(s, lam - 1, j + 1, g * beta) * phi(s, 0, j, beta) / g
                    assert lhs == pytest.approx(rhs, rel=tol, abs=tol)

    def test_long_window_follows_exact_ladder(self):
        # rungs far past 53 bits of g^i: a float ladder beta * g^i % 1 has
        # long run out of bits there, the exact one has not
        rng = np.random.default_rng(5)
        for g in (2, 3, 10):
            for s in seed_pool(g, rng):
                for lam in (1, 60, 120):
                    beta = float(rng.random())
                    want = 1.0
                    for i, b in enumerate(fraction_ladder(beta, lam, g)):
                        want *= phi(s, i, 2, float(b)) / g
                    assert F_abs_product(s, lam, 2, beta) == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_grid_vector_path(self):
        rng = np.random.default_rng(3)
        for g in (2, 3, 10):
            for s in seed_pool(g, rng):
                betas = rng.random((5, 8))
                grid = F_abs_product(s, 6, 1, betas)
                assert grid.shape == betas.shape
                for b, v in zip(betas.ravel(), grid.ravel()):
                    assert v == F_abs_product(s, 6, 1, float(b))

    def test_full_grid_matches_direct(self):
        rng = np.random.default_rng(4)
        for g, lam in ((2, 5), (3, 4)):
            for s in seed_pool(g, rng):
                beta = float(rng.random())
                grid = _progression_abs(s, lam, 0, 1, 0, beta)
                n = g**lam
                assert grid.shape == (n,)
                for h in range(n):
                    want = abs(F_direct(s, lam, 0, (h + beta) / n))
                    assert abs(grid[h] - want) <= 1e-10

    def test_long_window_smoke(self):
        t0 = time.perf_counter()
        seed = reverse_seed(2, 100_000, 1.0 / 3.0)
        v = F_abs_product(seed, 100_000, 0, 0.7314)
        assert math.isfinite(v)
        assert 0.0 <= v <= 1.0
        assert time.perf_counter() - t0 < 30.0


class TestPairBound:
    def test_single_position_pair_decay(self):
        rng = np.random.default_rng(5)
        for g in (2, 3, 10):
            for s in seed_pool(g, rng):
                for _ in range(25):
                    i = int(rng.integers(0, 6))
                    j = int(rng.integers(0, 3))
                    beta = float(rng.random())
                    row = s.frac_rows(i + j, 1)[0]
                    v = phi(s, i, j, beta)
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
                for _ in range(15):
                    lam = int(rng.integers(2, 9))
                    j = int(rng.integers(0, 3))
                    args = fraction_ladder(float(rng.random()), lam, g)
                    for i in range(lam - 1):
                        prod = phi(s, i, j, float(args[i])) * phi(s, i + 1, j, float(args[i + 1]))
                        cap = g ** (1.0 - sigma(s, 1, i + j))
                        assert math.sqrt(prod) <= cap * (1 + 1e-9)

    def test_sup_norm_decay(self):
        rng = np.random.default_rng(20260819)
        for g in (2, 3, 10):
            for s in seed_pool(g, rng):
                for lam in range(0, 11, 2):
                    for j in (0, 2):
                        cap = g ** (1 / 20) * g ** (-sigma(s, lam, j))
                        for beta in rng.random(20):
                            assert F_abs_product(s, lam, j, float(beta)) <= cap * (1 + 1e-9)


class TestGammaSigma:
    def test_flat_weights_have_zero_weight(self):
        for g in (2, 3, 10):
            seed = sod_seed(g, 0.0)
            for i in range(4):
                assert sigma(seed, 1, i) == 0.0

    def test_scaled_digit_sum_degenerates(self):
        # weight a*d with a = 1/(g-1): the pairwise combination is an
        # exact integer multiple of m - n, so the weight collapses
        for g in (2, 3, 10):
            seed = sod_seed(g, 1.0 / (g - 1))
            assert sigma(seed, 1, 3) < 1e-25

    def test_reversal_degenerate_position(self):
        seed = reverse_seed(2, 10, 1.0 / 3.0)
        got = sigma(seed, 1, 3)
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
            seed = reverse_seed(g, L, a)
            got = sigma(seed, 1, i + j)
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
                for p in range(8):
                    v = sigma(s, 1, p)
                    assert 0.0 <= v <= cap * (1 + 1e-12)

    def test_weight_cap_attained_in_base_two(self):
        # the extremal two-digit row sits at pairwise distance exactly 1/2
        seed = table_seed(2, ((0.0, 0.5),))
        assert sigma(seed, 1, 0) == pytest.approx(gamma_upper_bound(2), rel=1e-14)

    def test_cumulative_weights(self):
        rng = np.random.default_rng(9)
        for g in (2, 3, 10):
            for s in seed_pool(g, rng):
                assert sigma(s, 0, 0) == 0.0
                assert sigma(s, 0, 5) == 0.0
                prev = 0.0
                for lam in range(1, 13):
                    v = sigma(s, lam, 0)
                    assert v >= prev - 1e-15
                    assert v <= lam / 20 * (1 + 1e-12)
                    prev = v

    def test_shift_identity(self):
        rng = np.random.default_rng(10)
        for g in (2, 3, 10):
            for s in seed_pool(g, rng):
                for lam in (1, 3, 7):
                    for j in (0, 2):
                        gap = sigma(s, lam, j) - sigma(s, lam - 1, j + 1)
                        assert gap == pytest.approx(sigma(s, 1, j), rel=1e-12, abs=1e-15)

    def test_flat_cumulative_is_zero(self):
        seed = sod_seed(5, 0.0)
        assert sigma(seed, 40, 3) == 0.0


class TestGammaMemo:
    """The decay weights are memoized per seed, so seeds that compare
    equal share entries: their rows and weights must agree bit for bit,
    whichever of the two fills an entry."""

    PAIRS = (
        (sod_seed(3, 0.0), sod_seed(3, -0.0)),
        (sod_seed(10, 1), sod_seed(10, 1.0)),
        (reverse_seed(2, 6, Fraction(1, 2)), reverse_seed(2, 6, 0.5)),
        (
            table_seed(2, ((0.0, 0.25), (-0.0, -0.0))),
            table_seed(2, ((-0.0, 0.25), (0.0, 0.0))),
        ),
    )

    def test_equal_seeds_give_identical_rows_and_weights(self):
        for a, b in self.PAIRS:
            assert a == b and hash(a) == hash(b)
            for p in (0, 1, 4, 9):
                assert a.frac_rows(p, 5).tobytes() == b.frac_rows(p, 5).tobytes()
                # each seed's own weight, computed past the shared memo
                fresh = _gamma(a, p, {}).hex()
                assert _gamma(b, p, {}).hex() == fresh
                assert sigma(a, 1, p).hex() == sigma(b, 1, p).hex() == fresh
            assert _memo(a) is _memo(b)


class TestSigmaMonotonicity:
    def test_one_step_shift_window(self):
        rng = np.random.default_rng(27)
        for g in (2, 3, 10):
            cap = gamma_upper_bound(g)
            for s in seed_pool(g, rng):
                for lam in range(1, 13):
                    for j in (0, 3):
                        full = sigma(s, lam, j)
                        short = sigma(s, lam - 1, j + 1)
                        assert short <= full + 1e-15
                        assert full - cap <= short + 1e-15

    def test_scale_tradeoff_increasing(self):
        rng = np.random.default_rng(28)
        for g in (2, 3, 10):
            for A in (math.log(2) / math.log(g), 2 * math.log(2) / math.log(g)):
                coeff = A * (0.5 - eta_tilde(g))
                for s in seed_pool(g, rng)[:4]:
                    for lam, j in ((8, 0), (12, 2)):
                        vals = [coeff * mu + sigma(s, lam - mu, j + mu) for mu in range(lam + 1)]
                        for a, b in zip(vals, vals[1:]):
                            assert b >= a - 1e-12

    def test_linear_minus_cumulative_increasing(self):
        rng = np.random.default_rng(29)
        for g in (2, 3, 10):
            for A in (gamma_upper_bound(g), 2 * gamma_upper_bound(g)):
                for s in seed_pool(g, rng)[:4]:
                    for j in (0, 2):
                        vals = [A * lam - sigma(s, lam, j) for lam in range(13)]
                        for a, b in zip(vals, vals[1:]):
                            assert b >= a - 1e-12


def loop_landing(g, d):
    """The least i with g^(i+1) (g+1) d > g, by a Fraction power walk."""
    i = 0
    while Fraction(g) ** (i + 1) * (g + 1) * d <= g:
        i += 1
    return i


def loop_block_length(g, sigma_hat):
    """The least J >= 1 with g^J (g+1) sigma_hat > g, by a Fraction power walk."""
    J = 1
    while Fraction(g) ** J * (g + 1) * sigma_hat <= g:
        J += 1
    return J


def boundary_scales(g):
    """(k, step, d) with g^k (g+1) d = g for step 0, one part in 10^6 off for +-1."""
    for k in range(1, 40):
        edge = Fraction(g, g**k * (g + 1))
        for step in (-1, 0, 1):
            yield k, step, edge * Fraction(10**6 + step, 10**6)


class TestLanding:
    def test_worked_examples(self):
        assert i0_landing(2, 0.5) == (0, 0.5)
        assert i0_landing(10, Fraction(1, 7)) == (0, pytest.approx(1 / 7))

    def test_edge_of_bound_lands_exactly(self):
        # alpha = 1/(g+1) forces one shift and lands on the bound itself
        for g in (2, 3, 10):
            i0, d = i0_landing(g, Fraction(1, g + 1))
            assert i0 == 1
            assert d == pytest.approx(1 / (g + 1))

    def test_random_sweep(self):
        rng = random.Random(20260818)
        for _ in range(10_000):
            g = rng.choice((2, 3, 10))
            alpha = Fraction(rng.randint(1, 10**6), rng.randint(2, 10**6))
            if alpha.denominator == 1:
                continue
            i0, d = i0_landing(g, alpha)
            assert i0 >= 0
            assert d >= 1 / (g + 1) - 1e-12, (g, alpha)
            assert d <= 1 - 1 / (g + 1) + 1e-12, (g, alpha)

    def test_agrees_with_float_formula(self):
        rng = random.Random(7)
        for _ in range(500):
            g = rng.choice((2, 3, 10))
            alpha = Fraction(rng.randint(1, 999), 1000)
            if alpha.denominator == 1:
                continue
            frac = alpha % 1
            dval = float(min(frac, 1 - frac))
            guess = math.floor(math.log(g / ((g + 1) * dval)) / math.log(g))
            i0, _ = i0_landing(g, alpha)
            assert abs(i0 - guess) <= 1

    def test_integer_rejected(self):
        with pytest.raises(ValueError):
            i0_landing(2, 3)
        with pytest.raises(ValueError):
            i0_landing(2, Fraction(4, 2))
        with pytest.raises(ValueError):
            i0_landing(1, 0.5)


class TestLandingBoundary:
    """i0_landing and the block length J on ilog, at the boundary g^k (g+1) d = g."""

    def test_landing_at_boundary(self):
        for g in range(2, 37):
            for k, step, d in boundary_scales(g):
                i0, dist = i0_landing(g, d)
                assert i0 == loop_landing(g, d) == k - (step > 0), (g, k, step)
                landed = d * g**i0 % 1
                assert dist == float(min(landed, 1 - landed))

    def test_block_length_at_boundary(self):
        for g in range(2, 37):
            for k, step, d in boundary_scales(g):
                # with L = 1, sigma_hat is the nearer of d and g d to the integers
                alpha = d / (g * g - 1)
                sigma_hat = min(min(x % 1, 1 - x % 1) for x in (d, g * d))
                J = sigma_lower_blocks(g, 1, 0, alpha).params["J"]
                assert J == loop_block_length(g, sigma_hat), (g, k, step)
                if k > 1:
                    assert J == k + 1 - (step > 0), (g, k, step)


class TestSigmaBlocks:
    def test_empty_tail(self):
        report = sigma_lower_blocks(2, 12, 0, Fraction(1, 7))
        assert report.passed
        assert report.lhs == 0.0

    def test_block_floor_holds(self):
        report = sigma_lower_blocks(2, 20, 20, Fraction(1, 7))
        assert report.passed
        K = report.params["K"]
        assert report.lhs == K / 9
        assert report.params["J"] >= 1
        assert K == 20 // report.params["J"]
        assert report.rhs >= report.lhs

    def test_float_scale_works(self):
        report = sigma_lower_blocks(2, 20, 12, 0.73)
        assert report.passed
        assert report.params["sigma_hat"] > 0

    def test_chain_to_cumulative_weight(self):
        g, L, lam = 3, 18, 18
        alpha = Fraction(2, 7)
        report = sigma_lower_blocks(g, L, lam, alpha)
        seed = reverse_seed(g, L, alpha)
        floor = gamma_coefficient(g) / g**2 * report.rhs
        assert sigma(seed, lam, 0) >= floor - 1e-12

    def test_growth_along_tail_length(self):
        g, L = 2, 40
        alpha = Fraction(1, 7)
        seed = reverse_seed(g, L, alpha)
        values = []
        for lam in (10, 20, 40):
            report = sigma_lower_blocks(g, L, lam, alpha)
            assert report.passed
            values.append(sigma(seed, lam, 0))
        assert values[0] < values[1] < values[2]

    def test_degenerate_scales_rejected(self):
        with pytest.raises(DegenerateSeedError):
            sigma_lower_blocks(2, 10, 5, Fraction(1, 3))
        with pytest.raises(DegenerateSeedError):
            sigma_lower_blocks(2, 10, 5, 0.5)
        with pytest.raises(DegenerateSeedError):
            sigma_lower_blocks(2, 10, 5, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            sigma_lower_blocks(2, 5, 6, Fraction(1, 7))
        with pytest.raises(ValueError):
            sigma_lower_blocks(1, 5, 3, Fraction(1, 7))


class TestTheta:
    def test_flat_base_two_equals_floor(self):
        seed = sod_seed(2, 0.0)
        assert theta_i(seed, 0) == pytest.approx(theta_lower_bound(2), rel=1e-14)

    def test_flat_closed_form(self):
        for g in (3, 5, 10):
            seed = sod_seed(g, 0.0)
            acc = sum((g - h) ** 2 for h in range(1, g))
            want = (1 - 1 / g) * (1 - math.sqrt(1 - 2 * acc / (g * g * (g - 1))))
            assert theta_i(seed, 7) == pytest.approx(want, rel=1e-12)

    def test_floor_holds_for_random_weights(self):
        rng = np.random.default_rng(20260820)
        for g in (2, 3, 5):
            floor = theta_lower_bound(g)
            for _ in range(1000):
                s = table_seed(g, (tuple(float(x) for x in rng.random(g)),))
                assert theta_i(s, 0) >= floor * (1 - 1e-12)


class TestPsi:
    def test_single_cell(self):
        rng = np.random.default_rng(14)
        for g in (2, 6):
            for s in seed_pool(g, rng):
                for t in (0.0, 0.31, 5.77):
                    want = phi(s, 1, 0, g * t) * phi(s, 0, 0, t) / g**2
                    got = psi(s, 0, t, 1, 1)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
                    assert got <= 1 + 1e-9

    def test_vector_offsets_match_scalar(self):
        rng = np.random.default_rng(30)
        seed = random_table(6, rng)
        ts = rng.random(17) * 4
        grid = psi(seed, 1, ts, 2, 3)
        assert grid.shape == ts.shape
        for t, v in zip(ts, grid):
            assert v == pytest.approx(psi(seed, 1, float(t), 2, 3), rel=1e-12)

    def test_rejects_bad_arguments(self):
        seed = sod_seed(10, 0.0)
        with pytest.raises(ValueError):
            psi(seed, 0, 0.3, 3, 1)
        with pytest.raises(ValueError):
            psi(seed, 0, 0.3, 2, 4)
        with pytest.raises(ValueError):
            psi(seed, -1, 0.3, 2, 5)

    def test_partial_depth_cap(self):
        rng = np.random.default_rng(15)
        for g in (6, 10, 12):
            for s in (sod_seed(g, 0.0), reverse_seed(g, 8, 0.73), random_table(g, rng)):
                for R in divisors(g):
                    if R < 2:
                        continue
                    for S in divisors(g):
                        if S == g or math.gcd(R, g // S) != 1:
                            continue
                        vals = psi(s, 1, rng.random(25) * 3, R, S)
                        assert np.all(vals**2 <= (2 / 3) * R * S * (1 + 1e-9))

    def test_full_depth_cap(self):
        rng = np.random.default_rng(16)
        for g in (6, 10, 12):
            for s in (sod_seed(g, 0.0), sod_seed(g, 0.37), random_table(g, rng)):
                for i in (0, 2):
                    slack = 1 - theta_i(s, i)
                    for R in divisors(g):
                        if R < 2:
                            continue
                        vals = psi(s, i, rng.random(25) * 2, R, g)
                        assert np.all(vals**2 <= R * g * slack * (1 + 1e-9))

    def test_eta_power_cap(self):
        rng = np.random.default_rng(17)
        for g in (2, 6, 10, 12):
            eta = eta_tilde(g)
            for s in (sod_seed(g, 0.0), reverse_seed(g, 8, 0.73), random_table(g, rng)):
                for R in divisors(g):
                    if R < 2:
                        continue
                    for S in divisors(g):
                        if math.gcd(R, g // S) != 1:
                            continue
                        vals = psi(s, 0, rng.random(20) * 2, R, S)
                        assert np.all(vals <= (R * S) ** eta * (1 + 1e-9))


class TestMomentIdentities:
    def test_l2_orthogonality(self):
        rng = np.random.default_rng(18)
        for g in (2, 6, 12):
            for s in seed_pool(g, rng):
                for R in divisors(g):
                    for a in range(1, R + 1):
                        if math.gcd(a, R) != 1:
                            continue
                        for i in (0, 3):
                            for beta in rng.random(5):
                                tot = sum(
                                    phi(s, i, 0, float(beta) + a * r / R) ** 2
                                    for r in range(R)
                                )
                                assert tot <= g * g * (1 + 1e-9)

    def test_l4_exact_identity(self):
        rng = np.random.default_rng(19)
        for g in (2, 3, 6, 10):
            for s in seed_pool(g, rng):
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
                        tot = sum(phi(s, 2, 0, float(beta) + u / U) ** 4 for u in range(U))
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
                for j in (0, 1):
                    tab = s.frac_rows(j, L)
                    vals = np.zeros(N)
                    for i in range(L):
                        vals += tab[i][(idx // powers[i]) % g]
                    for beta in rng.random(3):
                        ph = np.exp(2j * np.pi * (vals - beta * idx))
                        lhs = np.abs(np.cumsum(ph))
                        per_scale = [
                            powers[lam] * F_abs_product(s, lam, j, float(beta))
                            for lam in range(L + 1)
                        ]
                        pref = np.cumsum(per_scale)
                        lam_of_x = np.searchsorted(powers, idx + 1, side="right") - 1
                        rhs = (g - 1) * pref[lam_of_x]
                        assert np.all(lhs <= rhs * (1 + 1e-9) + 1e-12)


def progression_abs_per_point(seed, lam, j, step, a, beta):
    """Reference: every level evaluated at every point of the progression."""
    g = seed.base
    beta = beta % 1.0
    h = np.arange(a, g**lam, step, dtype=np.int64)
    tab = seed.frac_rows(j, lam)
    acc = np.ones(len(h), dtype=np.float64)
    for i in range(lam):
        m = g ** (lam - i)
        u = np.mod(((h % m).astype(np.float64) + beta) / m, 1.0)
        acc *= np.abs(_phi_sums(tab[i], u)) / g
    return acc


def l1_moment_per_point(seed, lam, j, k, delta, a, beta):
    step = k * seed.base**delta
    return float(progression_abs_per_point(seed, lam, j, step, a % step, beta).sum())


def progression_cells(g, lam):
    """Every valid (k, delta): k g^delta divides g^lam and g does not divide k."""
    return [(k, delta) for delta in range(lam + 1) for k in divisors(g ** (lam - delta)) if k % g]


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
        seed = seed_pool(g, np.random.default_rng(rows_seed))[family]
        for k, delta in progression_cells(g, lam):
            got = l1_moment(seed, lam, j, k, delta, a, beta)
            assert got == l1_moment_per_point(seed, lam, j, k, delta, a, beta), (k, delta)

    @settings(max_examples=30, deadline=None)
    @given(
        g=st.integers(2, 10),
        lam=st.integers(1, 6),
        family=st.integers(0, 5),
        rows_seed=st.integers(0, 2**32 - 1),
        a=st.integers(0, 10**6),
        betas=st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=1, max_size=3),
        scalar=st.booleans(),
    )
    def test_blocks_leave_every_bit(self, g, lam, family, rows_seed, a, betas, scalar):
        # the per-point reference over 10^6 points per cell is too slow here
        assume(g**lam <= 2**17)
        seed = seed_pool(g, np.random.default_rng(rows_seed))[family]
        beta = betas[0] if scalar else np.array(betas)
        for k, delta in progression_cells(g, lam):
            step = k * g**delta
            want = [progression_abs_per_point(seed, lam, 0, step, a % step, b) for b in betas]
            if scalar:
                want = want[0]
            for block in (1, 7, 64, 2**14):
                # a block per Python step: small blocks on short progressions only
                if g**lam // step > 256 * block:
                    continue
                with mock.patch("revprime.expsum._BLOCK", block):
                    got = _progression_abs(seed, lam, 0, step, a % step, beta)
                assert got.shape == np.shape(want), (k, delta, block)
                assert bits(got) == bits(want), (k, delta, block)

    def test_allocation_peak_of_a_full_window(self):
        # acc holds the 6^8 points (12.8 MiB) and each level adds buffers of
        # at most _BLOCK entries.  A full-length h, a tiled level or the
        # complex sums over a whole period would each add 12.8 MiB or more
        tracemalloc.start()
        try:
            l1_moment(sod_seed(6, 0.37), 8, 0, 1, 0, 0, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_flat_mass_concentrates(self):
        for g in (2, 3, 10):
            seed = sod_seed(g, 0.0)
            v = l1_moment(seed, 4, 0, 1, 0, 0, 0.0)
            assert v == pytest.approx(1.0, abs=1e-9)
            assert v <= g ** (eta_tilde(g) * 4 + 1)

    def test_degenerate_window_is_single_point(self):
        rng = np.random.default_rng(21)
        for g in (2, 6):
            for s in seed_pool(g, rng)[:4]:
                for delta in (0, 2, 3):
                    a = int(rng.integers(0, g**delta))
                    beta = float(rng.random())
                    got = l1_moment(s, delta, 1, 1, delta, a, beta)
                    want = F_abs_product(s, delta, 1, (a + beta) / g**delta)
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
                    cap = l1_moment_bound(s, delta, 1, 1, delta, a, beta)
                    assert got <= cap * (1 + 1e-9)

    def test_validation(self):
        seed = sod_seed(6, 0.0)
        with pytest.raises(ValueError):
            l1_moment(seed, 3, 0, 1, 4, 0, 0.0)
        with pytest.raises(ValueError):
            l1_moment(seed, 3, 0, 0, 0, 0, 0.0)
        with pytest.raises(ValueError):
            l1_moment(seed, 3, 0, 12, 0, 0, 0.0)
        with pytest.raises(ValueError):
            l1_moment(seed, 3, 0, 5, 0, 0, 0.0)
        with pytest.raises(ValueError):
            l1_moment(seed, 3, 0, 4, 2, 0, 0.0)

    def test_matches_direct_and_grid(self):
        rng = np.random.default_rng(22)
        for g, lam in ((2, 5), (3, 4), (6, 3)):
            for s in seed_pool(g, rng)[:5]:
                beta = float(rng.random())
                grid = _progression_abs(s, lam, 1, 1, 0, beta)
                n = g**lam
                for h in rng.integers(0, n, 5):
                    want = abs(F_direct(s, lam, 1, (int(h) + beta) / n))
                    assert grid[int(h)] == pytest.approx(want, abs=1e-10)
                for k in (1, 2, 3, 4, 5):
                    for delta in range(lam + 1):
                        step = k * g**delta
                        if k % g == 0 or n % step:
                            continue
                        for a in (0, 1, step - 1, int(rng.integers(0, step))):
                            got = l1_moment(s, lam, 1, k, delta, a, beta)
                            want = float(grid[a % step :: step].sum())
                            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
                            cap = l1_moment_bound(s, lam, 1, k, delta, a, beta)
                            assert got <= cap * (1 + 1e-9)

    def test_pure_form_cap(self):
        rng = np.random.default_rng(23)
        for g, lam in ((2, 8), (3, 6), (6, 4)):
            cap = g ** (eta_tilde(g) * lam + 1)
            for s in seed_pool(g, rng):
                for beta in rng.random(4):
                    assert l1_moment(s, lam, 0, 1, 0, 0, float(beta)) <= cap * (1 + 1e-9)


class TestHybrid:
    def test_unit_scale_is_single_term(self):
        rng = np.random.default_rng(24)
        for g in (2, 10):
            for s in seed_pool(g, rng)[:4]:
                got = hybrid_sum(s, 5, 2, 1.0)
                want = F_abs_product(s, 5, 2, 0.0)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_flat_geometric_oracle(self):
        for g, lam in ((2, 6), (3, 5)):
            seed = sod_seed(g, 0.0)
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
                got = hybrid_sum(seed, lam, 0, M)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_bound_shape_branches(self):
        rng = np.random.default_rng(25)
        for g in (2, 3):
            eta = eta_tilde(g)
            for s in seed_pool(g, rng)[:3]:
                M = float(g**2)
                want = M * g ** (-(0.5 - eta) * 4 - sigma(s, 6, 1 + 4))
                assert hybrid_bound_shape(s, 10, 1, M) == pytest.approx(want, rel=1e-12)
                M = float(g**3)
                want = M * M * g ** (-(1 - eta) * 5)
                assert hybrid_bound_shape(s, 5, 1, M) == pytest.approx(want, rel=1e-12)

    def test_ratio_is_finite(self):
        seed = reverse_seed(2, 12, 1 / 3)
        for lam, M in ((6, 2.0), (8, 4.0)):
            num = hybrid_sum(seed, lam, 0, M)
            den = hybrid_bound_shape(seed, lam, 0, M)
            assert num >= 0 and den > 0
            assert math.isfinite(num / den)

    def test_rejects_tiny_scale(self):
        seed = sod_seed(2, 0.0)
        for M in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="M must be at least 1"):
                hybrid_sum(seed, 3, 0, M)
            with pytest.raises(ValueError, match="M must be at least 1"):
                hybrid_bound_shape(seed, 3, 0, M)


def product_oracle(seed, lam, j, beta):
    """Scalar |F|: a Fraction ladder and a cos/sin sum at each position."""
    g = seed.base
    tab = seed.frac_rows(j, lam)
    num, den = Fraction(beta % 1.0).as_integer_ratio()
    acc = 1.0
    for i in range(lam):
        t = float(Fraction(num, den))
        total = 0j
        for d in range(g):
            arg = 2.0 * math.pi * (tab[i][d] - t * d)
            total += complex(math.cos(arg), math.sin(arg))
        acc *= abs(total) / g
        num = (num * g) % den
    return acc


def hybrid_oracle(seed, lam, j, M):
    """One scalar product per Farey point k/m, m in [M, 2M), added in order."""
    total = 0.0
    for m in range(math.ceil(M), math.ceil(2 * M)):
        for k in range(m):
            if math.gcd(k, m) == 1:
                total += product_oracle(seed, lam, j, k / m)
    return total


def divmod_direct(seed, lam, j, beta):
    """F_direct with its phases from one divmod pass over every integer.

    That pass is the one F_direct made before the phase tree.  It and
    direct_oracle keep the np.mod reduction and the np.exp
    exponentials that F_direct had before its floor form and _cis, so
    they are the byte oracles of both.
    """
    g = seed.base
    n = np.arange(g**lam, dtype=np.int64)
    phase = divmod_phases(seed.frac_rows(j, lam), n, g)
    bhi, blo = _split26(beta % 1.0)
    nf = n.astype(np.float64)
    phase -= np.mod(bhi * nf, 1.0) + blo * nf
    return (0.0 + 0.0j + complex(np.exp(2j * np.pi * phase).sum())) / g**lam


def direct_oracle(seed, lam, j, beta):
    """F_direct for one chunk, its phases taken from the per-integer loop."""
    g = seed.base
    n = np.arange(g**lam, dtype=np.int64)
    phase = np.array(row_phases(seed.frac_rows(j, lam), n.tolist(), g))
    bhi, blo = _split26(beta % 1.0)
    nf = n.astype(np.float64)
    phase -= np.mod(bhi * nf, 1.0) + blo * nf
    return (0.0 + 0.0j + complex(np.exp(2j * np.pi * phase).sum())) / g**lam


pool_case = dict(
    g=st.integers(2, 10),
    j=st.integers(0, 3),
    family=st.integers(0, 5),
    rows_seed=st.integers(0, 2**32 - 1),
)


def pool_seed(g, family, rows_seed):
    return seed_pool(g, np.random.default_rng(rows_seed))[family]


def theta_loop(seed, i):
    """theta_i with a scalar cos/sin loop per lag: the form _cis replaced."""
    g = seed.base
    row = seed.frac_rows(i, 1)[0]
    acc = 0.0
    for h in range(1, g):
        c = 0j
        for n in range(g - h):
            arg = 2.0 * math.pi * (row[n + h] - row[n])
            c += complex(math.cos(arg), math.sin(arg))
        acc += abs(c) ** 2
    inner = max(1.0 - 2.0 * acc / (g * g * (g - 1)), 0.0)
    return (1.0 - 1.0 / g) * (1.0 - math.sqrt(inner))


def phi_sums_loop(rows, t):
    """_phi_sums with every term, d = 0 too, formed as _cis(rows[..., d] - t*d)."""
    t = np.asarray(t, dtype=np.float64)
    total = np.zeros(np.broadcast_shapes(rows.shape[:-1], t.shape), dtype=np.complex128)
    for d in range(rows.shape[-1]):
        total += _cis(rows[..., d] - t * d)
    return total


def psi_per_pair(seed, i, t, R, S):
    """psi as one phi_sums_loop call per (r, s): the loop the batched psi replaced."""
    g = seed.base
    rows = seed.frac_rows(i, 2)
    tarr = np.asarray(t, dtype=np.float64)
    total = np.zeros(tarr.shape, dtype=np.float64)
    for r in range(R):
        u = (tarr + r) / (R * S)
        inner = np.zeros(tarr.shape, dtype=np.float64)
        for s in range(S):
            inner += np.abs(phi_sums_loop(rows[0], np.mod(u + s / S, 1.0)))
        total += np.abs(phi_sums_loop(rows[1], np.mod(g * u, 1.0))) * inner
    total /= g * g
    return total


class TestScalarOracles:
    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.integers(0, 8),
        betas=st.lists(st.floats(-4.0, 4.0, allow_nan=False), max_size=6),
        **pool_case,
    )
    # signed zeros, subnormals and negative betas; family 5 is a table
    # seed whose rows[..., 0] are not 0
    @example(g=3, lam=4, j=1, family=5, rows_seed=7, betas=[-0.0, 5e-324, -5e-324, -2.75])
    @example(g=10, lam=3, j=0, family=0, rows_seed=0, betas=[-0.0, -1e-310, 2.2250738585072009e-308])
    def test_product_array_equals_scalar_calls(self, g, lam, j, family, rows_seed, betas):
        seed = pool_seed(g, family, rows_seed)
        got = F_abs_product(seed, lam, j, np.array(betas, dtype=np.float64))
        each = [F_abs_product(seed, lam, j, b) for b in betas]
        want = [product_oracle(seed, lam, j, b) for b in betas]
        assert bits(got) == bits(each) == bits(want)
        single = [product_oracle(seed, 1, j, b) for b in betas]
        assert bits([phi(seed, 0, j, b) / g for b in betas]) == bits(single)

    @settings(max_examples=30, deadline=None)
    @given(lam=st.integers(0, 6), M=st.floats(1.0, 12.0), **pool_case)
    def test_hybrid_equals_farey_loop(self, g, lam, j, family, rows_seed, M):
        seed = pool_seed(g, family, rows_seed)
        assert bits(hybrid_sum(seed, lam, j, M)) == bits(hybrid_oracle(seed, lam, j, M))

    @settings(max_examples=40, deadline=None)
    @given(
        lam=st.integers(0, 4),
        beta=st.floats(-4.0, 4.0, allow_nan=False),
        **pool_case,
    )
    def test_digit_phases_equal_digit_loop(self, g, lam, j, family, rows_seed, beta):
        seed = pool_seed(g, family, rows_seed)
        tab = seed.frac_rows(j, lam)
        # past g^lam the entries carry digits the window ignores
        top = g**lam + 3 * g
        n = np.arange(top + 1)
        want = bits(row_phases(tab, n.tolist(), g))
        assert bits(_phase_tree(tab, g, top)) == bits(divmod_phases(tab, n, g)) == want
        got = np.complex128(F_direct(seed, lam, j, beta))
        assert got.tobytes() == np.complex128(direct_oracle(seed, lam, j, beta)).tobytes()

    @settings(max_examples=2, deadline=None)
    @given(
        family=st.integers(0, 5),
        rows_seed=st.integers(0, 2**32 - 1),
        beta=st.floats(-4.0, 4.0, allow_nan=False),
    )
    @pytest.mark.parametrize("g, lam", [(2, 20), (3, 12)])
    def test_direct_equals_divmod_pass_at_the_budget(self, g, lam, family, rows_seed, beta):
        # the longest window each base allows: 2^20 is the budget, and
        # 3^12 the last power of 3 below it
        assert g**lam <= WORK_BUDGET < g ** (lam + 1)
        seed = pool_seed(g, family, rows_seed)
        got = np.complex128(F_direct(seed, lam, 0, beta))
        assert got.tobytes() == np.complex128(divmod_direct(seed, lam, 0, beta)).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        g=st.integers(2, 40),
        i=st.sampled_from([0, 1, 5]),
        family=st.integers(0, 5),
        rows_seed=st.integers(0, 2**32 - 1),
    )
    def test_theta_equals_cos_sin_loop(self, g, i, family, rows_seed):
        seed = pool_seed(g, family, rows_seed)
        assert theta_i(seed, i).hex() == theta_loop(seed, i).hex()

    @settings(max_examples=40, deadline=None)
    @given(
        g=st.sampled_from([2, 3, 4, 6, 10, 12]),
        i=st.integers(0, 3),
        family=st.integers(0, 5),
        rows_seed=st.integers(0, 2**32 - 1),
        pick=st.integers(0, 10**6),
        ts=st.lists(st.floats(-8.0, 8.0, allow_nan=False), min_size=1, max_size=7),
    )
    # R = S = g: at a scalar t numpy sums a 12-long middle axis pairwise,
    # which is not the left-to-right order of the per-pair loop
    @example(g=12, i=0, family=1, rows_seed=0, pick=35, ts=[2.1, 0.3])
    @example(g=10, i=0, family=3, rows_seed=0, pick=15, ts=[0.3])
    @example(g=6, i=1, family=5, rows_seed=3, pick=7, ts=[-0.0, 5e-324, -5e-324, -3.25])
    def test_psi_equals_per_pair_loop(self, g, i, family, rows_seed, pick, ts):
        seed = pool_seed(g, family, rows_seed)
        ds = divisors(g)
        R, S = ds[pick % len(ds)], ds[(pick // len(ds)) % len(ds)]
        t = np.array(ts, dtype=np.float64)
        # the raw offsets, negative ones too, straight into _phi_sums
        rows = seed.frac_rows(i, 2)[:, None, :]
        assert _phi_sums(rows, t).tobytes() == phi_sums_loop(rows, t).tobytes()
        assert bits(psi(seed, i, t, R, S)) == bits(psi_per_pair(seed, i, t, R, S))
        assert bits(psi(seed, i, ts[0], R, S)) == bits(psi_per_pair(seed, i, ts[0], R, S))
        assert isinstance(psi(seed, i, ts[0], R, S), float)
        grid = t.reshape(1, -1)
        assert psi(seed, i, grid, R, S).shape == grid.shape

    @settings(max_examples=40, deadline=None)
    @given(
        lam=st.integers(1, 5),
        pick=st.integers(0, 10**6),
        a=st.integers(0, 10**6),
        betas=st.lists(st.floats(-4.0, 4.0, allow_nan=False), max_size=5),
        **pool_case,
    )
    def test_l1_beta_array_equals_scalar_calls(self, g, lam, j, family, rows_seed, pick, a, betas):
        seed = pool_seed(g, family, rows_seed)
        cells = progression_cells(g, lam)
        k, delta = cells[pick % len(cells)]
        arr = np.array(betas, dtype=np.float64)
        for fn in (l1_moment, l1_moment_bound):
            got = fn(seed, lam, j, k, delta, a, arr)
            assert got.shape == arr.shape
            assert bits(got) == bits([fn(seed, lam, j, k, delta, a, b) for b in betas])
            assert isinstance(fn(seed, lam, j, k, delta, a, 0.25), float)
            # a 2-D grid: every entry is summed as its own scalar call sums it
            grid = np.array([betas, betas[::-1]], dtype=np.float64).reshape(2, len(betas))
            on_grid = fn(seed, lam, j, k, delta, a, grid)
            assert on_grid.shape == grid.shape
            scalar = [fn(seed, lam, j, k, delta, a, b) for b in grid.ravel().tolist()]
            assert bits(on_grid) == bits(scalar)


class TestSpacedPoints:
    def test_farey_family_bound(self):
        rng = np.random.default_rng(26)
        g = 2
        for lam in (4, 6):
            N = g**lam
            n = np.arange(N)
            for s in seed_pool(g, rng)[:4]:
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
                lhs = sum(F_abs_product(s, lam, 0, float(p)) for p in pts)
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
