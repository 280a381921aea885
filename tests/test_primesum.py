"""Linear, bilinear and prime-weighted phase sums.

Brute-force oracles below recompute every sum with plain Python loops
and f_eval, sharing none of the vectorized digit code under test.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revprime.arith import build_table, mangoldt_tail
from revprime.basedigits import ilog
from revprime.expsum import CostBudgetError, expsum_context, sigma
from revprime.seeds import f_eval, reverse_seed, sod_seed, table_seed, zero_seed
from revprime import primesum as ps


@pytest.fixture(scope="module")
def table():
    return build_table(10**5)


def phase_of(seed, L, n):
    """Unit phase from a plain digit loop over the reduced weights.

    Goes through seed.frac rather than f_eval: the raw weights of wide
    reversal seeds are ~g^L and a float f_eval loses the fractional part
    long before the window ends.
    """
    g = seed.base
    total = 0.0
    for i in range(L):
        n, d = divmod(n, g)
        total += seed.frac(i, d)
    return cmath.exp(2j * math.pi * total)


def brute_type_i(seed, L, x, M):
    total = 0.0
    for m in range(1, math.floor(M) + 1):
        best = 0.0
        running = 0j
        for n in range(1, math.floor(x / m) + 1):
            running += phase_of(seed, L, m * n)
            best = max(best, abs(running))
        total += best
    return total


class TestPhases:
    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from([2, 3, 10]),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_matches_f_eval(self, g, n):
        for seed in (sod_seed(g, 0.37), reverse_seed(g, 9, 0.73)):
            es = expsum_context(seed)
            got = np.exp(2j * np.pi * ps._phases(es, 9, np.array([n])))[0]
            assert abs(got - phase_of(seed, 9, n)) < 1e-12

    def test_short_window_ignores_high_digits(self):
        es = expsum_context(sod_seed(10, 0.25))
        lo = ps._phases(es, 2, np.array([34, 1234, 999934]))
        assert lo[0] == pytest.approx(lo[1], abs=1e-15)
        assert lo[0] == pytest.approx(lo[2], abs=1e-15)


class TestTypeI:
    def test_zero_seed_closed_form(self, table):
        es = expsum_context(zero_seed(10))
        p = ps.type_i_params(es, 5, 10**4, 100.0)
        expect = sum(10**4 // m for m in range(1, 101))
        assert ps.type_i_sum(es, p) == pytest.approx(expect, abs=1e-9)

    def test_matches_brute_force(self):
        for seed, L, x, M in [
            (sod_seed(10, 0.37), 3, 400.0, 20.0),
            (reverse_seed(2, 9, 0.73), 9, 500.0, 22.0),
            (table_seed(3, ((0.0, 0.4, 0.7),)), 6, 300.0, 17.0),
        ]:
            es = expsum_context(seed)
            p = ps.type_i_params(es, L, x, M)
            got = ps.type_i_sum(es, p)
            assert got == pytest.approx(brute_type_i(seed, L, x, M), rel=1e-10)

    def test_single_progression(self):
        seed = reverse_seed(2, 8, 0.73)
        es = expsum_context(seed)
        p = ps.type_i_params(es, 8, 200.0, 1.0)
        best = 0.0
        running = 0j
        for n in range(1, 201):
            running += phase_of(seed, 8, n)
            best = max(best, abs(running))
        assert ps.type_i_sum(es, p) == pytest.approx(best, rel=1e-12)

    def test_params_fields(self):
        es = expsum_context(reverse_seed(2, 14, 0.73))
        p = ps.type_i_params(es, 14, 2.0**14, 2.0**7)
        assert p.xi_I == 14
        assert p.kappa_I == pytest.approx(sigma(es, 14, 0), abs=0)
        assert ps.type_i_bound_shape(es, p) == pytest.approx(
            2.0**14 * 2.0 ** (-p.kappa_I) * math.log(2.0**14) ** 2
        )

    def test_validation(self):
        es = expsum_context(zero_seed(10))
        with pytest.raises(ValueError):
            ps.type_i_params(es, 5, 10**4, 101.0)  # M above sqrt(x)
        with pytest.raises(ValueError):
            ps.type_i_params(es, 1, 11.0, 2.0)  # x above g^L
        with pytest.raises(ValueError):
            ps.type_i_params(es, 5, 1.5, 1.0)
        with pytest.raises(CostBudgetError):
            ps.type_i_params(es, 12, 2 * 10**6, 1000.0)


class TestTypeII:
    def test_zero_coefficients(self):
        es = expsum_context(sod_seed(10, 0.37))
        p = ps.type_ii_params(
            es, 5, 10**4, 25.0, 25.0, 0.25,
            ps.zero_coefficients(), ps.zero_coefficients(),
        )
        assert ps.type_ii_sum(es, p) == 0j

    def test_empty_box(self):
        es = expsum_context(zero_seed(10))
        p = ps.type_ii_params(
            es, 2, 100.0, 20.0, 20.0, 0.25,
            ps.unimodular_coefficients(), ps.unimodular_coefficients(),
        )
        assert ps.type_ii_sum(es, p) == 0j

    def test_mobius_tail_pair_matches_brute(self, table):
        x = 10**4
        z = x**0.25
        logx = math.log(x)
        for seed in (zero_seed(10), sod_seed(10, 0.37)):
            es = expsum_context(seed)
            p = ps.type_ii_params(
                es, 5, float(x), 30.0, 40.0, 0.25,
                ps.mobius_coefficients(table),
                ps.mangoldt_tail_coefficients(table, z, x),
            )
            got = ps.type_ii_sum(es, p)
            want = 0j
            for m in range(31, 61):
                for n in range(41, 81):
                    if m * n > x:
                        continue
                    c = table.mobius(m) * mangoldt_tail(n, z, table) / logx
                    want += c * phase_of(seed, 5, m * n)
            assert abs(got - want) < 1e-8

    @settings(max_examples=30, deadline=None)
    @given(
        lo=st.integers(1, 9000),
        width=st.integers(0, 1000),
        z=st.floats(0.5, 60.0, allow_nan=False),
    )
    def test_coefficient_generators_equal_scalar_oracles(self, table, lo, width, z):
        x = 10**4
        n = np.arange(lo, min(lo + width, x) + 1, dtype=np.int64)
        mobius = ps.mobius_coefficients(table)(n)
        assert mobius.dtype == np.complex128
        assert mobius.tolist() == [complex(table.mobius(int(v))) for v in n]
        gen = ps.mangoldt_tail_coefficients(table, z, x)
        scale = 1.0 / math.log(x)
        want = np.array([mangoldt_tail(int(v), z, table) * scale for v in n], dtype=np.complex128)
        # a short first call, then one that extends the table
        half = len(n) // 2
        assert gen(n[:half]).tobytes() == want[:half].tobytes()
        assert gen(n).tobytes() == want.tobytes()

    def test_tail_coefficients_cover_one_to_x(self, table):
        gen = ps.mangoldt_tail_coefficients(table, 5.0, 1000.5)
        assert gen(np.array([1, 1000])).shape == (2,)
        assert gen(np.array([], dtype=np.int64)).shape == (0,)
        for bad in ([0], [1001]):
            with pytest.raises(ValueError):
                gen(np.array(bad))

    def test_unimodular_coefficients_deterministic(self):
        gen = ps.unimodular_coefficients(salt=7)
        n = np.arange(1, 500, dtype=np.int64)
        first = gen(n)
        assert np.all(np.abs(np.abs(first) - 1.0) < 1e-12)
        assert np.array_equal(first, gen(n))
        # a pure function of the index, however the range is chunked
        assert np.array_equal(first[100:200], gen(n[100:200]))
        other = ps.unimodular_coefficients(salt=8)(n)
        assert not np.array_equal(first, other)

    def test_params_fields(self):
        es = expsum_context(reverse_seed(2, 16, 0.73))
        x = 2.0**16
        p = ps.type_ii_params(
            es, 16, x, 2.0**5, 2.0**7, 0.25,
            ps.unimodular_coefficients(), ps.unimodular_coefficients(),
        )
        assert p.xi_II == 4
        assert p.kappa_II == pytest.approx(sigma(es, 4, 0) / 10.0, abs=0)
        assert p.R == pytest.approx(2.0 ** (2.0 * p.kappa_II), abs=0)
        g = 2
        assert g ** (p.lam - 1) <= p.M * p.R**2 < g**p.lam
        assert g ** (p.mu - 1) <= p.M < g**p.mu

    def test_theta_boundary_exact(self):
        # clean power: x = g^8 and theta = 1/4 must land on exponent 2
        assert ps._theta_ilog(3**8, 3, 0.25) == 2
        assert ps._theta_ilog(3**8 - 1, 3, 0.25) == 1
        assert ps._theta_ilog(10**4, 10, 0.25) == 1
        assert ps._theta_ilog(10**8, 10, 0.5) == 4

    def test_validation(self):
        es = expsum_context(zero_seed(10))
        ok = ps.unimodular_coefficients()
        with pytest.raises(ValueError):
            ps.type_ii_params(es, 5, 10**4, 5.0, 25.0, 0.25, ok, ok)
        with pytest.raises(ValueError):
            ps.type_ii_params(es, 5, 10**4, 25.0, 25.0, 0.0, ok, ok)
        with pytest.raises(ValueError):
            ps.type_ii_params(es, 2, 101.0, 25.0, 25.0, 0.25, ok, ok)
        with pytest.raises(CostBudgetError):
            ps.type_ii_params(es, 12, 2 * 10**6, 2000.0, 2000.0, 0.25, ok, ok)


class TestTruncation:
    def test_no_shift_is_empty(self):
        es = expsum_context(reverse_seed(2, 12, 0.73))
        members, superset = ps.truncation_set_size(es, 8.0, 64.0, 4.0, 0, 12, 8)
        assert members == 0
        assert superset == 0

    def test_single_pair_by_hand(self):
        seed = table_seed(2, ((0.0, 0.3), (0.0, 0.7), (0.0, 0.1)), extend="cycle")
        es = expsum_context(seed)
        # box (1,2] x (1,2] holds only (2,2).  With r=1 and lam=1 the
        # interval (4, 6] contains 3*2, so the pair lands in the superset;
        # quotients 3 = 11_2 and 2 = 10_2 differ at position 0, putting
        # weight 0.7 - 0.0 at seed position 1, so it is a member too.
        members, superset = ps.truncation_set_size(es, 1.0, 1.0, 1.0, 1, 4, 1)
        assert (members, superset) == (1, 1)

    def test_containment_exhaustive_base2(self):
        seed = reverse_seed(2, 18, 0.73)
        es = expsum_context(seed)
        for M in (1.0, 2.0, 4.0, 8.0, 16.0):
            for N, R in ((16.0, 4.0), (64.0, 4.0), (64.0, 8.0), (128.0, 8.0)):
                lam = ilog(M * R * R, 2) + 1
                L = lam + 6
                for r in range(int(R) + 1):
                    members, superset = ps.truncation_set_size(
                        es, M, N, R, r, L, lam
                    )
                    assert members <= superset
                    if r == 0:
                        assert members == superset == 0

    def test_membership_against_digit_oracle(self):
        # dyadic scale keeps every weight and sum exact in floats, so a
        # plain f_eval comparison is a valid independent oracle
        seed = reverse_seed(2, 14, 0.75)
        es = expsum_context(seed)
        M, N, R, r = 8.0, 64.0, 4.0, 3
        lam = ilog(M * R * R, 2) + 1
        L = 14
        members, _ = ps.truncation_set_size(es, M, N, R, r, L, lam)
        count = 0
        for m in range(9, 17):
            for n in range(65, 129):
                lo_l = f_eval(seed, L, 0, m * n) % 1.0
                hi_l = f_eval(seed, L, 0, m * (n + r)) % 1.0
                lo_s = f_eval(seed, lam, 0, m * n) % 1.0
                hi_s = f_eval(seed, lam, 0, m * (n + r)) % 1.0
                count += (hi_l - lo_l) % 1.0 != (hi_s - lo_s) % 1.0
        assert members == count

    def test_validation(self):
        es = expsum_context(reverse_seed(2, 12, 0.73))
        with pytest.raises(ValueError):
            ps.truncation_set_size(es, 8.0, 64.0, 4.0, 5, 12, 8)  # r > R
        with pytest.raises(ValueError):
            ps.truncation_set_size(es, 8.0, 64.0, 4.0, 2, 12, 9)  # wrong lam
        with pytest.raises(ValueError):
            ps.truncation_set_size(es, 8.0, 9.0, 4.0, 2, 12, 8)  # R > sqrt(N)
        with pytest.raises(ValueError):
            ps.truncation_set_size(es, 8.0, 64.0, 4.0, 2, 7, 8)  # lam > L


class TestVdc:
    def test_constant_sequence_equality(self):
        lhs, rhs = ps.vdc_lhs_rhs(np.ones(50, dtype=np.complex128), 1)
        assert lhs == pytest.approx(2500.0, abs=0)
        assert rhs == pytest.approx(2500.0, abs=1e-9)

    def test_alternating_direct_expansion(self):
        for N in (7, 8, 33):
            z = np.array([(-1.0) ** n for n in range(N)], dtype=np.complex128)
            lhs, rhs = ps.vdc_lhs_rhs(z, 2)
            assert lhs == pytest.approx(float((N % 2) ** 2), abs=1e-12)
            expect = 0j
            for r in (-1, 0, 1):
                acc = 0j
                for n in range(N):
                    if 0 <= n + r < N:
                        acc += z[n + r] * z[n].conjugate()
                expect += (1.0 - abs(r) / 2.0) * acc
            expect *= (N + 1) / 2.0
            assert rhs == pytest.approx(expect.real, rel=1e-12)
            assert lhs <= rhs + 1e-9

    def test_random_sweep(self):
        rng = np.random.default_rng(20260818)
        for _ in range(1000):
            N = int(rng.integers(1, 201))
            R = int(rng.integers(1, 21))
            z = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            lhs, rhs = ps.vdc_lhs_rhs(z, R)
            assert lhs <= rhs * (1.0 + 1e-9) + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            ps.vdc_lhs_rhs(np.ones(5), 0)
        with pytest.raises(ValueError):
            ps.vdc_lhs_rhs(np.array([]), 1)


class TestSinSum:
    def test_unit_modulus_case(self):
        for M in (0.5, 1.0, 10.0):
            rep = ps.sin_sum_check(0, 1, 0.5, M)
            assert rep.lhs == pytest.approx(min(M, 1.0), abs=0)
            assert rep.passed

    def test_worked_example(self):
        rep = ps.sin_sum_check(2, 5, 0.3, 100.0)
        lhs = sum(
            min(100.0, 1.0 / abs(math.sin(math.pi * (2 * n + 0.3) / 5)))
            for n in range(5)
        )
        assert rep.lhs == pytest.approx(lhs, rel=1e-12)
        assert rep.passed

    def test_random_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            m = int(rng.integers(1, 501))
            a = int(rng.integers(-1000, 1001))
            b = float(rng.uniform(-3, 3))
            M = float(rng.uniform(0.1, 1000))
            rep = ps.sin_sum_check(a, m, b, M)
            assert rep.passed, rep.params

    def test_vanishing_sine_capped(self):
        # a = m makes every term hit the cap when b = 0
        rep = ps.sin_sum_check(5, 5, 0.0, 7.0)
        assert rep.lhs == pytest.approx(35.0, abs=0)
        assert rep.passed


class TestPrimeSum:
    def test_zero_seed_is_chebyshev(self, table):
        es = expsum_context(zero_seed(10))
        result = ps.prime_exp_sum(es, 5, 10**4, table)
        psi = sum(table.mangoldt(n) for n in range(2, 10**4 + 1))
        assert result.S == pytest.approx(psi, abs=1e-8)
        assert result.S.imag == pytest.approx(0.0, abs=1e-10)

    def test_x_two_single_term(self, table):
        seed = reverse_seed(10, 6, 0.37)
        es = expsum_context(seed)
        result = ps.prime_exp_sum(es, 6, 2.0, table)
        assert result.S == pytest.approx(
            math.log(2) * phase_of(seed, 6, 2), abs=1e-12
        )

    def test_exponent_fields(self, table):
        seed = reverse_seed(2, 14, 0.73)
        es = expsum_context(seed)
        result = ps.prime_exp_sum(es, 14, 2.0**14, table)
        assert result.xi == ilog(2**14, 2) // 4
        assert result.kappa == pytest.approx(sigma(es, result.xi, 0) / 10.0, abs=0)
        assert result.kappa <= result.xi / 20.0 + 1e-12
        assert result.z == pytest.approx((2.0**14) ** 0.25)
        expect_shape = 2.0**14 * 2.0 ** (-result.kappa) * math.log(2.0**14) ** 4
        assert result.bound_shape == pytest.approx(expect_shape, abs=0)
        assert result.ratio == pytest.approx(abs(result.S) / expect_shape, abs=0)

    def test_four_term_route_agrees(self, table):
        cases = [
            (zero_seed(2), 2, 11, 2**11),
            (sod_seed(2, 0.37), 2, 11, 2**11),
            (reverse_seed(2, 11, 0.73), 2, 11, 2**11),
            (zero_seed(10), 10, 4, 3000),
            (sod_seed(10, 0.37), 10, 4, 3000),
            (reverse_seed(10, 4, 0.37), 10, 4, 3000),
        ]
        for seed, g, L, x in cases:
            es = expsum_context(seed)
            ps.prime_exp_sum(es, L, float(x), table, vaughan_check=True)

    def test_validation(self, table):
        es = expsum_context(zero_seed(10))
        with pytest.raises(ValueError):
            ps.prime_exp_sum(es, 3, 2000.0, table)  # x > g^L
        with pytest.raises(ValueError):
            ps.prime_exp_sum(es, 7, 2 * 10**5, table)  # beyond sieve
        small = build_table(100)
        with pytest.raises(ValueError):
            ps.prime_exp_sum(es, 5, 200.0, small)
