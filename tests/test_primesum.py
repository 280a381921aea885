"""Linear, bilinear and prime-weighted phase sums.

Brute-force oracles below recompute every sum with plain Python loops
over the exact digit sums of tests/oracles.py, sharing none of the
vectorized digit code under test.  The per-row and per-pair oracles are
the loops the phase table, the row sums and the class-based truncation
count replaced; results must equal them bit for bit.
"""

import cmath
import functools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revprime.arith import vaughan_arrays
from revprime.basedigits import ilog
from revprime.expsum import CostBudgetError, sigma
from revprime.seeds import reverse_seed, sod_seed, table_seed
from revprime import primesum as ps

from oracles import (
    bits,
    digit_sum,
    divmod_phases,
    mangoldt,
    mangoldt_tail,
    mobius,
    row_phases,
    vdc_two_sided,
)


def e_digit_sum(seed, L, n):
    """e(f(n)) for the exact digit sum f over the window, reduced mod 1 once."""
    return cmath.exp(2j * math.pi * float(digit_sum(seed, L, 0, n) % 1))


def brute_type_i(seed, L, x, M):
    total = 0.0
    for m in range(1, math.floor(M) + 1):
        best = 0.0
        running = 0j
        for n in range(1, math.floor(x / m) + 1):
            running += e_digit_sum(seed, L, m * n)
            best = max(best, abs(running))
        total += best
    return total


def zero_tail_phases(seed, L, values):
    """The loop with an early exit: once every entry runs out of digits,
    the digit-0 weights of the remaining rows are added as one suffix sum."""
    rows = seed.frac_rows(0, L)
    zero_tail = np.concatenate([np.cumsum(rows[::-1, 0])[::-1], [0.0]])
    m = np.asarray(values, dtype=np.int64)
    vals = np.zeros(m.shape, dtype=np.float64)
    for i in range(L):
        if not m.any():
            vals += zero_tail[i]
            break
        m, d = np.divmod(m, seed.base)
        vals += rows[i][d]
    return vals


def unit_phases_at(seed, L, values):
    """_unit_phases read at the given integers, from one table over [0, max]."""
    n = np.array(values, dtype=np.int64)
    return ps._unit_phases(seed, L, int(n.max(initial=0)))[n]


class TestPhases:
    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from([2, 3, 10]),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_matches_digit_sum(self, g, n):
        for seed in (sod_seed(g, 0.37), reverse_seed(g, 9, 0.73)):
            got = unit_phases_at(seed, 9, [n])[0]
            assert abs(got - e_digit_sum(seed, 9, n)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 3, 10]),
        st.integers(min_value=1, max_value=16),
        # short entries: every one runs out of digits inside the window
        st.lists(st.integers(min_value=0, max_value=10**4), max_size=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_equals_digit_loop(self, g, L, values, rows_seed):
        rng = np.random.default_rng(rows_seed)
        table = table_seed(g, rng.random((3, g)))
        assert table.frac_rows(0, L)[:, 0].any()
        n = np.array(values, dtype=np.int64)
        for seed in (sod_seed(g, 0.0), sod_seed(g, 0.37), reverse_seed(g, 9, 0.73), table):
            got = unit_phases_at(seed, L, values)
            want = np.exp(2j * np.pi * np.array(row_phases(seed.frac_rows(0, L), values, g)))
            assert got.tobytes() == want.tobytes()
            early = np.exp(2j * np.pi * zero_tail_phases(seed, L, n))
            if seed.frac_rows(0, L)[:, 0].any():
                # the suffix sum adds the same weights in another order
                assert np.allclose(got, early, rtol=0, atol=1e-12)
            else:
                assert got.tobytes() == early.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 3, 6, 10]),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=3000),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_whole_table_equals_digit_phases(self, g, L, top, rows_seed):
        # every entry of [0, top], including tops past the period g^L
        rows = np.random.default_rng(rows_seed).random((3, g))
        for seed in (sod_seed(g, 0.37), reverse_seed(g, L, 0.73), table_seed(g, rows)):
            got = ps._unit_phases(seed, L, top)
            n = np.arange(top + 1, dtype=np.int64)
            want = np.exp(2j * np.pi * divmod_phases(seed.frac_rows(0, L), n, g))
            assert got.tobytes() == want.tobytes()

    def test_short_window_ignores_high_digits(self):
        lo = unit_phases_at(sod_seed(10, 0.25), 2, [34, 1234, 999934])
        assert lo[0] == pytest.approx(lo[1], abs=1e-15)
        assert lo[0] == pytest.approx(lo[2], abs=1e-15)


def per_row_phases(seed, L, n):
    return np.exp(2j * np.pi * divmod_phases(seed.frac_rows(0, L), n, seed.base))


def per_row_type_i(seed, L, x, M):
    """type_i_sum as one digit-phase evaluation per progression m."""
    parts = []
    for m in range(1, math.floor(M) + 1):
        top = math.floor(x / m)
        n = np.arange(1, top + 1, dtype=np.int64)
        prefix = np.cumsum(per_row_phases(seed, L, m * n))
        parts.append(float(np.abs(prefix).max()))
    return math.fsum(parts)


def per_row_type_ii(seed, L, x, M, N, a_coeff, b_coeff):
    """type_ii_sum as one digit-phase evaluation and one b call per row m."""
    m_first = math.floor(M) + 1
    m_last = math.floor(2.0 * M)
    if m_last < m_first:
        return 0j
    a_vals = np.asarray(
        a_coeff(np.arange(m_first, m_last + 1, dtype=np.int64)), dtype=np.complex128
    )
    n_lo = math.floor(N)
    n_cap = math.floor(2.0 * N)
    parts = []
    for m, a in zip(range(m_first, m_last + 1), a_vals):
        n_hi = min(n_cap, math.floor(x / m))
        if n_hi <= n_lo or a == 0:
            continue
        n = np.arange(n_lo + 1, n_hi + 1, dtype=np.int64)
        b = np.asarray(b_coeff(n), dtype=np.complex128)
        parts.append(complex(a) * complex(np.sum(b * per_row_phases(seed, L, m * n))))
    if not parts:
        return 0j
    return complex(np.sum(np.asarray(parts, dtype=np.complex128)))


def sum_bits(value):
    value = complex(value)
    return (value.real.hex(), value.imag.hex())


SUM_CELLS = [(2, 12, 2**12), (2, 16, 2**16), (3, 8, 3**8), (10, 4, 10**4), (6, 5, 5000)]


def sum_seed(g, L, family, rows_seed):
    if family == "sod":
        return sod_seed(g, 0.37)
    if family == "reverse":
        return reverse_seed(g, L, 3 / 7)
    return table_seed(g, np.random.default_rng(rows_seed).random((3, g)))


class TestRowSumsEqualPerRowLoops:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(SUM_CELLS),
        st.sampled_from(["sod", "reverse", "table"]),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_type_i(self, cell, family, rows_seed, frac):
        g, L, x = cell
        seed = sum_seed(g, L, family, rows_seed)
        M = 1.0 + frac * (math.sqrt(x) - 1.0)
        while Fraction(M) ** 2 > x:  # sqrt rounded up; M <= sqrt(x) is checked exactly
            M = math.nextafter(M, 0.0)
        args = (seed, L, float(x), M)
        assert ps.type_i_sum(*args).S.hex() == per_row_type_i(*args).hex()

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(SUM_CELLS),
        st.sampled_from(["sod", "reverse", "table"]),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.25, max_value=0.6),
        st.floats(min_value=0.25, max_value=0.6),
        st.booleans(),
    )
    def test_type_ii(self, cell, family, rows_seed, m_exp, n_exp, mobius):
        g, L, x = cell
        seed = sum_seed(g, L, family, rows_seed)
        M, N = float(x) ** m_exp, float(x) ** n_exp
        while Fraction(M) ** 4 < x:  # pow rounded down; corners are checked exactly
            M = math.nextafter(M, math.inf)
        while Fraction(N) ** 4 < x:
            N = math.nextafter(N, math.inf)
        if mobius:
            a, b = ps.mobius_coefficients(), ps.mangoldt_tail_coefficients(N / 2, x)
        else:
            a, b = ps.unimodular_coefficients(1), ps.unimodular_coefficients(2)
        args = (seed, L, float(x), M, N, a, b)
        assert sum_bits(ps.type_ii_sum(*args).S) == sum_bits(per_row_type_ii(*args))


class TestTypeI:
    def test_zero_seed_closed_form(self):
        seed = sod_seed(10, 0.0)
        expect = sum(10**4 // m for m in range(1, 101))
        assert ps.type_i_sum(seed, 5, 10**4, 100.0).S == pytest.approx(expect, abs=1e-9)

    def test_matches_brute_force(self):
        for seed, L, x, M in [
            (sod_seed(10, 0.37), 3, 400.0, 20.0),
            (reverse_seed(2, 9, 0.73), 9, 500.0, 22.0),
            (table_seed(3, ((0.0, 0.4, 0.7),)), 6, 300.0, 17.0),
        ]:
            got = ps.type_i_sum(seed, L, x, M).S
            assert got == pytest.approx(brute_type_i(seed, L, x, M), rel=1e-10)

    def test_single_progression(self):
        seed = reverse_seed(2, 8, 0.73)
        best = 0.0
        running = 0j
        for n in range(1, 201):
            running += e_digit_sum(seed, 8, n)
            best = max(best, abs(running))
        assert ps.type_i_sum(seed, 8, 200.0, 1.0).S == pytest.approx(best, rel=1e-12)

    def test_record_fields(self):
        seed = reverse_seed(2, 14, 0.73)
        x = 2.0**14
        res = ps.type_i_sum(seed, 14, x, 2.0**7)
        assert res.xi == ilog(x, 2) == 14
        assert res.kappa == pytest.approx(sigma(seed, ilog(x, 2), 0), abs=0)
        assert res.bound_shape == pytest.approx(
            x * 2.0 ** (-res.kappa) * math.log(x) ** 2, abs=0
        )

    def test_validation(self):
        seed = sod_seed(10, 0.0)
        with pytest.raises(ValueError):
            ps.type_i_sum(seed, 5, 10**4, 101.0)  # M above sqrt(x)
        with pytest.raises(ValueError):
            ps.type_i_sum(seed, 1, 11.0, 2.0)  # x above g^L
        with pytest.raises(ValueError):
            ps.type_i_sum(seed, 5, 1.5, 1.0)
        with pytest.raises(CostBudgetError):
            ps.type_i_sum(seed, 12, 2 * 10**6, 1000.0)

    def test_sqrt_edge_is_exact(self):
        # M = sqrt(x) passes; the next double above it, within the old
        # 1e-12 relative slack, does not
        seed = sod_seed(10, 0.37)
        ps.type_i_sum(seed, 6, 10**6, 1000.0)
        for x, M in ((10**6, 1000.0), (10**4, 100.0), (5000.0, math.sqrt(5000))):
            above = M if Fraction(M) ** 2 > x else math.nextafter(M, math.inf)
            with pytest.raises(ValueError, match=r"sqrt\(x\)"):
                ps.type_i_sum(seed, 6, x, above)
        with pytest.raises(ValueError, match=r"sqrt\(x\)"):
            ps.type_i_sum(seed, 6, 10**6, math.inf)


class TestTypeII:
    def test_zero_coefficients(self):
        def zeros(n):
            return np.zeros(n.shape, dtype=np.complex128)

        seed = sod_seed(10, 0.37)
        assert ps.type_ii_sum(seed, 5, 10**4, 25.0, 25.0, zeros, zeros).S == 0j

    def test_empty_box(self):
        seed = sod_seed(10, 0.0)
        ok = ps.unimodular_coefficients()
        assert ps.type_ii_sum(seed, 2, 100.0, 20.0, 20.0, ok, ok).S == 0j

    def test_mobius_tail_pair_matches_brute(self):
        x = 10**4
        z = x**0.25
        logx = math.log(x)
        for seed in (sod_seed(10, 0.0), sod_seed(10, 0.37)):
            got = ps.type_ii_sum(
                seed, 5, float(x), 30.0, 40.0,
                ps.mobius_coefficients(),
                ps.mangoldt_tail_coefficients(z, x),
            ).S
            want = 0j
            for m in range(31, 61):
                for n in range(41, 81):
                    if m * n > x:
                        continue
                    c = mobius(m) * mangoldt_tail(n, z) / logx
                    want += c * e_digit_sum(seed, 5, m * n)
            assert abs(got - want) < 1e-8

    @settings(max_examples=30, deadline=None)
    @given(
        lo=st.integers(1, 9000),
        width=st.integers(0, 1000),
        z=st.floats(0.5, 60.0, allow_nan=False),
    )
    def test_coefficient_generators_equal_scalar_oracles(self, lo, width, z):
        x = 10**4
        n = np.arange(lo, min(lo + width, x) + 1, dtype=np.int64)
        mu = ps.mobius_coefficients()(n)
        assert mu.dtype == np.complex128
        assert mu.tolist() == [complex(mobius(int(v))) for v in n]
        gen = ps.mangoldt_tail_coefficients(z, x)
        scale = 1.0 / math.log(x)
        want = np.array([mangoldt_tail(int(v), z) * scale for v in n], dtype=np.complex128)
        # a short first call, then the full range: each tabulates its own
        half = len(n) // 2
        assert gen(n[:half]).tobytes() == want[:half].tobytes()
        assert gen(n).tobytes() == want.tobytes()

    def test_tail_coefficients_cover_one_to_x(self):
        gen = ps.mangoldt_tail_coefficients(5.0, 1000.5)
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

    def test_record_fields(self):
        seed = reverse_seed(2, 16, 0.73)
        x = 2.0**16
        ok = ps.unimodular_coefficients()
        res = ps.type_ii_sum(seed, 16, x, 2.0**5, 2.0**7, ok, ok)
        assert res.xi == 4
        assert res.kappa == pytest.approx(sigma(seed, 4, 0) / 10.0, abs=0)
        assert res.bound_shape == pytest.approx(x * 2.0 ** (-res.kappa) * math.log(x), abs=0)

    def test_one_decay_exponent(self):
        # Type II and the prime sum read one (xi, kappa): xi is the largest
        # k with g^(4k) <= x, found here by brute force, at and around every
        # power g^(4k) up to 10^5 and at non-integral x between them
        def brute_xi(g, x):
            k = 0
            while g ** (4 * (k + 1)) <= x:
                k += 1
            return k

        ok = ps.unimodular_coefficients()
        cases = []
        for g in (2, 3, 10):
            cases += [(g, x) for x in (2.0, 2.5, 15.75, 4000.4)]
            for k in range(1, 6):
                power = g ** (4 * k)
                if power + 1 <= 10**5:
                    near = (power - 1, power, power + 1, power - 0.5, power + 0.5)
                    cases += [(g, x) for x in near]
        for g, x in cases:
            L = ilog(x, g) + 1
            seed = reverse_seed(g, L, 0.73)
            corner = max(1.0, math.ceil(x**0.25))
            bilinear = ps.type_ii_sum(seed, L, float(x), corner, corner, ok, ok)
            res = ps.prime_exp_sum(seed, L, float(x))
            assert bilinear.xi == res.xi == brute_xi(g, x), (g, x)
            assert bilinear.kappa == res.kappa == sigma(seed, res.xi, 0) / 10.0, (g, x)

    def test_validation(self):
        seed = sod_seed(10, 0.0)
        ok = ps.unimodular_coefficients()
        with pytest.raises(ValueError):
            ps.type_ii_sum(seed, 5, 10**4, 5.0, 25.0, ok, ok)
        with pytest.raises(ValueError):
            ps.type_ii_sum(seed, 2, 101.0, 25.0, 25.0, ok, ok)
        with pytest.raises(ValueError):
            ps.type_ii_sum(seed, 5, 1.5, 25.0, 25.0, ok, ok)
        with pytest.raises(CostBudgetError):
            ps.type_ii_sum(seed, 12, 2 * 10**6, 2000.0, 2000.0, ok, ok)

    def test_low_corner_refused_before_any_coefficient(self):
        def refuse(n):
            raise AssertionError("a coefficient generator ran")

        seed = sod_seed(10, 0.37)
        # x^(1/4) = 10: each corner below it in turn, the other above
        for M, N in ((9.0, 25.0), (25.0, 9.0)):
            with pytest.raises(ValueError, match=r"x\^\(1/4\)"):
                ps.type_ii_sum(seed, 5, 10**4, M, N, refuse, refuse)

    def test_nan_corner_names_the_box(self):
        seed = sod_seed(10, 0.37)
        ok = ps.unimodular_coefficients()
        for M, N in ((math.nan, 10.0), (10.0, math.nan), (math.inf, 10.0), (10.0, math.inf)):
            with pytest.raises(ValueError, match="box corners must be at least 1"):
                ps.type_ii_sum(seed, 4, 1e4, M, N, ok, ok)

    def test_corner_edge_is_exact(self):
        # verify's corners sit on x^(1/4): 16 at 2^16 and 10 at 10^4 pass,
        # and the next double below either corner, within the old 1e-12
        # relative slack, does not
        ok = ps.unimodular_coefficients()
        for g, L, x, corner in ((2, 16, 2**16, 16.0), (10, 4, 10**4, 10.0)):
            seed = sod_seed(g, 0.37)
            ps.type_ii_sum(seed, L, float(x), corner, corner, ok, ok)
            below = math.nextafter(corner, 0.0)
            for M, N in ((below, corner), (corner, below)):
                with pytest.raises(ValueError, match=r"x\^\(1/4\)"):
                    ps.type_ii_sum(seed, L, float(x), M, N, ok, ok)


def per_pair_truncation(seed, M, N, r, L, lam):
    """truncation_set_size as one exact Fraction weight difference per pair."""
    g = seed.base
    glam = g**lam
    rows = seed.frac_rows(0, L)
    weights = [[Fraction(rows[i, d]) for d in range(g)] for i in range(L)]
    members = 0
    superset = 0
    for m in range(math.floor(M) + 1, math.floor(2.0 * M) + 1):
        for n in range(math.floor(N) + 1, math.floor(2.0 * N) + 1):
            k_low, k_high = m * n // glam, m * (n + r) // glam
            delta = Fraction(0)
            a, b = k_high, k_low
            for i in range(lam, L):
                if a == b == 0:
                    break
                delta += weights[i][a % g] - weights[i][b % g]
                a //= g
                b //= g
            member = delta != 0
            assert k_high > k_low or not member, (m, n, r)
            members += member
            superset += k_high > k_low
    return members, superset


class TestTruncation:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([2, 3, 10]),
        st.sampled_from(["sod", "reverse", "table"]),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=1.0, max_value=8.0),
        st.floats(min_value=1.0, max_value=64.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=4),
    )
    def test_equals_per_pair_loop(self, g, family, rows_seed, M, N, frac, extra):
        # sod weights only see digit counts, so distinct quotients share
        # a weight sum there: the count classes pairs by weight, not by k
        R = 1.0 + frac * (math.sqrt(N) - 1.0)
        while Fraction(R) ** 2 > N:  # sqrt rounded up; R <= sqrt(N) is checked exactly
            R = math.nextafter(R, 0.0)
        lam = ilog(M * R * R, g) + 1
        L = lam + extra
        seed = sum_seed(g, L, family, rows_seed)
        for r in range(int(R) + 1):
            got = ps.truncation_set_size(seed, M, N, R, r, L, lam)
            assert got == per_pair_truncation(seed, M, N, r, L, lam), r

    def test_no_shift_is_empty(self):
        seed = reverse_seed(2, 12, 0.73)
        members, superset = ps.truncation_set_size(seed, 8.0, 64.0, 4.0, 0, 12, 8)
        assert members == 0
        assert superset == 0

    def test_single_pair_by_hand(self):
        seed = table_seed(2, ((0.0, 0.3), (0.0, 0.7), (0.0, 0.1)))
        # box (1,2] x (1,2] holds only (2,2).  With r=1 and lam=1 the
        # interval (4, 6] contains 3*2, so the pair lands in the superset;
        # quotients 3 = 11_2 and 2 = 10_2 differ at position 0, putting
        # weight 0.7 - 0.0 at seed position 1, so it is a member too.
        members, superset = ps.truncation_set_size(seed, 1.0, 1.0, 1.0, 1, 4, 1)
        assert (members, superset) == (1, 1)

    def test_containment_exhaustive_base2(self):
        seed = reverse_seed(2, 18, 0.73)
        for M in (1.0, 2.0, 4.0, 8.0, 16.0):
            for N, R in ((16.0, 4.0), (64.0, 4.0), (64.0, 8.0), (128.0, 8.0)):
                lam = ilog(M * R * R, 2) + 1
                L = lam + 6
                for r in range(int(R) + 1):
                    members, superset = ps.truncation_set_size(
                        seed, M, N, R, r, L, lam
                    )
                    assert members <= superset
                    if r == 0:
                        assert members == superset == 0

    def test_membership_against_digit_oracle(self):
        # the exact digit sums decide each difference mod 1 with no rounding
        seed = reverse_seed(2, 14, 0.75)
        M, N, R, r = 8.0, 64.0, 4.0, 3
        lam = ilog(M * R * R, 2) + 1
        L = 14
        members, _ = ps.truncation_set_size(seed, M, N, R, r, L, lam)
        count = 0
        for m in range(9, 17):
            for n in range(65, 129):
                lo_l = digit_sum(seed, L, 0, m * n)
                hi_l = digit_sum(seed, L, 0, m * (n + r))
                lo_s = digit_sum(seed, lam, 0, m * n)
                hi_s = digit_sum(seed, lam, 0, m * (n + r))
                count += (hi_l - lo_l) % 1 != (hi_s - lo_s) % 1
        assert members == count

    def test_validation(self):
        seed = reverse_seed(2, 12, 0.73)
        with pytest.raises(ValueError):
            ps.truncation_set_size(seed, 8.0, 64.0, 4.0, 5, 12, 8)  # r > R
        with pytest.raises(ValueError):
            ps.truncation_set_size(seed, 8.0, 64.0, 4.0, 2, 12, 9)  # wrong lam
        with pytest.raises(ValueError):
            ps.truncation_set_size(seed, 8.0, 9.0, 4.0, 2, 12, 8)  # R > sqrt(N)
        # R = sqrt(N) passes; the next double above it, within the old 1e-12
        # relative slack, does not
        for M, N, R in ((8.0, 16.0, 4.0), (8.0, 64.0, 8.0)):
            lam = ilog(M * R * R, 2) + 1
            ps.truncation_set_size(seed, M, N, R, 2, 12, lam)
            with pytest.raises(ValueError, match=r"sqrt\(N\)"):
                ps.truncation_set_size(seed, M, N, math.nextafter(R, math.inf), 2, 12, lam)
        with pytest.raises(ValueError):
            ps.truncation_set_size(seed, 8.0, 64.0, 4.0, 2, 7, 8)  # lam > L

    def test_nan_side_names_the_box(self):
        seed = reverse_seed(2, 12, 0.73)
        for M, N, R in (
            (math.nan, 64.0, 4.0), (8.0, math.nan, 4.0), (8.0, 64.0, math.nan),
            (math.inf, 64.0, 4.0), (8.0, math.inf, 4.0), (8.0, 64.0, math.inf),
        ):
            with pytest.raises(ValueError, match="M, N, R must be at least 1"):
                ps.truncation_set_size(seed, M, N, R, 2, 12, 8)


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

    @settings(max_examples=300, deadline=None)
    @given(
        z=st.lists(
            st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=40,
        ),
        R=st.integers(1, 50),
    )
    def test_equals_two_sided_loop(self, z, R):
        assert bits(ps.vdc_lhs_rhs(z, R)) == bits(vdc_two_sided(z, R))

    def test_validation(self):
        with pytest.raises(ValueError):
            ps.vdc_lhs_rhs(np.ones(5), 0)
        with pytest.raises(ValueError):
            ps.vdc_lhs_rhs(np.array([]), 1)


def sin_sum_lhs_oracle(a, m, b, M):
    """The per-n loop sin_sum_check ran before its lhs was vectorized."""
    lhs = 0.0
    for n in range(m):
        s = abs(math.sin(math.pi * (a * n + b) / m))
        lhs += M if s == 0.0 else min(M, 1.0 / s)
    return lhs


class TestSinSum:
    @settings(max_examples=200, deadline=None)
    @given(
        a=st.one_of(st.integers(-2000, 2000), st.integers(-(2**70), 2**70)),
        m=st.integers(1, 500),
        b=st.one_of(st.floats(-3.0, 3.0, allow_nan=False), st.integers(-3, 3).map(float)),
        M=st.floats(0.1, 1000.0),
    )
    def test_lhs_equals_scalar_loop(self, a, m, b, M):
        got = ps.sin_sum_check(a, m, b, M).lhs
        assert float.hex(got) == float.hex(sin_sum_lhs_oracle(a, m, b, M))

    @pytest.mark.parametrize(
        "a, m, b",
        # zero sines capped at M: m = 1, and a = 0 mod m with b = 0
        [(0, 1, 0.0), (7, 1, 0.0), (-3, 1, 0.0), (0, 7, 0.0), (14, 7, 0.0), (-21, 7, 0.0), (500, 500, 0.0)],
    )
    def test_zero_sines_match_the_loop(self, a, m, b):
        rep = ps.sin_sum_check(a, m, b, 7.5)
        assert float.hex(rep.lhs) == float.hex(sin_sum_lhs_oracle(a, m, b, 7.5))
        assert rep.lhs >= 7.5

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


def four_term_route(seed, L, x, z):
    """The prime sum rebuilt from the four-term split, summed in split order.

    The first three pieces are rows over the short factor, mirroring how
    the pieces are estimated, added one at a time in ascending order.
    """
    top = math.floor(x)
    table = ps._unit_phases(seed, L, top)
    va = vaughan_arrays(z, top)
    zi = math.floor(z)
    zsq = min(math.floor(z * z), top)
    # np.log, not va.log: math.log differs from it in the last bit for some n
    log = np.log(np.arange(1, top + 1, dtype=np.int64))
    pieces = (
        ps._row_sums(table, va.mobius[1 : zi + 1], 1, log, 0, top, top),
        ps._row_sums(table, va.mobius[zi + 1 :], zi + 1, va.mangoldt_tail[zi + 1 :], zi, top, top),
        ps._row_sums(table, -va.mobius_mangoldt_window[1 : zsq + 1], 1, None, 0, top, top),
    )
    s1, s2, s3 = (functools.reduce(operator.add, rows, 0j) for rows in pieces)
    hi4 = min(zi, top)
    s4 = complex(np.sum(va.mangoldt[1 : hi4 + 1] * table[1 : hi4 + 1]))
    return s1 + s2 + s3 + s4


class TestPrimeSum:
    def test_zero_seed_is_chebyshev(self):
        seed = sod_seed(10, 0.0)
        result = ps.prime_exp_sum(seed, 5, 10**4)
        psi = sum(mangoldt(n) for n in range(2, 10**4 + 1))
        assert result.S == pytest.approx(psi, abs=1e-8)
        assert result.S.imag == pytest.approx(0.0, abs=1e-10)

    def test_x_two_single_term(self):
        seed = reverse_seed(10, 6, 0.37)
        result = ps.prime_exp_sum(seed, 6, 2.0)
        assert result.S == pytest.approx(
            math.log(2) * e_digit_sum(seed, 6, 2), abs=1e-12
        )

    def test_exponent_fields(self):
        seed = reverse_seed(2, 14, 0.73)
        result = ps.prime_exp_sum(seed, 14, 2.0**14)
        assert result.xi == ilog(2**14, 2) // 4
        assert result.kappa == pytest.approx(sigma(seed, result.xi, 0) / 10.0, abs=0)
        assert result.kappa <= result.xi / 20.0 + 1e-12
        expect_shape = 2.0**14 * 2.0 ** (-result.kappa) * math.log(2.0**14) ** 4
        assert result.bound_shape == pytest.approx(expect_shape, abs=0)

    def test_four_term_route_agrees(self):
        cases = [
            (sod_seed(2, 0.0), 2, 11, 2**11),
            (sod_seed(2, 0.37), 2, 11, 2**11),
            (reverse_seed(2, 11, 0.73), 2, 11, 2**11),
            (sod_seed(10, 0.0), 10, 4, 3000),
            (sod_seed(10, 0.37), 10, 4, 3000),
            (reverse_seed(10, 4, 0.37), 10, 4, 3000),
        ]
        for seed, g, L, x in cases:
            S = ps.prime_exp_sum(seed, L, float(x)).S
            other = four_term_route(seed, L, float(x), x**0.25)
            assert abs(S - other) <= 1e-6 * max(1.0, abs(S)), (seed, x)

    def test_validation(self):
        seed = sod_seed(10, 0.0)
        with pytest.raises(ValueError):
            ps.prime_exp_sum(seed, 3, 2000.0)  # x > g^L
        with pytest.raises(ValueError):
            ps.prime_exp_sum(seed, 3, 1.5)  # x < 2
        # beyond the enumeration budget, refused before any sieve
        with pytest.raises(CostBudgetError):
            ps.prime_exp_sum(seed, 7, 2 * 10**6)
