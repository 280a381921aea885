"""Seed families, shifts, and the reduced weight rows they read."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revprime.basedigits import dist
from revprime.seeds import reverse_seed, sod_seed, table_seed

from oracles import digit_sum, row_phases, weight, window_reverse


def random_table(g, positions, rng):
    return table_seed(g, rng.random((positions, g)))


def reduced(seed, i, d):
    """The exact weight at (i, d) mod 1, rounded once: what frac_rows must hold."""
    return float(weight(seed, i, d) % 1)


def kernel_sum(seed, lam, j, n):
    """The phase of n from frac_rows: its reduced weights added in digit order."""
    return row_phases(seed.frac_rows(j, lam), [n], seed.base)[0]


class TestFamilies:
    def test_zero(self):
        # the zero family is the digit sum at scale 0: every weight is 0,
        # and every row entry and phase +0.0, sign bit included
        s = sod_seed(5, 0.0)
        assert all(weight(s, i, d) == 0 for i in range(4) for d in range(5))
        assert digit_sum(s, 10, 2, 123456) == 0
        values = s.frac_rows(2, 4).ravel().tolist() + s.frac_rows(0, 1).ravel().tolist()
        values.append(kernel_sum(s, 10, 2, 123456))
        assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in values)

    def test_sod_is_scaled_digit_sum(self):
        s = sod_seed(10, 1.0)
        assert digit_sum(s, 4, 0, 1234) == 10
        assert digit_sum(sod_seed(10, 0.5), 4, 0, 1234) == 5
        # shift invariance: the sod family ignores position
        assert digit_sum(s, 4, 7, 1234) == 10
        # a dyadic scale keeps the row sums exact: 0.125 * 10 = 1.25
        assert kernel_sum(sod_seed(10, 0.125), 4, 7, 1234) % 1.0 == 0.25

    def test_reverse_window_evaluates_reversal(self):
        s = reverse_seed(10, 4, 1.0)
        assert digit_sum(s, 4, 0, 1234) == 4321
        assert digit_sum(s, 4, 0, 12) == 2100
        # at scale 2^-10 the rows hold the low ten bits of the reversal exactly
        t = reverse_seed(10, 4, 2.0**-10)
        assert kernel_sum(t, 4, 0, 1234) % 1.0 == 4321 % 1024 / 1024
        assert kernel_sum(t, 4, 0, 12) % 1.0 == 2100 % 1024 / 1024

    @given(st.sampled_from([2, 3, 10]), st.integers(1, 6), st.integers(0, 10**6))
    def test_reverse_seed_matches_window_reverse(self, g, L, n):
        n %= g**L
        assert digit_sum(reverse_seed(g, L, 1.0), L, 0, n) == window_reverse(n, g, L)
        # dyadic scale: the row sums are exact, so mod 1 they are the reversal's
        s = reverse_seed(g, L, 2.0**-20)
        assert kernel_sum(s, L, 0, n) % 1.0 == window_reverse(n, g, L) % 2**20 / 2**20

    def test_reverse_seed_scale(self):
        s = reverse_seed(10, 4, 0.25)
        assert digit_sum(s, 4, 0, 1234) == Fraction(4321, 4)
        assert kernel_sum(s, 4, 0, 1234) % 1.0 == 0.25

    def test_unbounded_single_digit_weight(self):
        # one nonzero digit can carry a weight as large as the window allows,
        # unlike per-digit-bounded families such as sod
        assert digit_sum(reverse_seed(2, 20, 1.0), 20, 0, 1) == 2**19
        assert digit_sum(sod_seed(2, 1.0), 20, 0, 1) == 1
        # and its row entry is that weight reduced exactly
        s = reverse_seed(2, 20, 1 / 3)
        assert s.frac_rows(0, 1)[0, 1] == reduced(s, 0, 1) == float(Fraction(1 / 3) * 2**19 % 1)

    def test_table_seed_modes(self):
        # one mode is left: position i past the table reads row i mod 2
        rows = [(0.0, 0.25), (0.5, 0.75)]
        cyc = table_seed(2, rows)
        assert cyc.frac_rows(0, 6)[:, 1].tolist() == [0.25, 0.75] * 3
        assert cyc.frac_rows(3, 1)[0, 0] == rows[1][0] == weight(cyc, 3, 0)
        with pytest.raises(TypeError):
            table_seed(2, rows, extend="zero")

    def test_every_family_checks_its_base(self):
        for g in (1, 0, -2, True, 2.0, None):
            with pytest.raises(ValueError):
                sod_seed(g, 0.3)
            with pytest.raises(ValueError):
                reverse_seed(g, 3, 0.5)
            with pytest.raises(ValueError):
                table_seed(g, [[0.0, 0.5]])
        # a base-0 table of empty rows has one weight per digit, and still fails
        with pytest.raises(ValueError):
            table_seed(0, [[]])

    def test_rows_reject_a_negative_shift(self):
        seeds = [sod_seed(2, 0.5), reverse_seed(2, 5, 0.5), table_seed(2, [[0.0, 0.5]])]
        for s in seeds:
            with pytest.raises(ValueError):
                s.frac_rows(-3, 2)


class TestShift:
    """A shift j is the j argument of frac_rows."""

    def test_zero_shift_is_identity(self):
        # at shift 0, row i is position i
        s = reverse_seed(7, 6, 0.3)
        rows = s.frac_rows(0, 6)
        for n in (0, 1, 6, 48, 7**6 - 1):
            digits = list(enumerate(n // 7**i % 7 for i in range(6)))
            assert [rows[i, d] for i, d in digits] == [reduced(s, i, d) for i, d in digits]

    def test_shift_reads_offset_positions(self):
        s = reverse_seed(10, 6, 1.0)
        rows = s.frac_rows(2, 8)
        for i in range(8):
            for d in range(10):
                # digit d at position i, zeros below: the zero digit weighs 0
                assert digit_sum(s, i + 1, 2, d * 10**i) == weight(s, i + 2, d)
                assert kernel_sum(s, i + 1, 2, d * 10**i) == rows[i, d] == reduced(s, i + 2, d)

    def test_shifts_compose(self):
        s = reverse_seed(2, 12, 1 / 3)
        assert np.array_equal(s.frac_rows(2, 13)[3:], s.frac_rows(5, 10))
        assert np.array_equal(s.frac_rows(0, 15)[5:], s.frac_rows(5, 10))

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3**5 - 1))
    def test_shift_commutes_with_digit_sum(self, j1, j2, n):
        # multiplying n by 3^j1 moves its digits up j1 positions, which is
        # what reading the weights j1 positions further on does
        s = reverse_seed(3, 8, 0.7)
        assert digit_sum(s, 5 + j1, j2, n * 3**j1) == digit_sum(s, 5, j1 + j2, n)
        assert kernel_sum(s, 5 + j1, j2, n * 3**j1) == kernel_sum(s, 5, j1 + j2, n)


class TestDigitSums:
    """The reduced rows, summed over the digits of n, give the digit sum mod 1."""

    @given(
        st.sampled_from([2, 3, 10]),
        st.integers(0, 6),
        st.integers(0, 3),
        st.integers(0, 10**6),
        st.integers(0, 50),
    )
    def test_periodicity(self, g, lam, j, n, t):
        s = reverse_seed(g, 7, 0.37)
        period = g**lam
        n %= period
        got = kernel_sum(s, lam, j, n + period * t)
        assert got == kernel_sum(s, lam, j, n)
        assert dist(got - float(digit_sum(s, lam, j, n) % 1)) <= 1e-12

    def test_block_additivity_exhaustive(self):
        # splitting the digit string at position k splits the sum:
        # f over lam positions at shift j, evaluated at g^k*m + n with
        # n < g^k, equals (lam-k at shift j+k on m) + (k at shift j on n)
        for g, lam in [(2, 6), (3, 5)]:
            seeds = [
                sod_seed(g, 0.3),
                reverse_seed(g, lam + 2, 1 / 7),
                random_table(g, lam + 4, np.random.default_rng(5)),
            ]
            for s in seeds:
                for j in (0, 2):
                    for v in range(g**lam):
                        exact = float(digit_sum(s, lam, j, v) % 1)
                        assert dist(kernel_sum(s, lam, j, v) - exact) <= 1e-12
                    for k in range(lam + 1):
                        for m in range(g ** (lam - k)):
                            for n in range(g**k):
                                whole = kernel_sum(s, lam, j, g**k * m + n)
                                parts = kernel_sum(s, lam - k, j + k, m) + kernel_sum(s, k, j, n)
                                assert abs(whole - parts) <= 1e-12 * (1 + abs(whole))


class TestFrac:
    @given(st.integers(0, 30), st.integers(0, 9))
    def test_sod_frac_exact(self, i, d):
        a = 0.123456789
        s = sod_seed(10, a)
        assert s.frac_rows(i, 1)[0, d] == reduced(s, i, d) == float((Fraction(a) * d) % 1)

    @given(st.integers(0, 40), st.integers(0, 2), st.integers(0, 25))
    def test_reverse_frac_matches_exact_rational(self, i, d, L):
        a = 0.61803398875
        s = reverse_seed(3, L, a)
        expect = (Fraction(a) * d * Fraction(3) ** (L - i - 1)) % 1
        assert s.frac_rows(i, 1)[0, d] == reduced(s, i, d) == float(expect)

    def test_frac_rows_agree_with_frac(self):
        rng = np.random.default_rng(11)
        seeds = [
            sod_seed(4, 0.0),
            sod_seed(4, 0.77),
            reverse_seed(4, 9, 0.31),
            random_table(4, 6, rng),
        ]
        for s in seeds:
            for j in (0, 1, 5):
                rows = s.frac_rows(j, 7)
                assert rows.shape == (7, 4)
                for i in range(7):
                    for d in range(4):
                        assert rows[i, d] == reduced(s, j + i, d)

    @given(
        st.sampled_from([2, 3, 10]),
        st.integers(0, 12),
        st.integers(0, 16),
        st.integers(0, 12),
        st.sampled_from([0.61803398875, -0.2928932188134524, 1 / 3, 2.5, Fraction(5, 7)]),
    )
    def test_reverse_rows_on_both_sides_of_window(self, g, L, j, count, a):
        # rows start inside the window, straddle its end, or lie past it
        s = reverse_seed(g, L, a)
        rows = s.frac_rows(j, count)
        assert rows.shape == (count, g)
        for i in range(count):
            for d in range(g):
                assert rows[i, d] == reduced(s, j + i, d), (i, d)

    @given(
        st.sampled_from([2, 3, 10]),
        st.data(),
        st.one_of(st.integers(0, 40), st.just(2**70 + 1)),
        st.integers(0, 12),
    )
    def test_table_rows_match_frac_bit_for_bit(self, g, data, j, count):
        # shifts run past the table; hex tells -0.0 from +0.0
        weights = st.one_of(
            st.floats(-(2.0**60), 2.0**60, allow_nan=False),
            st.sampled_from([0.0, -0.0, 2.0**60, -(2.0**60), -1e-300, -5e-324]),
        )
        positions = data.draw(st.integers(1, 4))
        row = st.lists(weights, min_size=g, max_size=g)
        s = table_seed(g, data.draw(st.lists(row, min_size=positions, max_size=positions)))
        rows = s.frac_rows(j, count)
        assert rows.shape == (count, g)
        got = [[v.hex() for v in r] for r in rows.tolist()]
        assert got == [[reduced(s, j + i, d).hex() for d in range(g)] for i in range(count)]

    @given(
        st.sampled_from([2, 3, 10]),
        st.integers(0, 5),
        st.sampled_from([0.77, -0.123456789, 3.0, 0.0, Fraction(2, 7)]),
    )
    def test_sod_rows_match_frac(self, g, j, a):
        s = sod_seed(g, a)
        rows = s.frac_rows(j, 3)
        assert rows.shape == (3, g)
        for i in range(3):
            for d in range(g):
                assert rows[i, d] == reduced(s, j + i, d)

    @settings(max_examples=30)
    @given(st.integers(0, 3), st.integers(2, 10))
    def test_frac_in_unit_interval(self, j, g):
        s = reverse_seed(g, 12, 0.9182736455463728)
        rows = s.frac_rows(j, 16)
        assert np.all(rows >= 0.0) and np.all(rows < 1.0)

    def test_large_window_rows_are_cheap_and_exact(self):
        # the bulk path must agree with the per-entry path deep into a
        # window far too large for float powers
        s = reverse_seed(2, 50_000, 0.2928932188134524)
        rows = s.frac_rows(0, 8)
        for i in range(8):
            assert rows[i, 1] == reduced(s, i, 1)

