"""Digit decomposition, reversal, and numeric helper checks."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from revprime.basedigits import (
    BaseContext,
    digit_length,
    digits_of,
    dist,
    e,
    floor_part,
    ilog,
    reverse,
    reverse_array,
    reverse_relative,
)

BASES = [2, 3, 7, 10, 16]


def base(g):
    return BaseContext(g)


def oracle_digits(n, g):
    """Independent digit oracle via string formatting in base g."""
    if n == 0:
        return []
    alphabet = "0123456789abcdefghijklmnopqrstuvwxyz"
    s = []
    while n:
        s.append(alphabet[n % g])
        n //= g
    return [alphabet.index(c) for c in s]


class TestBaseContext:
    def test_rejects_small_base(self):
        with pytest.raises(ValueError):
            BaseContext(1)
        with pytest.raises(ValueError):
            BaseContext(0)

    def test_pow_cache_exact(self):
        ctx = BaseContext(10)
        for i in range(ctx.max_pow + 1):
            assert ctx.pow_cache[i] == 10**i
        assert ctx.power(25) == 10**25

    def test_default_cache_scales_with_base(self):
        assert BaseContext(2).max_pow == 64
        assert BaseContext(10).max_pow < 64


class TestDigits:
    def test_zero_is_empty(self):
        for g in BASES:
            assert len(digits_of(0, base(g))) == 0
            assert digit_length(0, base(g)) == 0

    def test_small_examples(self):
        assert tuple(digits_of(6, base(2))) == (0, 1, 1)
        assert tuple(digits_of(1234, base(10))) == (4, 3, 2, 1)
        assert tuple(digits_of(255, base(16))) == (15, 15)

    @given(st.integers(0, 10**9), st.sampled_from(BASES))
    def test_round_trip(self, n, g):
        ctx = base(g)
        dv = digits_of(n, ctx)
        assert dv.to_int(ctx) == n
        assert list(dv) == oracle_digits(n, g)

    @given(st.integers(1, 10**9), st.sampled_from(BASES))
    def test_no_trailing_zero_and_length(self, n, g):
        ctx = base(g)
        dv = digits_of(n, ctx)
        assert dv[len(dv) - 1] != 0
        assert digit_length(n, ctx) == len(dv)
        assert ctx.power(len(dv) - 1) <= n < ctx.power(len(dv))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            digits_of(-1, base(2))
        with pytest.raises(ValueError):
            reverse(-1, base(2))


class TestReverse:
    def test_examples(self):
        assert reverse(1234, base(10)) == 4321
        assert reverse(6, base(2)) == 3
        assert reverse(0, base(7)) == 0
        assert reverse(1200, base(10)) == 21

    @given(st.integers(0, 10**9), st.sampled_from(BASES))
    def test_matches_digit_oracle(self, n, g):
        # assembling LSB-first digits MSB-first reverses the digit string
        expect = 0
        for d in oracle_digits(n, g):
            expect = expect * g + d
        assert reverse(n, base(g)) == expect

    @given(st.integers(1, 10**9), st.sampled_from(BASES))
    def test_involution_when_unit_digit_nonzero(self, n, g):
        ctx = base(g)
        if n % g != 0:
            assert reverse(reverse(n, ctx), ctx) == n

    @given(st.integers(1, 10**6), st.sampled_from(BASES))
    def test_magnitude_preserved(self, n, g):
        # reversal never grows the digit count
        ctx = base(g)
        assert digit_length(reverse(n, ctx), ctx) <= digit_length(n, ctx)


class TestReverseRelative:
    def test_window_examples(self):
        ctx = base(10)
        assert reverse_relative(1234, 4, ctx) == 4321
        assert reverse_relative(12, 4, ctx) == 2100
        assert reverse_relative(0, 5, ctx) == 0
        assert reverse_relative(7, 0, ctx) == 0

    @given(st.integers(0, 10**8), st.sampled_from(BASES), st.integers(0, 12))
    def test_scaling_identity(self, n, g, L):
        ctx = base(g)
        n %= ctx.power(L)
        length = digit_length(n, ctx)
        assert reverse_relative(n, L, ctx) == reverse(n, ctx) * ctx.power(L - length)

    @given(st.integers(0, 10**9), st.sampled_from(BASES), st.integers(0, 10))
    def test_high_digits_ignored(self, n, g, L):
        ctx = base(g)
        assert reverse_relative(n, L, ctx) == reverse_relative(n % ctx.power(L), L, ctx)

    def test_coincides_with_reverse_on_full_window(self):
        for g, L in [(2, 8), (3, 5), (10, 4)]:
            ctx = base(g)
            lo, hi = ctx.power(L - 1), ctx.power(L)
            step = max(1, (hi - lo) // 200)
            for n in range(lo, hi, step):
                assert reverse_relative(n, L, ctx) == reverse(n, ctx)


class TestReverseArray:
    @given(
        st.lists(st.integers(0, 2**40 - 1), max_size=40),
        st.integers(2, 36),
        st.integers(0, 12),
    )
    def test_matches_scalar_oracles(self, ns, g, L):
        ctx = base(g)
        absolute = reverse_array(ns, g)
        relative = reverse_array(ns, g, L)
        assert absolute.dtype == relative.dtype == np.int64
        assert absolute.tolist() == [reverse(n, ctx) for n in ns]
        assert relative.tolist() == [reverse_relative(n, L, ctx) for n in ns]

    def test_edge_values(self):
        # zero, trailing zeros, and a window shorter than the digit length
        ns = [0, 1200, 1000, 7, 123456]
        assert reverse_array(ns, 10).tolist() == [0, 21, 1, 7, 654321]
        assert reverse_array(ns, 10, 3).tolist() == [0, 2, 0, 700, 654]
        assert reverse_array(ns, 10, 0).tolist() == [0] * 5

    def test_empty_input(self):
        for L in (None, 0, 5):
            out = reverse_array([], 3, L)
            assert out.dtype == np.int64 and out.shape == (0,)

    def test_input_dtypes_agree(self):
        ns = [0, 1, 2, 40, 2**31 + 5, 2**32 - 1]
        want_abs = [reverse(n, base(7)) for n in ns]
        want_rel = [reverse_relative(n, 9, base(7)) for n in ns]
        for values in (ns, np.array(ns, dtype=np.uint32),
                       np.array(ns, dtype=np.int64), np.array(ns, dtype=np.uint64)):
            assert reverse_array(values, 7).tolist() == want_abs
            assert reverse_array(values, 7, 9).tolist() == want_rel

    def test_shape_preserved(self):
        grid = np.arange(12).reshape(3, 4)
        assert reverse_array(grid, 2).shape == (3, 4)
        assert reverse_array(grid, 2, 5).shape == (3, 4)

    def test_relative_form_ignores_digits_beyond_int64(self):
        big = [2**64 - 1, 2**70 + 6]
        ctx = base(2)
        assert reverse_array(np.array(big[:1], dtype=np.uint64), 2, 8).tolist() == [255]
        assert reverse_array(big, 2, 8).tolist() == [
            reverse_relative(n, 8, ctx) for n in big
        ]

    def test_negative_rejected(self):
        for L in (None, 4):
            with pytest.raises(ValueError):
                reverse_array([3, -1], 10, L)
            with pytest.raises(ValueError):
                reverse_array(np.array([-5], dtype=np.int64), 2, L)

    def test_window_overflow_rejected(self):
        assert reverse_array([1], 2, 62).tolist() == [2**61]
        with pytest.raises(ValueError):
            reverse_array([1], 2, 63)
        with pytest.raises(ValueError):
            reverse_array([1], 10, 19)
        assert reverse_array([1], 10, 18).tolist() == [10**17]

    def test_absolute_overflow_rejected(self):
        # 2^62 has 63 binary digits and 2^63 > 2^63 - 1
        assert reverse_array([2**62 - 1], 2).tolist() == [2**62 - 1]
        with pytest.raises(ValueError):
            reverse_array([5, 2**62], 2)
        with pytest.raises(ValueError):
            reverse_array(np.array([2**63], dtype=np.uint64), 2)
        with pytest.raises(ValueError):
            reverse_array([10**18], 10)

    def test_rejects_bad_base_and_window(self):
        with pytest.raises(ValueError):
            reverse_array([1], 1)
        with pytest.raises(ValueError):
            reverse_array([1], 10, -1)
        with pytest.raises(TypeError):
            reverse_array([1.5], 10)


class TestNumericHelpers:
    def test_unit_circle(self):
        assert e(0) == 1
        assert e(0.5) == pytest.approx(-1)
        assert e(0.25) == pytest.approx(1j)

    @given(st.floats(-100, 100))
    def test_circle_modulus_and_period(self, x):
        assert abs(e(x)) == pytest.approx(1.0)
        assert e(x + 1) == pytest.approx(e(x), abs=1e-9)

    def test_dist_examples(self):
        assert dist(0.5) == 0.5
        assert dist(1.25) == 0.25
        assert dist(3.0) == 0.0
        assert dist(-0.3) == pytest.approx(0.3)
        assert dist(2.5) == 0.5

    @given(st.floats(-1e6, 1e6))
    def test_dist_range_and_symmetry(self, x):
        v = dist(x)
        assert 0.0 <= v <= 0.5
        assert dist(-x) == pytest.approx(v)

    def test_floor(self):
        assert floor_part(2.7) == 2
        assert floor_part(-1.5) == -2
        assert floor_part(4.0) == 4

    def test_ilog_boundaries(self):
        for g in BASES:
            for k in range(0, 12):
                assert ilog(g**k, g) == k
                if k:
                    assert ilog(g**k - 1, g) == k - 1
        assert ilog(10**15, 10) == 15
        assert ilog(math.pi, 3) == 1
