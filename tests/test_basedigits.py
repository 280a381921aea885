"""Digit decomposition, reversal, and numeric helper checks."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from revprime import basedigits
from revprime.basedigits import check_base, dist, ilog, power_residues, reverse, reverse_chunks
from revprime.revcount import zero_density_strays

from oracles import window_reverse

BASES = [2, 3, 7, 10, 16]


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


def chunk_reverse(ns, g, L):
    """The reversal of each entry of ns within L digits, read chunk by
    chunk from reverse_chunks as the counts of revcount read it."""
    values = np.array(ns, dtype=np.int64)
    out = []
    for lo, revs, _ in reverse_chunks(values, g, L):
        assert lo == len(out) and revs.dtype == np.int64
        out += revs.tolist()
    assert len(out) == values.size
    return out


def plain_reverse(n, g):
    """The plain reversal of n: reverse_chunks over its full digit length."""
    return chunk_reverse([n], g, len(oracle_digits(n, g)))[0]


class TestCheckBase:
    BAD = (1, 0, -10, 2.0, 10.0, "10", None, np.int64(10))

    def test_rejects_small_base(self):
        for g in self.BAD:
            with pytest.raises(ValueError):
                check_base(g)
        for g in (2, 3, 10, 2**70):
            check_base(g)

    def test_every_reversal_checks_its_base(self):
        # reverse_chunks takes a checked base; its callers check it
        for g in self.BAD:
            with pytest.raises(ValueError):
                reverse(5, g)
            with pytest.raises(ValueError):
                zero_density_strays(g, 3, 5, 7)


class TestDigits:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            reverse(-1, 2)


class TestReverse:
    """The plain reversal: reverse_chunks with L the digit length of n."""

    def test_examples(self):
        assert plain_reverse(1234, 10) == 4321
        assert plain_reverse(6, 2) == 3
        assert plain_reverse(0, 7) == 0
        assert plain_reverse(1200, 10) == 21

    @given(st.integers(0, 10**9), st.sampled_from(BASES))
    def test_matches_digit_oracle(self, n, g):
        assert plain_reverse(n, g) == reverse(n, g) == window_reverse(n, g)

    @given(st.integers(1, 10**9), st.sampled_from(BASES))
    def test_involution_when_unit_digit_nonzero(self, n, g):
        if n % g != 0:
            assert plain_reverse(plain_reverse(n, g), g) == n

    @given(st.integers(1, 10**6), st.sampled_from(BASES))
    def test_magnitude_preserved(self, n, g):
        # reversal never grows the digit count
        assert len(oracle_digits(plain_reverse(n, g), g)) <= len(oracle_digits(n, g))


class TestReverseArrayWindow:
    """The window-relative reversal of an array, from reverse_chunks,
    against the plain reversal."""

    def test_window_examples(self):
        assert chunk_reverse([1234, 12, 0], 10, 4) == [4321, 2100, 0]
        assert chunk_reverse([0], 10, 5) == [0]
        assert chunk_reverse([7], 10, 0) == [0]

    @given(st.integers(0, 10**8), st.sampled_from(BASES), st.integers(0, 12))
    def test_scaling_identity(self, n, g, L):
        n %= g**L
        length = len(oracle_digits(n, g))
        assert chunk_reverse([n], g, L) == [window_reverse(n, g) * g ** (L - length)]

    @given(st.integers(0, 10**9), st.sampled_from(BASES), st.integers(0, 10))
    def test_high_digits_ignored(self, n, g, L):
        assert chunk_reverse([n], g, L) == chunk_reverse([n % g**L], g, L)

    def test_coincides_with_reverse_on_full_window(self):
        for g, L in [(2, 8), (3, 5), (10, 4)]:
            lo, hi = g ** (L - 1), g**L
            ns = range(lo, hi, max(1, (hi - lo) // 200))
            assert chunk_reverse(ns, g, L) == [window_reverse(n, g) for n in ns]


class TestReverseArray:
    """reverse_chunks over whole arrays against the scalar oracle."""

    @given(
        st.lists(st.integers(0, 2**40 - 1), max_size=40),
        st.integers(2, 36),
        st.integers(0, 12),
    )
    def test_matches_scalar_oracles(self, ns, g, L):
        assert chunk_reverse(ns, g, L) == [window_reverse(n, g, L) for n in ns]

    def test_edge_values(self):
        # zero, trailing zeros, and a window shorter than the digit length
        ns = [0, 1200, 1000, 7, 123456]
        assert chunk_reverse(ns, 10, 3) == [0, 2, 0, 700, 654]
        assert chunk_reverse(ns, 10, 0) == [0] * 5

    def test_empty_input(self):
        # nothing to reverse yields no chunk, even where g^L overflows int64
        for L in (0, 5, 64):
            assert list(reverse_chunks(np.zeros(0, dtype=np.int64), 3, L)) == []

    def test_window_overflow_rejected(self):
        assert chunk_reverse([1], 2, 62) == [2**61]
        with pytest.raises(ValueError):
            chunk_reverse([1], 2, 63)
        with pytest.raises(ValueError):
            chunk_reverse([1], 10, 19)
        assert chunk_reverse([1], 10, 18) == [10**17]


# every base up to 36, both sides of the table cap and of its square
# root, and bases so large that a table of g entries would be megabytes
CAP = basedigits._TABLE_ENTRIES
ROOT = math.isqrt(CAP)
BLOCK_BASES = [*range(2, 37), ROOT - 1, ROOT, ROOT + 1, CAP - 1, CAP, CAP + 1, 2**20, 10**6]


def block_digits(g):
    """The digits reversed per step: the largest k >= 1 with g^k <= CAP, or 1."""
    k = 1
    while g ** (k + 1) <= CAP:
        k += 1
    return k


def int64_width(g):
    """The widest window whose powers stay below 2^63."""
    w = 0
    while g ** (w + 1) <= 2**63 - 1:
        w += 1
    return w


def block_widths(g):
    """Widths k - 1, k, k + 1, 2k and the int64 limit of g, where they fit."""
    k = block_digits(g)
    top = int64_width(g)
    return sorted({w for w in (k - 1, k, k + 1, 2 * k, top) if 0 <= w <= top})


@st.composite
def block_cases(draw):
    g = draw(st.sampled_from(BLOCK_BASES))
    L = draw(st.sampled_from(block_widths(g)))
    # entries inside the window and entries with digits beyond it
    ns = draw(st.lists(st.integers(0, g**L - 1) | st.integers(0, 2**63 - 1), min_size=1, max_size=24))
    return g, L, ns


class TestReverseArrayBlocks:
    """Digit-block reversal against the scalar oracles at every block edge."""

    @given(block_cases())
    def test_matches_scalar_oracles(self, case):
        g, L, ns = case
        assert chunk_reverse(ns, g, L) == [window_reverse(n, g, L) for n in ns]

    def test_every_base_and_width(self):
        rng = random.Random(13)
        for g in BLOCK_BASES:
            for L in block_widths(g):
                top = g**L - 1
                ns = [0, 1, g - 1, top, max(top - 1, 0), top // g, g ** max(L - 1, 0)]
                ns += [rng.randrange(g**L) for _ in range(8)] + [rng.randrange(2**63) for _ in range(4)]
                got = chunk_reverse(ns, g, L)
                assert got == [window_reverse(n, g, L) for n in ns], (g, L)
                # entries all below g^L skip the last step's divide; g^L does not
                inside = [n for n in ns if n <= top]
                got = chunk_reverse(inside, g, L)
                assert got == [window_reverse(n, g, L) for n in inside], (g, L)
                edge = chunk_reverse([top, top + 1], g, L)
                assert edge == [window_reverse(n, g, L) for n in (top, top + 1)]

    def test_chunk_edges(self):
        # chunks of 1, 7 and 64 entries, and 840 = 13 * 64 + 8 leaves a
        # short last chunk
        for g in (2, 10, 64, 65, 4097):
            ns = list(range(0, 6000, 7))[:840]
            L = block_digits(g) + 1
            want = [window_reverse(n, g, L) for n in ns]
            for chunk in (1, 7, 64, basedigits._CHUNK):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(basedigits, "_CHUNK", chunk)
                    assert chunk_reverse(ns, g, L) == want, chunk

    def test_block_tables_are_shared_and_read_only(self):
        # the census reverses every chunk through the same cached table
        table = basedigits._block_table(10, 3)
        assert table is basedigits._block_table(10, 3)
        assert table.tolist() == [window_reverse(x, 10, 3) for x in range(1000)]
        with pytest.raises(ValueError):
            table[0] = 1

    def test_large_base_builds_no_table(self):
        # g = 10^6 reverses one digit per step; a table of g int64 entries
        # would take 8 MB
        g = 10**6
        ns = [0, 1, 5 * g + 7, g**3 - 1, 123 * g**2 + 45]
        chunk_reverse(ns, g, 3)
        tracemalloc.start()
        try:
            got = chunk_reverse(ns, g, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == [window_reverse(n, g, 3) for n in ns]
        assert peak < g


class TestNumericHelpers:
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

    def test_ilog_boundaries(self):
        for g in BASES:
            for k in range(0, 12):
                assert ilog(g**k, g) == k
                if k:
                    assert ilog(g**k - 1, g) == k - 1
        assert ilog(10**15, 10) == 15
        assert ilog(math.pi, 3) == 1

    def test_ilog_beyond_float_range(self):
        assert ilog(10**400, 10) == 400
        assert ilog(10**400, 2) == 1328
        for g in (2, 3, 10):
            for k in range(0, 1101):
                assert ilog(g**k, g) == k
                if k:
                    assert ilog(g**k - 1, g) == k - 1
                    assert ilog(g**k + 1, g) == k

    def test_ilog_of_fractions(self):
        assert ilog(Fraction(1), 2) == 0
        assert ilog(Fraction(7, 2), 3) == 1
        assert ilog(Fraction(9, 1), 3) == 2
        assert ilog(Fraction(26, 3), 3) == 1
        assert ilog(Fraction(10**500 + 1, 10**100), 10) == 400
        assert ilog(Fraction(10**500 - 1, 10**100), 10) == 399
        with pytest.raises(ValueError):
            ilog(Fraction(1, 2), 2)


class TestPowerResidues:
    @staticmethod
    def oracle(scale, g, count):
        return [(scale * g**i) % 1 for i in range(count)]

    @given(
        st.integers(-(10**30), 10**30),
        st.sampled_from([1, 7]) | st.integers(1, 10**30),
        st.integers(2, 36),
        st.integers(0, 60),
    )
    def test_matches_fraction_ladder(self, num, den, g, count):
        got = power_residues(num, den, g, count)
        assert len(got) == count
        assert all(0 <= r < den for r in got)
        assert [Fraction(r, den) for r in got] == self.oracle(Fraction(num, den), g, count)

    @given(st.fractions(), st.sampled_from([2, 3, 10]), st.integers(0, 40))
    def test_fraction_scale(self, scale, g, count):
        num, den = scale.as_integer_ratio()
        got = power_residues(num, den, g, count)
        assert [Fraction(r, den) for r in got] == self.oracle(scale, g, count)

    def test_edge_cases(self):
        assert power_residues(5, 1, 10, 4) == [0, 0, 0, 0]
        assert power_residues(-1, 7, 10, 7) == [6, 4, 5, 1, 3, 2, 6]
        assert power_residues(3, 7, 10, 0) == []
        # a double's ladder stays exact long after float products lose it
        num, den = (1 / 3).as_integer_ratio()
        assert power_residues(num, den, 2, 60)[54] == 0
        with pytest.raises(ValueError):
            power_residues(1, 0, 2, 3)
        with pytest.raises(ValueError):
            power_residues(1, 3, 2, -1)
