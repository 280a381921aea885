"""The sieve and the four-term von Mangoldt split.

Oracles here use trial division (tests/oracles.py), the masked-write
factor sieve the table used to store and the plain odd-only sieve
without wheel or segments, so they share no code with the sieve they
check.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revprime import arith, cli, revcount
from revprime.arith import (
    DEFAULT_MAX_LIMIT,
    SieveBudgetError,
    build_table,
    mangoldt_array,
    mobius_values,
    vaughan_arrays,
)

from oracles import (
    bits,
    factorize,
    mangoldt,
    mangoldt_tail,
    mobius,
    mobius_mangoldt_window,
    vaughan_terms,
)

LIMIT = 10**5


def oracle_sieve_spf(limit):
    """The masked-write smallest-prime-factor sieve the table once stored."""
    spf = np.zeros(limit + 1, dtype=np.uint32)
    if limit >= 2:
        spf[2::2] = 2
    for p in range(3, math.isqrt(limit) + 1, 2):
        if spf[p] == 0:
            spf[p] = p
            seg = spf[p * p :: 2 * p]
            seg[seg == 0] = p
    rest = np.flatnonzero(spf[3:] == 0) + 3
    spf[rest] = rest
    return spf


def oracle_sieve_odd(limit):
    """The plain odd-only sieve: odd[i] is True exactly when 2i + 1 is a prime <= limit."""
    odd = np.ones((limit + 1) // 2, dtype=bool)
    odd[0] = False
    for p in range(3, math.isqrt(limit) + 1, 2):
        if odd[p // 2]:
            odd[p * p // 2 :: p] = False
    return odd


def oracle_odd_primes(limit):
    return np.concatenate(([2], 2 * np.flatnonzero(oracle_sieve_odd(limit)) + 1)).astype(np.int64)


def oracle_primes(spf):
    n = np.arange(spf.size)
    return n[(n >= 2) & (spf == n)].astype(np.int64)


class TestSieve:
    def test_known_prime_counts(self, primes):
        assert primes.size == 9592
        for limit, count in ((10**4, 1229), (10**3, 168), (100, 25), (2, 1)):
            assert build_table(limit).size == count

    def test_trial_division_sample(self, primes):
        rng = np.random.default_rng(20260818)
        for n in rng.integers(2, LIMIT + 1, size=1000):
            n = int(n)
            f = factorize(n)
            assert (n in primes) == (len(f) == 1 and f[0][1] == 1)

    def test_prime_fixed_points(self, primes):
        for p in (2, 3, 5, 7, 11, 97, 65537):
            assert p in primes
        for n in (4, 9, 15, 1001, 65536):
            assert n not in primes

    def test_prime_powers_match_factorization(self, primes):
        for top in (1, 2, 3, 4, 97, 1000, 1024, 2**16 - 1):
            values, bases = arith.prime_powers(primes[primes <= top], top)
            want = set()
            for n in range(2, top + 1):
                f = factorize(n)
                if len(f) == 1:
                    want.add((n, f[0][0]))
            got = list(zip(values.tolist(), bases.tolist()))
            assert len(got) == len(want) and set(got) == want
            # level by level: the primes come first, in order
            level_one = sorted(p for n, p in want if n == p)
            assert [n for n, _ in got[: len(level_one)]] == level_one

    def test_mangoldt_examples(self):
        lam = mangoldt_array(100)
        assert lam[9] == math.log(3)
        assert lam[8] == math.log(2)
        assert lam[97] == math.log(97)
        assert lam[12] == 0.0
        assert lam[1] == 0.0

    def test_mobius_examples(self):
        assert mobius_values(np.array([12, 10, 30, 1, 2])).tolist() == [0, 1, -1, 1, -1]

    def test_mangoldt_divisor_sum_is_log(self):
        # sum over d | n of Lambda(d) is log n, for every n up to LIMIT
        lam = mangoldt_array(LIMIT)
        total = np.zeros(LIMIT + 1)
        for d in np.flatnonzero(lam):
            total[d::d] += lam[d]
        log = np.array([math.log(n) for n in range(1, LIMIT + 1)])
        assert np.abs(total[1:] - log).max() <= 1e-9

    def test_query_range(self, monkeypatch):
        # each query sieves its own primes, so any reach inside the sieve
        # budget answers; a reach past it, or an entry below 1, raises
        # before any sieve runs
        assert mobius_values(np.array([LIMIT + 3])).tolist() == [mobius(LIMIT + 3)]
        assert mangoldt_array(LIMIT + 3)[-1] == mangoldt(LIMIT + 3)

        def refuse(*args, **kwargs):
            raise AssertionError("sieved before the range check")

        monkeypatch.setattr(arith, "prime_segments", refuse)
        for reach in (DEFAULT_MAX_LIMIT + 1, 2**63 - 1):
            with pytest.raises(SieveBudgetError):
                mobius_values(np.array([2, reach]))
            with pytest.raises(SieveBudgetError):
                mangoldt_array(reach)
            with pytest.raises(SieveBudgetError):
                vaughan_arrays(2.0, reach)
        with pytest.raises(ValueError):
            mobius_values(np.array([0, 5]))

    def test_budget_error(self):
        with pytest.raises(SieveBudgetError):
            build_table(DEFAULT_MAX_LIMIT + 1)
        with pytest.raises(ValueError):
            build_table(1)


# limits of every parity, and p^2 - 1, p^2, p^2 + 1, where the sieve's
# last prime starts or stops marking
sieve_limits = st.one_of(
    st.integers(2, 5000),
    st.builds(
        lambda p, d: p * p + d,
        st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67]),
        st.sampled_from([-1, 0, 1]),
    ),
)


class TestSieveOracle:
    @settings(max_examples=60, deadline=None)
    @given(sieve_limits)
    @example(2)
    @example(3)
    @example(4)
    def test_tables_equal_oracle_sieve(self, limit):
        spf = oracle_sieve_spf(limit)
        assert build_table(limit).tobytes() == oracle_primes(spf).tobytes()

    def test_two_to_the_twenty(self):
        limit = 1 << 20
        primes = build_table(limit)
        spf = oracle_sieve_spf(limit)
        assert primes.size == 82025
        assert primes.tobytes() == oracle_primes(spf).tobytes()
        rng = np.random.default_rng(20)
        picks = np.concatenate([rng.integers(2, limit + 1, size=2000), np.arange(limit - 200, limit + 1)])
        for n in picks.tolist():
            least = factorize(n)[0][0]
            assert (n in primes) == (least == n)

    def test_each_command_sieves_only_what_it_reads(self, monkeypatch, tmp_path):
        # --sieve-limit is a ceiling, not a size: verify's sieved suites
        # read at most 10^4 at their defaults and the census its windows
        stops = []
        sieve = arith.prime_segments

        def recorded(start, stop):
            stops.append(stop)
            return sieve(start, stop)

        monkeypatch.setattr(arith, "prime_segments", recorded)
        monkeypatch.setattr(revcount, "prime_segments", recorded)
        out = tmp_path / "verify.jsonl"
        assert cli.main(["verify", "vaughan", "type-ii", "prime-exp-sum", "--out", str(out)]) == 0
        assert stops and max(stops) <= 10**4 + 1
        stops.clear()
        out = tmp_path / "census.csv"
        argv = ["census", "--g", "10", "--L", "3,4", "--q", "3,9", "--out", str(out)]
        assert cli.main(argv) == 0
        assert len(out.read_text().splitlines()) == 2 + 2 * (3 + 9)
        assert stops and max(stops) <= 10**4


# segment lengths small enough that a limit of a few thousand crosses
# many segment edges, and primes outgrow a segment
SEGMENTS = (1, 7, 64, 1000)
# below 17^2 = 289 only the wheel strikes; then p^2 - 1, p^2, p^2 + 1
# for every p up to 67, where a sieving prime starts or stops striking
EDGE_LIMITS = sorted(
    {3, 13, 168, 169, 170, 288, 289, 290}
    | {p * p + d for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                           59, 61, 67) for d in (-1, 0, 1)}
)


# range ends: 0 to 3, the wheel primes, p^2 - 1, p^2 and p^2 + 1 for the
# primes up to 67, and anything up to 5000
range_ends = st.one_of(
    st.sampled_from([0, 1, 2, 3, 5, 7, 11, 13]),
    st.builds(
        lambda p, d: p * p + d,
        st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67]),
        st.sampled_from([-1, 0, 1]),
    ),
    st.integers(0, 5000),
)


def segmented(limit, segment):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_SEGMENT", segment)
        return build_table(limit)


class TestSegmentedSieve:
    # segments of 1 and 7 flags are shorter than the wheel primes' indices
    # 1..6, which must then be set back inside whichever segment holds them

    @pytest.mark.parametrize("segment", SEGMENTS)
    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 5000))
    def test_random_limits_equal_oracle(self, segment, limit):
        primes = segmented(limit, segment)
        assert primes.dtype == np.int64
        assert primes.tobytes() == oracle_odd_primes(limit).tobytes()

    @pytest.mark.parametrize("segment", SEGMENTS)
    def test_edge_limits_equal_oracle(self, segment):
        for limit in EDGE_LIMITS:
            assert segmented(limit, segment).tobytes() == oracle_odd_primes(limit).tobytes(), limit

    @pytest.mark.parametrize("segment", SEGMENTS)
    @settings(max_examples=50, deadline=None)
    @given(range_ends, range_ends)
    @example(0, 2)
    @example(2, 3)
    @example(3, 3)
    @example(290, 289)
    def test_random_ranges_equal_oracle(self, segment, start, stop):
        # the window sieve: each prime strikes from its first odd multiple
        # at or above max(p^2, start), and 2 is its own run
        want = oracle_odd_primes(max(stop - 1, 2))
        want = want[(want >= start) & (want < stop)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_SEGMENT", segment)
            runs = list(arith.prime_segments(start, stop))
        assert all(run.dtype == np.int64 for run in runs)
        got = np.concatenate([np.zeros(0, dtype=np.int64), *runs])
        assert got.tobytes() == want.tobytes(), (start, stop)

    @pytest.mark.parametrize("limit", [2**21 - 1, 2**21, 2**21 + 1, 2**22 + 3, 10**7])
    def test_real_sizes_equal_oracle(self, limit):
        # at 2^20-entry segments, 2^21 - 1 and 2^21 end on a full segment,
        # 2^21 + 1 on a one-entry one and 2^22 + 3 on a two-entry one
        assert build_table(limit).tobytes() == oracle_odd_primes(limit).tobytes()

    def test_allocation_peak_at_two_to_the_24(self):
        # 1,077,871 primes take 8.6 MB, allocated to the Rosser-Schoenfeld
        # bound (10.1 MB); a bitmap of every odd number would add 8.4 MB
        build_table(2**24)
        tracemalloc.start()
        try:
            primes = build_table(2**24)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert primes.size == 1_077_871
        assert peak < 15 * 2**20, peak


class TestVaughan:
    def test_identity_exact_sweep(self):
        top = 10**4
        lam = np.array([mangoldt(n) for n in range(1, top + 1)])
        for z in (2.0, 5.0, 50.0):
            va = vaughan_arrays(z, top)
            assert np.abs(va.total[1:] - lam).max() <= 1e-9, z
        # the fourth-root cut moves with n, so it is split one n at a time
        for n in range(1, top + 1):
            assert abs(sum(vaughan_terms(n, n**0.25)) - lam[n - 1]) <= 1e-9, n

    def test_components_match_brute_force(self):
        # arith's per-n views, entry n of vaughan_arrays(z, n),
        # against the trial-division oracle.  Each view builds the arrays
        # up to n, so the two one-field views are held at the first 50 n
        # only: test_arrays_equal_oracles holds every array entry.
        rng = np.random.default_rng(20260818)
        for i, n in enumerate(rng.integers(1, 5001, size=300)):
            n = int(n)
            for z in (2.0, 7.5, 50.0):
                got = arith.vaughan_terms(n, z)
                assert bits(got) == bits(vaughan_terms(n, z)), (n, z)
                if i < 50:
                    tail = arith.mangoldt_tail(n, z)
                    window = arith.mobius_mangoldt_window(n, z)
                    assert bits([tail]) == bits([mangoldt_tail(n, z)]), (n, z)
                    assert bits([window]) == bits([mobius_mangoldt_window(n, z)]), (n, z)

    def test_unit_input(self):
        va = vaughan_arrays(10.0, 1)
        assert va.a1[1] == va.a2[1] == va.a3[1] == va.a4[1] == 0.0

    def test_prime_below_threshold(self):
        va = vaughan_arrays(100.0, 97)
        assert va.a4[97] == math.log(97)
        assert va.total[97] == pytest.approx(math.log(97), abs=1e-12)

    def test_coefficient_caps(self):
        for z in (5.0, 50.0):
            va = vaughan_arrays(z, 10**4)
            logn = va.log[2:]
            tail = va.mangoldt_tail[2:]
            assert (tail >= 0.0).all() and (tail <= logn + 1e-12).all()
            assert (np.abs(va.mobius_mangoldt_window[2:]) <= logn + 1e-12).all()

    def test_window_support(self):
        # the window vanishes for every n > z^2 = 49
        va = vaughan_arrays(7.0, 1999)
        assert (va.mobius_mangoldt_window[50:] == 0.0).all()

    def test_tail_vanishes_below_threshold(self):
        for n in range(1, 200):
            assert (vaughan_arrays(float(n), n).mangoldt_tail == 0.0).all()

    def test_validation(self):
        # z = 0 is in TestVaughanArrays; a NaN threshold fails every comparison
        for z in (-2.0, -math.inf, math.nan):
            with pytest.raises(ValueError, match="threshold z must be positive"):
                vaughan_arrays(z, 10)
        with pytest.raises(ValueError):
            arith.vaughan_terms(0, 2.0)
        with pytest.raises(SieveBudgetError):
            arith.vaughan_terms(DEFAULT_MAX_LIMIT + 1, 2.0)
        with pytest.raises(ValueError):
            arith.vaughan_terms(10, 0.0)


# thresholds: non-integers, z < 1, z = 1, and z^2 beyond any top drawn
thresholds = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 60.0, 3000.0]),
    st.floats(min_value=0.01, max_value=120.0, allow_nan=False),
)


class TestVaughanArrays:
    @settings(max_examples=30, deadline=None)
    @given(top=st.integers(1, 3000), z=thresholds)
    @example(top=5000, z=7.5)
    def test_arrays_equal_oracles(self, top, z):
        va = vaughan_arrays(z, top)
        ns = range(1, top + 1)
        terms = [vaughan_terms(n, z) for n in ns]
        for i, field in enumerate(("a1", "a2", "a3", "a4")):
            assert bits(getattr(va, field)[1:]) == bits([t[i] for t in terms]), field
        assert bits(va.total[1:]) == bits([a1 + a2 + a3 + a4 for a1, a2, a3, a4 in terms])
        assert bits(va.mangoldt_tail[1:]) == bits([mangoldt_tail(n, z) for n in ns])
        assert bits(va.mobius_mangoldt_window[1:]) == bits(
            [mobius_mangoldt_window(n, z) for n in ns]
        )
        assert bits(va.mobius[1:]) == bits([mobius(n) for n in ns])
        assert bits(va.mangoldt[1:]) == bits([mangoldt(n) for n in ns])
        assert bits(va.log[1:]) == bits([math.log(n) for n in ns])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, LIMIT), max_size=200), st.integers(1, LIMIT))
    def test_tables_equal_scalar_queries(self, values, top):
        assert mobius_values(np.array(values, dtype=np.int64)).tolist() == [
            mobius(n) for n in values
        ]
        lam = mangoldt_array(top)
        picks = [0, 1, top] + [v for v in values if v <= top]
        assert bits(lam[picks]) == bits([0.0] + [mangoldt(n) for n in picks[1:]])

    def test_log_table_is_math_log(self):
        # reaches past 9170, where np.log and math.log part in the last bit
        top = 10**4
        log = vaughan_arrays(10.0, top).log
        assert bits(log[1:]) == bits([math.log(n) for n in range(1, top + 1)])

    def test_validation(self):
        with pytest.raises(ValueError):
            vaughan_arrays(2.0, 0)
        with pytest.raises(SieveBudgetError):
            vaughan_arrays(2.0, DEFAULT_MAX_LIMIT + 1)
        with pytest.raises(ValueError):
            vaughan_arrays(0.0, 10)
        with pytest.raises(ValueError):
            mobius_values(np.array([0, 5]))
        with pytest.raises(SieveBudgetError):
            mobius_values(np.array([DEFAULT_MAX_LIMIT + 1]))
        with pytest.raises(ValueError):
            mangoldt_array(0)


# range ends at p^2 - 1, p^2 and p^2 + 1, where p starts to sieve (p <=
# sqrt(hi)) and to zero, and anything up to 10^4
mobius_ends = st.one_of(
    st.builds(
        lambda p, d: p * p + d,
        st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
                         67, 71, 73, 79, 83, 89, 97]),
        st.sampled_from([-1, 0, 1]),
    ),
    st.integers(2, 10**4),
)


class TestMobiusSieve:
    @settings(max_examples=100, deadline=None)
    @given(end=mobius_ends, span=st.integers(0, 300), end_is_lo=st.booleans())
    @example(end=9, span=0, end_is_lo=True)  # 3^2 alone: p = sqrt(hi) must zero it
    @example(end=10, span=0, end_is_lo=True)  # 2 * 5, with 5 above sqrt(10)
    @example(end=9409, span=0, end_is_lo=False)  # 97^2 alone
    @example(end=9997, span=0, end_is_lo=True)  # 13 * 769, with 769 above sqrt(9997)
    def test_ranges_above_one_equal_oracle(self, end, span, end_is_lo):
        # a contiguous range [lo, hi] with lo > 1: the sieve starts each
        # prime at its first multiple at or above lo, and an entry whose one
        # large prime factor lies above sqrt(hi) takes the last flip
        lo, hi = (end, end + span) if end_is_lo else (max(2, end - span), end)
        n = np.arange(lo, hi + 1)
        got = mobius_values(n)
        assert got.dtype == np.int8
        assert got.tolist() == [mobius(v) for v in range(lo, hi + 1)], (lo, hi)
        assert mobius_values(n[::-1]).tolist() == got[::-1].tolist()
