"""Sieve table and the four-term von Mangoldt split.

Oracles here use trial division (tests/oracles.py), the masked-write
factor sieve the table used to store and the plain odd-only sieve
without wheel or segments, so they share no code with the sieve they
check.
"""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revprime import arith, cli
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
    divisors,
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
    def test_known_prime_counts(self, table):
        assert table.prime_count(10**5) == 9592
        assert table.prime_count(10**4) == 1229
        assert table.prime_count(10**3) == 168
        assert table.prime_count(100) == 25
        assert table.prime_count(1) == 0

    def test_trial_division_sample(self, table):
        rng = np.random.default_rng(20260818)
        for n in rng.integers(2, LIMIT + 1, size=1000):
            n = int(n)
            f = factorize(n)
            assert table.factorize(n) == f
            assert (n in table.primes) == (len(f) == 1 and f[0][1] == 1)
            assert int(table.smallest_prime_factor[n]) == f[0][0]

    def test_prime_fixed_points(self, table):
        for p in (2, 3, 5, 7, 11, 97, 65537):
            assert p in table.primes
            assert int(table.smallest_prime_factor[p]) == p
        for n in (4, 9, 15, 1001, 65536):
            assert n not in table.primes

    def test_prime_powers_match_factorization(self, table):
        for top in (1, 2, 3, 4, 97, 1000, 1024, 2**16 - 1):
            values, bases = table.prime_powers(top)
            want = set()
            for n in range(2, top + 1):
                f = factorize(n)
                if len(f) == 1:
                    want.add((n, f[0][0]))
            got = list(zip(values.tolist(), bases.tolist()))
            assert len(got) == len(want) and set(got) == want
            # level by level: the primes come first, in order
            primes = sorted(p for n, p in want if n == p)
            assert [n for n, _ in got[: len(primes)]] == primes

    def test_mangoldt_examples(self, table):
        lam = mangoldt_array(table, 100)
        assert lam[9] == math.log(3)
        assert lam[8] == math.log(2)
        assert lam[97] == math.log(97)
        assert lam[12] == 0.0
        assert lam[1] == 0.0

    def test_mobius_examples(self, table):
        assert mobius_values(table, np.array([12, 10, 30, 1, 2])).tolist() == [0, 1, -1, 1, -1]

    def test_mangoldt_divisor_sum_is_log(self, table):
        # sum over d | n of Lambda(d) is log n, for every n the table covers
        lam = mangoldt_array(table, LIMIT)
        total = np.zeros(LIMIT + 1)
        for d in np.flatnonzero(lam):
            total[d::d] += lam[d]
        log = np.array([math.log(n) for n in range(1, LIMIT + 1)])
        assert np.abs(total[1:] - log).max() <= 1e-9

    def test_divisors_sorted_and_complete(self, table):
        for n in range(1, 500):
            assert list(table.divisors(n)) == divisors(n)

    def test_query_range(self, table):
        # the table's last entry answers and the next one raises
        assert mobius_values(table, np.array([LIMIT])).tolist() == [mobius(LIMIT)]
        with pytest.raises(ValueError):
            mobius_values(table, np.array([LIMIT + 1]))
        with pytest.raises(ValueError):
            mangoldt_array(table, LIMIT + 1)
        assert table.prime_count(LIMIT) == 9592
        with pytest.raises(ValueError):
            table.prime_count(LIMIT + 0.5 + 1)
        with pytest.raises(ValueError):
            table.mangoldt(0)
        with pytest.raises(ValueError):
            table.mobius(LIMIT + 1)

    def test_budget_error(self):
        with pytest.raises(SieveBudgetError):
            build_table(DEFAULT_MAX_LIMIT + 1)
        with pytest.raises(ValueError):
            build_table(1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=LIMIT))
    def test_factorize_reassembles(self, table, n):
        # chasing the smallest prime factor walks n's factors in ascending order
        spf = table.smallest_prime_factor
        chain, rest = [], n
        while rest > 1:
            chain.append(int(spf[rest]))
            rest //= chain[-1]
        assert math.prod(chain) == n
        assert chain == [p for p, e in factorize(n) for _ in range(e)]


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
        pt = build_table(limit)
        spf = oracle_sieve_spf(limit)
        assert pt.primes.tobytes() == oracle_primes(spf).tobytes()
        assert pt.smallest_prime_factor.tobytes() == spf.tobytes()
        assert pt.smallest_prime_factor.tolist()[2:] == [
            factorize(n)[0][0] for n in range(2, limit + 1)
        ]

    def test_two_to_the_twenty(self):
        limit = 1 << 20
        pt = build_table(limit)
        spf = oracle_sieve_spf(limit)
        assert pt.primes.size == 82025
        assert pt.primes.tobytes() == oracle_primes(spf).tobytes()
        assert pt.smallest_prime_factor.tobytes() == spf.tobytes()
        rng = np.random.default_rng(20)
        picks = np.concatenate([rng.integers(2, limit + 1, size=2000), np.arange(limit - 200, limit + 1)])
        for n in picks.tolist():
            least = factorize(n)[0][0]
            assert int(pt.smallest_prime_factor[n]) == least
            assert (n in pt.primes) == (least == n)

    def test_census_never_builds_factor_table(self, monkeypatch, tmp_path):
        # the census sieves only its windows: it builds no PrimeTable, so
        # no factor table either
        def refuse(*args, **kwargs):
            raise AssertionError("the census built a table")

        monkeypatch.setattr(arith, "build_table", refuse)
        monkeypatch.setattr(arith.PrimeTable, "__init__", refuse)
        out = tmp_path / "census.csv"
        argv = ["census", "--g", "10", "--L", "3,4", "--q", "3,9", "--out", str(out)]
        assert cli.main(argv) == 0
        assert len(out.read_text().splitlines()) == 2 + 2 * (3 + 9)

    def test_concurrent_first_reads_share_one_table(self, monkeypatch):
        pt = build_table(1 << 18)
        builds = []
        build = type(pt)._factor_table

        def counted(self):
            builds.append(threading.get_ident())
            return build(self)

        monkeypatch.setattr(type(pt), "_factor_table", counted)
        workers = 4
        barrier = threading.Barrier(workers)
        seen = [None] * workers

        def read(i):
            barrier.wait(timeout=30)
            seen[i] = pt.smallest_prime_factor

        threads = [threading.Thread(target=read, args=(i,)) for i in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(builds) == 1
        want = oracle_sieve_spf(1 << 18).tobytes()
        assert all(table is seen[0] for table in seen)
        assert all(table.tobytes() == want for table in seen)


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
        return build_table(limit).primes


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
        assert build_table(limit).primes.tobytes() == oracle_odd_primes(limit).tobytes()

    def test_allocation_peak_at_two_to_the_24(self):
        # 1,077,871 primes take 8.6 MB, allocated to the Rosser-Schoenfeld
        # bound (10.1 MB); a bitmap of every odd number would add 8.4 MB
        build_table(2**24)
        tracemalloc.start()
        try:
            pt = build_table(2**24)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pt.primes.size == 1_077_871
        assert peak < 15 * 2**20, peak


class TestVaughan:
    def test_identity_exact_sweep(self, table):
        top = 10**4
        lam = np.array([mangoldt(n) for n in range(1, top + 1)])
        for z in (2.0, 5.0, 50.0):
            va = vaughan_arrays(table, z, top)
            assert np.abs(va.total[1:] - lam).max() <= 1e-9, z
        # the fourth-root cut moves with n, so it is split one n at a time
        for n in range(1, top + 1):
            assert abs(sum(vaughan_terms(n, n**0.25)) - lam[n - 1]) <= 1e-9, n

    def test_components_match_brute_force(self, table):
        # arith's per-n split, which reads the sieve table, against the
        # trial-division oracle
        rng = np.random.default_rng(20260818)
        for n in rng.integers(1, 5001, size=300):
            n = int(n)
            for z in (2.0, 7.5, 50.0):
                got = arith.vaughan_terms(n, z, table)
                assert bits([got.a1, got.a2, got.a3, got.a4]) == bits(vaughan_terms(n, z)), (n, z)
                assert bits([got.total]) == bits([got.a1 + got.a2 + got.a3 + got.a4])
                assert bits([arith.mangoldt_tail(n, z, table)]) == bits([mangoldt_tail(n, z)])
                assert bits([arith.mobius_mangoldt_window(n, z, table)]) == bits(
                    [mobius_mangoldt_window(n, z)]
                )

    def test_unit_input(self, table):
        va = vaughan_arrays(table, 10.0, 1)
        assert va.a1[1] == va.a2[1] == va.a3[1] == va.a4[1] == 0.0

    def test_prime_below_threshold(self, table):
        va = vaughan_arrays(table, 100.0, 97)
        assert va.a4[97] == math.log(97)
        assert va.total[97] == pytest.approx(math.log(97), abs=1e-12)

    def test_coefficient_caps(self, table):
        for z in (5.0, 50.0):
            va = vaughan_arrays(table, z, 10**4)
            logn = va.log[2:]
            tail = va.mangoldt_tail[2:]
            assert (tail >= 0.0).all() and (tail <= logn + 1e-12).all()
            assert (np.abs(va.mobius_mangoldt_window[2:]) <= logn + 1e-12).all()

    def test_window_support(self, table):
        # the window vanishes for every n > z^2 = 49
        va = vaughan_arrays(table, 7.0, 1999)
        assert (va.mobius_mangoldt_window[50:] == 0.0).all()

    def test_tail_vanishes_below_threshold(self, table):
        for n in range(1, 200):
            assert (vaughan_arrays(table, float(n), n).mangoldt_tail == 0.0).all()

    def test_validation(self, table):
        # z = 0 is in TestVaughanArrays; a NaN threshold fails every comparison
        for z in (-2.0, -math.inf, math.nan):
            with pytest.raises(ValueError, match="threshold z must be positive"):
                vaughan_arrays(table, z, 10)
        with pytest.raises(ValueError):
            arith.vaughan_terms(0, 2.0, table)
        with pytest.raises(ValueError):
            arith.vaughan_terms(LIMIT + 1, 2.0, table)
        with pytest.raises(ValueError):
            arith.vaughan_terms(10, 0.0, table)


# thresholds: non-integers, z < 1, z = 1, and z^2 beyond any top drawn
thresholds = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 60.0, 3000.0]),
    st.floats(min_value=0.01, max_value=120.0, allow_nan=False),
)


class TestVaughanArrays:
    @settings(max_examples=30, deadline=None)
    @given(top=st.integers(1, 3000), z=thresholds)
    @example(top=5000, z=7.5)
    def test_arrays_equal_oracles(self, table, top, z):
        va = vaughan_arrays(table, z, top)
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
    def test_tables_equal_scalar_queries(self, table, values, top):
        assert mobius_values(table, np.array(values, dtype=np.int64)).tolist() == [
            mobius(n) for n in values
        ]
        lam = mangoldt_array(table, top)
        picks = [0, 1, top] + [v for v in values if v <= top]
        assert bits(lam[picks]) == bits([0.0] + [mangoldt(n) for n in picks[1:]])

    def test_log_table_is_math_log(self, table):
        # reaches past 9170, where np.log and math.log part in the last bit
        top = 10**4
        log = vaughan_arrays(table, 10.0, top).log
        assert bits(log[1:]) == bits([math.log(n) for n in range(1, top + 1)])

    def test_validation(self, table):
        with pytest.raises(ValueError):
            vaughan_arrays(table, 2.0, 0)
        with pytest.raises(ValueError):
            vaughan_arrays(table, 2.0, LIMIT + 1)
        with pytest.raises(ValueError):
            vaughan_arrays(table, 0.0, 10)
        with pytest.raises(ValueError):
            mobius_values(table, np.array([0, 5]))
        with pytest.raises(ValueError):
            mobius_values(table, np.array([LIMIT + 1]))
        with pytest.raises(ValueError):
            mangoldt_array(table, 0)
