"""Sieve table and the four-term von Mangoldt split.

Oracles here use trial division and full-range divisor scans only, so
they share no code with the sieve they check.
"""

import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revprime.arith import (
    DEFAULT_MAX_LIMIT,
    PrimeTable,
    SieveBudgetError,
    build_table,
    mangoldt_array,
    mangoldt_tail,
    mobius_mangoldt_window,
    mobius_values,
    vaughan_arrays,
    vaughan_terms,
)

LIMIT = 10**5


def oracle_factorize(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def oracle_mangoldt(n):
    f = oracle_factorize(n)
    if len(f) == 1:
        return math.log(f[0][0])
    return 0.0


def oracle_mobius(n):
    f = oracle_factorize(n)
    if any(e > 1 for _, e in f):
        return 0
    return (-1) ** len(f)


def oracle_divisors(n):
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return small + large


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    cache = tmp_path_factory.mktemp("spf-cache")
    return build_table(LIMIT, cache_dir=str(cache))


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
            f = oracle_factorize(n)
            assert table.factorize(n) == tuple(f)
            assert table.is_prime(n) == (len(f) == 1 and f[0][1] == 1)
            assert int(table.smallest_prime_factor[n]) == f[0][0]

    def test_prime_fixed_points(self, table):
        for p in (2, 3, 5, 7, 11, 97, 65537):
            assert table.is_prime(p)
            assert int(table.smallest_prime_factor[p]) == p
        for n in (4, 9, 15, 1001, 65536):
            assert not table.is_prime(n)

    def test_mangoldt_examples(self, table):
        assert table.mangoldt(9) == pytest.approx(math.log(3), abs=0)
        assert table.mangoldt(8) == pytest.approx(math.log(2), abs=0)
        assert table.mangoldt(97) == pytest.approx(math.log(97), abs=0)
        assert table.mangoldt(12) == 0.0
        assert table.mangoldt(1) == 0.0

    def test_mobius_examples(self, table):
        assert table.mobius(12) == 0
        assert table.mobius(10) == 1
        assert table.mobius(30) == -1
        assert table.mobius(1) == 1
        assert table.mobius(2) == -1

    def test_mangoldt_divisor_sum_is_log(self, table):
        for n in range(1, 10**4 + 1):
            total = sum(table.mangoldt(d) for d in table.divisors(n))
            assert abs(total - math.log(n)) <= 1e-9
        rng = np.random.default_rng(7)
        for n in rng.integers(10**4, LIMIT + 1, size=200):
            n = int(n)
            total = sum(table.mangoldt(d) for d in table.divisors(n))
            assert abs(total - math.log(n)) <= 1e-9

    def test_totient_and_divisor_count(self, table):
        rng = np.random.default_rng(11)
        for n in rng.integers(1, LIMIT + 1, size=300):
            n = int(n)
            assert table.divisor_count(n) == len(oracle_divisors(n))
        for n in (1, 2, 12, 36, 97, 360, 1024, 1989):
            coprime = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
            assert table.totient(n) == coprime

    def test_divisors_sorted_and_complete(self, table):
        for n in range(1, 500):
            assert list(table.divisors(n)) == oracle_divisors(n)

    def test_query_range(self, table):
        with pytest.raises(ValueError):
            table.mangoldt(0)
        with pytest.raises(ValueError):
            table.mobius(LIMIT + 1)
        with pytest.raises(ValueError):
            table.prime_count(LIMIT + 0.5 + 1)

    def test_budget_error(self):
        with pytest.raises(SieveBudgetError):
            build_table(DEFAULT_MAX_LIMIT + 1)
        with pytest.raises(SieveBudgetError):
            build_table(10**4, max_limit=10**3)
        with pytest.raises(ValueError):
            build_table(1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=LIMIT))
    def test_factorize_reassembles(self, table, n):
        value = 1
        prev = 1
        for p, e in table.factorize(n):
            assert p > prev
            prev = p
            value *= p**e
        assert value == n


class TestCache:
    def test_round_trip_hits_cache(self, tmp_path, monkeypatch):
        first = build_table(5000, cache_dir=str(tmp_path))
        path = tmp_path / "spf_5000.bin"
        assert path.exists()

        def boom(limit):
            raise AssertionError("sieve ran despite a valid cache")

        monkeypatch.setattr("revprime.arith._sieve_spf", boom)
        second = build_table(5000, cache_dir=str(tmp_path))
        assert first.smallest_prime_factor.tobytes() == second.smallest_prime_factor.tobytes()

    def test_header_mismatch_regenerates(self, tmp_path):
        build_table(5000, cache_dir=str(tmp_path))
        path = tmp_path / "spf_5000.bin"
        pristine = path.read_bytes()
        raw = bytearray(pristine)
        raw[5] ^= 0xFF  # version field
        path.write_bytes(bytes(raw))
        rebuilt = build_table(5000, cache_dir=str(tmp_path))
        assert rebuilt.prime_count(5000) == 669
        assert path.read_bytes() == pristine

    def test_corrupt_payload_regenerates(self, tmp_path):
        build_table(5000, cache_dir=str(tmp_path))
        path = tmp_path / "spf_5000.bin"
        pristine = path.read_bytes()
        raw = bytearray(pristine)
        raw[-4 * 4000] ^= 0x01  # spf[1001] = 7 becomes 6; the size is unchanged
        path.write_bytes(bytes(raw))
        rebuilt = build_table(5000, cache_dir=str(tmp_path))
        assert rebuilt.smallest_prime_factor.tobytes() == build_table(5000).smallest_prime_factor.tobytes()
        assert rebuilt.prime_count(5000) == 669
        assert path.read_bytes() == pristine

    def test_truncated_file_regenerates(self, tmp_path):
        build_table(5000, cache_dir=str(tmp_path))
        path = tmp_path / "spf_5000.bin"
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        rebuilt = build_table(5000, cache_dir=str(tmp_path))
        assert rebuilt.prime_count(5000) == 669

    def test_env_var_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REVPRIME_CACHE_DIR", str(tmp_path))
        build_table(3000)
        assert (tmp_path / "spf_3000.bin").exists()

    def test_limit_keyed_separately(self, tmp_path):
        build_table(3000, cache_dir=str(tmp_path))
        build_table(4000, cache_dir=str(tmp_path))
        assert (tmp_path / "spf_3000.bin").exists()
        assert (tmp_path / "spf_4000.bin").exists()


def brute_vaughan(n, z):
    divisors = oracle_divisors(n)

    def tail(m):
        return sum(oracle_mangoldt(d) for d in oracle_divisors(m) if d > z)

    def window(m):
        return sum(
            oracle_mobius(u) * oracle_mangoldt(m // u)
            for u in oracle_divisors(m)
            if u <= z and m // u <= z
        )

    a1 = sum(oracle_mobius(d) * math.log(n // d) for d in divisors if d <= z)
    a2 = sum(oracle_mobius(d) * tail(n // d) for d in divisors if d > z and n // d > z)
    a3 = -sum(window(d) for d in divisors if d <= z * z)
    a4 = oracle_mangoldt(n) if n <= z else 0.0
    return a1, a2, a3, a4


class TestVaughan:
    def test_identity_exact_sweep(self, table):
        for n in range(1, 10**4 + 1):
            lam = table.mangoldt(n)
            for z in (2.0, 5.0, n**0.25, 50.0):
                terms = vaughan_terms(n, z, table)
                assert abs(terms.total - lam) <= 1e-9, (n, z)

    def test_components_match_brute_force(self, table):
        rng = np.random.default_rng(20260818)
        for n in rng.integers(1, 5001, size=300):
            n = int(n)
            for z in (2.0, 7.5, 50.0):
                got = vaughan_terms(n, z, table)
                a1, a2, a3, a4 = brute_vaughan(n, z)
                assert got.a1 == pytest.approx(a1, abs=1e-9)
                assert got.a2 == pytest.approx(a2, abs=1e-9)
                assert got.a3 == pytest.approx(a3, abs=1e-9)
                assert got.a4 == pytest.approx(a4, abs=1e-9)

    def test_unit_input(self, table):
        terms = vaughan_terms(1, 10.0, table)
        assert terms.a1 == terms.a2 == terms.a3 == terms.a4 == 0.0

    def test_prime_below_threshold(self, table):
        terms = vaughan_terms(97, 100.0, table)
        assert terms.a4 == pytest.approx(math.log(97), abs=0)
        assert terms.total == pytest.approx(math.log(97), abs=1e-12)

    def test_coefficient_caps(self, table):
        for z in (5.0, 50.0):
            for n in range(2, 10**4 + 1):
                logn = math.log(n)
                t = mangoldt_tail(n, z, table)
                assert 0.0 <= t <= logn + 1e-12
                assert abs(mobius_mangoldt_window(n, z, table)) <= logn + 1e-12

    def test_window_support(self, table):
        z = 7.0
        for n in range(2, 2000):
            if n > z * z:
                assert mobius_mangoldt_window(n, z, table) == 0.0

    def test_tail_vanishes_below_threshold(self, table):
        for n in range(1, 200):
            assert mangoldt_tail(n, float(n), table) == 0.0

    def test_validation(self, table):
        with pytest.raises(ValueError):
            vaughan_terms(0, 2.0, table)
        with pytest.raises(ValueError):
            vaughan_terms(LIMIT + 1, 2.0, table)
        with pytest.raises(ValueError):
            vaughan_terms(10, 0.0, table)


def bits(values):
    """Raw float64 bytes: equal only when every entry, sign of zero included, is equal."""
    return np.asarray(values, dtype=np.float64).tobytes()


# thresholds: non-integers, z < 1, z = 1, and z^2 beyond any top drawn
thresholds = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 60.0, 3000.0]),
    st.floats(min_value=0.01, max_value=120.0, allow_nan=False),
)


class TestVaughanArrays:
    @settings(max_examples=30, deadline=None)
    @given(top=st.integers(1, 3000), z=thresholds)
    def test_arrays_equal_oracles(self, table, top, z):
        va = vaughan_arrays(table, z, top)
        ns = range(1, top + 1)
        terms = [vaughan_terms(n, z, table) for n in ns]
        for field in ("a1", "a2", "a3", "a4", "total"):
            assert bits(getattr(va, field)[1:]) == bits([getattr(t, field) for t in terms]), field
        assert bits(va.mangoldt_tail[1:]) == bits([mangoldt_tail(n, z, table) for n in ns])
        assert bits(va.mobius_mangoldt_window[1:]) == bits(
            [mobius_mangoldt_window(n, z, table) for n in ns]
        )
        assert bits(va.mobius[1:]) == bits([table.mobius(n) for n in ns])
        assert bits(va.mangoldt[1:]) == bits([table.mangoldt(n) for n in ns])
        assert bits(va.log[1:]) == bits([math.log(n) for n in ns])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, LIMIT), max_size=200), st.integers(1, LIMIT))
    def test_tables_equal_scalar_queries(self, table, values, top):
        assert mobius_values(table, np.array(values, dtype=np.int64)).tolist() == [
            table.mobius(n) for n in values
        ]
        lam = mangoldt_array(table, top)
        picks = [0, 1, top] + [v for v in values if v <= top]
        assert bits(lam[picks]) == bits([0.0] + [table.mangoldt(n) for n in picks[1:]])

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
