import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revprime import arith, basedigits, revcount
from revprime.arith import SieveBudgetError, build_table
from revprime.revcount import (
    _GROUP_CAP,
    CensusRecord,
    _ClassCounts,
    _modulus_groups,
    _prime_divisors,
    _totient,
    census_grid,
    psi_theta_pi,
    rho,
    sharp_factor_deviation,
    zero_density_strays,
)

from oracles import factorize, mangoldt, prime_divisors, primes_upto, window_reverse

LIMIT = 100_000


def refuse_to_sieve(*args, **kwargs):
    raise AssertionError("sieved past a refused x")


def oracle_rho(g, a, q):
    # Same quantity, assembled along a different route: factor the
    # g^2-1 part of q outright and build the totient as a product.
    wheel = g * g - 1
    if math.gcd(math.gcd(a, q), wheel) > 1:
        return Fraction(0)
    if math.gcd(a, q) % g == 0:
        return Fraction(0)
    dw = math.gcd(q, wheel)
    tot = math.prod(p ** (e - 1) * (p - 1) for p, e in factorize(dw))
    lead = Fraction(g, g)
    if a % math.gcd(q, g) == 0:
        lead = Fraction(g - math.gcd(q, g), g)
    return lead * dw / tot


def oracle_strays(g, L, a, q):
    """Primes r | gcd(a, q, g^2-1) of the window [g^(L-1), g^L) whose
    reverse is a mod q: what a zero-density cell may hold."""
    rs = prime_divisors(math.gcd(a, q, g * g - 1))
    return sum(g ** (L - 1) <= r < g**L and window_reverse(r, g, L) % q == a % q for r in rs)


class TestRho:
    def test_worked_examples(self):
        assert rho(10, 0, 1) == Fraction(9, 10)
        assert rho(10, 1, 3) == Fraction(27, 20)
        # leading-digit class: gcd(a, q) = 5 escapes both zero clauses and
        # gcd(10, 99) = 1 kills the wheel factor
        assert rho(10, 5, 10) == Fraction(1)
        assert rho(10, 5, 10) == oracle_rho(10, 5, 10)

    def test_zero_classes(self):
        assert rho(10, 0, 3) == 0
        assert rho(10, 3, 9) == 0
        assert rho(10, 10, 20) == 0
        assert rho(2, 2, 2) == 0
        assert rho(2, 0, 4) == 0

    def test_oracle_grid(self):
        for g in (2, 3, 10, 12):
            for q in range(1, 41):
                for a in range(q):
                    assert rho(g, a, q) == oracle_rho(g, a, q), (g, a, q)

    def test_total_mass(self):
        # The class-averaged density sums to (g-1)/g exactly, the share of
        # integers whose leading digit survives reversal.
        for g in (2, 3, 10):
            for q in range(1, 61):
                total = sum(rho(g, a, q) for a in range(q)) / Fraction(q)
                assert total == Fraction(g - 1, g), (g, q)

    def test_validation(self):
        with pytest.raises(ValueError):
            rho(1, 0, 1)
        with pytest.raises(ValueError):
            rho(10, 0, 0)

    @given(
        g=st.sampled_from([2, 3, 10]),
        a=st.integers(min_value=-500, max_value=500),
        q=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=150, deadline=None)
    def test_periodic_and_nonnegative(self, g, a, q):
        value = rho(g, a, q)
        assert value >= 0
        assert value == rho(g, a % q, q)


class TestCensus:
    def test_two_digit_decimal_window(self):
        rec = census_grid(10, 2, [(0, 1)], LIMIT)[0]
        assert rec.observed == 21
        assert rec.main_term == pytest.approx(
            float(Fraction(9, 10)) * 100 / (2 * math.log(10))
        )
        assert rec.modulus_sharp == 1
        assert rec.sharp_observed == 21

    def test_grid_matches_single_cells(self):
        pairs = [(0, 1), (1, 3), (2, 3), (1, 5), (7, 12)]
        grid = census_grid(2, 8, pairs, LIMIT)
        for (a, q), rec in zip(pairs, grid):
            assert rec == census_grid(2, 8, [(a, q)], LIMIT)[0]

    def test_class_counts_partition_window(self, primes):
        for g, L, q in ((10, 4, 7), (2, 10, 5)):
            recs = census_grid(g, L, [(a, q) for a in range(q)], LIMIT)
            total = sum(r.observed for r in recs)
            window = np.count_nonzero((g ** (L - 1) <= primes) & (primes < g**L))
            assert total == window

    def test_observed_against_window_reverse(self, primes):
        for g, L in ((10, 3), (2, 9)):
            lo, hi = g ** (L - 1), g**L
            window = [int(p) for p in primes if lo <= p < hi]
            for a, q in ((1, 7), (0, 2), (3, 4), (5, 9)):
                want = sum(window_reverse(p, g, L) % q == a % q for p in window)
                assert census_grid(g, L, [(a, q)], LIMIT)[0].observed == want

    @pytest.mark.parametrize("big", [2**63 - 1, 2**63, 2**64])
    def test_moduli_beyond_int64_against_window_reverse(self, primes, big):
        # every reverse lies below g^L, so mod big it is its own residue
        for g, L in ((10, 3), (2, 9)):
            lo, hi = g ** (L - 1), g**L
            revs = [window_reverse(int(p), g, L) for p in primes if lo <= p < hi]
            for moduli in ([big], [3, big, 7]):
                pairs = [(a, q) for q in moduli for a in (0, 1, revs[0], big - 1, big + revs[-1])]
                for (a, q), rec in zip(pairs, census_grid(g, L, pairs, LIMIT)):
                    m = rec.modulus_sharp
                    assert rec.observed == sum(r % q == a % q for r in revs), (g, a, q)
                    assert rec.sharp_observed == sum(r % m == a % m for r in revs), (g, a, q)

    def test_decimal_mod_three_matches_plain_classes(self, primes):
        # Reversal preserves residues mod g^2 - 1, so mod 3 the reversed
        # census must agree with the classical progression count.
        lo, hi = 10**4, 10**5
        primes = [int(p) for p in primes if lo <= p < hi]
        for a in (1, 2):
            direct = sum(p % 3 == a for p in primes)
            assert census_grid(10, 5, [(a, 3)], LIMIT)[0].observed == direct

    def test_zero_density_cells_stay_exceptional(self):
        # windows 1 and 2 hold the strays 3 and 11; window 5 holds none
        for q in (3, 9, 10, 11, 12, 33):
            for L in (1, 2, 5):
                for a in range(q):
                    if rho(10, a, q) != 0:
                        continue
                    rec = census_grid(10, L, [(a, q)], LIMIT)[0]
                    assert math.isnan(rec.relative_dev)
                    assert rec.observed == oracle_strays(10, L, a, q), (L, a, q)

    def test_sieve_limit_may_end_at_the_window(self):
        # the window [g^(L-1), g^L) ends at g^L - 1
        for g, L, q in ((10, 2, 3), (2, 4, 3), (3, 5, 7)):
            pairs = [(a, q) for a in range(q)]
            counts = lambda limit: [
                (r.observed, r.sharp_observed) for r in census_grid(g, L, pairs, limit)
            ]
            assert counts(g**L - 1) == counts(g**L)
            with pytest.raises(ValueError):
                census_grid(g, L, pairs, g**L - 2)

    def test_modulus_above_the_cap_allocates_no_histogram(self):
        # a bincount of the reverses would take 2^20 int64 bins (8 MiB)
        census_grid(2, 20, [(5, 2**40)], 2**20)
        tracemalloc.start()
        try:
            (rec,) = census_grid(2, 20, [(5, 2**40)], 2**20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rec.modulus_sharp == 2**20
        assert rec.observed == rec.sharp_observed == 0
        assert peak < 2**22

    @pytest.mark.parametrize(
        "g, L, limit, moduli",
        [(2, 24, 2**24, (3, 5, 7)), (10, 7, 10**7, (3, 7, 9, 11, 13, 37, 41))],
    )
    def test_allocation_peak_of_a_window(self, g, L, limit, moduli):
        # the window is sieved and walked in runs and chunks: 513,708
        # primes at (2, 24) and 586,081 at (10, 7) would take 4.1 and 4.7 MB
        # per int64 buffer; the peak holds one 1 MiB segment of flags, two
        # quarter-segment runs of primes and a chunk's few fresh buffers
        pairs = [(a, q) for q in moduli for a in range(q)]
        census_grid(g, L, pairs, limit)
        tracemalloc.start()
        try:
            census_grid(g, L, pairs, limit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak

    def test_single_cell_accuracy(self):
        rec = census_grid(10, 5, [(0, 1)], LIMIT)[0]
        assert abs(rec.relative_dev) < 0.15

    def test_sharp_modulus_stabilises_in_length(self):
        for q in range(1, 101):
            assert math.gcd(q, 2**10 * 3) == math.gcd(q, 2**11 * 3), q

    def test_validation(self):
        with pytest.raises(ValueError):
            census_grid(10, 0, [(0, 1)], LIMIT)
        with pytest.raises(ValueError):
            census_grid(10, 6, [(0, 1)], LIMIT)
        with pytest.raises(ValueError):
            census_grid(10, 2, [(0, 0)], LIMIT)


class TestCensusSharp:
    """The sharp prime count: psi_theta_pi with kind "pi" and sharp."""

    def test_full_window_matches_census_field(self):
        for a, q in ((0, 9), (4, 9), (1, 11), (2, 4)):
            rec = census_grid(10, 4, [(a, q)], LIMIT)[0]
            # the sharp prime count up to x = g^L covers [1, g^L), and
            # primes below the window have window-relative reverses
            # divisible by g, so take the window as a difference
            full = psi_theta_pi(10, 4, 10**4, a, q, "pi", sharp=True)
            below = psi_theta_pi(10, 4, 10**3, a, q, "pi", sharp=True)
            assert full - below == rec.sharp_observed

    def test_truncated_by_hand(self):
        # primes up to 13, window length 2: relative reverses are
        # 20, 30, 50, 70, 11, 31 and mod gcd(3, 9900) = 3 the class of 2
        # holds exactly {2, 5, 11}
        assert psi_theta_pi(10, 2, 13, 2, 3, "pi", sharp=True) == 3
        assert psi_theta_pi(10, 2, 13, 0, 3, "pi", sharp=True) == 1
        assert psi_theta_pi(10, 2, 13, 1, 3, "pi", sharp=True) == 2

    def test_monotone_in_x(self):
        values = [
            psi_theta_pi(2, 12, x, 1, 5, "pi", sharp=True)
            for x in (10, 100, 1000, 4095, 4096)
        ]
        assert values == sorted(values)

    def test_empty_below_two(self):
        assert psi_theta_pi(10, 3, 1.5, 0, 1, "pi", sharp=True) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            psi_theta_pi(10, 2, 101, 0, 3, "pi", sharp=True)
        with pytest.raises(ValueError):
            psi_theta_pi(10, 2, 0.5, 0, 3, "pi", sharp=True)
        with pytest.raises(SieveBudgetError):
            psi_theta_pi(10, 8, arith.DEFAULT_MAX_LIMIT + 1, 0, 3, "pi", sharp=True)


class TestPsiThetaPi:
    def test_trivial_modulus_gives_chebyshev_sum(self):
        x = 5000
        want = math.fsum(mangoldt(n) for n in range(2, x + 1))
        got = psi_theta_pi(10, 5, x, 0, 1, "psi")
        assert got == pytest.approx(want, abs=1e-9)

    def test_small_case_against_window_reverse(self, primes):
        g, L, x, q = 2, 10, 700, 5
        lams = {}
        for a in range(q):
            keep = [p for p in primes_upto(x) if window_reverse(p, g, L) % q == a]
            lams[a] = keep
            want_theta = math.fsum(math.log(p) for p in keep)
            want_pi = float(len(keep))
            assert psi_theta_pi(g, L, x, a, q, "theta") == pytest.approx(
                want_theta, abs=1e-9
            )
            assert psi_theta_pi(g, L, x, a, q, "pi") == want_pi
        assert sum(len(v) for v in lams.values()) == np.count_nonzero(primes <= x)

    def test_prime_powers_enter_psi(self):
        # x = 9 catches 2, 3, 4, 5, 7, 8, 9; the squares and cubes carry
        # the log of their prime
        g, L, q = 10, 2, 1
        want = math.fsum(
            math.log(p) for p in (2, 3, 2, 5, 7, 2, 3)
        )
        assert psi_theta_pi(g, L, 9, 0, q, "psi") == pytest.approx(want)

    def test_orderings(self):
        for sharp in (False, True):
            for q in (3, 4):
                for a in range(q):
                    args = (2, 10, 800.0, a, q)
                    psi = psi_theta_pi(*args, "psi", sharp=sharp)
                    theta = psi_theta_pi(*args, "theta", sharp=sharp)
                    pi = psi_theta_pi(*args, "pi", sharp=sharp)
                    assert psi >= theta >= 0
                    assert pi * math.log(800.0) >= theta

    def test_below_two_vanishes(self):
        for kind in ("psi", "theta", "pi"):
            assert psi_theta_pi(10, 3, 1.9, 0, 5, kind) == 0.0

    def test_sieve_limit_may_end_at_x(self, monkeypatch):
        # only n <= x are sieved, whatever the window: an x at the sieve
        # budget counts, one above it is refused before anything is sieved
        want = {kind: psi_theta_pi(10, 3, 500, 2, 7, kind) for kind in ("psi", "theta", "pi")}
        with monkeypatch.context() as mp:
            mp.setattr(arith, "DEFAULT_MAX_LIMIT", 500)
            for kind in want:
                assert psi_theta_pi(10, 3, 500, 2, 7, kind) == want[kind]
        monkeypatch.setattr(revcount, "prime_segments", refuse_to_sieve)
        for kind in want:
            for x in (arith.DEFAULT_MAX_LIMIT + 0.5, arith.DEFAULT_MAX_LIMIT + 1):
                with pytest.raises(SieveBudgetError):
                    psi_theta_pi(2, 30, x, 1, 7, kind)
            # inf and NaN leave [1, g^L] and are refused before math.floor
            for x in (math.inf, math.nan):
                with pytest.raises(ValueError, match="x must lie in"):
                    psi_theta_pi(10, 3, x, 2, 7, kind)

    def test_sharp_equals_reduced_modulus(self):
        g, L, x = 10, 4, 8000.0
        q = 14
        reduced = math.gcd(q, g**L * (g * g - 1))
        assert reduced == 2
        for a in (0, 1, 5):
            for kind in ("psi", "theta", "pi"):
                assert psi_theta_pi(
                    g, L, x, a, q, kind, sharp=True
                ) == psi_theta_pi(g, L, x, a, reduced, kind)

    @pytest.mark.parametrize("big", [2**63 - 1, 2**63, 2**64])
    def test_moduli_beyond_int64_against_window_reverse(self, big):
        # every reverse lies below g^L, so mod big it is its own residue
        g, L, x = 10, 4, 5000
        powers = [(p, p**k) for p in primes_upto(x) for k in range(1, 13) if p**k <= x]
        rev = {v: window_reverse(v, g, L) for _, v in powers}
        for sharp in (False, True):
            m = math.gcd(big, g**L * (g * g - 1)) if sharp else big
            for a in (1, rev[2], big - 1, big + rev[3]):
                hit = lambda v: rev[v] % m == a % m
                want = {
                    "pi": float(sum(hit(v) for p, v in powers if p == v)),
                    "theta": math.fsum(math.log(p) for p, v in powers if p == v and hit(v)),
                    "psi": math.fsum(math.log(p) for p, v in powers if hit(v)),
                }
                for kind, value in want.items():
                    got = psi_theta_pi(g, L, x, a, big, kind, sharp=sharp)
                    assert got == pytest.approx(value, rel=1e-12, abs=0), (kind, a, sharp)

    @pytest.mark.parametrize("kind, bound", [("pi", 3), ("theta", 8), ("psi", 8)])
    def test_allocation_peak(self, kind, bound):
        # like the census window, [2, x] is sieved and walked in runs and
        # chunks: the 1,077,871 primes up to 2^24 would take 8.2 MiB in one
        # int64 array, and their reverses, residues and logs as much again
        args = (2, 24, 2**24, 5, 7, kind)
        psi_theta_pi(*args)
        tracemalloc.start()
        try:
            psi_theta_pi(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2**20, peak

    def test_validation(self):
        with pytest.raises(ValueError):
            psi_theta_pi(10, 3, 100, 0, 1, "tau")
        with pytest.raises(ValueError):
            psi_theta_pi(10, 3, 2000, 0, 1, "psi")
        with pytest.raises(ValueError):
            psi_theta_pi(10, 3, 0.5, 0, 1, "psi")
        with pytest.raises(ValueError):
            psi_theta_pi(10, 3, 100, 0, 0, "psi")
        with pytest.raises(ValueError):
            psi_theta_pi(1, 3, 1, 0, 1, "pi")


class TestSharpFactorDeviation:
    def test_exact_zero_when_modulus_absorbed(self):
        # q divides g^L (g^2-1), so the sharp count is the plain count
        assert sharp_factor_deviation(10, 10**5, 4, 9) == 0.0
        assert sharp_factor_deviation(2, 10**4, 1, 12) == 0.0

    def test_coprime_modulus_near_equidistribution(self):
        # gcd(7, 10^L * 99) = 1: the sharp count collapses to pi(x) and the
        # deviation measures how evenly reverses fill the classes mod 7
        for a in (1, 3, 6):
            assert sharp_factor_deviation(10, 10**5, a, 7) < 0.05

    @pytest.mark.parametrize("big", [2**63 - 1, 2**63, 2**64])
    def test_moduli_beyond_int64_against_window_reverse(self, big):
        g, x = 10, 5000
        m = math.gcd(big, g**4 * (g * g - 1))
        revs = [window_reverse(p, g) for p in primes_upto(x)]
        for a in (1, revs[0], big - 1, big + revs[-1]):
            plain = sum(r % big == a % big for r in revs)
            sharp = sum(r % m == a % m for r in revs)
            want = abs(plain - (m / big) * sharp) / x
            assert sharp_factor_deviation(g, x, a, big) == want, a

    def test_validation(self, monkeypatch):
        # x above the sieve budget, inf included, is refused before
        # anything is sieved and before math.floor
        monkeypatch.setattr(revcount, "prime_segments", refuse_to_sieve)
        for x in (arith.DEFAULT_MAX_LIMIT + 0.5, math.inf):
            with pytest.raises(SieveBudgetError, match="sieve budget"):
                sharp_factor_deviation(10, x, 0, 7)
        with pytest.raises(ValueError):
            sharp_factor_deviation(10, 0.5, 0, 7)
        with pytest.raises(ValueError, match="x must be at least 1"):
            sharp_factor_deviation(10, math.nan, 0, 7)
        with pytest.raises(ValueError):
            sharp_factor_deviation(10, 100, 0, 0)
        with pytest.raises(ValueError):
            sharp_factor_deviation(1, 100, 0, 7)


class TestCountsAcrossSegments:
    """psi, theta, pi and the sharp deviation at an x past the first sieve
    segment, against a recount of build_table's primes with window_reverse.

    A segment holds 2^20 odd flags, 2^21 integers, and a run a quarter of
    them; every other test of these counts stays below 10^5, inside the
    first run.  x is above 10^6 + 2^21, so the primes of 7 digits, which
    sharp_factor_deviation sieves from 10^6 on, span two segments too.
    """

    X = 3_200_000.5
    # 693 = 7 * 99 has sharp part 99; 899919 = 9 * 99991 is above the
    # group cap and has sharp part 9
    MODULI = (7, 693, 899_919)

    @pytest.fixture(scope="class")
    def primes(self):
        return build_table(math.floor(self.X)).tolist()

    def test_psi_theta_pi(self, primes):
        g, L, x = 10, 7, self.X
        powers = [(p, p**k) for p in primes[:300] for k in range(2, 22) if p**k <= x]
        rev = {v: window_reverse(v, g, L) for v in primes + [v for _, v in powers]}
        for q in self.MODULI:
            for sharp in (False, True):
                m = math.gcd(q, g**L * (g * g - 1)) if sharp else q
                a = rev[primes[-1]] % m
                hits = [p for p in primes if rev[p] % m == a]
                want = {
                    "pi": float(len(hits)),
                    "theta": math.fsum(map(math.log, hits)),
                    "psi": math.fsum(
                        [*map(math.log, hits), *(math.log(p) for p, v in powers if rev[v] % m == a)]
                    ),
                }
                got = {kind: psi_theta_pi(g, L, x, a, q, kind, sharp=sharp) for kind in want}
                assert got["pi"] == want["pi"], (q, sharp)
                assert got["theta"] == pytest.approx(want["theta"], rel=1e-12, abs=0)
                assert got["psi"] == pytest.approx(want["psi"], rel=1e-12, abs=0)

    def test_sharp_factor_deviation(self, primes):
        g, x = 10, self.X
        revs = [window_reverse(p, g) for p in primes]
        for q in self.MODULI:
            m = math.gcd(q, g**7 * (g * g - 1))
            for a in (1, revs[-1]):
                plain = sum(r % q == a % q for r in revs)
                sharp = sum(r % m == a % m for r in revs)
                want = abs(plain - (m / q) * sharp) / x
                assert sharp_factor_deviation(g, x, a, q) == want, (q, a)


# q = 1, moduli sharing factors (3, 9, 27), coprime ones, the products
# the census groups form, and moduli at and above the group cap
COUNTER_MODULI = (
    1, 2, 3, 4, 5, 7, 9, 11, 13, 27, 37, 41, 99, 1517, 9009,
    2**16, 2**16 + 1, 3 * 2**16, 99991,
)


def assert_valid_groups(moduli):
    groups = _modulus_groups(moduli)
    members = [m for _, group in groups for m in group]
    assert sorted(members) == sorted(set(moduli))
    for lcm, group in groups:
        assert lcm == math.lcm(*group)
        # only a lone modulus may exceed the cap
        assert lcm <= _GROUP_CAP or group == [lcm], (lcm, group)
    return groups


def fed(cells, revs, cuts):
    """_ClassCounts of cells fed revs in the chunks that the cut points make."""
    counts = _ClassCounts(cells)
    for chunk in np.split(revs, sorted(c % (revs.size + 1) for c in cuts)):
        counts.add(chunk)
    return counts


class TestClassCounter:
    """The grouped residue counter, fed in chunks, against one bincount per modulus."""

    def test_census_groups(self):
        # base 2, L = 20..24, q = 3, 5, 7: the sharp moduli are 3 and 1
        assert assert_valid_groups([3, 5, 7, 3, 1, 1]) == [(105, [1, 3, 5, 7])]
        # base 10, L = 6, 7: q = 3, 7, 9, 11, 13, 37, 41 and sharp 3, 1, 9, 11, 1, 1, 1
        moduli = [3, 7, 9, 11, 13, 37, 41, 3, 1, 9, 11, 1, 1, 1]
        assert [lcm for lcm, _ in assert_valid_groups(moduli)] == [9009, 1517]

    def test_over_cap_moduli_stay_alone(self):
        # 2^16 fits the cap alone but not beside 3; 2^16 + 1 and 99991 exceed it
        assert assert_valid_groups([2**16 + 1, 99991, 3, 2**16]) == [
            (3, [3]), (2**16, [2**16]), (2**16 + 1, [2**16 + 1]), (99991, [99991]),
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 2**40), max_size=300),
        st.lists(st.sampled_from(COUNTER_MODULI) | st.integers(1, 3 * 2**16), min_size=1, max_size=8),
        st.lists(st.integers(0, 400), max_size=6),
    )
    def test_matches_per_modulus_bincount(self, values, moduli, cuts):
        revs = np.array(values, dtype=np.int64)
        assert_valid_groups(moduli)
        cells, want = [], {}
        for m in set(moduli):
            want[m] = np.bincount(revs % m, minlength=1)
            # every residue present, a few above the largest one present,
            # the top residue, and classes named by a >= m and a < 0
            residues = {*range(min(m, 40)), *(int(r) for r in np.unique(revs % m))}
            residues |= {want[m].size, want[m].size + 1, m - 1, m + 2, -1}
            cells += [(a, m) for a in residues]
        count = fed(cells, revs, cuts).count
        for a, m in cells:
            r = a % m
            expected = int(want[m][r]) if r < want[m].size else 0
            assert count(a, m) == expected, (a, m)

    @pytest.mark.parametrize("big", [2**63 - 1, 2**63, 2**64])
    def test_moduli_beyond_int64(self, big):
        revs = np.array([0, 5, 17, 17, 2**20 - 1], dtype=np.int64)
        rng = np.random.default_rng(big % 1000)
        for moduli in ([big], [3, big, 2**17]):
            cells = [
                (a, m) for m in moduli
                for a in (0, 1, 5, 17, 2**20 - 1, big - 1, big + 17, -1)
            ]
            count = fed(cells, revs, rng.integers(0, 6, size=3).tolist()).count
            for a, m in cells:
                assert count(a, m) == sum(int(r) % m == a % m for r in revs), (a, m)

    def test_empty_window(self):
        cells = [(0, 1), (3, 5), (7, 2**17), (2**70, 2**64)]
        for cuts in ([], [0, 0]):
            count = fed(cells, np.zeros(0, dtype=np.int64), cuts).count
            assert [count(a, m) for a, m in cells] == [0, 0, 0, 0]


# moduli of one group, above the cap, at int64's edge and beyond it
CHUNK_MODULI = st.integers(1, 60) | st.sampled_from(
    [2**16, 2**16 + 1, 99991, 2**40, 2**63 - 1, 2**63, 2**64, 3 * 2**70]
)


class TestCensusChunks:
    """census_grid walks its window in chunks; any chunk size gives the same counts."""

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 12).flatmap(
            lambda g: st.tuples(st.just(g), st.integers(1, ilog_floor(20_000, g)))
        ),
        st.lists(st.tuples(st.integers(0, 20_000), st.integers(0, 3), CHUNK_MODULI),
                 min_size=1, max_size=8),
    )
    # g = 2, L = 1 is the empty window [1, 2); [2^13, 2^14) holds 872
    # primes, which end mid-chunk at 7 and at 64
    @example((2, 1), [(0, 0, 1), (1, 1, 2**64)])
    @example((2, 14), [(1, 0, 3), (8191, 0, 2**16 + 1), (5, 2, 2**63)])
    def test_equals_per_prime_count(self, chunk, window, cells):
        g, L = window
        pairs = [(a + k * q, q) for a, k, q in cells]
        revs = [window_reverse(p, g, L) for p in primes_upto(g**L - 1) if p >= g ** (L - 1)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(basedigits, "_CHUNK", chunk)
            records = census_grid(g, L, pairs, g**L)
        for (a, q), rec in zip(pairs, records):
            m = rec.modulus_sharp
            assert rec.observed == sum(r % q == a % q for r in revs), (a, q)
            assert rec.sharp_observed == sum(r % m == a % m for r in revs), (a, m)


class TestCensusSegments:
    """census_grid sieves only its window, a segment of flags at a time;
    any segment size gives the counts of a string-reversal recount."""

    @pytest.mark.parametrize("segment", [1, 7, 64, 1000])
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 12).flatmap(
            lambda g: st.tuples(st.just(g), st.integers(1, ilog_floor(5_000, g)))
        ),
        st.lists(st.tuples(st.integers(0, 80), CHUNK_MODULI), min_size=1, max_size=6),
    )
    # [2, 4) holds the even prime; [3, 9) starts on a wheel prime; [2^12,
    # 2^13) ends mid-segment at 7, 64 and 1000 flags
    @example((2, 2), [(1, 2), (3, 4)])
    @example((3, 2), [(0, 1), (2, 3)])
    @example((2, 13), [(1, 7), (5, 2**40)])
    def test_equals_string_reversal_recount(self, segment, window, pairs):
        g, L = window
        window_primes = [p for p in primes_upto(g**L - 1) if p >= g ** (L - 1)]
        revs = [int(np.base_repr(p, g)[::-1], g) for p in window_primes]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_SEGMENT", segment)
            records = census_grid(g, L, pairs, g**L)
        for (a, q), rec in zip(pairs, records):
            m = rec.modulus_sharp
            assert rec.observed == sum(r % q == a % q for r in revs), (a, q)
            assert rec.sharp_observed == sum(r % m == a % m for r in revs), (a, m)


@st.composite
def small_windows(draw):
    """(g, L, limit) with g^L <= limit <= 20000, so each example sieves fast."""
    g = draw(st.integers(2, 12))
    L = draw(st.integers(1, ilog_floor(20_000, g)))
    limit = draw(st.integers(g**L, 20_000))
    return g, L, limit


def ilog_floor(x, g):
    k = 0
    while g ** (k + 1) <= x:
        k += 1
    return k


class TestLayerAgainstScalarRecount:
    """The array census layer against per-prime loops over the scalar oracles."""

    @settings(max_examples=40, deadline=None)
    @given(small_windows(), st.lists(st.tuples(st.integers(0, 80), st.integers(1, 60)),
                                     min_size=1, max_size=8))
    def test_census_grid(self, window, pairs):
        g, L, limit = window
        revs = [window_reverse(p, g, L) for p in primes_upto(g**L - 1) if p >= g ** (L - 1)]
        for (a, q), rec in zip(pairs, census_grid(g, L, pairs, limit)):
            m = math.gcd(q, g**L * (g * g - 1))
            assert rec.modulus_sharp == m
            assert rec.observed == sum(r % q == a % q for r in revs)
            assert rec.sharp_observed == sum(r % m == a % m for r in revs)

    @settings(max_examples=40, deadline=None)
    @given(small_windows(), st.integers(0, 80), st.integers(1, 60), st.floats(0, 1))
    def test_census_sharp(self, window, a, q, frac):
        g, L, _ = window
        x = 1 + frac * (g**L - 1)
        m = math.gcd(q, g**L * (g * g - 1))
        want = sum(window_reverse(p, g, L) % m == a % m for p in primes_upto(x))
        assert psi_theta_pi(g, L, x, a, q, "pi", sharp=True) == want

    @settings(max_examples=40, deadline=None)
    @given(small_windows(), st.integers(0, 80), st.integers(1, 60),
           st.floats(0, 1), st.booleans())
    def test_psi_theta_pi(self, window, a, q, frac, sharp):
        g, L, _ = window
        x = 1 + frac * (g**L - 1)
        m = math.gcd(q, g**L * (g * g - 1)) if sharp else q
        hit = lambda n: window_reverse(n, g, L) % m == a % m
        primes = primes_upto(x)
        powers = [(p, p**k) for p in primes for k in range(1, 40) if p**k <= x]
        want = {
            "pi": float(sum(hit(p) for p in primes)),
            "theta": math.fsum(math.log(p) for p in primes if hit(p)),
            "psi": math.fsum(math.log(p) for p, v in powers if hit(v)),
        }
        got = {kind: psi_theta_pi(g, L, x, a, q, kind, sharp=sharp) for kind in want}
        assert got["pi"] == want["pi"]
        assert got["theta"] == pytest.approx(want["theta"], rel=1e-12, abs=0)
        assert got["psi"] == pytest.approx(want["psi"], rel=1e-12, abs=0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 12), st.integers(2, 20_000), st.integers(0, 80),
           st.integers(1, 60), st.floats(0, 1))
    def test_sharp_factor_deviation(self, g, limit, a, q, frac):
        x = 1 + frac * (limit - 1)
        L = ilog_floor(x, g) + 1
        m = math.gcd(q, g**L * (g * g - 1))
        revs = [window_reverse(p, g) for p in primes_upto(x)]
        plain = sum(r % q == a % q for r in revs)
        sharp = sum(r % m == a % m for r in revs)
        want = abs(plain - (m / q) * sharp) / x
        assert sharp_factor_deviation(g, x, a, q) == want


class TestZeroDensityStrays:
    def test_worked_examples(self):
        # the prime 3 of window 1 is 0 mod 3, and 11 of window 2 is 0 mod 11
        assert zero_density_strays(10, 1, 0, 3) == 1
        assert zero_density_strays(10, 2, 0, 11) == 1
        assert zero_density_strays(10, 2, 11, 33) == 1
        # 3 divides gcd(a, 15, 3) in window 2 of base 2, but rev_2(3) = 3
        # lands in the class only for a = 3
        assert zero_density_strays(2, 2, 0, 15) == 0
        assert zero_density_strays(2, 2, 3, 15) == 1
        assert zero_density_strays(2, 2, 3, 3 * 2**64) == 1
        # leading-digit obstruction, and a stray below the window
        assert zero_density_strays(10, 5, 0, 10) == 0
        assert zero_density_strays(2, 5, 3, 13835058055282163709) == 0

    @settings(max_examples=40, deadline=None)
    @given(small_windows(), st.integers(1, 60))
    def test_matches_window_reverse_recount(self, window, q):
        # every prime of the window, reversed by window_reverse: a zero-density
        # cell holds exactly the strays
        g, L, _ = window
        revs = [window_reverse(p, g, L) for p in primes_upto(g**L - 1) if p >= g ** (L - 1)]
        for a in range(q):
            if rho(g, a, q) != 0:
                continue
            recount = sum(r % q == a for r in revs)
            assert zero_density_strays(g, L, a, q) == recount == oracle_strays(g, L, a, q), (g, L, a, q)


class TestPrimeDivisors:
    @given(st.integers(2, 40), st.integers(1, 3000))
    def test_matches_trial_division(self, g, q):
        assert _prime_divisors(g * q) == prime_divisors(g * q)


class TestTotient:
    def test_counts_units(self):
        for n in range(1, 400):
            assert _totient(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


class TestRecord:
    def test_fields_round_trip(self, primes):
        rec = census_grid(10, 3, [(1, 7)], LIMIT)[0]
        assert isinstance(rec, CensusRecord)
        assert rec.g == 10 and rec.L == 3
        assert rec.modulus_sharp == math.gcd(7, 10**3 * 99)
        lo, hi = 100, 1000
        manual = sum(
            window_reverse(int(p), 10, 3) % 7 == 1
            for p in primes
            if lo <= p < hi
        )
        assert rec.observed == manual
