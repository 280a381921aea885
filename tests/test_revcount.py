import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revprime.arith import build_table
from revprime.basedigits import BaseContext, reverse, reverse_relative
from revprime.expsum import expsum_context, gamma_coefficient, sigma
from revprime.revcount import (
    CensusRecord,
    DegenerateSeedError,
    census,
    census_grid,
    census_sharp,
    exceptional_cap,
    i0_landing,
    psi_theta_pi,
    rho,
    rho_total,
    sharp_factor_deviation,
    sigma_lower_blocks,
)
from revprime.seeds import reverse_seed

LIMIT = 100_000


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    cache = tmp_path_factory.mktemp("spf")
    return build_table(LIMIT, cache_dir=str(cache))


def oracle_rho(g, a, q):
    # Same quantity, assembled along a different route: factor the
    # g^2-1 part of q outright and build the totient as a product.
    wheel = g * g - 1
    if math.gcd(math.gcd(a, q), wheel) > 1:
        return Fraction(0)
    if math.gcd(a, q) % g == 0:
        return Fraction(0)
    dw = math.gcd(q, wheel)
    tot = Fraction(1)
    n, d = dw, 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            tot *= d ** (e - 1) * (d - 1)
        d += 1
    if n > 1:
        tot *= n - 1
    lead = Fraction(g, g)
    if a % math.gcd(q, g) == 0:
        lead = Fraction(g - math.gcd(q, g), g)
    return lead * dw / tot


def oracle_reverse(n, g):
    # Digit reversal through numpy's base-repr strings, not the package's
    # arithmetic loop.
    return int(np.base_repr(n, g)[::-1], g)


def oracle_reverse_rel(n, g, L):
    return int(np.base_repr(n, g).zfill(L)[::-1], g)


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
                assert rho_total(g, q) == Fraction(g - 1, g), (g, q)

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
    def test_two_digit_decimal_window(self, table):
        rec = census(10, 2, 0, 1, table)
        assert rec.observed == 21
        assert rec.main_term == pytest.approx(
            float(Fraction(9, 10)) * 100 / (2 * math.log(10))
        )
        assert rec.modulus_sharp == 1
        assert rec.sharp_observed == 21

    def test_grid_matches_single_cells(self, table):
        pairs = [(0, 1), (1, 3), (2, 3), (1, 5), (7, 12)]
        grid = census_grid(2, 8, pairs, table)
        for (a, q), rec in zip(pairs, grid):
            assert rec == census(2, 8, a, q, table)

    def test_class_counts_partition_window(self, table):
        for g, L, q in ((10, 4, 7), (2, 10, 5)):
            recs = census_grid(g, L, [(a, q) for a in range(q)], table)
            total = sum(r.observed for r in recs)
            window = table.prime_count(g**L - 1) - table.prime_count(
                g ** (L - 1) - 1
            )
            assert total == window

    def test_observed_against_string_reversal(self, table):
        for g, L in ((10, 3), (2, 9)):
            lo, hi = g ** (L - 1), g**L
            primes = [
                int(p) for p in table.primes if lo <= p < hi
            ]
            for a, q in ((1, 7), (0, 2), (3, 4), (5, 9)):
                want = sum(oracle_reverse(p, g) % q == a % q for p in primes)
                assert census(g, L, a, q, table).observed == want

    def test_decimal_mod_three_matches_plain_classes(self, table):
        # Reversal preserves residues mod g^2 - 1, so mod 3 the reversed
        # census must agree with the classical progression count.
        lo, hi = 10**4, 10**5
        primes = [int(p) for p in table.primes if lo <= p < hi]
        for a in (1, 2):
            direct = sum(p % 3 == a for p in primes)
            assert census(10, 5, a, 3, table).observed == direct

    def test_zero_density_cells_stay_exceptional(self, table):
        for q in (3, 9, 10, 12):
            for a in range(q):
                if rho(10, a, q) != 0:
                    continue
                rec = census(10, 5, a, q, table)
                assert math.isnan(rec.relative_dev)
                assert rec.observed <= exceptional_cap(10, q), (a, q)

    def test_single_cell_accuracy(self, table):
        rec = census(10, 5, 0, 1, table)
        assert abs(rec.relative_dev) < 0.15

    def test_sharp_modulus_stabilises_in_length(self):
        for q in range(1, 101):
            assert math.gcd(q, 2**10 * 3) == math.gcd(q, 2**11 * 3), q

    def test_validation(self, table):
        with pytest.raises(ValueError):
            census(10, 0, 0, 1, table)
        with pytest.raises(ValueError):
            census(10, 6, 0, 1, table)
        with pytest.raises(ValueError):
            census(10, 2, 0, 0, table)


class TestCensusSharp:
    def test_full_window_matches_census_field(self, table):
        for a, q in ((0, 9), (4, 9), (1, 11), (2, 4)):
            rec = census(10, 4, a, q, table)
            # default x covers [1, g^L), and primes below the window have
            # window-relative reverses divisible by g, so compare against
            # an explicit count
            full = census_sharp(10, 4, a, q, table)
            below = census_sharp(10, 4, a, q, table, x=10**3)
            assert full - below == rec.sharp_observed

    def test_truncated_by_hand(self, table):
        # primes up to 13, window length 2: relative reverses are
        # 20, 30, 50, 70, 11, 31 and mod gcd(3, 9900) = 3 the class of 2
        # holds exactly {2, 5, 11}
        assert census_sharp(10, 2, 2, 3, table, x=13) == 3
        assert census_sharp(10, 2, 0, 3, table, x=13) == 1
        assert census_sharp(10, 2, 1, 3, table, x=13) == 2

    def test_monotone_in_x(self, table):
        values = [
            census_sharp(2, 12, 1, 5, table, x=x)
            for x in (10, 100, 1000, 4095, 4096)
        ]
        assert values == sorted(values)

    def test_empty_below_two(self, table):
        assert census_sharp(10, 3, 0, 1, table, x=1.5) == 0

    def test_validation(self, table):
        with pytest.raises(ValueError):
            census_sharp(10, 2, 0, 3, table, x=101)
        with pytest.raises(ValueError):
            census_sharp(10, 2, 0, 3, table, x=0.5)
        with pytest.raises(ValueError):
            census_sharp(10, 6, 0, 3, table)


class TestPsiThetaPi:
    def test_trivial_modulus_gives_chebyshev_sum(self, table):
        x = 5000
        want = math.fsum(table.mangoldt(n) for n in range(2, x + 1))
        got = psi_theta_pi(10, 5, x, 0, 1, table, "psi")
        assert got == pytest.approx(want, abs=1e-9)

    def test_small_case_against_string_reversal(self, table):
        g, L, x, q = 2, 10, 700, 5
        lams = {}
        for a in range(q):
            keep = [
                p
                for p in range(2, x + 1)
                if table.is_prime(p) and oracle_reverse_rel(p, g, L) % q == a
            ]
            lams[a] = keep
            want_theta = math.fsum(math.log(p) for p in keep)
            want_pi = float(len(keep))
            assert psi_theta_pi(g, L, x, a, q, table, "theta") == pytest.approx(
                want_theta, abs=1e-9
            )
            assert psi_theta_pi(g, L, x, a, q, table, "pi") == want_pi
        assert sum(len(v) for v in lams.values()) == table.prime_count(x)

    def test_prime_powers_enter_psi(self, table):
        # x = 9 catches 2, 3, 4, 5, 7, 8, 9; the squares and cubes carry
        # the log of their prime
        g, L, q = 10, 2, 1
        want = math.fsum(
            math.log(p) for p in (2, 3, 2, 5, 7, 2, 3)
        )
        assert psi_theta_pi(g, L, 9, 0, q, table, "psi") == pytest.approx(want)

    def test_orderings(self, table):
        for sharp in (False, True):
            for q in (3, 4):
                for a in range(q):
                    args = (2, 10, 800.0, a, q, table)
                    psi = psi_theta_pi(*args, "psi", sharp=sharp)
                    theta = psi_theta_pi(*args, "theta", sharp=sharp)
                    pi = psi_theta_pi(*args, "pi", sharp=sharp)
                    assert psi >= theta >= 0
                    assert pi * math.log(800.0) >= theta

    def test_below_two_vanishes(self, table):
        for kind in ("psi", "theta", "pi"):
            assert psi_theta_pi(10, 3, 1.9, 0, 5, table, kind) == 0.0

    def test_sharp_equals_reduced_modulus(self, table):
        g, L, x = 10, 4, 8000.0
        q = 14
        reduced = math.gcd(q, g**L * (g * g - 1))
        assert reduced == 2
        for a in (0, 1, 5):
            for kind in ("psi", "theta", "pi"):
                assert psi_theta_pi(
                    g, L, x, a, q, table, kind, sharp=True
                ) == psi_theta_pi(g, L, x, a, reduced, table, kind)

    def test_validation(self, table):
        with pytest.raises(ValueError):
            psi_theta_pi(10, 3, 100, 0, 1, table, "tau")
        with pytest.raises(ValueError):
            psi_theta_pi(10, 3, 2000, 0, 1, table, "psi")
        with pytest.raises(ValueError):
            psi_theta_pi(10, 3, 0.5, 0, 1, table, "psi")
        with pytest.raises(ValueError):
            psi_theta_pi(10, 3, 100, 0, 0, table, "psi")


class TestSharpFactorDeviation:
    def test_exact_zero_when_modulus_absorbed(self, table):
        # q divides g^L (g^2-1), so the sharp count is the plain count
        assert sharp_factor_deviation(10, 10**5, 4, 9, table) == 0.0
        assert sharp_factor_deviation(2, 10**4, 1, 12, table) == 0.0

    def test_coprime_modulus_near_equidistribution(self, table):
        # gcd(7, 10^L * 99) = 1: the sharp count collapses to pi(x) and the
        # deviation measures how evenly reverses fill the classes mod 7
        for a in (1, 3, 6):
            assert sharp_factor_deviation(10, 10**5, a, 7, table) < 0.05

    def test_validation(self, table):
        with pytest.raises(ValueError):
            sharp_factor_deviation(10, 10**6, 0, 7, table)
        with pytest.raises(ValueError):
            sharp_factor_deviation(10, 0.5, 0, 7, table)


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


def scalar_primes(limit):
    return [n for n in range(2, limit + 1) if all(n % d for d in range(2, math.isqrt(n) + 1))]


class TestLayerAgainstScalarRecount:
    """The array census layer against per-prime loops over the scalar oracles."""

    @settings(max_examples=40, deadline=None)
    @given(small_windows(), st.lists(st.tuples(st.integers(0, 80), st.integers(1, 60)),
                                     min_size=1, max_size=8))
    def test_census_grid(self, window, pairs):
        g, L, limit = window
        ctx = BaseContext(g)
        revs = [reverse(p, ctx) for p in scalar_primes(g**L - 1) if p >= g ** (L - 1)]
        for (a, q), rec in zip(pairs, census_grid(g, L, pairs, build_table(limit))):
            m = math.gcd(q, g**L * (g * g - 1))
            assert rec.modulus_sharp == m
            assert rec.observed == sum(r % q == a % q for r in revs)
            assert rec.sharp_observed == sum(r % m == a % m for r in revs)

    @settings(max_examples=40, deadline=None)
    @given(small_windows(), st.integers(0, 80), st.integers(1, 60), st.floats(0, 1))
    def test_census_sharp(self, window, a, q, frac):
        g, L, limit = window
        x = 1 + frac * (g**L - 1)
        ctx = BaseContext(g)
        m = math.gcd(q, g**L * (g * g - 1))
        want = sum(
            reverse_relative(p, L, ctx) % m == a % m
            for p in scalar_primes(math.floor(x))
        )
        assert census_sharp(g, L, a, q, build_table(limit), x=x) == want

    @settings(max_examples=40, deadline=None)
    @given(small_windows(), st.integers(0, 80), st.integers(1, 60),
           st.floats(0, 1), st.booleans())
    def test_psi_theta_pi(self, window, a, q, frac, sharp):
        g, L, limit = window
        x = 1 + frac * (g**L - 1)
        ctx = BaseContext(g)
        m = math.gcd(q, g**L * (g * g - 1)) if sharp else q
        table = build_table(limit)
        hit = lambda n: reverse_relative(n, L, ctx) % m == a % m
        primes = scalar_primes(math.floor(x))
        powers = [(p, p**k) for p in primes for k in range(1, 40) if p**k <= x]
        want = {
            "pi": float(sum(hit(p) for p in primes)),
            "theta": math.fsum(math.log(p) for p in primes if hit(p)),
            "psi": math.fsum(math.log(p) for p, v in powers if hit(v)),
        }
        got = {kind: psi_theta_pi(g, L, x, a, q, table, kind, sharp=sharp) for kind in want}
        assert got["pi"] == want["pi"]
        assert got["theta"] == pytest.approx(want["theta"], rel=1e-12, abs=0)
        assert got["psi"] == pytest.approx(want["psi"], rel=1e-12, abs=0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 12), st.integers(2, 20_000), st.integers(0, 80),
           st.integers(1, 60), st.floats(0, 1))
    def test_sharp_factor_deviation(self, g, limit, a, q, frac):
        x = 1 + frac * (limit - 1)
        ctx = BaseContext(g)
        L = ilog_floor(x, g) + 1
        m = math.gcd(q, g**L * (g * g - 1))
        revs = [reverse(p, ctx) for p in scalar_primes(math.floor(x))]
        plain = sum(r % q == a % q for r in revs)
        sharp = sum(r % m == a % m for r in revs)
        want = abs(plain - (m / q) * sharp) / x
        assert sharp_factor_deviation(g, x, a, q, build_table(limit)) == want


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
        es = expsum_context(reverse_seed(g, L, alpha))
        floor = gamma_coefficient(g) / g**2 * report.rhs
        assert sigma(es, lam, 0) >= floor - 1e-12

    def test_growth_along_tail_length(self):
        g, L = 2, 40
        alpha = Fraction(1, 7)
        es = expsum_context(reverse_seed(g, L, alpha))
        values = []
        for lam in (10, 20, 40):
            report = sigma_lower_blocks(g, L, lam, alpha)
            assert report.passed
            values.append(sigma(es, lam, 0))
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


class TestExceptionalCap:
    def test_counts_distinct_primes(self):
        assert exceptional_cap(10, 1) == 2
        assert exceptional_cap(10, 3) == 3
        assert exceptional_cap(2, 15) == 3
        assert exceptional_cap(2, 1) == 1


class TestRecord:
    def test_fields_round_trip(self, table):
        rec = census(10, 3, 1, 7, table)
        assert isinstance(rec, CensusRecord)
        assert rec.g == 10 and rec.L == 3
        assert rec.modulus_sharp == math.gcd(7, 10**3 * 99)
        ctx = BaseContext(10)
        lo, hi = 100, 1000
        manual = sum(
            reverse(int(p), ctx) % 7 == 1
            for p in table.primes
            if lo <= p < hi
        )
        assert rec.observed == manual
