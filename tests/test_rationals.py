import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ninionics.errors import DomainError
from ninionics.rationals import (
    StatAngle,
    _prime_bound,
    farey_bracket,
    farey_interval,
    farey_pairs,
    farey_successor,
    primes_up_to,
    reduce_fraction,
    thomae,
)


@lru_cache(maxsize=None)
def brute_force_farey(order):
    """Independent oracle: enumerate coprime pairs and sort."""
    fracs = {Fraction(p, q) for q in range(1, order + 1) for p in range(q + 1)
             if math.gcd(p, q) == 1}
    return sorted(fracs)


def brute_force_window(order, lo, hi):
    """Independent oracle: every reduced p/q in [lo, hi] with q <= order, as pairs."""
    pairs = []
    for q in range(1, order + 1):
        first = -(-lo.numerator * q // lo.denominator)  # ceil(lo * q)
        last = hi.numerator * q // hi.denominator       # floor(hi * q)
        pairs += [(p, q) for p in range(first, last + 1) if math.gcd(p, q) == 1]
    return sorted(pairs, key=lambda pq: Fraction(*pq))


def brute_force_best_rational(x, q_max):
    """Independent oracle: exhaustive search over all denominators <= q_max."""
    target = Fraction(x)
    best = None
    for q in range(1, q_max + 1):
        p = round(target * q)
        for cand in (Fraction(p - 1, q), Fraction(p, q), Fraction(p + 1, q)):
            err = abs(target - cand)
            key = (err, cand.denominator, cand)
            if best is None or key < best[0]:
                best = (key, cand)
    return best[1]


class TestReduce:
    def test_gcd_cancellation(self):
        assert reduce_fraction(2, 4) == Fraction(1, 2)

    def test_sign_normalization(self):
        f = reduce_fraction(-4, 6)
        assert (f.numerator, f.denominator) == (-2, 3)
        g = reduce_fraction(4, -6)
        assert (g.numerator, g.denominator) == (-2, 3)

    def test_zero_canonical(self):
        f = reduce_fraction(0, 7)
        assert (f.numerator, f.denominator) == (0, 1)

    def test_zero_denominator(self):
        with pytest.raises(DomainError, match="denominator zero"):
            reduce_fraction(1, 0)

    def test_canonical_identity(self):
        assert reduce_fraction(2, 4) == reduce_fraction(1, 2)
        assert hash(reduce_fraction(2, 4)) == hash(reduce_fraction(1, 2))


class TestThomae:
    def test_half(self):
        assert thomae(Fraction(1, 2)) == Fraction(1, 2)

    def test_near_half(self):
        # close inputs, wildly different values: 1/2 vs 999/2000
        assert thomae(Fraction(999, 2000)) == Fraction(1, 2000)

    def test_non_rotating(self):
        assert thomae(Fraction(0, 1)) == Fraction(1, 1)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6), st.integers(1, 1000))
    def test_scaling_invariance(self, p, q, k):
        assert thomae(reduce_fraction(p * k, q * k)) == thomae(reduce_fraction(p, q))


class TestFarey:
    def test_order_one(self):
        assert list(farey_interval(1, 0, 1)) == [Fraction(0), Fraction(1)]

    def test_order_three(self):
        assert list(farey_interval(3, 0, 1)) == [Fraction(0), Fraction(1, 3), Fraction(1, 2),
                                     Fraction(2, 3), Fraction(1)]

    def test_order_five_against_oracle(self):
        seq = list(farey_interval(5, 0, 1))
        assert len(seq) == 11
        assert seq == brute_force_farey(5)

    @pytest.mark.parametrize("order", [2, 7, 16, 33])
    def test_matches_oracle(self, order):
        assert list(farey_interval(order, 0, 1)) == brute_force_farey(order)

    def test_mediant_property_up_to_50(self):
        for order in range(1, 51):
            seq = list(farey_interval(order, 0, 1))
            for left, right in zip(seq, seq[1:]):
                assert (left.denominator * right.numerator
                        - left.numerator * right.denominator) == 1

    def test_strictly_ascending(self):
        seq = list(farey_interval(20, 0, 1))
        assert all(a < b for a, b in zip(seq, seq[1:]))

    def test_window_matches_filtered_full(self):
        lo, hi = Fraction(1, 5), Fraction(3, 4)
        full = [f for f in farey_interval(17, 0, 1) if lo <= f <= hi]
        assert list(farey_interval(17, lo, hi)) == full

    def test_narrow_window(self):
        got = list(farey_interval(50, Fraction(49, 100), Fraction(51, 100)))
        assert Fraction(1, 2) in got
        assert all(Fraction(49, 100) <= f <= Fraction(51, 100) for f in got)

    def test_empty_window_is_empty_list(self):
        assert list(farey_interval(3, Fraction(2, 5), Fraction(9, 20))) == []

    def test_bad_window(self):
        with pytest.raises(DomainError):
            list(farey_interval(3, Fraction(1, 2), Fraction(1, 2)))

    def test_successor(self):
        assert farey_successor(Fraction(0), 5) == Fraction(1, 5)
        assert farey_successor(Fraction(2, 5), 5) == Fraction(1, 2)
        assert farey_successor(Fraction(1), 5) is None

    def test_pairs_match_brute_force_on_random_windows(self):
        rng = random.Random(20221011)
        ends_in_sequence = ends_finer = 0
        for _ in range(300):
            order = rng.randint(1, 60)
            # denominators up to twice the order: some ends are order-n Farey
            # fractions, some fall strictly between two of them
            ends = set()
            while len(ends) < 2:
                q = rng.randint(1, 2 * order)
                ends.add(Fraction(rng.randint(0, q), q))
            lo, hi = sorted(ends)
            ends_in_sequence += lo.denominator <= order and hi.denominator <= order
            ends_finer += hi.denominator > order
            got = list(farey_pairs(order, lo, hi))
            assert got == brute_force_window(order, lo, hi), (order, lo, hi)
            assert all(type(c) is int and type(d) is int for c, d in got)
        assert ends_in_sequence > 20 and ends_finer > 20

    @pytest.mark.parametrize("order,lo,hi", [
        (7, Fraction(1, 7), Fraction(3, 5)),      # both ends are order-7 Farey fractions
        (7, Fraction(2, 15), Fraction(11, 13)),   # both ends finer than the order
        (10, Fraction(0), Fraction(7, 11)),       # hi's denominator exceeds the order
        (60, Fraction(29, 59), Fraction(30, 59)),
        (1, Fraction(0), Fraction(1)),
    ])
    def test_pairs_edge_windows(self, order, lo, hi):
        assert list(farey_pairs(order, lo, hi)) == brute_force_window(order, lo, hi)
        assert list(farey_interval(order, lo, hi)) == [
            Fraction(c, d) for c, d in brute_force_window(order, lo, hi)]

    def test_pairs_narrow_window_order_1e5(self):
        lo = Fraction(31415, 100_000)
        hi = lo + Fraction(1, 60_000)
        got = list(farey_pairs(100_000, lo, hi))
        assert len(got) > 10_000
        assert got == brute_force_window(100_000, lo, hi)

    def test_bracket_is_the_brute_force_neighbours(self):
        # every p/q in [0, 1] with q <= 24, and the midpoints of F_24's neighbours, at
        # every order up to 60, against the largest term <= x and the smallest >= x
        f24 = brute_force_farey(24)
        xs = set(f24).union((u + v) / 2 for u, v in zip(f24, f24[1:]))
        for order in range(1, 61):
            terms = brute_force_farey(order)
            for x in xs:
                expected = terms[bisect_right(terms, x) - 1], terms[bisect_left(terms, x)]
                assert farey_bracket(x, order) == expected, (x, order)

    @given(st.integers(1, 10 ** 30).flatmap(
        lambda q: st.integers(0, q).map(lambda p: Fraction(p, q))), st.integers(1, 60))
    def test_bracket_of_large_denominators(self, x, order):
        terms = brute_force_farey(order)
        assert farey_bracket(x, order) == (terms[bisect_right(terms, x) - 1],
                                           terms[bisect_left(terms, x)])

    @given(st.integers(0, 10**6), st.integers(1, 10**6), st.integers(1, 200))
    def test_bracket(self, p, q, order):
        x = Fraction(p % (q + 1), q)
        u, v = farey_bracket(x, order)
        assert u <= x <= v
        assert u.denominator <= order and v.denominator <= order
        if x.denominator <= order:
            assert u == v == x
        else:
            # adjacent pair in the order-n sequence
            assert u.denominator * v.numerator - u.numerator * v.denominator == 1


def approximate(x, q_max):
    """The best approximation of float turns under a denominator cap, as the CLI takes it."""
    return StatAngle.from_turns(x, q_max).turns


# floats at exact midpoints between consecutive convergents a/1 and (a 2^j + s)/2^j: at
# q_max = 2^j the two are equally near, and no fraction of denominator <= q_max lies
# between them
TIES = st.builds(lambda a, s, j: (a + s / 2 ** (j + 1), 2 ** j),
                 st.integers(-5, 5), st.sampled_from([-1, 1]), st.integers(0, 7))


class TestApproximateRational:
    def test_exact_half(self):
        assert approximate(0.5, 100) == Fraction(1, 2)

    def test_third(self):
        x = 0.333333
        assert approximate(x, 100) == Fraction(1, 3)
        assert approximate(x, 100) == brute_force_best_rational(x, 100)

    def test_sqrt_half_small_cap(self):
        x = 0.7071067
        expected = brute_force_best_rational(x, 10)
        assert expected == Fraction(7, 10)  # beats 5/7
        assert approximate(x, 10) == expected

    @pytest.mark.parametrize("x,q_max", [(0.1234567, 50), (0.9999, 30),
                                         (0.6180339887, 89), (0.0001, 7),
                                         (2.718281828, 25), (-0.414213562, 40)])
    def test_against_exhaustive_oracle(self, x, q_max):
        assert approximate(x, q_max) == brute_force_best_rational(x, q_max)

    @given(st.one_of(st.floats(-1e6, 0.0), st.floats(1.0, 1e6), st.floats(-3.0, 3.0)),
           st.integers(1, 200))
    def test_negative_and_above_one_against_exhaustive_oracle(self, x, q_max):
        assert approximate(x, q_max) == brute_force_best_rational(x, q_max)

    @given(TIES)
    def test_ties_go_to_the_smaller_denominator(self, tie):
        x, q_max = tie
        best = brute_force_best_rational(x, q_max)
        assert abs(x - best) == Fraction(1, 2 * q_max)  # two fractions are this near
        assert approximate(x, q_max) == best

    @given(st.integers(-1000, 1000), st.integers(1, 1000), st.integers(0, 500))
    def test_exact_recovery(self, p, q, extra):
        f = Fraction(p, q)
        assert approximate(float(f), f.denominator + extra) == f

    def test_non_finite(self):
        for x in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(DomainError):
                approximate(x, 10)

    def test_bad_cap(self):
        with pytest.raises(DomainError):
            approximate(0.5, 0)


class TestPrimes:
    def test_ten(self):
        assert primes_up_to(10) == [2, 3, 5, 7]

    def test_two(self):
        assert primes_up_to(2) == [2]

    def test_thirty_against_trial_division(self):
        def is_prime(n):
            return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

        got = primes_up_to(30)
        assert len(got) == 10
        assert got == [n for n in range(2, 31) if is_prime(n)]

    def test_too_small(self):
        with pytest.raises(DomainError):
            primes_up_to(1)

    def test_every_bound_against_trial_division(self):
        # each n, so that every slice length (n - i^2) // i + 1 meets its edge cases
        expected = [2]
        for n in range(3, 600):
            if all(n % p for p in expected):
                expected.append(n)
            assert primes_up_to(n) == expected, n

    @pytest.mark.parametrize("call", [lambda: primes_up_to(4 * 10 ** 12),
                                      lambda: primes_up_to(_prime_bound(10 ** 11))],
                             ids=["sieve", "nth_prime"])
    def test_sieve_over_the_memory_budget_is_refused(self, call):
        # estimated before the bytearray exists, so this allocates nothing
        with pytest.raises(DomainError, match="MiB, over the 1024 MiB memory budget"):
            call()

    # the index-th prime as prime_sequence_probe takes it: one sieve up to _prime_bound
    def test_nth_prime(self):
        assert [primes_up_to(_prime_bound(i))[i - 1] for i in (1, 5, 25, 303)] == [
            2, 11, 97, 1999]

    def test_nth_prime_matches_one_sieve(self):
        # the sieve bound holds below index 6, where the Rosser bound does not apply
        assert [primes_up_to(_prime_bound(i))[i - 1] for i in range(1, 400)] == (
            primes_up_to(3000)[:399])

    @pytest.mark.parametrize("index", [0, -3])
    def test_nth_prime_is_one_based(self, index):
        with pytest.raises(DomainError, match="prime index is 1-based"):
            _prime_bound(index)


class TestStatAngle:
    def test_bosonic_canonical(self):
        assert StatAngle.from_fraction(5, 2).bosonic().turns == Fraction(1, 2)
        assert StatAngle.from_fraction(-1, 3).bosonic().turns == Fraction(2, 3)

    def test_fermionic_canonical(self):
        # fermionic phases have period 2 in turns (4 pi in chi)
        assert StatAngle.from_fraction(5, 2).fermionic().turns == Fraction(1, 2)
        assert StatAngle.from_fraction(3, 1).fermionic().turns == Fraction(1, 1)
        assert StatAngle.from_fraction(4, 1).fermionic().turns == Fraction(0, 1)

    def test_unreduced_storage(self):
        # turns kept as given; canonicalization is the consumer's choice
        assert StatAngle.from_fraction(7, 2).turns == Fraction(7, 2)

    def test_parse(self):
        assert StatAngle.parse("999/2000").turns == Fraction(999, 2000)
        assert StatAngle.parse("0.5").turns == Fraction(1, 2)
        assert StatAngle.parse("0.333333", q_max=100).turns == Fraction(1, 3)

    def test_from_turns(self):
        assert StatAngle.from_turns(Fraction(7, 2), q_max=1).turns == Fraction(7, 2)
        assert StatAngle.from_turns(0.333333, q_max=100).turns == Fraction(1, 3)
