import csv
import io
import math
import random
import time
import tracemalloc
from fractions import Fraction
from typing import NamedTuple

import pytest

from ninionics import fractal
from ninionics.errors import DomainError
from ninionics.fractal import (
    FractalSample,
    fractal_scan,
    iter_fractal_scan,
    iter_scan_lines,
    prime_ratio_sequence_near,
    prime_sequence_probe,
    sample_at,
)
from ninionics.rationals import _prime_bound, farey_pairs, farey_successor, primes_up_to, thomae


def nth_prime(index):
    """The index-th prime, 1-based, from a sieve of its own: nth_prime(1) == 2."""
    return primes_up_to(_prime_bound(index))[index - 1]


def float_row(sample):
    """A sample's row in SCAN_FIELDS order, each float rounded from its exact rational."""
    chi = sample.chi_turns
    return (chi.numerator, chi.denominator, float(chi), sample.q,
            float(sample.ratio_energy), float(sample.ratio_entropy))


def parse_line(line):
    c, d, chi, q, energy, entropy = line.split(",")
    return int(c), int(d), float(chi), int(q), float(energy), float(entropy)


class TestScan:
    def test_order_one(self):
        samples = fractal_scan(1, (0, 1))
        assert [s.chi_turns for s in samples] == [Fraction(0), Fraction(1)]
        assert all(s.ratio_energy == 1 for s in samples)

    def test_order_two_adds_half(self):
        samples = fractal_scan(2, (0, 1))
        assert [s.chi_turns for s in samples] == [Fraction(0), Fraction(1, 2), Fraction(1)]
        assert samples[1].ratio_energy == Fraction(1, 16)

    def test_ratios_exact_in_rational_arithmetic(self):
        for s in fractal_scan(50, (Fraction(49, 100), Fraction(51, 100))):
            assert s.ratio_energy == Fraction(1, s.q ** 4)
            assert s.ratio_entropy == Fraction(1, s.q ** 3)
        peak = max(fractal_scan(50, (Fraction(49, 100), Fraction(51, 100))),
                   key=lambda s: s.ratio_energy)
        assert peak.chi_turns == Fraction(1, 2)
        assert peak.ratio_energy == Fraction(1, 16)

    def test_deterministic(self):
        a = fractal_scan(40, (0, 1))
        b = list(iter_fractal_scan(40, (0, 1)))
        assert a == b

    def test_order_50_count(self):
        # |F_50| = 1 + sum of totients = 775
        def phi(n):
            return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

        assert len(fractal_scan(50, (0, 1))) == 1 + sum(phi(q) for q in range(1, 51))


    def test_rows_are_the_float_form_of_the_samples(self):
        window = (Fraction(1, 5), Fraction(3, 4))
        rows = [parse_line(line)
                for line in "".join(iter_scan_lines(40, window)).splitlines(keepends=True)]
        assert rows == [float_row(s) for s in iter_fractal_scan(40, window)]

    def test_row_floats_correctly_rounded_past_2_53(self):
        # q > 2^13 puts q^4 past 2^53, where 1.0 / q**4 rounds twice
        lo = Fraction(31415, 100_000)
        text = "".join(iter_scan_lines(20_000, (lo, lo + Fraction(1, 10_000))))
        rows = [parse_line(line) for line in text.splitlines(keepends=True)]
        big = [r for r in rows if r[3] > 2 ** 13]
        assert len(big) > 5_000
        for c, d, chi, q, energy, entropy in big:
            assert q == d
            assert chi == float(Fraction(c, d))
            assert energy == float(Fraction(1, q ** 4))
            assert entropy == float(Fraction(1, q ** 3))
        # the sample does reach q where the float-first quotient is wrong
        assert any(1.0 / q ** 4 != energy for _, _, _, q, energy, _ in big)


def csv_text(order, window):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        map(float_row, iter_fractal_scan(order, window)))
    return out.getvalue()


class TestScanLines:
    """iter_scan_lines writes the bytes csv.writer writes over the exact samples' floats."""

    @pytest.mark.parametrize("order", range(1, 61))
    def test_full_window(self, order):
        assert "".join(iter_scan_lines(order, (0, 1))) == csv_text(order, (0, 1))

    def test_random_windows(self):
        rng = random.Random(20260101)
        for _ in range(300):
            order = rng.randint(1, 60)
            den = rng.randint(1, 200)
            a, b = sorted(rng.sample(range(den + 1), 2))
            window = (Fraction(a, den), Fraction(b, den))
            assert "".join(iter_scan_lines(order, window)) == csv_text(order, window)

    def test_denominators_past_2_13(self):
        lo = Fraction(31415, 100_000)
        window = (lo, lo + Fraction(1, 10_000))
        text = "".join(iter_scan_lines(20_000, window))
        assert text == csv_text(20_000, window)
        assert max(int(line.split(",")[1]) for line in text.splitlines()) > 2 ** 13

    # windows with more distinct q than fractal._LINE_CACHE_SIZE, on both sides of
    # fractal._LINE_CACHE_ORDER: the bench's 1/60000 window (46,364 q in 50,672 rows)
    # and order 10^4 on [1/3, 1/3 + 1/1000] (8,928 q in 30,372 rows) are formatted
    # without the cache; order 5000 on [1/10, 11/100] (4,894 q in 76,009 rows) keeps it
    # and empties it once
    WIDE_WINDOWS = pytest.mark.parametrize("order, window", [
        (100_000, (Fraction(39371, 60_000), Fraction(3281, 5_000))),
        (10_000, (Fraction(1, 3), Fraction(1003, 3_000))),
        (5_000, (Fraction(1, 10), Fraction(11, 100))),
    ], ids=["bench-window", "uncached", "cached"])

    @WIDE_WINDOWS
    def test_more_denominators_than_the_cache_holds(self, order, window):
        text = csv_text(order, window)
        assert len({line.split(",")[1] for line in text.splitlines()}) > fractal._LINE_CACHE_SIZE
        assert "".join(iter_scan_lines(order, window)) == text

    @WIDE_WINDOWS
    def test_traced_peak_follows_the_cache_rule(self, order, window):
        # uncached, a call holds one block of lines: 10.5-11.5 KB traced on the two
        # windows past the cache order. 16 KiB leaves 40% over that; the cached window,
        # whose cache fills to 4,096 q, peaked at 0.70 MB
        tracemalloc.start()
        try:
            for _ in iter_scan_lines(order, window):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak > 16 * 2 ** 10) == (order <= fractal._LINE_CACHE_ORDER)


def _adjacent_unimodular(pairs):
    return all(b * c - a * d == 1 for (a, b), (c, d) in zip(pairs, pairs[1:]))


def _equal_q_consistent(lines):
    """Every row of one q prints the same energy and entropy columns."""
    seen = {}
    for line in lines:
        *_, q, energy, entropy = line.rstrip("\n").split(",")
        if seen.setdefault(q, (energy, entropy)) != (energy, entropy):
            return False
    return True


class SelfSimilarityReport(NamedTuple):
    equal_q_consistent: bool
    mediants_ok: bool
    zoomed_mediants_ok: bool
    descent_bijection_ok: bool | None  # exact Stern-Brocot map; full [0,1] window only

    @property
    def ok(self):
        checks = (self.equal_q_consistent, self.mediants_ok, self.zoomed_mediants_ok)
        return all(checks) and self.descent_bijection_ok is not False


def self_similarity_check(order, window, zoom_factor):
    """The scale-invariant structure of a scan window, on the integer pairs and the
    rows that `scan` prints.

    Checks numerator irrelevance (equal-q rows print equal ratios) and the
    unimodular adjacency b*c - a*d = 1 in both the window and its zoom by
    ``zoom_factor`` toward the left edge. For the full [0, 1] window the
    Stern-Brocot descent c/d -> c/(d + (z-1) c) is verified exactly in both
    directions: it carries the order-n fractions onto an ascending subsequence
    of the order-n*z fractions of [0, 1/z], and pulling the same-order fractions
    of [0, 1/z] back through it lands inside the outer set. Each map keeps
    gcd(c, d) = 1, so equal pairs are equal fractions.
    """
    if zoom_factor < 1:
        raise DomainError("zoom factor must be a positive integer")
    lo, hi = Fraction(window[0]), Fraction(window[1])
    outer = list(farey_pairs(order, lo, hi))
    zoom_hi = lo + (hi - lo) / zoom_factor
    zoomed = list(farey_pairs(order, lo, zoom_hi)) if zoom_hi > lo else []
    rows = "".join([*iter_scan_lines(order, (lo, hi)),
                    *(iter_scan_lines(order, (lo, zoom_hi)) if zoomed else ())]).splitlines()

    descent = None
    if (lo, hi) == (0, 1) and zoom_factor > 1:
        k = zoom_factor - 1
        mapped = [(c, d + k * c) for c, d in outer]
        fine = set(farey_pairs(order * zoom_factor, 0, Fraction(1, zoom_factor)))
        forward_ok = (all(f in fine for f in mapped)
                      and all(a * d < c * b for (a, b), (c, d) in zip(mapped, mapped[1:])))
        outer_set = set(outer)
        backward_ok = all((c, d - k * c) in outer_set for c, d in zoomed)
        descent = forward_ok and backward_ok

    return SelfSimilarityReport(
        equal_q_consistent=_equal_q_consistent(rows),
        mediants_ok=_adjacent_unimodular(outer),
        zoomed_mediants_ok=_adjacent_unimodular(zoomed),
        descent_bijection_ok=descent,
    )


class TestSelfSimilarity:
    def test_full_window(self):
        report = self_similarity_check(12, (0, 1), zoom_factor=3)
        assert report.equal_q_consistent
        assert report.mediants_ok
        assert report.zoomed_mediants_ok
        assert report.descent_bijection_ok is True
        assert report.ok

    def test_decade_descent(self):
        # [0,1] at order n maps onto [0, 1/10] at order 10 n
        report = self_similarity_check(8, (0, 1), zoom_factor=10)
        assert report.descent_bijection_ok is True

    def test_partial_window(self):
        report = self_similarity_check(30, (Fraction(1, 4), Fraction(3, 4)), 4)
        assert report.mediants_ok and report.zoomed_mediants_ok
        assert report.descent_bijection_ok is None  # exact map defined on [0, 1] only
        assert report.ok

    def test_bad_zoom(self):
        with pytest.raises(DomainError):
            self_similarity_check(5, (0, 1), 0)


def discontinuity_witness(x0: Fraction, max_distance: float = 1e-6,
                          ratio_factor: float = 1e8) -> FractalSample:
    """A Farey neighbour of x0 witnessing the discontinuity of the scaling law.

    Returns a sample within ``max_distance`` of x0 whose energy ratio is at
    least ``ratio_factor`` times smaller than the ratio at x0; it is the
    adjacent fraction of x0 in a Farey sequence of sufficiently high order.
    Both guarantees are established in exact rational arithmetic.
    """
    q = x0.denominator
    dist = Fraction(max_distance)
    d_min = max(
        (dist.denominator + q * dist.numerator - 1) // (q * dist.numerator),
        int(math.ceil(q * ratio_factor ** 0.25)) + 1,
    )
    # the right neighbour with the smallest denominator >= d_min; at x0 = 1, the left one
    witness = (farey_successor(x0, d_min + q - 1) if x0 < 1
               else Fraction(d_min - 1, d_min))
    if abs(witness - x0) > dist or Fraction(witness.denominator, q) ** 4 < Fraction(ratio_factor):
        raise DomainError(f"witness {witness} misses the distance or ratio bound")
    return sample_at(witness)


class TestDiscontinuityWitness:
    @pytest.mark.parametrize("x0", [Fraction(p, q) for q in range(1, 11)
                                    for p in range(q + 1) if math.gcd(p, q) == 1])
    def test_every_low_denominator_rational(self, x0):
        witness = discontinuity_witness(x0, max_distance=1e-6, ratio_factor=1e8)
        assert abs(witness.chi_turns - x0) <= Fraction(1, 10 ** 6)
        assert witness.chi_turns != x0
        drop = sample_at(x0).ratio_energy / witness.ratio_energy
        assert drop >= 10 ** 8

    def test_witness_is_farey_neighbour(self):
        x0 = Fraction(2, 7)
        w = discontinuity_witness(x0).chi_turns
        a, b, c, d = x0.numerator, x0.denominator, w.numerator, w.denominator
        assert abs(b * c - a * d) == 1


class TestPrimeSequences:
    def test_fixed_denominator_two(self):
        probe = prime_sequence_probe(1, list(range(2, 12)), "fixed_denominator")
        assert all(chi == Fraction(1, 2) for chi, _ in probe.points)
        assert all(ratio == Fraction(1, 16) for _, ratio in probe.points)
        assert probe.limit_estimate == pytest.approx(1.0 / 16.0)

    def test_fixed_denominator_skips_multiples(self):
        # P_1 = 2 divides P_1; index 1 in the list must be skipped with a notice
        probe = prime_sequence_probe(1, [1, 2, 3], "fixed_denominator")
        assert len(probe.points) == 2
        assert probe.notices and "divisible" in probe.notices[0]

    def test_growing_denominator(self):
        probe = prime_sequence_probe(1, [3, 10, 100, 303], "growing_denominator")
        assert probe.target == 0.0
        # P_303 = 1999: ratio 1999^-4 ~ 6.3e-14
        smallest = min(ratio for _, ratio in probe.points)
        assert float(smallest) == pytest.approx(1999.0 ** -4, rel=1e-12)
        assert float(smallest) == pytest.approx(6.26e-14, rel=1e-2)

    def test_growing_skips_fixed_index(self):
        probe = prime_sequence_probe(3, [3, 4], "growing_denominator")
        assert len(probe.points) == 1
        assert probe.notices

    def test_ordering_invariant(self):
        probe = prime_sequence_probe(2, [3, 5, 8, 20, 50], "growing_denominator")
        dists = [abs(float(chi) - probe.target) for chi, _ in probe.points]
        assert all(a >= b for a, b in zip(dists, dists[1:]))

    @pytest.mark.parametrize("mode", ["fixed_denominator", "growing_denominator"])
    def test_one_sieve_gives_the_per_index_primes(self, mode):
        pn, indices = nth_prime(4), range(2, 302)  # P_4 = 7 divides P_4 itself
        if mode == "fixed_denominator":
            expected = [Fraction(nth_prime(m) % pn, pn) for m in indices if nth_prime(m) % pn]
        else:
            expected = [Fraction(pn, nth_prime(m)) for m in indices if m != 4]
        probe = prime_sequence_probe(4, indices, mode)
        assert sorted(chi for chi, _ in probe.points) == sorted(expected)
        assert [ratio for chi, ratio in probe.points] == [
            Fraction(1, chi.denominator ** 4) for chi, _ in probe.points]
        assert probe.points == prime_sequence_probe(4, list(indices), mode).points

    @pytest.mark.parametrize("indices", [[5, 0, 7], range(0, 5), range(5, -1, -1)])
    def test_non_positive_index_is_refused(self, indices):
        with pytest.raises(DomainError, match="prime index is 1-based"):
            prime_sequence_probe(1, indices, "growing_denominator")

    def test_huge_index_range_is_refused_without_walking_it(self):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="MiB, over the 1024 MiB memory budget"):
            prime_sequence_probe(1, range(2, 10 ** 18), "fixed_denominator")
        assert time.perf_counter() - start < 1.0

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            prime_sequence_probe(1, [2], "sideways")

    def test_near_target_sequence(self):
        probe = prime_ratio_sequence_near(Fraction(1, 2), count=4, min_denominator=2000)
        assert len(probe.points) == 4
        for chi, ratio in probe.points:
            assert chi.denominator >= 2000
            assert ratio == Fraction(1, chi.denominator ** 4)
        dists = [abs(float(chi) - 0.5) for chi, _ in probe.points]
        assert max(dists) < 0.02

    # 1/2 ties at every odd P; 99999/100000 and the 400-digit target round to P itself
    @pytest.mark.parametrize("target", [
        Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(7, 11), Fraction(1, 1000),
        Fraction(999, 1000), Fraction(99999, 100000), Fraction(10 ** 400 - 1, 10 ** 400)])
    @pytest.mark.parametrize("min_den", [3, 50, 2000])
    def test_near_numerator_is_the_nearest_prime_below_the_denominator(self, target, min_den):
        primes = primes_up_to(5000)
        dens = [p for p in primes if p >= min_den][:150]
        chis = []
        for big in dens:
            goal = round(target * big)  # Fraction rounds half to even
            chis.append(Fraction(min((p for p in primes if p < big),
                                     key=lambda p: (abs(p - goal), p)), big))
        chis.sort(key=lambda chi: -abs(float(chi) - float(target)))
        probe = prime_ratio_sequence_near(target, len(dens), min_den)
        assert probe.points == [(chi, Fraction(1, chi.denominator ** 4)) for chi in chis]
        assert probe.pairs == [(chi.numerator, chi.denominator) for chi in chis]
        assert probe.limit_estimate == float(Fraction(1, chis[-1].denominator ** 4))

    def test_the_sieve_holds_every_requested_prime(self):
        # pi(x) < 1.25506 x / ln x is tightest near x = 113; the table is never short
        primes = primes_up_to(3000)
        for min_den in range(3, 2000):
            want = [p for p in primes if p >= min_den][:5]
            got = prime_ratio_sequence_near(Fraction(1, 3), 5, min_den).pairs
            assert sorted(d for _, d in got) == want

    def test_temperature_pair_factor_1000(self):
        # the canonical nearby pair: effective temperatures differ x1000 exactly
        assert thomae(Fraction(1, 2)) / thomae(Fraction(999, 2000)) == 1000
