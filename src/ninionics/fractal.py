"""Fractal datasets over the statistical angle and prime-sequence limit probes.

Every thermodynamic ratio here depends only on the denominator of the angle:
energy and pressure scale as q^-4 and entropy as q^-3. Ratios are carried as
exact rationals and converted to floats only at output time, so equal-q
samples are equal by construction and the scaling law is exact, not
approximate.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .errors import DomainError
from .rationals import (_prime_bound, farey_interval, farey_pairs, farey_successor,
                        primes_up_to)

__all__ = [
    "FractalSample",
    "SelfSimilarityReport",
    "SequenceProbe",
    "sample_at",
    "iter_fractal_scan",
    "fractal_scan",
    "SCAN_FIELDS",
    "iter_scan_lines",
    "self_similarity_check",
    "prime_sequence_probe",
    "prime_ratio_sequence_near",
    "discontinuity_witness",
]


class FractalSample(NamedTuple):
    chi_turns: Fraction
    q: int
    ratio_energy: Fraction   # exactly q^-4
    ratio_entropy: Fraction  # exactly q^-3


def sample_at(chi_turns: Fraction) -> FractalSample:
    q = chi_turns.denominator
    return FractalSample(chi_turns, q, Fraction(1, q ** 4), Fraction(1, q ** 3))


def iter_fractal_scan(order: int,
                      window: tuple[Fraction | int | str, Fraction | int | str] = (0, 1),
                      ) -> Iterator[FractalSample]:
    """One sample per order-n Farey fraction inside the window, ascending."""
    lo, hi = Fraction(window[0]), Fraction(window[1])
    for f in farey_interval(order, lo, hi):
        yield sample_at(f)


def fractal_scan(order: int,
                 window: tuple[Fraction | int | str, Fraction | int | str] = (0, 1),
                 ) -> list[FractalSample]:
    return list(iter_fractal_scan(order, window))


# Denominators whose q, q^-4 and q^-3 text one iter_scan_lines call keeps, about
# 0.5 MB. A full [0, 1] scan meets each q phi(q) times, so up to this order every
# q is formatted once; a narrow window at a high order has mostly distinct q, and
# an unbounded dict there would grow with the order.
_LINE_CACHE_SIZE = 4096

SCAN_FIELDS = ("chi_numerator", "chi_denominator", "chi_real", "q",
               "energy_ratio", "entropy_ratio")


def iter_scan_lines(order: int,
                    window: tuple[Fraction | int | str, Fraction | int | str] = (0, 1),
                    ) -> Iterator[str]:
    """The output form of :func:`iter_fractal_scan`: one CSV line per sample in
    SCAN_FIELDS order, newline-terminated, no header.

    Built from integer pairs without Fraction objects. Integer true division
    is correctly rounded, so every float is the repr of ``float()`` of the exact
    rational it stands for (chi, q^-4, q^-3). The columns that depend on q alone
    are formatted once per q while the call's cache holds at most
    ``_LINE_CACHE_SIZE`` denominators; a full cache is emptied.
    """
    tails: dict[int, str] = {}
    for c, d in farey_pairs(order, window[0], window[1]):
        tail = tails.get(d)
        if tail is None:
            if len(tails) >= _LINE_CACHE_SIZE:
                tails.clear()
            tail = tails[d] = f",{d},{1 / d ** 4!r},{1 / d ** 3!r}\n"
        yield f"{c},{d},{c / d!r}{tail}"


def _adjacent_unimodular(samples: Sequence[FractalSample]) -> bool:
    for left, right in zip(samples, samples[1:]):
        a, b = left.chi_turns.numerator, left.chi_turns.denominator
        c, d = right.chi_turns.numerator, right.chi_turns.denominator
        if b * c - a * d != 1:
            return False
    return True


def _equal_q_consistent(samples: Sequence[FractalSample]) -> bool:
    seen: dict[int, tuple[Fraction, Fraction]] = {}
    for s in samples:
        ratios = (s.ratio_energy, s.ratio_entropy)
        if seen.setdefault(s.q, ratios) != ratios:
            return False
    return True


class SelfSimilarityReport(NamedTuple):
    order: int
    window: tuple[Fraction, Fraction]
    zoom_factor: int
    samples_outer: int
    samples_zoomed: int
    equal_q_consistent: bool
    mediants_ok: bool
    zoomed_mediants_ok: bool
    descent_bijection_ok: bool | None  # exact Stern-Brocot map; full [0,1] window only

    @property
    def ok(self) -> bool:
        checks = (self.equal_q_consistent, self.mediants_ok, self.zoomed_mediants_ok)
        return all(checks) and self.descent_bijection_ok is not False


def self_similarity_check(order: int,
                          window: tuple[Fraction | int | str, Fraction | int | str],
                          zoom_factor: int) -> SelfSimilarityReport:
    """Verify the scale-invariant structure of a scan window.

    Checks numerator irrelevance (equal-q samples share exact ratios) and the
    unimodular adjacency b*c - a*d = 1 in both the window and its zoom by
    ``zoom_factor`` toward the left edge. For the full [0, 1] window the
    Stern-Brocot descent x -> x / ((z-1) x + 1) is verified exactly in both
    directions: it carries the order-n samples onto an ascending subsequence
    of the order-n*z samples of [0, 1/z], and pulling the same-order samples
    of [0, 1/z] back through it lands inside the outer sample set.
    """
    if zoom_factor < 1:
        raise DomainError("zoom factor must be a positive integer")
    lo, hi = Fraction(window[0]), Fraction(window[1])
    outer = fractal_scan(order, (lo, hi))
    zoom_hi = lo + (hi - lo) / zoom_factor
    zoomed = fractal_scan(order, (lo, zoom_hi)) if zoom_hi > lo else []

    descent: bool | None = None
    if (lo, hi) == (Fraction(0), Fraction(1)) and zoom_factor > 1:
        k = zoom_factor - 1
        mapped = [
            Fraction(s.chi_turns.numerator,
                     s.chi_turns.denominator + k * s.chi_turns.numerator)
            for s in outer
        ]
        fine = {s.chi_turns for s in
                fractal_scan(order * zoom_factor, (Fraction(0), Fraction(1, zoom_factor)))}
        forward_ok = (all(f in fine for f in mapped)
                      and all(a < b for a, b in zip(mapped, mapped[1:])))
        outer_set = {s.chi_turns for s in outer}
        backward_ok = all(
            Fraction(s.chi_turns.numerator,
                     s.chi_turns.denominator - k * s.chi_turns.numerator) in outer_set
            for s in zoomed)
        descent = forward_ok and backward_ok

    return SelfSimilarityReport(
        order=order,
        window=(lo, hi),
        zoom_factor=zoom_factor,
        samples_outer=len(outer),
        samples_zoomed=len(zoomed),
        equal_q_consistent=_equal_q_consistent(outer) and _equal_q_consistent(zoomed),
        mediants_ok=_adjacent_unimodular(outer),
        zoomed_mediants_ok=_adjacent_unimodular(zoomed),
        descent_bijection_ok=descent,
    )


class SequenceProbe(NamedTuple):
    """A sequence of rational angles probing one accumulation point.

    ``points`` holds (chi_turns, energy_ratio) ordered by decreasing distance
    to ``target``; ``limit_estimate`` is the ratio at the closest point, the
    empirical limit along the sequence. Skipped members are explained in
    ``notices``.
    """

    target: float
    points: list[tuple[Fraction, Fraction]]
    limit_estimate: float
    notices: tuple[str, ...] = ()


def _build_probe(target: float, raw_points: list[tuple[Fraction, Fraction]],
                 notices: list[str]) -> SequenceProbe:
    if not raw_points:
        raise DomainError("probe produced no points; all indices were skipped")
    pts = sorted(raw_points, key=lambda pr: -abs(float(pr[0]) - target))
    return SequenceProbe(target, pts, float(pts[-1][1]), tuple(notices))


def prime_sequence_probe(n_fixed: int, m_indices: Sequence[int],
                         mode: str = "fixed_denominator") -> SequenceProbe:
    """Prime-ratio angle sequences with sequence-dependent limits.

    fixed_denominator: chi = (P_m mod P_n) / P_n, so every point shares the
    denominator P_n and the energy ratio is the constant P_n^-4 (members with
    P_m divisible by P_n are skipped with a notice). growing_denominator:
    chi = P_n / P_m with ratio P_m^-4, collapsing toward zero. Interleaving
    such sequences exhibits limits that differ by arbitrarily many orders of
    magnitude, which is why no analytic continuation in the angle exists.
    """
    # one sieve; a range's extremes are its ends, so a huge one is never walked
    ends = [*m_indices[:1], *m_indices[-1:]] if isinstance(m_indices, range) else m_indices
    primes = primes_up_to(max(_prime_bound(m) for m in (n_fixed, *ends)))
    pn = primes[n_fixed - 1]
    notices: list[str] = []
    points: list[tuple[Fraction, Fraction]] = []
    if mode == "fixed_denominator":
        for m in m_indices:
            pm = primes[m - 1]
            r = pm % pn
            if r == 0:
                notices.append(f"P_{m} = {pm} is divisible by P_{n_fixed} = {pn}; skipped")
                continue
            chi = Fraction(r, pn)
            points.append((chi, Fraction(1, chi.denominator ** 4)))
        target = float(points[-1][0]) if points else 0.0
    elif mode == "growing_denominator":
        for m in m_indices:
            if m == n_fixed:
                notices.append(f"index {m} equals the fixed index; ratio 1 skipped")
                continue
            pm = primes[m - 1]
            chi = Fraction(pn, pm)
            points.append((chi, Fraction(1, chi.denominator ** 4)))
        target = 0.0
    else:
        raise DomainError(f"unknown probe mode {mode!r}")
    return _build_probe(target, points, notices)


def prime_ratio_sequence_near(target: Fraction, count: int,
                              min_denominator: int) -> SequenceProbe:
    """Prime-over-prime angles accumulating at ``target`` with growing denominators.

    For ``count`` successive primes P >= min_denominator the numerator is the
    prime nearest target * P, giving irreducible fractions whose distance to
    the target shrinks like the local prime gap over P while the energy ratio
    collapses as P^-4.
    """
    if not 0 < target < 1:
        raise DomainError("target must lie strictly inside (0, 1)")
    if count < 1 or min_denominator < 3:
        raise DomainError("need count >= 1 and min_denominator >= 3")
    bound = 4 * min_denominator + 200 * count
    primes = primes_up_to(bound)
    start = bisect_left(primes, min_denominator)
    if start + count > len(primes):
        raise DomainError("prime table too small for the requested sequence")
    points: list[tuple[Fraction, Fraction]] = []
    for pd in primes[start:start + count]:
        goal = round(target * pd)
        idx = bisect_left(primes, goal)
        candidates = primes[max(0, idx - 1):idx + 2]
        pp = min(candidates, key=lambda c: abs(c - goal))
        chi = Fraction(pp, pd)  # distinct primes: automatically irreducible
        points.append((chi, Fraction(1, pd ** 4)))
    return _build_probe(float(target), points, [])


def discontinuity_witness(x0: Fraction, max_distance: float = 1e-6,
                          ratio_factor: float = 1e8) -> FractalSample:
    """A Farey neighbour of x0 witnessing the discontinuity of the scaling law.

    Returns a sample within ``max_distance`` of x0 whose energy ratio is at
    least ``ratio_factor`` times smaller than the ratio at x0; it is the
    adjacent fraction of x0 in a Farey sequence of sufficiently high order.
    Both guarantees are established in exact rational arithmetic.
    """
    if not 0 <= x0 <= 1:
        raise DomainError("witness construction expects x0 in [0, 1]")
    if max_distance <= 0.0 or ratio_factor < 1.0:
        raise DomainError("need max_distance > 0 and ratio_factor >= 1")
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
