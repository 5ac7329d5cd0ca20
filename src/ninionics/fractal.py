"""Fractal datasets over the statistical angle and prime-sequence limit probes.

Every thermodynamic ratio here depends only on the denominator of the angle:
energy and pressure scale as q^-4 and entropy as q^-3. Ratios are carried as
exact rationals and converted to floats only at output time, so equal-q
samples are equal by construction and the scaling law is exact, not
approximate.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .errors import DomainError
from .rationals import _prime_bound, farey_interval, farey_pairs, primes_up_to

__all__ = [
    "FractalSample",
    "SequenceProbe",
    "sample_at",
    "iter_fractal_scan",
    "fractal_scan",
    "SCAN_FIELDS",
    "iter_scan_lines",
    "prime_sequence_probe",
    "prime_ratio_sequence_near",
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

