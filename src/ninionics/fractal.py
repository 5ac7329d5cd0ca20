"""Fractal datasets over the statistical angle and prime-sequence limit probes.

Every thermodynamic ratio here depends only on the denominator of the angle:
energy and pressure scale as q^-4 and entropy as q^-3. Scan lines and prime
probes carry each angle as a lowest-terms integer pair (c, d) and print c / d
and q^-4 as correctly rounded integer quotients, so equal-q samples are equal
by construction and each float is its exact rational rounded once.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import islice
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


# Denominators whose q, q^-4 and q^-3 text one iter_scan_lines call keeps, about 0.7 MB
# traced when full; a full cache is emptied. Only scans up to _LINE_CACHE_ORDER keep it:
# a q recurs 1/q apart, about 0.3 n^2 / q rows at order n, and past that order most rows
# come after the cache was emptied, at any window width. In process on a 2-core Xeon VM,
# with the cache against without: 1.58 vs 1.67 s at order 6000 on [1/10, 3/20], 13 vs
# 16 ms at 4096 on [1/3, 1/3 + 1/1000]; 94 vs 86 ms at 1e4 there, 178 vs 159 ms at 1e5
# on the bench's 1/60000 window, and even or slower from order 8000 on.
_LINE_CACHE_SIZE = 4096
_LINE_CACHE_ORDER = 6144
# Lines per block of joined text, in the scan and occupation tables. Fresh JSON scan
# launches peaked 0.40 MB (order 200) and 0.24 MB (order 50) over one line per row at
# 256 lines, 0.12 and 0.07 MB at 64, and no higher at 32; CSV ran as fast at 32.
_LINE_BLOCK = 32

SCAN_FIELDS = ("chi_numerator", "chi_denominator", "chi_real", "q",
               "energy_ratio", "entropy_ratio")


def iter_scan_lines(order: int,
                    window: tuple[Fraction | int | str, Fraction | int | str] = (0, 1),
                    ) -> Iterator[str]:
    """The output form of :func:`iter_fractal_scan`: its CSV lines in SCAN_FIELDS order,
    newline-terminated, no header, joined into blocks of up to ``_LINE_BLOCK`` lines.

    Built from integer pairs without Fraction objects. Integer true division
    is correctly rounded, so every float is the repr of ``float()`` of the exact
    rational it stands for (chi, q^-4, q^-3). Up to order ``_LINE_CACHE_ORDER`` the
    columns that depend on q alone are formatted once per q while the call's cache
    holds at most ``_LINE_CACHE_SIZE`` denominators.
    """
    pairs = farey_pairs(order, window[0], window[1])
    if order > _LINE_CACHE_ORDER:
        while block := "".join([f"{c},{d},{c / d!r},{d},{1 / d ** 4!r},{1 / d ** 3!r}\n"
                                for c, d in islice(pairs, _LINE_BLOCK)]):
            yield block
        return
    tails: dict[int, str] = {}

    def tail(d: int) -> str:
        if len(tails) >= _LINE_CACHE_SIZE:
            tails.clear()
        text = tails[d] = f",{d},{1 / d ** 4!r},{1 / d ** 3!r}\n"
        return text
    while block := "".join([f"{c},{d},{c / d!r}{tails.get(d) or tail(d)}"
                            for c, d in islice(pairs, _LINE_BLOCK)]):
        yield block


class SequenceProbe(NamedTuple):
    """A sequence of rational angles probing one accumulation point.

    ``pairs`` holds each angle chi = c/d turns as a lowest-terms (c, d), by decreasing
    distance of c / d to ``target``; ``notices`` explains skipped members. ``points``
    gives (chi_turns, energy_ratio) = (c/d, d^-4) as Fractions, and ``limit_estimate``
    is d^-4 at the closest point, the empirical limit along the sequence.
    """

    target: float
    pairs: list[tuple[int, int]]
    notices: tuple[str, ...] = ()

    @property
    def points(self) -> list[tuple[Fraction, Fraction]]:
        return [(Fraction(c, d), Fraction(1, d ** 4)) for c, d in self.pairs]

    @property
    def limit_estimate(self) -> float:
        return 1 / self.pairs[-1][1] ** 4


def _build_probe(target: float, pairs: list[tuple[int, int]],
                 notices: list[str]) -> SequenceProbe:
    if not pairs:
        raise DomainError("probe produced no points; all indices were skipped")
    pairs.sort(key=lambda cd: -abs(cd[0] / cd[1] - target))
    return SequenceProbe(target, pairs, tuple(notices))


def prime_sequence_probe(n_fixed: int, m_indices: Sequence[int],
                         mode: str = "fixed_denominator") -> SequenceProbe:
    """Prime-ratio angle sequences with sequence-dependent limits.

    fixed_denominator: chi = (P_m mod P_n) / P_n, so every point shares the
    denominator P_n and the energy ratio is the constant P_n^-4 (members with
    P_m divisible by P_n are skipped with a notice). growing_denominator:
    chi = P_n / P_m with ratio P_m^-4, collapsing toward zero. Interleaving
    such sequences exhibits limits that differ by arbitrarily many orders of
    magnitude, which is why no analytic continuation in the angle exists.
    Each pair is in lowest terms: 0 < r < P_n, or two distinct primes.
    """
    # one sieve; a range's extremes are its ends, so a huge one is never walked
    ends = [*m_indices[:1], *m_indices[-1:]] if isinstance(m_indices, range) else m_indices
    primes = primes_up_to(max(_prime_bound(m) for m in (n_fixed, *ends)))
    pn = primes[n_fixed - 1]
    notices: list[str] = []
    pairs: list[tuple[int, int]] = []
    if mode == "fixed_denominator":
        for m in m_indices:
            pm = primes[m - 1]
            r = pm % pn
            if r == 0:
                notices.append(f"P_{m} = {pm} is divisible by P_{n_fixed} = {pn}; skipped")
                continue
            pairs.append((r, pn))
        target = pairs[-1][0] / pn if pairs else 0.0
    elif mode == "growing_denominator":
        for m in m_indices:
            if m == n_fixed:
                notices.append(f"index {m} equals the fixed index; ratio 1 skipped")
                continue
            pairs.append((pn, primes[m - 1]))
        target = 0.0
    else:
        raise DomainError(f"unknown probe mode {mode!r}")
    return _build_probe(target, pairs, notices)


def prime_ratio_sequence_near(target: Fraction, count: int,
                              min_denominator: int) -> SequenceProbe:
    """Prime-over-prime angles accumulating at ``target`` with growing denominators.

    For ``count`` successive primes P >= min_denominator the numerator is the
    prime below P nearest round(target * P), the smaller of two equally near, so
    (p, P) is in lowest terms and never 1/1. The distance to the target shrinks
    like the local prime gap over P while the energy ratio collapses as P^-4.
    """
    if not 0 < target < 1:
        raise DomainError("target must lie strictly inside (0, 1)")
    if count < 1 or min_denominator < 3:
        raise DomainError("need count >= 1 and min_denominator >= 3")
    # pi(x) < 1.25506 x / ln x (Rosser and Schoenfeld 1962), in integers at any size
    ln_num, ln_den = math.log(min_denominator).as_integer_ratio()
    primes = primes_up_to(_prime_bound(125506 * min_denominator * ln_den // (100000 * ln_num)
                                       + count))
    start = bisect_left(primes, min_denominator)
    a, b = target.as_integer_ratio()
    pairs: list[tuple[int, int]] = []
    for i, big in enumerate(primes[start:start + count], start):
        goal, rest = divmod(2 * a * big + b, 2 * b)  # target * big rounded half up,
        goal -= goal % 2 if rest == 0 else 0  # then a tie to even, as round(Fraction)
        idx = bisect_left(primes, goal, 1, i)  # the primes either side of goal below big
        lo, hi = primes[idx - 1], primes[min(idx, i - 1)]
        pairs.append((hi if hi - goal < goal - lo else lo, big))  # lo on a tie
    return _build_probe(float(target), pairs, [])
