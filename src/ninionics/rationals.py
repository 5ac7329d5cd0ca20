"""Exact rational statistical angles and the integer machinery around them.

Reduced fractions, the Thomae map, Farey sequences over any window, the residue
phases of a rotation by p/q turns, and prime generation, in exact integer and
rational arithmetic. Floats enter only through ``StatAngle.from_turns``; its best
approximation and the Farey bracket are ``Fraction.limit_denominator``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from typing import Iterator, NamedTuple

from .errors import DomainError, check_memory

__all__ = [
    "StatAngle",
    "reduce_fraction",
    "thomae",
    "farey_interval",
    "farey_pairs",
    "farey_bracket",
    "farey_successor",
    "residue_phases",
    "parse_turns",
    "primes_up_to",
]

_PRIME_BYTES = 40  # a list slot and an int object, rounded up


def reduce_fraction(p: int, q: int) -> Fraction:
    """Canonical lowest-terms fraction p/q with positive denominator.

    Parameters
    ----------
    p : int
        Numerator, any sign.
    q : int
        Denominator, must be nonzero; its sign is absorbed into the numerator.

    Raises
    ------
    DomainError
        If ``q == 0``.
    """
    if q == 0:
        raise DomainError("denominator zero")
    return Fraction(p, q)


def thomae(x: Fraction | int) -> Fraction:
    """Thomae map on exact rationals: p/q in lowest terms maps to 1/q.

    Defined on exact rationals only; an irrational argument is not
    representable here and is modelled elsewhere as the q -> infinity limit
    along rational approximants.
    """
    return Fraction(1, Fraction(x).denominator)


def farey_bracket(x: Fraction, order: int) -> tuple[Fraction, Fraction]:
    """Neighbours (u, v) of ``x`` among order-n Farey fractions, u <= x <= v.

    ``u == v == x`` exactly when ``x`` itself has denominator <= order. One
    neighbour is the nearest, ``x.limit_denominator(order)``; the other is its
    successor on x's side, the left one through the symmetry f -> 1 - f of F_n.
    """
    if order < 1:
        raise DomainError("Farey order must be >= 1")
    if not 0 <= x <= 1:
        raise DomainError("farey_bracket expects x in [0, 1]")
    near = Fraction(x).limit_denominator(order)
    if near == x:
        return x, x
    if near < x:
        return near, farey_successor(near, order)
    return 1 - farey_successor(1 - near, order), near


def farey_successor(f: Fraction, order: int) -> Fraction | None:
    """Next fraction after ``f`` in the order-n Farey sequence, None past 1/1."""
    if order < 1:
        raise DomainError("Farey order must be >= 1")
    if f >= 1:
        return None
    h, k = f.numerator, f.denominator
    if k > order:
        raise DomainError("fraction does not belong to this Farey sequence")
    # Right neighbour h'/k' satisfies h' k - h k' = 1 with order - k < k' <= order.
    k0 = (-pow(h, -1, k)) % k if k > 1 else 0
    kp = k0 + ((order - k0) // k) * k
    hp = (1 + h * kp) // k
    return Fraction(hp, kp)


def farey_pairs(order: int, lo: Fraction | int | str,
                hi: Fraction | int | str) -> Iterator[tuple[int, int]]:
    """Iterate order-n Farey fractions inside [lo, hi] as (numerator, denominator).

    The window must satisfy 0 <= lo < hi <= 1; a window containing no
    fraction yields nothing (not an error). The next-term recurrence runs on
    plain integers from the two terms of F_n that bracket ``lo``, so narrow
    windows never materialize the whole sequence and no term builds a Fraction.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not (0 <= lo < hi <= 1):
        raise DomainError("window must satisfy 0 <= lo < hi <= 1")
    u, v = farey_bracket(lo, order)
    if u == v:  # lo is in F_n and below 1, so it has a successor
        yield u.numerator, u.denominator
        v = farey_successor(u, order)
    a, b, c, d = u.numerator, u.denominator, v.numerator, v.denominator
    hi_num, hi_den = hi.numerator, hi.denominator
    while c * hi_den <= d * hi_num:
        yield c, d
        t = (order + b) // d
        a, b, c, d = c, d, t * c - a, t * d - b


def farey_interval(order: int, lo: Fraction | int | str,
                   hi: Fraction | int | str) -> Iterator[Fraction]:
    """Iterate order-n Farey fractions inside [lo, hi], ascending (see farey_pairs)."""
    for c, d in farey_pairs(order, lo, hi):
        yield Fraction(c, d)


def _farey_terms_bound(n: int, width: float = 1.0) -> float:
    """About 3 n^2 width / pi^2 + n + 1, the terms of F_n in a window of that width; an
    upper bound on [0, 1] up to n = 20000 at least. An order past 2^500 would overflow
    the float, so it gives inf."""
    return 3 * n ** 2 * width / math.pi ** 2 + n + 1 if n.bit_length() <= 500 else math.inf


def residue_phases(family: str, p: int, q: int) -> tuple[list[int], int]:
    """Phases k/den turns, k in [0, den), of the residues a = 0..q-1 of m mod q under a
    rotation by p/q turns: a p / q (den = q) for "bose", (2 a + 1) p / 2 q (den = 2 q)
    for "fermi". A Family, being a str enum, selects the same."""
    if q < 1:
        raise DomainError("q must be a positive integer")
    if family not in ("bose", "fermi"):
        raise DomainError(f"unknown family {family!r}")
    step = 1 if family == "bose" else 2  # the multiplier of p is a, or 2 a + 1
    den, r = step * q, p % (step * q)
    return [c * r % den for c in range(step - 1, den, step)], den


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, ascending (Eratosthenes sieve); requires n >= 2.

    A sieve whose estimated memory exceeds errors.MEMORY_BUDGET is refused
    before anything is allocated.
    """
    if n < 2:
        raise DomainError("primes_up_to requires n >= 2")
    # the sieve and its largest slice, 1.5 n bytes, plus a list slot and an int per
    # prime, with pi(n) < 1.25506 n / ln n (Rosser and Schoenfeld 1962); an n past
    # 2^1000 would overflow the float estimate itself
    need_bytes = (1.5 * n + _PRIME_BYTES * 1.25506 * n / math.log(n)
                  if n.bit_length() <= 1000 else math.inf)
    check_memory(f"a prime sieve up to {n}", need_bytes)
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes((n - i * i) // i + 1)
    return list(compress(range(n + 1), sieve))


def _prime_bound(index: int) -> int:
    """An integer at least the index-th prime (1-based): index (ln index + ln ln index)
    from index 6 on (Rosser 1941), exact so that a huge index cannot overflow a float."""
    if index < 1:
        raise DomainError("prime index is 1-based and must be >= 1")
    if index < 6:
        return 11
    return int(index * Fraction(math.log(index) + math.log(math.log(index)))) + 10


class StatAngle(NamedTuple):
    """Statistical rotation angle chi, stored as exact turns chi / (2 pi).

    Turns are kept exactly as given, not reduced modulo a period: bosonic
    phases are periodic with period 1 in turns while fermionic phases
    (carrying the half-integer offset) have period 2, so each consumer picks
    its own canonical representative via :meth:`bosonic` or :meth:`fermionic`.
    """

    turns: Fraction

    @property
    def denominator(self) -> int:
        return self.turns.denominator

    def bosonic(self) -> "StatAngle":
        """Canonical representative with turns reduced modulo 1."""
        return StatAngle(self.turns % 1)

    def fermionic(self) -> "StatAngle":
        """Canonical representative with turns reduced modulo 2."""
        return StatAngle(self.turns % 2)

    @classmethod
    def from_fraction(cls, p: int, q: int) -> "StatAngle":
        return cls(reduce_fraction(p, q))

    @classmethod
    def from_turns(cls, turns: Fraction | float, q_max: int = 10 ** 6) -> "StatAngle":
        """Fraction turns exactly; float turns as the nearest fraction of denominator <=
        q_max, on a tie the smaller denominator (``Fraction.limit_denominator``).
        DomainError for non-finite float turns or q_max < 1."""
        if isinstance(turns, Fraction):
            return cls(turns)
        if not math.isfinite(turns):
            raise DomainError("cannot approximate a non-finite value")
        if q_max < 1:
            raise DomainError("q_max must be >= 1")
        return cls(Fraction(turns).limit_denominator(q_max))

    @classmethod
    def parse(cls, text: str, q_max: int = 10 ** 6) -> "StatAngle":
        """Parse 'p/q' turn strings exactly, or decimal turns via rational approximation."""
        return cls.from_turns(parse_turns(text), q_max)


def parse_turns(text: str) -> Fraction | float:
    """Turns as written: 'p/q' as an exact Fraction, a decimal as a float (else ValueError)."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        return reduce_fraction(int(num), int(den))
    return float(s)
