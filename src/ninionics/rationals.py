"""Exact rational statistical angles and the integer machinery around them.

Reduced fractions, the Thomae map, Farey sequences (full and windowed), best
rational approximation of floating inputs, and prime generation. Everything is
exact integer/rational arithmetic; floats enter only through the explicit
approximation and conversion helpers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from typing import Iterator, NamedTuple

from .errors import MEMORY_BUDGET, DomainError

__all__ = [
    "ReducedFraction",
    "StatAngle",
    "reduce_fraction",
    "thomae",
    "farey_sequence",
    "farey_interval",
    "farey_pairs",
    "farey_bracket",
    "farey_successor",
    "approximate_rational",
    "parse_turns",
    "primes_up_to",
    "nth_prime",
]

# Canonical lowest-terms rational with positive denominator; stdlib Fraction
# already guarantees every invariant we need (gcd(|num|, den) = 1, den >= 1,
# zero as 0/1, value-based ordering and hashing).
ReducedFraction = Fraction

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

    ``u == v == x`` exactly when ``x`` itself has denominator <= order.
    Uses a batched Stern-Brocot descent, so the cost is logarithmic in the
    denominators rather than linear in ``order``.
    """
    if order < 1:
        raise DomainError("Farey order must be >= 1")
    if not 0 <= x <= 1:
        raise DomainError("farey_bracket expects x in [0, 1]")
    if x.denominator <= order:
        return x, x
    p, q = x.numerator, x.denominator
    a, b, c, d = 0, 1, 1, 1
    while b + d <= order:
        # x lies strictly between a/b and c/d; advance the side whose mediant
        # chain stays on x's side, as many steps as the order cap allows.
        if p * (b + d) >= (a + c) * q:
            k = min((p * b - a * q) // (c * q - p * d), (order - b) // d)
            a, b = a + k * c, b + k * d
        else:
            k = min((c * q - p * d) // (p * b - a * q), (order - d) // b)
            c, d = c + k * a, d + k * b
    return Fraction(a, b), Fraction(c, d)


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
    fraction yields nothing (not an error). Enumeration starts from the
    Stern-Brocot bracket of ``lo`` and runs the standard next-term
    recurrence on plain integers, so narrow windows never materialize the
    whole sequence and no term builds a Fraction.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not (0 <= lo < hi <= 1):
        raise DomainError("window must satisfy 0 <= lo < hi <= 1")
    _, cur = farey_bracket(lo, order)  # cur: smallest order-n fraction >= lo
    if cur > hi:
        return
    yield cur.numerator, cur.denominator
    nxt = farey_successor(cur, order)
    if nxt is None or nxt > hi:
        return
    yield nxt.numerator, nxt.denominator
    a, b, c, d = cur.numerator, cur.denominator, nxt.numerator, nxt.denominator
    hi_num, hi_den = hi.numerator, hi.denominator
    while True:
        t = (order + b) // d
        a, b, c, d = c, d, t * c - a, t * d - b
        if c * hi_den > d * hi_num:
            return
        yield c, d


def farey_interval(order: int, lo: Fraction | int | str,
                   hi: Fraction | int | str) -> Iterator[Fraction]:
    """Iterate order-n Farey fractions inside [lo, hi], ascending (see farey_pairs)."""
    for c, d in farey_pairs(order, lo, hi):
        yield Fraction(c, d)


def farey_sequence(order: int) -> list[Fraction]:
    """All irreducible fractions p/q with q <= order in [0, 1], ascending."""
    return list(farey_interval(order, Fraction(0), Fraction(1)))


def approximate_rational(x: float, q_max: int) -> Fraction:
    """Best rational approximation to ``x`` with denominator <= q_max.

    Walks the continued-fraction convergents of the exact binary value of
    ``x`` and compares the final convergent against the best admissible
    semiconvergent. Ties are broken toward the smaller denominator, then
    toward the smaller value.

    Raises
    ------
    DomainError
        For non-finite ``x`` or ``q_max < 1``.
    """
    if not math.isfinite(x):
        raise DomainError("cannot approximate a non-finite value")
    if q_max < 1:
        raise DomainError("q_max must be >= 1")
    target = Fraction(x)
    if target.denominator <= q_max:
        return target
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = target.numerator, target.denominator
    while True:
        a = n // d
        if q0 + a * q1 > q_max:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        n, d = d, n - a * d
    t = (q_max - q0) // q1
    semi = Fraction(p0 + t * p1, q0 + t * q1)
    conv = Fraction(p1, q1)
    return min((conv, semi), key=lambda f: (abs(target - f), f.denominator, f))


def _residue_phase(family: str, a, p, q: int):
    """Phase k/den turns, k in [0, den), of residue a of m mod q under a rotation by p/q
    turns: a p / q (den = q) for "bose", (2 a + 1) p / 2 q (den = 2 q) for "fermi". A
    Family, being a str enum, selects the same. Only integer operators, so a and p may
    be integers or integer arrays that broadcast."""
    if family == "bose":
        return a * (p % q) % q, q
    if family == "fermi":
        return (2 * a + 1) * (p % (2 * q)) % (2 * q), 2 * q
    raise DomainError(f"unknown family {family!r}")


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
    if need_bytes > MEMORY_BUDGET:
        raise DomainError(
            f"a prime sieve up to {n} needs an estimated {need_bytes / 2 ** 20:.4g} MiB, "
            f"over the {MEMORY_BUDGET / 2 ** 20:g} MiB memory budget "
            f"(ninionics.errors.MEMORY_BUDGET)")
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


def nth_prime(index: int) -> int:
    """The index-th prime, 1-based: nth_prime(1) == 2."""
    return primes_up_to(_prime_bound(index))[index - 1]


class StatAngle(NamedTuple):
    """Statistical rotation angle chi, stored as exact turns chi / (2 pi).

    Turns are kept exactly as given, not reduced modulo a period: bosonic
    phases are periodic with period 1 in turns while fermionic phases
    (carrying the half-integer offset) have period 2, so each consumer picks
    its own canonical representative via :meth:`bosonic` or :meth:`fermionic`.
    """

    turns: Fraction

    @property
    def chi_radians(self) -> float:
        return math.tau * float(self.turns)

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
    def from_radians(cls, chi: float, q_max: int = 10 ** 6) -> "StatAngle":
        return cls(approximate_rational(chi / math.tau, q_max))

    @classmethod
    def from_turns(cls, turns: Fraction | float, q_max: int = 10 ** 6) -> "StatAngle":
        """Fraction turns exactly, or float turns via rational approximation."""
        return cls(turns if isinstance(turns, Fraction) else approximate_rational(turns, q_max))

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
