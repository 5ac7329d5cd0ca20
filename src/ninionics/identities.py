"""Finite phase sums over roots of unity and their closed forms.

These sums are what turns a rotation phase into a temperature rescaling: the
bosonic sum collapses q phase-shifted logarithms onto a single logarithm at
q-fold argument, and the fermionic one does the same up to a parity sign.
The conjugate c = +/-1 branches are exact conjugates, so their half sum is
the real part of the c = +1 logarithm, taken in a form that keeps the digits
of e^{-gamma} at any gamma; every sum is taken with math.fsum, exactly rounded
whatever the order of its terms.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from .errors import TERM_BUDGET, DomainError, check_budget
from .rationals import _farey_terms_bound

__all__ = [
    "GAMMA_FLOOR",
    "IdentityCheck",
    "boson_phase_sum",
    "boson_identity_rhs",
    "check_boson_identity",
    "fermion_phase_sum",
    "fermion_identity_rhs",
    "check_fermion_identity",
    "coprime_fractions",
    "identity_class_sums",
    "scan_identity_residuals",
    "regularized_count_ratio",
    "regularized_count_limit",
]

# Smallest accepted decay rate; the m = 0, c = +/-1 term diverges at gamma = 0.
GAMMA_FLOOR = 1e-6
_LIMIT_Q_EPS = 1e-6  # q * eps at which regularized_count_limit takes the ratio
_LN2 = math.log(2.0)


class IdentityCheck(NamedTuple):
    """One evaluation of a phase-sum identity at (p, q, gamma)."""

    p: int
    q: int
    gamma: float
    lhs: float
    rhs: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def _check_gamma(gamma: float) -> None:
    """Refuse gamma below GAMMA_FLOOR, or so large that e^{-gamma} rounds to 0."""
    if gamma < GAMMA_FLOOR:
        raise DomainError(
            f"gamma must be at least {GAMMA_FLOOR:g}; the m = 0 term diverges at gamma = 0")
    z = math.exp(-gamma)
    if not 0.0 < z < 1.0:
        raise DomainError(f"e^-gamma = {z!r} must lie strictly between 0 and 1")


def _validate(p: int, q: int, gamma: float) -> None:
    """Check the inputs of a phase sum, and that its q terms fit errors.TERM_BUDGET;
    gcd(p, q) = 1 makes the sum its class sum (see identity_class_sums)."""
    if q < 1:
        raise DomainError("q must be a positive integer")
    if math.gcd(p, q) != 1:
        raise DomainError(f"{p}/{q} is not an irreducible fraction")
    check_budget(f"the phase sum at q = {q}", q, TERM_BUDGET, "ninionics.errors.TERM_BUDGET",
                 "terms", "sums")
    _check_gamma(gamma)


def _half_sum(sign: float, gamma: float, ks, den: int) -> float:
    """(1/2) sum over c = +/-1 and k in ks of ln(1 + sign e^{-gamma + 2 pi i c k/den}):
    the sum of (1/2) ln|1 - z e^{i phi}|^2, z = e^{-gamma}, at phi = 2 pi k/den (bose,
    sign -1) or that plus pi (fermi). As in thermo._log_terms, |...|^2 is 1 + z (z - 2 cos
    phi) for z < 1/2, else (1 - z)^2 + 2 (1 - cos phi) z with 1 - z = -expm1(-gamma) and
    1 - cos phi = 2 sin^2 (bose) or 2 cos^2 (fermi) of pi k/den: no form cancels."""
    z = math.exp(-gamma)
    if z < 0.5:
        two_sign, turn, cos, log1p = 2.0 * sign, 2.0 * math.pi / den, math.cos, math.log1p
        return 0.5 * math.fsum(log1p(z * (z + two_sign * cos(turn * k))) for k in ks)
    one_minus_z, half, log = -math.expm1(-gamma), math.pi / den, math.log
    gap, four_z, h = one_minus_z * one_minus_z, 4.0 * z, math.sin if sign < 0 else math.cos
    return 0.5 * math.fsum(log(gap + four_z * v * v) for v in map(h, (half * k for k in ks)))


def boson_phase_sum(p: int, q: int, gamma: float) -> float:
    """(1/2) sum over c = +/-1 and m = 0..q-1 of ln(1 - e^{-gamma + 2 pi i c m p/q})."""
    _validate(p, q, gamma)
    return _half_sum(-1.0, gamma, range(q), q)


def boson_identity_rhs(q: int, gamma: float) -> float:
    """Closed form ln(1 - e^{-q gamma}), with 1 - e^{-q gamma} taken as -expm1 where it is
    below 1/2, so that neither branch cancels."""
    x = q * gamma
    return math.log(-math.expm1(-x)) if x < _LN2 else math.log1p(-math.exp(-x))


def check_boson_identity(p: int, q: int, gamma: float) -> IdentityCheck:
    return IdentityCheck(p, q, gamma, boson_phase_sum(p, q, gamma),
                         boson_identity_rhs(q, gamma))


def fermion_phase_sum(p: int, q: int, gamma: float) -> float:
    """(1/2) sum over c = +/-1 and m = 0..q-1 of ln(1 + e^{-gamma + 2 pi i c (m + 1/2) p/q})."""
    _validate(p, q, gamma)
    return _half_sum(1.0, gamma, range(p & 1, 2 * q, 2), 2 * q)


def fermion_identity_rhs(p: int, q: int, gamma: float) -> float:
    """Closed form ln(1 - (-1)^{p+q} e^{-q gamma})."""
    if (p + q) % 2 == 0:
        return boson_identity_rhs(q, gamma)
    return math.log1p(math.exp(-q * gamma))


def check_fermion_identity(p: int, q: int, gamma: float) -> IdentityCheck:
    return IdentityCheck(p, q, gamma, fermion_phase_sum(p, q, gamma),
                         fermion_identity_rhs(p, q, gamma))


def coprime_fractions(q_max: int) -> Iterator[tuple[int, int]]:
    """All irreducible (p, q) with 1 <= p <= q <= q_max; includes (1, 1)."""
    if q_max < 1:
        raise DomainError("q_max must be >= 1")
    for q in range(1, q_max + 1):
        for p in range(1, q + 1):
            if math.gcd(p, q) == 1:
                yield p, q


def _coprime_count(q_max: int) -> int:
    """How many fractions coprime_fractions(q_max) yields: the sum of Euler's phi(q)
    over q <= q_max, by a sieve."""
    phi = list(range(q_max + 1))
    for n in range(2, q_max + 1):
        if phi[n] == n:  # untouched, so n is prime
            phi[n::n] = [m - m // n for m in phi[n::n]]
    return sum(phi) - phi[0]


def identity_class_sums(family: str, q_max: int,
                        gamma: float) -> dict[tuple[int, int], tuple[float, float]]:
    """(lhs, rhs) of one identity for every class (q, p & 1) that holds an irreducible
    p/q with q <= q_max, q then parity ascending.

    For gcd(p, q) = 1 the phases a p / q (bose) or (a + 1/2) p / q (fermi) turns, a =
    0..q-1, run over a class that depends on q and the parity of p alone: all q residues
    of q (bose), or the residues of 2 q that share p's parity (fermi). fsum rounds exactly
    in any order, so each per-pair phase sum is its class sum, taken here once per class
    by the same _half_sum. A scan whose table, one row per fraction, would be over
    errors.ROW_BUDGET is refused before any logarithm.
    """
    if family not in ("bose", "fermi"):
        raise DomainError(f"unknown family {family!r}")
    if q_max < 1:
        raise DomainError("q_max must be >= 1")
    check_budget(f"an identity scan to q_max {q_max}", _farey_terms_bound(q_max) - 1)
    _check_gamma(gamma)
    sums = {}
    for q in range(1, q_max + 1):
        # p = 1 is odd; an even p is coprime to q only at odd q > 1
        parities = (0, 1) if q % 2 and q > 1 else (1,)
        if family == "bose":
            both = _half_sum(-1.0, gamma, range(q), q), boson_identity_rhs(q, gamma)
            sums.update(((q, par), both) for par in parities)
        else:
            sums.update(((q, par), (_half_sum(1.0, gamma, range(par, 2 * q, 2), 2 * q),
                                    fermion_identity_rhs(par, q, gamma)))
                        for par in parities)
    return sums


def scan_identity_residuals(family: str, q_max: int, gamma: float) -> list[IdentityCheck]:
    """Evaluate one identity over every irreducible p/q with q <= q_max, q then p ascending.

    Every lhs is its class sum from identity_class_sums, bit-identical to the per-pair
    phase sum."""
    sums = identity_class_sums(family, q_max, gamma)
    return [IdentityCheck(p, q, gamma, *sums[q, p & 1]) for p, q in coprime_fractions(q_max)]


def regularized_count_ratio(q: int, eps: float) -> float:
    """S(q eps) / S(eps) for S(eps) = sum over all integers m of e^{-eps |m|}.

    S has the closed form (1 + e^{-eps}) / (1 - e^{-eps}) = coth(eps/2), so the
    ratio is tanh(eps/2) / tanh(q eps/2), which has no cancellation at small
    eps. Its eps -> 0 limit is 1/q, the regularized relative count of an
    arithmetic subsequence of angular momenta with step q.
    """
    if q < 1:
        raise DomainError("q must be a positive integer")
    if not eps > 0.0:
        raise DomainError("regulator eps must be positive")
    return math.tanh(0.5 * eps) / math.tanh(0.5 * q * eps)


def regularized_count_limit(q: int) -> float:
    """The eps -> 0 limit 1/q of S(q eps)/S(eps), reached to rounding.

    The ratio exceeds 1/q by (q^2 - 1) eps^2 / (12 q); at q eps = 1e-6 that is
    below 1e-13 relative for every q.
    """
    if q < 1:
        raise DomainError("q must be a positive integer")
    return regularized_count_ratio(q, _LIMIT_Q_EPS / q)
