"""Finite phase sums over roots of unity and their closed forms.

These sums are what turns a rotation phase into a temperature rescaling: the
bosonic sum collapses q phase-shifted logarithms onto a single logarithm at
q-fold argument, and the fermionic one does the same up to a parity sign.
The conjugate c = +/-1 branches cancel imaginary parts, so every sum is real
up to rounding; that cancellation is checked, not assumed.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import MEMORY_BUDGET, DomainError

__all__ = [
    "GAMMA_FLOOR",
    "IdentityCheck",
    "boson_phase_sum",
    "boson_identity_rhs",
    "boson_identity_residual",
    "check_boson_identity",
    "fermion_phase_sum",
    "fermion_identity_rhs",
    "fermion_identity_residual",
    "check_fermion_identity",
    "coprime_fractions",
    "residue_phases",
    "scan_identity_residuals",
    "SCAN_TERM_BUDGET",
    "regularized_count_ratio",
    "regularized_count_limit",
]

# Smallest accepted decay rate; the m = 0, c = +/-1 term diverges at gamma = 0.
GAMMA_FLOOR = 1e-6

# Conjugate pairing cancels the imaginary parts exactly, so a half sum's imaginary part
# is rounding, bounded by _IMAG_TOL times the sum of its terms' magnitudes. The largest
# ratio seen is 0.44 eps (every p/q with q < 200, q up to 10^6 at five p, both families).
# The test is <=, since at large gamma every term can round to exactly 0 and so the bound.
_IMAG_TOL = 32 * np.finfo(float).eps
# Bytes one phase sum holds per residue, rounded up from the tracemalloc peak
# (72 B per residue at q = 10^4 to 10^6 in both families).
_PAIR_BYTES = 80
# Terms one gather chunk of the scan holds; with their conjugates and the index
# array that is about 1.5 MiB at any q.
_GATHER_TERMS = 2 ** 15
# Gathered terms one scan may sum: sum over q <= Q of phi(q) q, about 2 Q^3 / pi^2.
# On a 2-core Xeon the scan took 60 ns per term at q_max 256, where the per-q and
# per-pair work weighs most, and 25-30 ns at q_max 990 (gather, conjugate, sum and
# one result per pair), so a scan at the budget, q_max 995, takes about 6-11 s.
SCAN_TERM_BUDGET = 2 * 10 ** 8
_LIMIT_Q_EPS = 1e-6  # q * eps at which regularized_count_limit takes the ratio


class IdentityCheck:
    """One evaluation of a phase-sum identity at (p, q, gamma).

    Immutable, and equal and hashed by its fields as the package's NamedTuple records
    are, but slotted: a scan holds one per irreducible p/q, and as a NamedTuple it
    raised the peak RSS of `identity --q-max 256` by about 0.5 MB.
    """

    __slots__ = ("p", "q", "gamma", "lhs", "rhs")

    def __init__(self, p: int, q: int, gamma: float, lhs: float, rhs: float) -> None:
        set_field = object.__setattr__
        set_field(self, "p", p)
        set_field(self, "q", q)
        set_field(self, "gamma", gamma)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"IdentityCheck is immutable; cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple[int, int, float, float, float]:
        return self.p, self.q, self.gamma, self.lhs, self.rhs

    def __eq__(self, other: object) -> bool:
        if type(other) is not IdentityCheck:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "IdentityCheck(p={!r}, q={!r}, gamma={!r}, lhs={!r}, rhs={!r})".format(
            *self._key())

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def _decay(gamma: float, gamma_floor: float) -> float:
    """Return e^{-gamma}, checked to lie in (0, 1), for gamma at or above the floor."""
    if gamma < gamma_floor:
        raise DomainError(
            f"gamma must be at least {gamma_floor:g}; the m = 0 term diverges at gamma = 0")
    z = math.exp(-gamma)
    if not 0.0 < z < 1.0:
        raise DomainError(f"e^-gamma = {z!r} must lie strictly between 0 and 1")
    return z


def _validate(p: int, q: int, gamma: float, gamma_floor: float) -> float:
    """Check the inputs of a phase sum, and that its arrays fit MEMORY_BUDGET; return
    e^{-gamma}."""
    if q < 1:
        raise DomainError("q must be a positive integer")
    if math.gcd(p, q) != 1:
        raise DomainError(f"{p}/{q} is not an irreducible fraction")
    need_bytes = q * _PAIR_BYTES
    if need_bytes > MEMORY_BUDGET:
        raise DomainError(
            f"the phase sum at q = {q} needs an estimated {need_bytes / 2 ** 20:.4g} MiB, "
            f"over the {MEMORY_BUDGET / 2 ** 20:g} MiB memory budget "
            f"(ninionics.errors.MEMORY_BUDGET)")
    return _decay(gamma, gamma_floor)


def _real_part(terms: np.ndarray) -> float:
    total = 0.5 * complex(terms.sum())
    if not abs(total.imag) <= _IMAG_TOL * 0.5 * float(np.abs(terms).sum()):
        raise DomainError(f"conjugate pairing left imaginary part {total.imag!r}")
    return float(total.real)


def residue_phases(family: str, p: int | np.ndarray, q: int) -> tuple[np.ndarray, int]:
    """Phases k/den turns, k in [0, den), of the residues a = 0..q-1 of m mod q under a
    rotation by p/q turns: a p / q (den = q) for "bose", (2 a + 1) p / 2 q (den = 2 q)
    for "fermi". A Family, being a str enum, selects the same. A column array of
    numerators gives one row of phases per numerator."""
    if q < 1:
        raise DomainError("q must be a positive integer")
    a = np.arange(q)
    if family == "bose":
        return a * (p % q) % q, q
    if family == "fermi":
        return (2 * a + 1) * (p % (2 * q)) % (2 * q), 2 * q
    raise DomainError(f"unknown family {family!r}")


def _phase_sum(family: str, sign: float, p: int, q: int, gamma: float, floor: float) -> float:
    """(1/2) sum over c = +/-1 and the residues of ln(1 + sign e^{-gamma + 2 pi i c k/den})."""
    z = _validate(p, q, gamma, floor)
    k, den = residue_phases(family, p, q)
    terms = np.log(1.0 + sign * z * np.exp(2j * np.pi * k / den))
    return _real_part(np.concatenate([terms, terms.conj()]))


def boson_phase_sum(p: int, q: int, gamma: float, *,
                    gamma_floor: float = GAMMA_FLOOR) -> float:
    """(1/2) sum over c = +/-1 and m = 0..q-1 of ln(1 - e^{-gamma + 2 pi i c m p/q}).

    Principal-branch complex logarithms; safe because e^{-gamma} < 1 keeps
    every argument in the right half plane (checked).
    """
    return _phase_sum("bose", -1.0, p, q, gamma, gamma_floor)


def boson_identity_rhs(q: int, gamma: float) -> float:
    """Closed form ln(1 - e^{-q gamma})."""
    return math.log1p(-math.exp(-q * gamma))


def boson_identity_residual(p: int, q: int, gamma: float) -> float:
    return abs(boson_phase_sum(p, q, gamma) - boson_identity_rhs(q, gamma))


def check_boson_identity(p: int, q: int, gamma: float) -> IdentityCheck:
    return IdentityCheck(p, q, gamma, boson_phase_sum(p, q, gamma),
                         boson_identity_rhs(q, gamma))


def fermion_phase_sum(p: int, q: int, gamma: float, *,
                      gamma_floor: float = GAMMA_FLOOR) -> float:
    """(1/2) sum over c = +/-1 and m = 0..q-1 of ln(1 + e^{-gamma + 2 pi i c (m + 1/2) p/q})."""
    return _phase_sum("fermi", 1.0, p, q, gamma, gamma_floor)


def fermion_identity_rhs(p: int, q: int, gamma: float) -> float:
    """Closed form ln(1 - (-1)^{p+q} e^{-q gamma})."""
    sign = 1.0 if (p + q) % 2 == 0 else -1.0
    return math.log1p(-sign * math.exp(-q * gamma))


def fermion_identity_residual(p: int, q: int, gamma: float) -> float:
    return abs(fermion_phase_sum(p, q, gamma) - fermion_identity_rhs(p, q, gamma))


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


def scan_identity_residuals(family: str, q_max: int, gamma: float) -> list[IdentityCheck]:
    """Evaluate one identity over every irreducible p/q with q <= q_max, q then p ascending.

    For gcd(p, q) = 1 the map of residue_phases permutes the den phases, so every p
    with the same q sums the same den logarithms, reordered. Each q takes them once
    and gathers them for all its p, in chunks of _GATHER_TERMS terms; every lhs is
    bit-identical to the per-pair phase sum. A scan over SCAN_TERM_BUDGET gathered
    terms is refused before any logarithm.
    """
    if family not in ("bose", "fermi"):
        raise DomainError(f"unknown family {family!r}")
    if q_max < 1:
        raise DomainError("q_max must be >= 1")
    # an int past 2^300 would overflow the float estimate itself
    terms = 2 * q_max ** 3 / math.pi ** 2 if q_max.bit_length() <= 300 else math.inf
    if terms > SCAN_TERM_BUDGET:
        raise DomainError(
            f"an identity scan to q_max {q_max} gathers an estimated {terms:.4g} terms "
            f"(2 q_max^3 / pi^2), over the budget of {SCAN_TERM_BUDGET:.3g} terms "
            f"(ninionics.identities.SCAN_TERM_BUDGET)")
    z = _decay(gamma, GAMMA_FLOOR)
    sign = -1.0 if family == "bose" else 1.0
    checks = []
    for q in range(1, q_max + 1):
        den = q if family == "bose" else 2 * q
        logs = np.log(1.0 + sign * z * np.exp(2j * np.pi * np.arange(den) / den))
        # the closed form and the rounding bound by the parity of p: a fermi row sums
        # the half of the den logarithms whose phases share p's parity
        rhs = ([boson_identity_rhs(q, gamma)] * 2 if family == "bose"
               else [fermion_identity_rhs(par, q, gamma) for par in (0, 1)])
        size = np.abs(logs)
        bound = _IMAG_TOL * np.array([size.sum()] * 2 if family == "bose"
                                     else [size[par::2].sum() for par in (0, 1)])
        ps = np.arange(1, q + 1)
        ps = ps[np.gcd(ps, q) == 1]
        step = max(1, _GATHER_TERMS // q)
        for chunk in (ps[i:i + step] for i in range(0, ps.size, step)):
            # each row as _phase_sum lays it out, the terms then their conjugates,
            # reduced along the row, so every lhs matches it bit for bit
            rows = np.empty((chunk.size, 2 * q), complex)
            np.take(logs, residue_phases(family, chunk[:, None], q)[0], out=rows[:, :q])
            np.conjugate(rows[:, :q], out=rows[:, q:])
            total = 0.5 * rows.sum(axis=1)
            bad = np.flatnonzero(~(np.abs(total.imag) <= bound[chunk & 1]))
            if bad.size:
                raise DomainError(f"conjugate pairing left imaginary part "
                                  f"{float(total.imag[bad[0]])!r} at {chunk[bad[0]]}/{q}")
            checks += [IdentityCheck(p, q, gamma, lhs, rhs[p & 1])
                       for p, lhs in zip(chunk.tolist(), total.real.tolist())]
    return checks


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
