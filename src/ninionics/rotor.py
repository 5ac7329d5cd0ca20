"""Planar-rotor ensemble: a finite, exactly solvable angular-momentum system.

Z(beta, chi) = sum_m e^{i chi m} w_m with w_m = e^{-beta E_m} and E_m = m^2 / (2 I)
realizes the twisted partition function concretely. The rotor is the untruncated
one: m_cut, at most 4194303, is a numerical cutoff, and TruncationError refuses one
whose tail weight is not below TAIL_BOUND. For integer phases Z is real and even in
chi; the half-integer variant is e^{i chi/2} times it. By Jacobi's imaginary
transformation (DLMF 20.7(viii)), Z = sqrt(2 pi I / beta) sum_k e^{-I (chi - 2 pi k)^2 /
(2 beta)}, a sum of positive terms, so Z > 0 at every chi. ln Z is summed on whichever
side, that one or the direct sum over the support, has fewer terms (at most about 23),
and K = -ln(Z(chi)/Z(0)) is ln Z(0) - ln Z(chi): finite where Z underflows to 0.0. The
weights R(m) are the Fourier inversion of that Z on its one exact grid chi_j = -pi +
2 pi j / n, n = 2 S + 1, S the largest m <= m_cut with w_m > 0.0 in double precision:
one pass of cosine sums, each exactly rounded by math.fsum, in O(S^2) time. A weights
table of 2 m_cut + 1 rows or a Z/K table over errors.ROW_BUDGET rows, or an inversion
whose (S + 1)^2 predicted terms exceed errors.TERM_BUDGET, is refused before any weight
is computed.
"""

from __future__ import annotations

import cmath
import math
from itertools import pairwise
from math import cos, fsum, sin
from operator import mul
from typing import Iterator, NamedTuple

from .errors import TERM_BUDGET, DomainError, TruncationError, check_budget

__all__ = [
    "RotorSpec",
    "ShiftCheck",
    "partition_rotwisted",
    "angular_distribution",
    "generating_function",
    "zk_table",
    "shift_eigenphase_check",
    "TAIL_BOUND",
]

TAIL_BOUND = 1e-14
_MAX_M_CUT = 2 ** 22 - 1  # the largest m_cut accepted; _check_request says why
# e^{-x} is 0.0 in double precision for every x above about 745.13, so beta E_m < 746
# holds on the whole support
_EXP_UNDERFLOW = 746.0
_SPLIT = 2.0 ** 27 + 1.0  # Veltkamp's splitter: hi keeps the top 26 bits of a double
_MAX_WINDOW = 2 ** 26  # hi*m and lo*m are exact for |m| <= 2**26


class _RotorFields(NamedTuple):
    inertia: float
    m_cut: int


class RotorSpec(_RotorFields):
    """Truncated planar rotor: levels m in [-m_cut, m_cut] with E_m = m^2/(2 inertia),
    checked on construction."""

    __slots__ = ()

    def __new__(cls, inertia: float = 1.0, m_cut: int = 50) -> RotorSpec:
        if not inertia > 0.0:
            raise DomainError("inertia must be positive")
        if m_cut < 1:
            raise DomainError("m_cut must be >= 1")
        return super().__new__(cls, inertia, m_cut)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks as well

    def energy(self, m: int) -> float:
        return m * m / (2.0 * self.inertia)


def _check_request(spec: RotorSpec, beta: float) -> float:
    """Refuse a request before anything is allocated: m_cut range, beta, tail.

    Returns r = beta / I, inf past the double range; every later step reads only r, so
    a huge or tiny beta or I overflows nothing that r does not. Z and K allocate nothing
    per level, so memory does not bound m_cut; the range does, because past the
    truncation check it keeps r >= 3.7e-12, so K(pi) = pi^2 / (2 r) stays below 1.4e12.
    """
    if spec.m_cut > _MAX_M_CUT:
        raise DomainError(f"m_cut must be at most {_MAX_M_CUT}")
    if not beta > 0.0:
        raise DomainError("beta must be positive")
    r = beta / spec.inertia
    tail = math.exp(-r * (spec.m_cut * spec.m_cut) / 2.0)
    if tail >= TAIL_BOUND:
        # a float product: inf on overflow, never an exception
        need_sq = 2.0 * math.log(1.0 / TAIL_BOUND) * (spec.inertia / beta)
        if need_sq >= _MAX_M_CUT ** 2:
            hint = f"no m_cut up to {_MAX_M_CUT} suffices"
        else:
            hint = f"need m_cut >= {math.isqrt(int(need_sq)) + 1}"
        raise TruncationError(
            f"m_cut={spec.m_cut} leaves Boltzmann tail {tail:.3e} >= {TAIL_BOUND:g}; {hint}")
    return r


def _check_chi(chi: float) -> None:
    if not math.isfinite(chi):
        raise DomainError(f"chi must be finite, got {chi!r}")


def _cosine_table(n: int) -> list[float]:
    """cos(2 pi k / n) for k in range(n), with entry n - k equal to entry k.

    Each angle is reduced in integers to at most pi/4 before cos or sin is taken, so
    its rounding error is a quarter of that of 2 pi k / n near pi.
    """
    half = []
    for k in range(n // 2 + 1):
        if 8 * k <= n:
            half.append(math.cos(2.0 * math.pi * k / n))
        elif 8 * k <= 3 * n:  # cos t = sin(pi/2 - t)
            half.append(math.sin(math.pi * (n - 4 * k) / (2 * n)))
        else:  # cos t = -cos(pi - t)
            half.append(-math.cos(math.pi * (n - 2 * k) / n))
    return half + half[(n - 1) // 2:0:-1]


def _cosine_sums(a: list[float], n: int) -> list[float]:
    """fsum over k of a[k] cos(2 pi j k / n), exactly rounded, for j in range(len(a)).

    The cosine at j k is read from the table at j k mod n, so the phase error does
    not grow with k. The table is symmetric, entry n - k being entry k, so the sums
    at j and n - j are equal bit for bit.
    """
    cosine = _cosine_table(n).__getitem__
    last = len(a) - 1
    return [fsum(map(mul, a, map(cosine, map(n.__rmod__, range(0, j * last + 1, j)))))
            if j else fsum(a) for j in range(len(a))]


def _ln_z(r: float, chi: float) -> float:
    """ln Z for integer phases at chi in [0, pi] and r = beta / I > 0, from the side
    with fewer terms above e^{-746}: the dual sqrt(2 pi / r) sum_k e^{-(chi - t)^2 / (2 r)},
    t = 2 pi k, each term taken relative to k = 0 (about R / pi + 1 of them, R^2 =
    1492 r + chi^2), or the direct 1 + 2 sum e^{-r m^2 / 2} cos(m chi) (S + 1 terms,
    S^2 = 1492 / r). The counts multiply to about 475, so at most about 23 are summed.
    The direct side is taken above r ~ 3, where w_1 < 0.21 and nothing cancels. Only r
    enters, so no product of beta or I can overflow; at r = inf the direct sum is 1."""
    reach_sq = 2.0 * _EXP_UNDERFLOW * r + chi * chi  # R^2, inf if r is
    support_sq = 2.0 * _EXP_UNDERFLOW / r  # S^2, 0.0 if r is inf
    if reach_sq < math.pi ** 2 * support_sq:
        reach, turn = math.sqrt(reach_sq), 2.0 * math.pi
        ts = [turn * k for k in range(math.ceil((chi - reach) / turn),
                                      math.floor((chi + reach) / turn) + 1)]
        return (0.5 * (math.log(turn) - math.log(r)) - chi * chi / (2.0 * r)
                + math.log(fsum([math.exp(-t * (t - 2.0 * chi) / (2.0 * r)) for t in ts])))
    return math.log(fsum([1.0, *[2.0 * math.exp(-r * (m * m) / 2.0) * cos(m * chi)
                                 for m in range(1, math.isqrt(int(support_sq)) + 1)]]))


def _reduced_chi(chi: float) -> float:
    """|chi| reduced to [0, pi]: the integer-phase Z is even and 2 pi periodic."""
    _check_chi(chi)
    return abs(math.remainder(chi, 2.0 * math.pi))


def partition_rotwisted(spec: RotorSpec, beta: float, chi: float,
                        half_shift: bool = False) -> complex:
    """Z(beta, chi) = sum_m e^{i chi (m + 1/2 if half_shift else m)} e^{-beta E_m}."""
    reduced = _reduced_chi(chi)
    z = math.exp(_ln_z(_check_request(spec, beta), reduced))
    return z * cmath.exp(0.5j * chi) if half_shift else complex(z, 0.0)


def angular_distribution(spec: RotorSpec, beta: float) -> dict[int, float]:
    """Angular-momentum weights R(m) by Fourier inversion of Z(chi)/Z(0), keyed by m
    in ascending order from -m_cut to m_cut.

    Z is sampled on the equispaced grid chi_j = -pi + 2 pi j / n over (-pi, pi],
    each Z_j and Z(0) from the one ln Z, and R(m) = (-1)^m / (n Z(0)) sum_j Z_j
    cos(2 pi j m / n), dividing by n Z(0) last. The trapezoid rule is exact for a
    trigonometric polynomial of degree S on a grid of 2 S + 1 points, the one taken;
    the levels past S, which that Z holds, alias in below TAIL_BOUND. R(m) is exactly
    0.0 for S < |m| <= m_cut, and R(-m) is R(m). Time is O(S^2). The weights are the
    same under the half-integer phases, whose shift multiplies Z by e^{i chi/2}, which
    the inversion strips.
    """
    m_cut = spec.m_cut
    check_budget(f"a weights table to m_cut {m_cut}", 2 * m_cut + 1)
    r = _check_request(spec, beta)
    support_sq = 2.0 * _EXP_UNDERFLOW / r  # w_m is 0.0 past its root
    support = m_cut if support_sq >= m_cut * m_cut else math.isqrt(int(support_sq))
    while math.exp(-r * (support * support) / 2.0) == 0.0:  # e^{-x} is 0.0 past 745.13
        support -= 1
    n = 2 * support + 1
    check_budget(f"m_cut={m_cut} on {n} grid points", (support + 1) ** 2,
                 TERM_BUDGET, "ninionics.errors.TERM_BUDGET", "terms", "sums")
    # Z_j at |chi_j| = pi (n - 2 j) / n for j <= S; Z_{n-j} = Z_j, so fold j onto j <= S
    z = [math.exp(_ln_z(r, math.pi * (n - 2 * j) / n)) for j in range(support + 1)]
    paired = [z[0], *[2.0 * zj for zj in z[1:]]]
    z0 = math.exp(_ln_z(r, 0.0))
    right = [(-s if m % 2 else s) / n / z0 for m, s in enumerate(_cosine_sums(paired, n))]
    right += [0.0] * (m_cut - support)
    return dict(zip(range(-m_cut, m_cut + 1), right[:0:-1] + right))


def generating_function(spec: RotorSpec, beta: float, chi: float,
                        half_shift: bool = False) -> complex:
    """K = -ln(Z(beta, chi) / Z(beta, 0)) = ln Z(0) - ln Z(chi), principal branch."""
    reduced = _reduced_chi(chi)
    r = _check_request(spec, beta)
    phase = cmath.phase(cmath.exp(0.5j * chi)) if half_shift else 0.0
    # 0.0 - x is +0.0 at x = 0, so no part is -0.0
    return complex(_ln_z(r, 0.0) - _ln_z(r, reduced), 0.0 - phase)


def zk_table(spec: RotorSpec, beta: float, chi_points: int,
             half_shift: bool = False) -> Iterator[tuple[float, float, float, float, float]]:
    """Rows (chi, Re Z, Im Z, Re K, Im K) on chi_j = -pi + 2 pi j / n, j = 1..n.

    Each row is formed as it is yielded, from ln Z at |chi_j| = pi |2 j - n| / n, so
    rows j and n - j share ln Z bit for bit; K = ln Z(0) - ln Z(chi) on the principal
    branch, as in generating_function. For integer phases Im Z and Im K are 0.0. Every
    refusal, ROW_BUDGET's included, comes before it returns.
    """
    n = chi_points
    check_budget(f"a Z/K table of {n} angles", n)
    r = _check_request(spec, beta)
    ln_z0 = _ln_z(r, 0.0)

    def rows() -> Iterator[tuple[float, float, float, float, float]]:
        for j in range(1, n + 1):
            chi = -math.pi + 2.0 * math.pi * j / n
            ln_z = _ln_z(r, math.pi * abs(2 * j - n) / n)
            z, k = math.exp(ln_z), ln_z0 - ln_z
            if half_shift:
                unit = cmath.exp(0.5j * chi)
                yield chi, z * unit.real, z * unit.imag, k, 0.0 - cmath.phase(unit)
            else:
                yield chi, z, 0.0, k, 0.0

    return rows()


class ShiftCheck(NamedTuple):
    """Residual of the eigenphase action of the angular-momentum shift.

    Component convention: shifting every |m> to |m+1> sends the coherent
    components c_m = e^{i chi m} to c_{m-1} = e^{-i chi} c_m, so ``eigenphase``
    is e^{-i chi}; the operator-on-kets convention quotes the conjugate.
    """

    residual: float
    eigenphase: complex


def shift_eigenphase_check(chi: float, window: int, m_cut: int) -> ShiftCheck:
    """Shift the truncated coherent vector and measure the interior deviation.

    Components at |m| <= window are compared against eigenphase action; the
    boundary component injected by the truncation is excluded, which is why
    window < m_cut is required. Only the window is computed, in O(1) memory.
    """
    _check_chi(chi)
    if m_cut < 1:
        raise DomainError("m_cut must be >= 1")
    if not 0 <= window < m_cut:
        raise DomainError("window must satisfy 0 <= window < m_cut")
    if window >= _MAX_WINDOW:
        raise DomainError(f"window must be below 2**26 = {_MAX_WINDOW}, where chi*m "
                          f"stops being exact as a two-term product")
    # chi*m = p + e exactly (Dekker's product with chi split in halves, m an integer
    # of at most 26 bits): the rounded product alone already costs ~m*ulp(chi), which
    # would dominate the residual this check is supposed to measure
    scaled = _SPLIT * chi
    hi = scaled - (scaled - chi)
    lo = chi - hi

    def coherent(m: int) -> complex:
        p = chi * m
        e = (hi * m - p) + lo * m
        c, s = cos(p), sin(p)
        return complex(c - e * s, s + e * c)  # e^{i(p + e)} to first order in e

    phase = cmath.exp(-1j * chi)
    residual = max(abs(shifted - phase * c) for shifted, c in
                   pairwise(map(coherent, range(-window - 1, window + 1))))
    return ShiftCheck(residual, phase)
