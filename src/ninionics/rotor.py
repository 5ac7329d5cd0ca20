"""Planar-rotor ensemble: a finite, exactly solvable angular-momentum system.

Z(beta, chi) = sum_m e^{i chi m} w_m with w_m = e^{-beta E_m} over a truncated
spectrum E_m = m^2 / (2 I) realizes the twisted partition function concretely.
Every weight past the support S, the largest m <= m_cut with w_m > 0.0 in
double precision, is exactly 0.0, so every sum stops at S. For integer phases
Z is real, Z(chi) = w_0 + 2 sum_{m=1..S} w_m cos(m chi); the half-integer
variant is e^{i chi/2} times that. On the equispaced grid
chi_j = -pi + 2 pi j / n, Z at every point and the inversion of Z(chi)/Z(0) to
the per-m weights are cosine sums sum_k a_k cos(2 pi j k / n), each exactly
rounded by math.fsum: O(n S) time per pass over the grid. The generating
function is the logarithm of the partition-function ratio. A request whose
estimated memory exceeds MEMORY_BUDGET, or whose predicted terms exceed
TERM_BUDGET, is refused before any weight is computed.
"""

from __future__ import annotations

import cmath
import math
from itertools import pairwise
from math import cos, fsum, sin
from operator import mul
from typing import Iterator, NamedTuple

from .errors import MEMORY_BUDGET, DomainError, TruncationError, check_budget, check_memory

__all__ = [
    "RotorSpec",
    "ShiftCheck",
    "partition_rotwisted",
    "angular_distribution",
    "generating_function",
    "zk_table",
    "shift_eigenphase_check",
    "TAIL_BOUND",
    "MEMORY_BUDGET",
    "RATIO_FLOOR",
    "TERM_BUDGET",
]

TAIL_BOUND = 1e-14
# Smallest |Z(chi)/Z(0)| at which K is reported. Z carries a rounding error of
# about 1e-16 * Z(0), so K = -ln(Z/Z(0)) is good to about 1e-16 / RATIO_FLOOR.
RATIO_FLOOR = 1e-10
# Products a_k cos(...) one request may sum: grid points summed times support levels,
# per pass. At the budget's edge the kernel took 227 ns per term on a support of 2235
# levels and 535 ns on one of 38 (its table reads miss the cache), so the largest
# admitted request, a zk table of 512,818 rows, runs in about 9 s.
TERM_BUDGET = 10_000_000
# Bytes per level and per grid point, from tracemalloc peaks: per level one weights-dict
# entry (88-119 B at m_cut 1e3-1e6), per point a cosine-table entry and a half-grid sum
# (36 B for the zk table, whose rows stream, at n = 2e3-5e5; 61-75 B for the weights
# grid at n = 2e3-1e5). The point figure is above both: it is kept from when every zk
# row was held (199-201 B a point), so the budget admits the same requests. The default
# weights grid counts as 2 m_cut + 1 points; on a full support, where it has that many,
# the weights took 164 B per level.
_LEVEL_BYTES = 128
_POINT_BYTES = 256
_MAX_M_CUT = (MEMORY_BUDGET // _LEVEL_BYTES - 1) // 2  # largest bare Z that fits
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


def _check_request(spec: RotorSpec, beta: float, grid_points: int = 0) -> int:
    """Refuse a request before anything is allocated: over budget, beta, tail.

    Returns an upper bound on the support S, found without computing a weight.
    """
    check_memory(f"m_cut={spec.m_cut} with {grid_points} grid points",
                 _LEVEL_BYTES * (2 * spec.m_cut + 1) + _POINT_BYTES * grid_points)
    if not beta > 0.0:
        raise DomainError("beta must be positive")
    tail = math.exp(-beta * spec.energy(spec.m_cut))
    if tail >= TAIL_BOUND:
        # a float product: inf on overflow, never an exception
        need_sq = 2.0 * spec.inertia * math.log(1.0 / TAIL_BOUND) / beta
        if need_sq >= _MAX_M_CUT ** 2:
            hint = f"no m_cut within the memory budget (at most {_MAX_M_CUT}) suffices"
        else:
            hint = f"need m_cut >= {math.isqrt(int(need_sq)) + 1}"
        raise TruncationError(
            f"m_cut={spec.m_cut} leaves Boltzmann tail {tail:.3e} >= {TAIL_BOUND:g}; {hint}")
    support_sq = 2.0 * spec.inertia * _EXP_UNDERFLOW / beta
    return spec.m_cut if support_sq >= spec.m_cut ** 2 else math.isqrt(int(support_sq))


def _check_chi(chi: float) -> None:
    if not math.isfinite(chi):
        raise DomainError(f"chi must be finite, got {chi!r}")


def _check_terms(spec: RotorSpec, grid_points: int, terms: int) -> None:
    """Refuse, before any weight is computed, a request over TERM_BUDGET."""
    check_budget(f"m_cut={spec.m_cut} on {grid_points} grid points", terms, TERM_BUDGET,
                 "ninionics.rotor.TERM_BUDGET", "terms", "sums")


def _support_weights(spec: RotorSpec, beta: float) -> list[float]:
    """w_m = e^{-beta E_m} for m = 0..S; every later weight is exactly 0.0."""
    weights = []
    for m in range(spec.m_cut + 1):
        w = math.exp(-beta * spec.energy(m))
        if w == 0.0:
            break
        weights.append(w)
    return weights


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


def _cosine_sums(a: list[float], n: int, count: int) -> list[float]:
    """fsum over k of a[k] cos(2 pi j k / n), exactly rounded, for j in range(count).

    The cosine at j k is read from the table at j k mod n, so the phase error does
    not grow with k. The table is symmetric, entry n - k being entry k, so the sums
    at j and n - j are equal bit for bit.
    """
    cosine = _cosine_table(n).__getitem__
    last = len(a) - 1
    return [fsum(map(mul, a, map(cosine, map(n.__rmod__, range(0, j * last + 1, j)))))
            if j else fsum(a) for j in range(count)]


def _folded(weights: list[float]) -> list[float]:
    """(w_0, 2 w_1, ..., 2 w_S): the terms of Z(0), the levels m and -m taken together."""
    return [weights[0], *[2.0 * w for w in weights[1:]]]


def _grid_sums(folded: list[float], n: int) -> list[float]:
    """Z(chi_j) for integer phases at chi_j = -pi + 2 pi j / n, j = 0..n//2.

    e^{i chi_j m} = (-1)^m e^{2 pi i j m / n}, and Z is even in chi, so Z_j is the
    cosine sum of a_k = (-1)^k folded_k. Z_{n-j} is Z_j.
    """
    return _cosine_sums([-c if k % 2 else c for k, c in enumerate(folded)], n, n // 2 + 1)


def partition_rotwisted(spec: RotorSpec, beta: float, chi: float,
                        half_shift: bool = False) -> complex:
    """Z(beta, chi) = sum_m e^{i chi (m + 1/2 if half_shift else m)} e^{-beta E_m}."""
    _check_chi(chi)
    _check_request(spec, beta)
    # the terms at m and -m are conjugates, so the integer-phase Z is real
    folded = _folded(_support_weights(spec, beta))
    z = complex(fsum([c * cos(chi * m) for m, c in enumerate(folded)]), 0.0)
    return z * cmath.exp(0.5j * chi) if half_shift else z


def angular_distribution(spec: RotorSpec, beta: float,
                         n_grid: int | None = None) -> dict[int, float]:
    """Angular-momentum weights R(m) by Fourier inversion of Z(chi)/Z(0).

    Z is sampled on the equispaced grid chi_j = -pi + 2 pi j / n over (-pi, pi],
    and R(m) = (-1)^m / (n Z(0)) sum_j Z_j cos(2 pi j m / n), dividing by n Z(0)
    last. The trapezoid rule is exact for the truncated Z, a trigonometric
    polynomial of degree S, provided the grid has at least 2 S + 1 points. The
    default grid is the smallest, 2 S + 1; a caller's n_grid must have at least
    2 m_cut + 1. R(m) is exactly 0.0 for S < |m| <= m_cut, and R(-m) is R(m).
    Time is O(n S). The weights are the same under the half-integer phases, whose
    shift multiplies Z by e^{i chi/2}, which the inversion strips.
    """
    m_cut = spec.m_cut
    if n_grid is not None and n_grid < 2 * m_cut + 1:
        raise DomainError(
            f"a {n_grid}-point angle grid aliases band limit {m_cut}; "
            f"need >= {2 * m_cut + 1}")
    bound = _check_request(spec, beta, n_grid or 2 * m_cut + 1)
    n = n_grid or 2 * bound + 1
    _check_terms(spec, n, 2 * (n // 2 + 1) * (bound + 1))
    folded = _folded(_support_weights(spec, beta))
    support = len(folded) - 1
    n = n_grid or 2 * support + 1
    z = _grid_sums(folded, n)
    # Z_{n-j} = Z_j: fold the sum over j onto j <= n/2
    paired = [2.0 * zj for zj in z]
    paired[0] = z[0]
    if n % 2 == 0:
        paired[-1] = z[-1]
    z0 = fsum(folded)
    sums = _cosine_sums(paired, n, support + 1)
    right = [(-s if m % 2 else s) / n / z0 for m, s in enumerate(sums)]
    right += [0.0] * (m_cut - support)
    return dict(zip(range(-m_cut, m_cut + 1), right[:0:-1] + right))


def _minus_log(ratio: complex | float) -> complex:
    """-ln ratio on the principal branch, never with a -0.0 part (0.0 - x is +0.0 at x = 0)."""
    log = cmath.log(ratio)
    return complex(0.0 - log.real, 0.0 - log.imag)


def generating_function(spec: RotorSpec, beta: float, chi: float,
                        half_shift: bool = False) -> complex:
    """K = -ln(Z(beta, chi) / Z(beta, 0)), principal branch."""
    z0 = partition_rotwisted(spec, beta, 0.0, half_shift).real
    ratio = partition_rotwisted(spec, beta, chi, half_shift) / z0
    if abs(ratio) < RATIO_FLOOR:
        raise _vanishing(chi, abs(ratio))
    return _minus_log(ratio)


def _vanishing(chi: float, ratio: float) -> DomainError:
    return DomainError(f"partition function vanishes at chi={chi!r}: |Z/Z0| = {ratio:.3e} "
                       f"is below the floor {RATIO_FLOOR:g}; K undefined there")


def zk_table(spec: RotorSpec, beta: float, chi_points: int,
             half_shift: bool = False) -> Iterator[tuple[float, float, float, float, float]]:
    """Rows (chi, Re Z, Im Z, Re K, Im K) on chi_j = -pi + 2 pi j / n, j = 1..n.

    Z on half the grid is one pass of cosine sums, Z_{n-j} being Z_j; K =
    -ln(Z/Z(0)) on the principal branch, as in generating_function. For integer
    phases Im Z is 0.0. Raises DomainError at the first chi where Z vanishes,
    before it returns; the rows are then yielded one at a time, so only the
    half-grid sums are held.
    """
    n = chi_points
    support = _check_request(spec, beta, n)
    _check_terms(spec, n, (n // 2 + 1) * (support + 1))
    folded = _folded(_support_weights(spec, beta))
    z0 = fsum(folded)
    sums = _grid_sums(folded, n)

    def grid() -> Iterator[tuple[float, float]]:
        """(chi_j, integer-phase Z at chi_j) for j = 1..n."""
        for j in range(1, n + 1):
            yield -math.pi + 2.0 * math.pi * j / n, sums[min(j % n, n - j % n)]

    for chi, z in grid():
        if abs(z) < RATIO_FLOOR * z0:
            raise _vanishing(chi, abs(z / z0))

    def rows() -> Iterator[tuple[float, float, float, float, float]]:
        for chi, z in grid():
            if half_shift:
                z = z * cmath.exp(0.5j * chi)
            k = _minus_log(z / z0)
            yield chi, z.real, z.imag, k.real, k.imag

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
