"""Planar-rotor ensemble: a finite, exactly solvable angular-momentum system.

Z(beta, chi) = sum_m e^{i chi m} e^{-beta E_m} over a truncated spectrum
E_m = m^2 / (2 I) realizes the twisted partition function concretely. On the
equispaced grid chi_j = -pi + 2 pi j / n, Z is one discrete Fourier transform
of the Boltzmann weights folded by m mod n, so one FFT gives Z at every grid
point, and a second FFT of Z(chi)/Z(0) inverts it to the per-m weights
exactly (the truncated Z is band-limited): O(M log M) time and O(M) memory
for M = m_cut. The generating function is the logarithm of the
partition-function ratio. The half-integer variant shifts every phase by
chi/2. A request whose estimated memory exceeds MEMORY_BUDGET is refused
before any array is built.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import MEMORY_BUDGET, DomainError, TruncationError

__all__ = [
    "RotorSpec",
    "EnsembleReport",
    "ShiftCheck",
    "partition_rotwisted",
    "angular_distribution",
    "generating_function",
    "zk_table",
    "ensemble_report",
    "shift_eigenphase_check",
    "TAIL_BOUND",
    "MEMORY_BUDGET",
    "RATIO_FLOOR",
]

TAIL_BOUND = 1e-14
# Smallest |Z(chi)/Z(0)| at which K is reported. Z carries a rounding error of
# about 1e-16 * Z(0), so K = -ln(Z/Z(0)) is good to about 1e-16 / RATIO_FLOOR.
RATIO_FLOOR = 1e-10
# Bytes per level and per grid point, rounded up from tracemalloc peaks: per
# level the level, weight and bin arrays plus one weights-dict entry (about
# 130 B at M = 1e5), per point the complex Z and ratio arrays plus one zk row
# of five floats (about 305 B).
_LEVEL_BYTES = 192
_POINT_BYTES = 320
_MAX_M_CUT = (MEMORY_BUDGET // _LEVEL_BYTES - 1) // 2  # largest bare Z that fits


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

    def levels(self) -> np.ndarray:
        return np.arange(-self.m_cut, self.m_cut + 1)


def _check_request(spec: RotorSpec, beta: float, grid_points: int = 0) -> None:
    """Refuse a request before anything is allocated: over budget, beta, tail."""
    need_bytes = _LEVEL_BYTES * (2 * spec.m_cut + 1) + _POINT_BYTES * grid_points
    if need_bytes > MEMORY_BUDGET:
        raise DomainError(
            f"m_cut={spec.m_cut} with {grid_points} grid points needs an estimated "
            f"{need_bytes / 2 ** 20:.4g} MiB, over the {MEMORY_BUDGET / 2 ** 20:g} MiB "
            f"memory budget (ninionics.errors.MEMORY_BUDGET)")
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


def partition_rotwisted(spec: RotorSpec, beta: float, chi: float,
                        half_shift: bool = False) -> complex:
    """Z(beta, chi) = sum_m e^{i chi (m + 1/2 if half_shift else m)} e^{-beta E_m}."""
    _check_request(spec, beta)
    m = spec.levels().astype(float)
    phases = chi * (m + 0.5) if half_shift else chi * m
    weights = np.exp(-beta * m * m / (2.0 * spec.inertia))
    return complex(np.sum(weights * np.exp(1j * phases)))


def _grid_partition(spec: RotorSpec, beta: float, n: int,
                    half_shift: bool) -> tuple[np.ndarray, np.ndarray]:
    """Z(beta, chi_j) at chi_j = -pi + 2 pi j / n for j = 1..n, from one FFT.

    e^{i chi_j m} = (-1)^m e^{2 pi i j m / n}, so Z_j is the inverse DFT of the
    weights w_m (-1)^m summed by m mod n, which is exact for any n, also
    n < 2 m_cut + 1. The transform's index 0 is j = n, hence the roll.
    """
    m = spec.levels()
    signed = np.exp(-beta * (m * m) / (2.0 * spec.inertia))
    signed[m % 2 == 1] *= -1.0
    folded = np.bincount(m % n, weights=signed, minlength=n)
    chis = -math.pi + 2.0 * math.pi * np.arange(1, n + 1) / n
    z = np.roll(np.fft.ifft(folded), -1) * n
    if half_shift:
        z *= np.exp(0.5j * chis)
    return chis, z


def angular_distribution(spec: RotorSpec, beta: float, n_grid: int | None = None,
                         half_shift: bool = False) -> dict[int, float]:
    """Angular-momentum weights R(m) by Fourier inversion of Z(chi)/Z(0).

    Z is sampled on the equispaced grid chi_j = -pi + 2 pi j / n over
    (-pi, pi] by one FFT, divided by Z(0), stripped of the half-shift phase,
    and inverted by one more FFT read at m mod n. The trapezoid rule is exact
    for the truncated Z, which is band-limited by m_cut, provided the grid
    has at least 2*m_cut + 1 points (default 4*m_cut + 1). Time is
    O(n log n) and memory O(n).
    """
    m_cut = spec.m_cut
    n = 4 * m_cut + 1 if n_grid is None else n_grid
    if n < 2 * m_cut + 1:
        raise DomainError(
            f"a {n}-point angle grid aliases band limit {m_cut}; need >= {2 * m_cut + 1}")
    _check_request(spec, beta, n)
    z0 = partition_rotwisted(spec, beta, 0.0, half_shift).real
    chis, z = _grid_partition(spec, beta, n, half_shift)
    ratio = z / z0
    if half_shift:
        ratio *= np.exp(-0.5j * chis)
    # R(m) = (-1)^m / n * sum_j ratio_j e^{-2 pi i j m / n}; roll j = n to index 0
    spectrum = np.fft.fft(np.roll(ratio, 1)).real / n
    ms = spec.levels()
    weights = spectrum[ms % n]
    weights[ms % 2 == 1] *= -1.0
    return dict(zip(ms.tolist(), weights.tolist()))


def generating_function(spec: RotorSpec, beta: float, chi: float,
                        half_shift: bool = False) -> complex:
    """K = -ln(Z(beta, chi) / Z(beta, 0)), principal branch."""
    z0 = partition_rotwisted(spec, beta, 0.0, half_shift).real
    ratio = partition_rotwisted(spec, beta, chi, half_shift) / z0
    if abs(ratio) < RATIO_FLOOR:
        raise _vanishing(chi, abs(ratio))
    return -cmath.log(ratio)


def _vanishing(chi: float, ratio: float) -> DomainError:
    return DomainError(f"partition function vanishes at chi={chi!r}: |Z/Z0| = {ratio:.3e} "
                       f"is below the floor {RATIO_FLOOR:g}; K undefined there")


def zk_table(spec: RotorSpec, beta: float, chi_points: int,
             half_shift: bool = False) -> list[tuple[float, float, float, float, float]]:
    """Rows (chi, Re Z, Im Z, Re K, Im K) on chi_j = -pi + 2 pi j / n, j = 1..n.

    Z at every point comes from one FFT; K = -ln(Z/Z(0)) on the principal
    branch, as in generating_function. Raises DomainError at the first chi
    where Z vanishes.
    """
    _check_request(spec, beta, chi_points)
    z0 = partition_rotwisted(spec, beta, 0.0, half_shift).real
    chis, z = _grid_partition(spec, beta, chi_points, half_shift)
    ratio = z / z0
    vanishing = np.abs(ratio) < RATIO_FLOOR
    if vanishing.any():
        j = int(np.argmax(vanishing))
        raise _vanishing(chis[j].item(), abs(ratio[j]).item())
    k = -np.log(ratio)
    return list(zip(chis.tolist(), z.real.tolist(), z.imag.tolist(),
                    k.real.tolist(), k.imag.tolist()))


class EnsembleReport(NamedTuple):
    """Everything the twist machinery produces at one angle."""

    Z_chi: complex
    Z_0: float
    K: complex
    R: dict[int, float]


def ensemble_report(spec: RotorSpec, beta: float, chi: float,
                    half_shift: bool = False) -> EnsembleReport:
    return EnsembleReport(
        Z_chi=partition_rotwisted(spec, beta, chi, half_shift),
        Z_0=partition_rotwisted(spec, beta, 0.0, half_shift).real,
        K=generating_function(spec, beta, chi, half_shift),
        R=angular_distribution(spec, beta, half_shift=half_shift),
    )


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
    window < m_cut is required.
    """
    if m_cut < 1:
        raise DomainError("m_cut must be >= 1")
    if not 0 <= window < m_cut:
        raise DomainError("window must satisfy 0 <= window < m_cut")
    m = np.arange(-m_cut, m_cut + 1)
    # Form the phases chi*m in extended precision: the double-precision
    # product alone already costs ~m*ulp(chi), which would dominate the
    # residual this check is supposed to measure.
    phases = np.longdouble(chi) * m.astype(np.longdouble)
    coherent = (np.cos(phases) + 1j * np.sin(phases)).astype(np.complex128)
    shifted = np.empty_like(coherent)
    shifted[1:] = coherent[:-1]
    shifted[0] = 0.0  # truncation boundary; outside the compared window
    phase = cmath.exp(-1j * chi)
    interior = slice(m_cut - window, m_cut + window + 1)
    residual = float(np.max(np.abs(shifted[interior] - phase * coherent[interior])))
    return ShiftCheck(residual, phase)
