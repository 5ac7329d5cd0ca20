"""Quadrature oracle: free energies by direct quadrature of the defining mode sums.

One radial momentum integral per residue class, by an exp-sinh rule in numpy. Of
the phase sums and closed forms it shares only identities.residue_phases.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .identities import residue_phases
from .occupation import Family
from .rationals import StatAngle
from .thermo import DEFAULT_INNER_TOL, PI_SQ, GasSpec, _branches, _check_beta

__all__ = ["free_energy_quadrature", "free_energy_extrapolated", "required_m_cut",
           "DEFAULT_REGULATORS"]

DEFAULT_REGULATORS = (1e-2, 1e-3, 1e-4)
_TAIL_BOUND = 1e-12
_SIGN = {Family.BOSE: 1.0, Family.FERMI: -1.0}  # f = sign degeneracy / beta * mode mean

# Exp-sinh double-exponential rule (Takahasi-Mori 1974) on [0, inf): the map
# x = x0 exp(pi/2 sinh t), then the trapezoid rule in t on [-_DE_SPAN, _DE_SPAN],
# which lies past every row's double-exponential tails. The step is halved
# from _DE_FIRST_STEP; each halving adds only the new odd nodes.
_DE_SPAN = 4.5
_DE_FIRST_STEP = 0.125
_DE_MAX_HALVINGS = 5  # h = 1/256 at the cap; massless rows reach rounding by 1/128
_DE_CHUNK_ROWS = 128  # rows integrated together, so peak memory is bounded for any q
_SCALE_FLOOR = 1e-3
_ROUNDING = 16 * np.finfo(float).eps  # per-row rounding bound, relative to h sum |terms|
_HALF_PI = 0.5 * math.pi


def _log_terms(t: np.ndarray, x0, cos_phi, one_minus_cos, mass, mu) -> np.ndarray:
    """(1/2) x^2 ln(1 - 2 cos(phi) z + z^2) dx/dt at nodes t, one row per phase and branch.

    z = e^{mu - omega} with omega = sqrt(x^2 + mass^2); all in units of 1/beta.
    """
    x = x0 * np.exp(_HALF_PI * np.sinh(t))
    arg = np.hypot(x, mass) - mu
    # the logarithm at z is 2 ln z plus the logarithm at 1/z, so take z = e^{-|arg|}
    # <= 1, also in a Fermi sea, where mu > omega
    size = np.abs(arg)
    z = np.exp(-size)
    near_one = z >= 0.5
    # 1 + z (z - 2 cos) cancels near z = 1, where (1 - z)^2 + 2 (1 - cos) z does
    # not: the bosonic phase-0 row would take log 0 at small x
    log_arg = np.log1p(z * (z - 2.0 * cos_phi), where=~near_one, out=np.empty_like(z))
    one_minus_z = -np.expm1(-size)
    np.log(one_minus_z * one_minus_z + 2.0 * one_minus_cos * z, where=near_one, out=log_arg)
    log_arg -= 2.0 * np.minimum(arg, 0.0)
    return 0.5 * x ** 3 * log_arg * (_HALF_PI * np.cosh(t))


def _exp_sinh(tol: float, *rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of _log_terms over t and their error estimates, one per row.

    Rows go through _DE_CHUNK_ROWS at a time, which bounds peak memory for any
    count. Halving stops once every row of a chunk changes by at most max(tol, tol |I|).
    The change from the last halving, plus a rounding bound, is the row's error
    estimate; at the halving cap the value is returned with that estimate.
    """
    parts = []
    for lo in range(0, len(rows[0]), _DE_CHUNK_ROWS):
        chunk = tuple(r[lo:lo + _DE_CHUNK_ROWS, None] for r in rows)
        h, n = _DE_FIRST_STEP, round(_DE_SPAN / _DE_FIRST_STEP)
        terms = _log_terms(np.arange(-n, n + 1) * h, *chunk)
        total, magnitude = terms.sum(axis=1), np.abs(terms).sum(axis=1)
        value = h * total
        for _ in range(_DE_MAX_HALVINGS):
            h, n = h / 2, 2 * n
            terms = _log_terms(np.arange(1 - n, n, 2) * h, *chunk)  # the new odd nodes
            total += terms.sum(axis=1)
            magnitude += np.abs(terms).sum(axis=1)
            value, change = h * total, np.abs(h * total - value)
            if np.all(change <= tol * np.maximum(1.0, np.abs(value))):
                break
        parts.append((value, change + _ROUNDING * h * magnitude))
    return tuple(np.concatenate(part) for part in zip(*parts))


def _mode_table(spec: GasSpec, beta: float, turns: Fraction,
                tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-residue momentum integrals at turns, mean over the mu branches, with error estimates.

    int d^3k / (2 pi)^3 Re ln(1 -+ e^{-beta(omega - mu_r)} e^{i phi}) depends on k
    only through omega = sqrt(k^2 + mass^2), so it is the one radial integral
    (1/2 pi^2 beta^3) int_0^inf x^2 dx (1/2) ln(1 -+ 2 cos(phi) z + z^2) in x = beta k,
    the real part being the conjugate-pair average.
    """
    _check_beta(beta)
    if spec.family is Family.BOSE and spec.mu != 0.0 and spec.mass <= abs(spec.mu):
        raise DomainError("bosonic logarithm diverges: |mu| must stay below the mass")
    k, den = residue_phases(spec.family, turns.numerator, turns.denominator)
    if spec.family is Family.FERMI:  # the fermionic logarithm is the bosonic one at phi + pi
        k = k + den // 2
    branches = _branches(spec)
    nb = len(branches)  # one row per phase and branch
    dist = np.repeat(np.minimum(k % den, -k % den), nb)  # to the nearest whole turn
    mu = np.tile(beta * np.array(branches), len(k))
    cos_phi = np.sin(np.pi * (den - 4 * dist) / (2 * den))  # no cancellation near 1/4 turn
    one_minus_cos = 2.0 * np.sin(np.pi * dist / den) ** 2
    # Scale each row by its log singularity nearest 0, at omega = mu + i phi. A
    # massless row's sits at x = i phi: at x0 e^{i pi/2}, the same distance from real
    # t for every phase, which resolves the phases near 0 as well as the rest.
    phi, m = 2.0 * np.pi * dist / den, beta * spec.mass
    x0 = np.clip(np.abs(np.sqrt((mu + 1j * phi) ** 2 - m * m)), _SCALE_FLOOR, 1.0)
    value, error = _exp_sinh(tol, x0, cos_phi, one_minus_cos, np.full_like(mu, m), mu)
    norm = 1.0 / (2.0 * PI_SQ * beta ** 3)
    return (norm * value.reshape(-1, nb).mean(axis=1),
            norm * error.reshape(-1, nb).mean(axis=1))


def _residue_weights(q: int, eps: float) -> np.ndarray:
    """Regularized weights of the residue classes m mod q, normalized to 1: class a
    sums e^{-eps |m|} over m = a + j q in two geometric series, over the total
    coth(eps/2). No array over m is built, so memory is O(q) at any regulator."""
    a = np.arange(q)
    return (np.exp(-eps * a) + np.exp(-eps * (q - a))) * (math.tanh(0.5 * eps)
                                                           / -math.expm1(-eps * q))


def required_m_cut(reg_eps: float) -> int:
    """Smallest cap with regulator tail e^{-eps m} below the 1e-12 bound."""
    if not reg_eps > 0.0:
        raise DomainError("reg_eps must be positive")
    cap = -math.log(_TAIL_BOUND) / reg_eps
    if not math.isfinite(cap):
        raise DomainError(f"reg_eps={reg_eps!r} is too small: the cap -ln(1e-12)/reg_eps "
                          "overflows a float")
    return int(math.ceil(cap)) + 1


def free_energy_quadrature(spec: GasSpec, beta: float, chi: StatAngle,
                           m_cut: int, reg_eps: float,
                           inner_tol: float = DEFAULT_INNER_TOL) -> float:
    """Free-energy density by direct mode-sum quadrature at one regulator value.

    The angular sum carries the regulator e^{-reg_eps |m|}, normalized to unit
    total weight and grouped exactly into the q residue classes of the phase;
    each class's momentum integral is one radial integral by the exp-sinh
    double-exponential rule, to inner_tol. The result converges to
    free_energy_extrapolated as reg_eps -> 0.
    """
    need = required_m_cut(reg_eps)
    if m_cut < need:
        raise DomainError(
            f"m_cut={m_cut} leaves a regulator tail above 1e-12; need m_cut >= {need}")
    table, _ = _mode_table(spec, beta, chi.turns, inner_tol)
    weights = _residue_weights(len(table), reg_eps)
    return _SIGN[spec.family] * spec.degeneracy / beta * float(weights @ table)


def free_energy_extrapolated(spec: GasSpec, beta: float, chi: StatAngle,
                             inner_tol: float = DEFAULT_INNER_TOL) -> float:
    """The reg_eps -> 0 limit of free_energy_quadrature, taken exactly.

    Every residue-class weight tends to the regularized count 1/q (the largest
    deviation at small q * reg_eps is (q^2 - 1) reg_eps^2 / (12 q)), so the
    limit is the mean of the q per-residue momentum integrals, each averaged
    over the two branches at mu != 0. This is the module's independent oracle: it
    shares only the residue phases with identities: no polylogarithm, no phase-sum identity.
    """
    table, _ = _mode_table(spec, beta, chi.turns, inner_tol)
    return _SIGN[spec.family] * spec.degeneracy / beta * float(np.mean(table))
