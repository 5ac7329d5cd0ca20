"""Quadrature oracle: free energies by direct quadrature of the defining mode sums.

One radial momentum integral per distinct residue row, by an exp-sinh rule on Python
floats. Of the phase sums and closed forms it shares only the residue phases.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction

from .errors import DomainError
from .occupation import Family
from .rationals import StatAngle, _residue_phase
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
_SCALE_FLOOR = 1e-3
_ROUNDING = 16 * sys.float_info.epsilon  # per-row rounding bound, relative to h sum |terms|
_HALF_PI = 0.5 * math.pi


def _node(t: float) -> tuple[float, float]:
    """(u, c) at t: u = e^{pi/2 sinh t}, so a row's x is x0 u, and c = (1/2) u^3 (pi/2)
    cosh t, so its term (1/2) x^2 ln(...) dx/dt is x0^3 c ln(...)."""
    u = math.exp(_HALF_PI * math.sinh(t))
    return u, 0.5 * u ** 3 * (_HALF_PI * math.cosh(t))


def _node_levels() -> tuple[tuple[tuple[float, float], ...], ...]:
    """The nodes of the first step, then the new odd nodes of each halving, ascending in t."""
    h, n = _DE_FIRST_STEP, round(_DE_SPAN / _DE_FIRST_STEP)
    levels = [(h, range(-n, n + 1))]
    for _ in range(_DE_MAX_HALVINGS):
        h, n = h / 2, 2 * n
        levels.append((h, range(1 - n, n, 2)))
    return tuple(tuple(_node(k * h) for k in ks) for h, ks in levels)


_NODES = _node_levels()  # depends on the level alone, so it is built once per process


def _log_terms(nodes, x0: float, cos_phi: float, one_minus_cos: float, mass: float,
               mu: float) -> tuple[float, float]:
    """Sums over nodes of (1/2) x^2 ln(1 - 2 cos(phi) z + z^2) dx/dt / x0^3, and of their
    magnitudes, for one row.

    z = e^{mu - omega} with omega = sqrt(x^2 + mass^2); all in units of 1/beta. A zero
    logarithm argument, where a node lands on the row's singularity, gives -inf.
    """
    total = magnitude = 0.0
    two_cos, two_one_minus_cos = 2.0 * cos_phi, 2.0 * one_minus_cos
    exp, expm1, hypot, log, log1p = math.exp, math.expm1, math.hypot, math.log, math.log1p
    for u, weight in nodes:
        arg = hypot(x0 * u, mass) - mu
        # the logarithm at z is 2 ln z plus the logarithm at 1/z, so take z = e^{-|arg|}
        # <= 1, also in a Fermi sea, where mu > omega
        size = abs(arg)
        z = exp(-size)
        if z < 0.5:
            if z == 0.0 and arg > 0.0:
                break  # arg grows with t: every later term of the level is 0 as well
            log_arg = log1p(z * (z - two_cos))
        else:
            # 1 + z (z - 2 cos) cancels near z = 1, where (1 - z)^2 + 2 (1 - cos) z does
            # not: the bosonic phase-0 row would take log 0 at small x
            one_minus_z = -expm1(-size)
            inner = one_minus_z * one_minus_z + two_one_minus_cos * z
            log_arg = log(inner) if inner != 0.0 else -math.inf
        if arg < 0.0:
            log_arg -= 2.0 * arg
        term = weight * log_arg
        total += term
        magnitude += abs(term)
    return total, magnitude


def _exp_sinh(tol: float, x0: float, *row: float) -> tuple[float, float]:
    """Integral of _log_terms over t for one row, and its error estimate.

    Halving stops once the row changes by at most max(tol, tol |I|). The change from
    the last halving, plus a rounding bound, is the error estimate; at the halving cap
    the value is returned with that estimate.
    """
    scale = x0 ** 3
    h = _DE_FIRST_STEP
    total, magnitude = _log_terms(_NODES[0], x0, *row)
    value = scale * h * total
    for nodes in _NODES[1:]:
        h /= 2
        new_total, new_magnitude = _log_terms(nodes, x0, *row)
        total += new_total
        magnitude += new_magnitude
        new_value = scale * h * total
        value, change = new_value, abs(new_value - value)
        if change <= tol * max(1.0, abs(value)):
            break
    return value, change + _ROUNDING * scale * h * magnitude


def _mode_table(spec: GasSpec, beta: float, turns: Fraction,
                tol: float) -> tuple[list[float], list[float]]:
    """Per-residue momentum integrals at turns, mean over the mu branches, with error estimates.

    int d^3k / (2 pi)^3 Re ln(1 -+ e^{-beta(omega - mu_r)} e^{i phi}) depends on k
    only through omega = sqrt(k^2 + mass^2), so it is the one radial integral
    (1/2 pi^2 beta^3) int_0^inf x^2 dx (1/2) ln(1 -+ 2 cos(phi) z + z^2) in x = beta k,
    the real part being the conjugate-pair average. It depends on the residue only
    through the phase's distance to the nearest whole turn, so each distance and
    branch is integrated once per call.
    """
    _check_beta(beta)
    if spec.family is Family.BOSE and spec.mu != 0.0 and spec.mass <= abs(spec.mu):
        raise DomainError("bosonic logarithm diverges: |mu| must stay below the mass")
    q = turns.denominator
    dists = []
    for a in range(q):
        k, den = _residue_phase(spec.family, a, turns.numerator, q)
        if spec.family is Family.FERMI:  # the fermionic logarithm is the bosonic one at phi + pi
            k += den // 2
        dists.append(min(k % den, -k % den))  # to the nearest whole turn
    m = beta * spec.mass
    mus = [beta * b for b in _branches(spec)]
    norm = 1.0 / (2.0 * PI_SQ * beta ** 3)
    rows = {}
    for dist in set(dists):
        cos_phi = math.sin(math.pi * (den - 4 * dist) / (2 * den))  # no cancellation near 1/4 turn
        one_minus_cos = 2.0 * math.sin(math.pi * dist / den) ** 2
        phi = 2.0 * math.pi * dist / den
        branches = []
        for mu in mus:
            # Scale each row by its log singularity nearest 0, at omega = mu + i phi. A
            # massless row's sits at x = i phi: at x0 e^{i pi/2}, the same distance from
            # real t for every phase, which resolves the phases near 0 as well as the rest.
            w = complex(mu, phi)
            x0 = min(max(abs(cmath.sqrt(w * w - m * m)), _SCALE_FLOOR), 1.0)
            branches.append(_exp_sinh(tol, x0, cos_phi, one_minus_cos, m, mu))
        rows[dist] = [norm * sum(part) / len(mus) for part in zip(*branches)]
    return [rows[d][0] for d in dists], [rows[d][1] for d in dists]


def _residue_weights(q: int, eps: float) -> list[float]:
    """Regularized weights of the residue classes m mod q, normalized to 1: class a
    sums e^{-eps |m|} over m = a + j q in two geometric series, over the total
    coth(eps/2). No array over m is built, so memory is O(q) at any regulator."""
    scale = math.tanh(0.5 * eps) / -math.expm1(-eps * q)
    return [(math.exp(-eps * a) + math.exp(-eps * (q - a))) * scale for a in range(q)]


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
    mean = math.fsum(w * v for w, v in zip(weights, table))
    return _SIGN[spec.family] * spec.degeneracy / beta * mean


def free_energy_extrapolated(spec: GasSpec, beta: float, chi: StatAngle,
                             inner_tol: float = DEFAULT_INNER_TOL) -> float:
    """The reg_eps -> 0 limit of free_energy_quadrature, taken exactly.

    Every residue-class weight tends to the regularized count 1/q (the largest
    deviation at small q * reg_eps is (q^2 - 1) reg_eps^2 / (12 q)), so the
    limit is the mean of the q per-residue momentum integrals, each averaged
    over the two branches at mu != 0. This is the module's independent oracle: it
    shares only the residue phases with identities: no polylogarithm, no phase-sum identity.
    Where a node of the rule lands on a row's logarithmic singularity, the result is
    not finite; it is returned, not raised.
    """
    table, _ = _mode_table(spec, beta, chi.turns, inner_tol)
    return _SIGN[spec.family] * spec.degeneracy / beta * math.fsum(table) / len(table)
