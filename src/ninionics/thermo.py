"""Thermodynamics of free gases under imaginary rotation.

Closed forms are exact rational multiples of pi^2 over powers of beta for the
massless gases; a direct quadrature of the defining mode sums and momentum
integrals serves as an independent oracle for every one of them. Neither
needs numpy. A rotation by rational turns p/q maps each gas onto a
non-rotating ensemble at inverse temperature q*beta, for fermions with a
parity-dependent family swap and a ghost sign.

Per-degree-of-freedom normalization used throughout: the regularized angular
sum carries unit total weight, the conjugate phase pair is folded into a real
part, and the particle/antiparticle branches are averaged. This is the unique
convention in which the massless bosonic baseline equals -pi^2/(90 beta^4)
per unit degeneracy and the fermionic one is 7/8 of that.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, check_budget
from .occupation import Family, StatLabel
from .rationals import StatAngle, residue_phases

__all__ = [
    "GasSpec",
    "ThermoQuantities",
    "MappedEnsemble",
    "WallsOracle",
    "CrossedWalls",
    "blackbody_scalar",
    "blackbody_fermion",
    "fermion_equivalence",
    "rotated_ensemble",
    "ensemble_thermo",
    "dirac_ghost_thermo",
    "free_energy_quadrature",
    "free_energy_extrapolated",
    "required_m_cut",
    "crossed_walls_thermo",
    "odd_count_ratio",
    "odd_count_limit",
    "DEFAULT_REGULATORS",
    "DEFAULT_INNER_TOL",
    "QUADRATURE_ROW_BUDGET",
]

PI_SQ = math.pi ** 2

DEFAULT_INNER_TOL = 1e-9
_TINY = sys.float_info.min  # beta^4 in [_TINY, 1/_TINY]: beta^3, beta^4, inverses normal


def _check_beta(beta: float) -> None:
    if not beta > 0.0:
        raise DomainError("beta must be positive")
    if not _TINY <= (beta * beta) * (beta * beta) <= 1.0 / _TINY:
        raise DomainError(f"beta={beta!r} lies outside [{_TINY ** .25:.3g}, {_TINY ** -.25:.3g}],"
                          " where beta^3, beta^4 and their inverses are normal floats")


def _effective_beta(q: int, beta: float) -> float:
    """q * beta, refused with the range of _check_beta when it is infinite. For a q past
    the float range the product raises OverflowError, so it counts as infinite."""
    try:
        effective = q * beta
    except OverflowError:
        effective = math.inf
    if effective == math.inf:
        _check_beta(effective)
    return effective


class _GasFields(NamedTuple):
    family: Family
    mass: float
    mu: float
    degeneracy: float


class GasSpec(_GasFields):
    """Free-gas specification, checked on construction.

    Mass and chemical potential are measured in units of 1/beta through the
    combinations beta*M and beta*mu; ``degeneracy`` is a multiplicative weight
    (e.g. 2 spin states per Dirac mode).
    """

    __slots__ = ()

    def __new__(cls, family: Family = Family.BOSE, mass: float = 0.0, mu: float = 0.0,
                degeneracy: float = 1.0) -> GasSpec:
        if not mass >= 0.0:
            raise DomainError("mass must be nonnegative")
        if not math.isfinite(mu):
            raise DomainError("mu must be finite")
        if not degeneracy > 0.0:
            raise DomainError("degeneracy must be positive")
        return super().__new__(cls, family, mass, mu, degeneracy)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks as well


class ThermoQuantities(NamedTuple):
    """Free-energy, energy, pressure and entropy densities.

    ``beta`` is the inverse temperature anchoring these densities; for an
    ensemble mapped onto a colder non-rotating gas it is the effective q*beta
    of that gas. The identities pressure = -f and
    entropy = beta*(energy + pressure) hold at this anchor.
    """

    f: float
    energy: float
    pressure: float
    entropy: float
    beta: float

    def scaled(self, weight: float | Fraction) -> "ThermoQuantities":
        w = float(weight)
        return ThermoQuantities(self.f * w, self.energy * w, self.pressure * w,
                                self.entropy * w, self.beta)


def _rational_quantities(f_coeff: Fraction, beta: float) -> ThermoQuantities:
    """Full quantity set for a pure beta^-4 law f = c * pi^2 / beta^4, exact c."""
    b3, b4 = beta ** 3, beta ** 4
    return ThermoQuantities(
        f=float(f_coeff) * PI_SQ / b4,
        energy=float(-3 * f_coeff) * PI_SQ / b4,
        pressure=float(-f_coeff) * PI_SQ / b4,
        entropy=float(-4 * f_coeff) * PI_SQ / b3,
        beta=beta,
    )


def _massless_quantities(f: float, beta: float) -> ThermoQuantities:
    """The beta^-4 law's full set from f at its anchor beta: E = 3P = -3 f, s = -4 f beta."""
    return ThermoQuantities(f, -3.0 * f, -f, -4.0 * f * beta, beta)


def blackbody_scalar(beta: float) -> ThermoQuantities:
    """Massless neutral scalar: f = -pi^2/(90 b^4), energy = 3P = pi^2/(30 b^4), s = 2 pi^2/(45 b^3)."""
    _check_beta(beta)
    return _rational_quantities(Fraction(-1, 90), beta)


def blackbody_fermion(beta: float) -> ThermoQuantities:
    """Massless fermion per degree of freedom: 7/8 of the scalar values."""
    _check_beta(beta)
    return _rational_quantities(Fraction(-7, 720), beta)


class MappedEnsemble(NamedTuple):
    """Non-rotating ensemble equivalent to a rotated gas.

    ``multiplicity`` is the signed weight applied to the non-rotating free
    energy; it is negative exactly when the outcome is a ghost.
    """

    effective_beta: float
    out_family: StatLabel
    multiplicity: float


def fermion_equivalence(p: int, q: int, beta: float = 1.0) -> MappedEnsemble:
    """Map a Dirac fermion gas rotated by turns p/q onto a non-rotating ensemble.

    p + q odd: fermions at q*beta with weight +1. p + q even: bosonic ghosts
    at q*beta with weight -2 (one Dirac fermion transmutes into two ghosts).
    The branches mix conventions: against free_energy_extrapolated at degeneracy
    2, the fermion branch is half the oracle and the ghost branch equals it.
    """
    _check_beta(beta)
    if q < 1 or math.gcd(p, q) != 1:
        raise DomainError(f"{p}/{q} is not an irreducible fraction")
    effective = _effective_beta(q, beta)
    if (p + q) % 2 == 1:
        return MappedEnsemble(effective, StatLabel.FERMION, 1.0)
    return MappedEnsemble(effective, StatLabel.BOSON_GHOST, -2.0)


def rotated_ensemble(spec: GasSpec, beta: float, chi: StatAngle) -> MappedEnsemble:
    """Map spec rotated by chi onto the non-rotating gas at q*beta, q the denominator of chi.

    Fermions become bosonic ghosts at even p + q, as in fermion_equivalence. The
    multiplicity is the degeneracy, negated for ghosts, as in free_energy_extrapolated.
    beta is checked before q*beta is formed.
    """
    _check_beta(beta)
    if spec.family is Family.BOSE:
        return MappedEnsemble(_effective_beta(chi.denominator, beta), StatLabel.BOSON,
                              spec.degeneracy)
    turns = chi.fermionic().turns
    mapped = fermion_equivalence(turns.numerator, turns.denominator, beta)
    weight = spec.degeneracy if mapped.multiplicity > 0 else -spec.degeneracy
    return MappedEnsemble(mapped.effective_beta, mapped.out_family, weight)


def ensemble_thermo(mapped: MappedEnsemble) -> ThermoQuantities:
    """Densities of a mapped ensemble: weighted blackbody at the effective beta.

    The multiplicity keeps its map's convention: fermion_equivalence weighs its fermion
    branch per Dirac fermion and its ghost branch per two states; rotated_ensemble, both
    per unit degeneracy.
    """
    if mapped.out_family is StatLabel.FERMION:
        base = blackbody_fermion(mapped.effective_beta)
    else:
        base = blackbody_scalar(mapped.effective_beta)
    return base.scaled(mapped.multiplicity)


def dirac_ghost_thermo(beta: float) -> ThermoQuantities:
    """Dirac fermion at rotation turns 1/3: two bosonic ghosts at 3*beta.

    energy = -pi^2/(1215 beta^4), entropy = -4 pi^2/(1215 beta^3), built by
    composing the fermionic equivalence with the scalar blackbody values.
    """
    return ensemble_thermo(fermion_equivalence(1, 3, beta))


# ----------------------------------------------------------------------------
# Quadrature oracle: free energies by direct quadrature of the defining mode sums
# ----------------------------------------------------------------------------

# Rows (residues times mu branches) one oracle call may integrate. Conjugate
# residues share one integral, so the rule integrates about half of them. On a
# 2-core Xeon it does, in these rows, 12-19k rows/s at the default inner_tol and
# 3-5k rows/s at the halving cap, so a request at the budget takes about 2 s, 8 s
# at worst (5.4-8.3 s measured at 1/25000 and 7/25001).
QUADRATURE_ROW_BUDGET = 25_000


def _branches(spec: GasSpec) -> tuple[float, ...]:
    return (spec.mu, -spec.mu) if spec.mu != 0.0 else (0.0,)


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
    branch is integrated once per call. A table over QUADRATURE_ROW_BUDGET is refused
    before any row.
    """
    _check_beta(beta)
    check_budget(f"a quadrature of one row per residue and mu branch at q = "
                 f"{turns.denominator}", turns.denominator * len(_branches(spec)),
                 QUADRATURE_ROW_BUDGET, "ninionics.thermo.QUADRATURE_ROW_BUDGET")
    if spec.family is Family.BOSE and spec.mu != 0.0 and spec.mass <= abs(spec.mu):
        raise DomainError("bosonic logarithm diverges: |mu| must stay below the mass")
    ks, den = residue_phases(spec.family, turns.numerator, turns.denominator)
    # the fermionic logarithm is the bosonic one at phi + pi
    shift = den // 2 if spec.family is Family.FERMI else 0
    dists = [min((k + shift) % den, -(k + shift) % den) for k in ks]  # to the nearest whole turn
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
    over the two branches at mu != 0. This is the module's independent oracle: it shares
    no code with identities, and uses no polylogarithm and no phase-sum identity. Where
    a node of the rule lands on a row's logarithmic singularity, the result is not
    finite; it is returned, not raised.
    """
    table, _ = _mode_table(spec, beta, chi.turns, inner_tol)
    return _SIGN[spec.family] * spec.degeneracy / beta * math.fsum(table) / len(table)


# ----------------------------------------------------------------------------
# Crossed Dirichlet/Neumann walls
# ----------------------------------------------------------------------------

def odd_count_ratio(eps: float) -> float:
    """Regularized count of odd positive m relative to all integers m.

    sum_{m odd >= 1} e^{-eps m} / sum_{m in Z} e^{-eps |m|} = x / (1 + x)^2 with
    x = e^{-eps}: no cancellation at small eps, and 0 without overflow at large
    eps. The eps -> 0 limit is 1/4, the degeneracy reduction of the crossed walls.
    """
    if not eps > 0.0:
        raise DomainError("regulator eps must be positive")
    x = math.exp(-eps)
    return x / (1.0 + x) ** 2


def odd_count_limit() -> float:
    """The eps -> 0 limit 1/4 of the odd-m count ratio, reached to rounding.

    The ratio 1 / (4 cosh^2(eps/2)) is below 1/4 by about eps^2/16, which is
    6e-14 at the eps = 1e-6 used here.
    """
    return odd_count_ratio(1e-6)


class WallsOracle(NamedTuple):
    """Independent per-mode evaluation of the rotating crossed-wall system.

    ``oracle`` composes the per-mode integral with the regularized odd-m count and the
    ghost sign at the original inverse temperature. It differs from the quoted
    closed-form values, ``CrossedWalls.quantities``, by a convention, and their ratio is
    exact: oracle/reported = 14 = (7/8)/(1/16). On the odd m that the walls keep, a half
    turn gives e^{i pi m} = -1, so every mode's logarithm takes the fermionic form at
    beta and the oracle carries the fermionic 7/8 of the scalar blackbody. The quoted
    -pi^2/1920 instead carries the 2^-4 of the half-turn map to 2*beta. Both carry the
    odd-m count 1/4 and the ghost sign, so ``relative_deviation`` is 13 up to the
    quadrature error.
    """

    per_mode_quadrature: float
    per_mode_closed_form: float
    per_mode_relative_error: float
    count_factor: float
    oracle: ThermoQuantities
    relative_deviation: float


class CrossedWalls(NamedTuple):
    quantities: ThermoQuantities
    oracle: WallsOracle | None


def crossed_walls_thermo(beta: float, rotating: bool,
                         inner_tol: float = DEFAULT_INNER_TOL) -> CrossedWalls:
    """Massless scalar between crossed Dirichlet and Neumann walls.

    The walls keep only odd positive angular momenta, a regularized 1/4 of the
    modes. Non-rotating: one quarter of the scalar blackbody. Rotating by a
    half turn the per-mode logarithm flips to the fermionic form with the
    bosonic prefactor, i.e. a fermionic ghost; the reported closed-form values
    are returned as ``quantities`` and the independent per-mode oracle rides
    along in ``oracle``.
    """
    _check_beta(beta)
    if not rotating:
        return CrossedWalls(blackbody_scalar(beta).scaled(Fraction(1, 4)), None)
    reported = _rational_quantities(Fraction(1, 5760), beta)  # energy = -pi^2/(1920 b^4)
    per_mode = float(_mode_table(GasSpec(Family.FERMI), beta, Fraction(0), inner_tol)[0][0])
    closed = (7.0 / 8.0) * (math.pi ** 4 / 90.0) / (PI_SQ * beta ** 3)
    count = odd_count_limit()
    oracle_q = _massless_quantities(per_mode * count / beta, beta)
    report = WallsOracle(
        per_mode_quadrature=per_mode,
        per_mode_closed_form=closed,
        per_mode_relative_error=abs(per_mode / closed - 1.0),
        count_factor=count,
        oracle=oracle_q,
        relative_deviation=abs(oracle_q.energy - reported.energy) / abs(reported.energy),
    )
    return CrossedWalls(reported, report)
