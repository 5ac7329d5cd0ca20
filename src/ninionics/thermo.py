"""Thermodynamics of free gases under imaginary rotation.

Closed forms are exact rational multiples of pi^2 over powers of beta for the
massless gases; a direct quadrature of the defining mode sums and momentum
integrals, in ninionics.oracle, serves as an independent oracle for every one of
them. Neither needs numpy; the oracle loads on first use. A rotation by
rational turns p/q maps each gas onto a non-rotating ensemble at inverse
temperature q*beta, for fermions with a parity-dependent family swap and a
ghost sign.

Per-degree-of-freedom normalization used throughout: the regularized angular
sum carries unit total weight, the conjugate phase pair is folded into a real
part, and the particle/antiparticle branches are averaged. This is the unique
convention in which the massless bosonic baseline equals -pi^2/(90 beta^4)
per unit degeneracy and the fermionic one is 7/8 of that.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import DomainError
from .occupation import Family, StatLabel
from .rationals import StatAngle

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
    "crossed_walls_thermo",
    "odd_count_ratio",
    "odd_count_limit",
    "consistency_residuals",
    "energy_from_free_energy",
    "DEFAULT_REGULATORS",
    "DEFAULT_INNER_TOL",
    "QUADRATURE_ROW_BUDGET",
    "quadrature_rows",
]

PI_SQ = math.pi ** 2

DEFAULT_INNER_TOL = 1e-9
_TINY = sys.float_info.min  # beta^4 in [_TINY, 1/_TINY]: beta^3, beta^4, inverses normal


def __getattr__(name: str):
    # the oracle's names stay thermo attributes; the oracle loads when one is first read
    if name in ("free_energy_quadrature", "free_energy_extrapolated", "required_m_cut",
                "DEFAULT_REGULATORS"):
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _check_beta(beta: float) -> None:
    if not beta > 0.0:
        raise DomainError("beta must be positive")
    if not _TINY <= (beta * beta) * (beta * beta) <= 1.0 / _TINY:
        raise DomainError(f"beta={beta!r} lies outside [{_TINY ** .25:.3g}, {_TINY ** -.25:.3g}],"
                          " where beta^3, beta^4 and their inverses are normal floats")


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
    if (p + q) % 2 == 1:
        return MappedEnsemble(q * beta, StatLabel.FERMION, 1.0)
    return MappedEnsemble(q * beta, StatLabel.BOSON_GHOST, -2.0)


def rotated_ensemble(spec: GasSpec, beta: float, chi: StatAngle) -> MappedEnsemble:
    """Map spec rotated by chi onto the non-rotating gas at q*beta, q the denominator of chi.

    Fermions become bosonic ghosts at even p + q, as in fermion_equivalence. The
    multiplicity is the degeneracy, negated for ghosts, as in free_energy_extrapolated.
    beta is checked before q*beta is formed.
    """
    _check_beta(beta)
    if spec.family is Family.BOSE:
        return MappedEnsemble(chi.denominator * beta, StatLabel.BOSON, spec.degeneracy)
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
    if mapped.out_family in (StatLabel.FERMION, StatLabel.FERMION_GHOST):
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


def consistency_residuals(tq: ThermoQuantities) -> tuple[float, float]:
    """(|P + f|, |s - beta*(energy + P)|) at the carried anchor beta."""
    return (abs(tq.pressure + tq.f),
            abs(tq.entropy - tq.beta * (tq.energy + tq.pressure)))


def energy_from_free_energy(f_of_beta: Callable[[float], float], beta: float,
                            rel_step: float = 1e-5) -> float:
    """Energy density d(beta f)/d(beta) by central difference with step beta*rel_step."""
    _check_beta(beta)
    h = beta * rel_step
    return ((beta + h) * f_of_beta(beta + h) - (beta - h) * f_of_beta(beta - h)) / (2.0 * h)


# ----------------------------------------------------------------------------
# Quadrature oracle requests (the oracle itself is ninionics.oracle)
# ----------------------------------------------------------------------------

# Rows (residues times mu branches) one CLI request may integrate. Conjugate
# residues share one integral, so the rule integrates about half of them. On a
# 2-core Xeon it does, in these rows, 12-19k rows/s at the default inner_tol and
# 3-5k rows/s at the halving cap, so a request at the budget takes about 2 s, 8 s
# at worst (5.4-8.3 s measured at 1/25000 and 7/25001).
QUADRATURE_ROW_BUDGET = 25_000


def _branches(spec: GasSpec) -> tuple[float, ...]:
    return (spec.mu, -spec.mu) if spec.mu != 0.0 else (0.0,)


def quadrature_rows(spec: GasSpec, chi: StatAngle) -> int:
    """Rows the quadrature oracle integrates for spec at chi: one per residue and mu branch."""
    return chi.denominator * len(_branches(spec))


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

    ``oracle`` composes the per-mode integral with the regularized odd-m
    count and the ghost sign at the original inverse temperature.
    ``reported`` holds the closed-form values quoted for this system. The two
    differ by a convention, and their ratio is exact:
    oracle/reported = 14 = (7/8)/(1/16). On the odd m that the walls keep, a
    half turn gives e^{i pi m} = -1, so every mode's logarithm takes the
    fermionic form at beta and the oracle carries the fermionic 7/8 of the
    scalar blackbody. The quoted -pi^2/1920 instead carries the 2^-4 of the
    half-turn map to 2*beta. Both carry the odd-m count 1/4 and the ghost
    sign, so ``relative_deviation`` is 13 up to the quadrature error.
    """

    per_mode_quadrature: float
    per_mode_closed_form: float
    per_mode_relative_error: float
    count_factor: float
    oracle: ThermoQuantities
    reported: ThermoQuantities
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

    from .oracle import _mode_table

    reported = _rational_quantities(Fraction(1, 5760), beta)  # energy = -pi^2/(1920 b^4)
    per_mode = float(_mode_table(GasSpec(Family.FERMI), beta, Fraction(0), inner_tol)[0][0])
    closed = (7.0 / 8.0) * (math.pi ** 4 / 90.0) / (PI_SQ * beta ** 3)
    count = odd_count_limit()
    f_oracle = per_mode * count / beta
    oracle_q = ThermoQuantities(
        f=f_oracle, energy=-3.0 * f_oracle, pressure=-f_oracle,
        entropy=-4.0 * f_oracle * beta, beta=beta)
    report = WallsOracle(
        per_mode_quadrature=per_mode,
        per_mode_closed_form=closed,
        per_mode_relative_error=abs(per_mode / closed - 1.0),
        count_factor=count,
        oracle=oracle_q,
        reported=reported,
        relative_deviation=abs(oracle_q.energy - reported.energy) / abs(reported.energy),
    )
    return CrossedWalls(reported, report)
