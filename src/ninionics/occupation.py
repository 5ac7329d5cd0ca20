"""Ninionic occupation numbers and level-dependent statistics classification.

The occupation number at statistical parameter xi,

    n(xi) = (e^eps cos(xi) -+ 1) / (1 -+ 2 e^eps cos(xi) + e^{2 eps}),

with eps = beta (omega - mu), upper signs for the bosonic family and lower
signs for the fermionic one, interpolates continuously between bosonic,
fermionic and ghost distributions. At cos(xi) in {1, 0, -1} it collapses to a
closed classical form, possibly with a stretched inverse temperature; away
from those points the level is a genuine ninion with no classical analogue.
"""

from __future__ import annotations

import math
from array import array
from enum import Enum
from fractions import Fraction
from math import cos, exp
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError, PoleError
from .rationals import StatAngle

__all__ = [
    "Family",
    "StatLabel",
    "NinionParams",
    "LevelClass",
    "XiValue",
    "xi_of",
    "occupation_number",
    "occupation_from_eps",
    "occupation_grid",
    "limit_form",
    "classify_levels",
]

DENOMINATOR_FLOOR = 1e-15


class Family(str, Enum):
    """Underlying particle family selecting the sign structure."""

    BOSE = "bose"
    FERMI = "fermi"


_BOSE = Family.BOSE  # a module global: faster to read per call than Family.BOSE


class StatLabel(str, Enum):
    """Effective statistics of a level: classical forms, their ghosts, or a ninion."""

    BOSON = "boson"
    FERMION = "fermion"
    BOSON_GHOST = "boson_ghost"
    FERMION_GHOST = "fermion_ghost"
    NINION = "ninion"


class NinionParams(NamedTuple):
    """Inputs of the occupation formula.

    Parameters
    ----------
    family : Family
        Bosonic or fermionic sign choice.
    xi : float
        Statistical parameter in radians; any real value, reduced internally.
    beta : float
        Inverse temperature, positive.
    omega : float
        Mode energy.
    mu : float
        Chemical potential (default 0).
    """

    family: Family
    xi: float
    beta: float
    omega: float
    mu: float = 0.0


class XiValue(NamedTuple):
    """Per-level statistical parameter, unreduced and canonically reduced."""

    raw: float        # m*chi (bose) or (m + 1/2)*chi (fermi), radians
    canonical: float  # reduced to (-pi, pi]
    turns: Fraction   # exact raw / (2 pi)


def xi_of(m: int, chi: StatAngle, family: Family) -> XiValue:
    """Statistical parameter of level m: xi = m*chi for bosons, (m + 1/2)*chi for fermions.

    Returns the unreduced value together with its canonical representative in
    (-pi, pi] and the exact turns fraction backing both.
    """
    mult = Fraction(m) if family is Family.BOSE else Fraction(2 * m + 1, 2)
    turns = mult * chi.turns
    canonical_turns = Fraction(1, 2) - (Fraction(1, 2) - turns) % 1  # in (-1/2, 1/2]
    return XiValue(math.tau * float(turns), math.tau * float(canonical_turns), turns)


def _ratio(s: float, c: float, eps: float, w: float, xi: float) -> float:
    """The occupation formula at sign s (+1 bose, -1 fermi), c = cos(xi) and
    w = e^{-|eps|}, the one exponential it needs."""
    if eps > 0:
        # Divide the defining ratio through by e^{2 eps}: stable for large eps.
        num = w * c - s * w * w
        den = w * w - 2.0 * s * w * c + 1.0
    else:
        num = w * c - s
        den = 1.0 - 2.0 * s * w * c + w * w
    if abs(den) < DENOMINATOR_FLOOR:
        if s > 0.0 and c > 0.0:
            raise PoleError("Bose-Einstein pole: cos(xi) = 1 with omega = mu")
        raise PoleError(
            f"occupation denominator below {DENOMINATOR_FLOOR:g} at xi={xi!r}, eps={eps!r}")
    return num / den


def occupation_from_eps(family: Family, xi: float, eps: float) -> float:
    """Occupation number at dimensionless energy eps = beta (omega - mu)."""
    return _ratio(1.0 if family is _BOSE else -1.0, cos(xi), eps,
                  exp(-eps if eps > 0 else eps), xi)


def occupation_grid(family: Family, xis: Sequence[float],
                    eps_values: Iterable[float]) -> list[array]:
    """occupation_from_eps at every (xi, eps), as one array('d') over eps per xi.

    Each cos(xi) and each e^{-|eps|} is taken once, and every value is
    bit-identical to occupation_from_eps. eps_values is read once, so a
    generator is never held whole; each n is stored as 8 bytes, not a float.
    """
    s = 1.0 if family is _BOSE else -1.0
    cosines = [(xi, cos(xi)) for xi in xis]
    table = [array("d") for _ in cosines]
    appends = [column.append for column in table]
    for eps in eps_values:
        w = exp(-eps if eps > 0 else eps)
        for (xi, c), append in zip(cosines, appends):
            append(_ratio(s, c, eps, w, xi))
    return table


def occupation_number(params: NinionParams) -> float:
    """Evaluate the occupation formula for a full parameter set.

    Raises
    ------
    PoleError
        On the exact poles (bosonic cos(xi) = 1 at omega = mu, fermionic
        cos(xi) = -1 at omega = mu) and whenever the denominator magnitude
        falls below the numerical floor.
    """
    if params.beta <= 0.0:
        raise DomainError("beta must be positive")
    eps = params.beta * (params.omega - params.mu)
    return occupation_from_eps(params.family, params.xi, eps)


class LevelClass(NamedTuple):
    """Effective statistics of one level.

    ``beta_multiplier`` is the inverse-temperature stretch of the closed-form
    reference distribution (1 when none applies).
    """

    label: StatLabel
    beta_multiplier: int = 1

    def reference(self, eps: float) -> float:
        """Closed-form occupation at stretched argument ``beta_multiplier * eps``.

        Undefined for ninion levels, which have no classical form.
        """
        k = self.beta_multiplier * eps
        if self.label is StatLabel.BOSON:
            return 1.0 / math.expm1(k)
        if self.label is StatLabel.FERMION:
            return 1.0 / (math.exp(k) + 1.0)
        if self.label is StatLabel.BOSON_GHOST:
            return -1.0 / math.expm1(k)
        if self.label is StatLabel.FERMION_GHOST:
            return -1.0 / (math.exp(k) + 1.0)
        raise DomainError("a ninion level has no closed-form reference distribution")


_COS_MAP = {
    (Family.BOSE, 1): LevelClass(StatLabel.BOSON, 1),
    (Family.BOSE, 0): LevelClass(StatLabel.FERMION_GHOST, 2),
    (Family.BOSE, -1): LevelClass(StatLabel.FERMION_GHOST, 1),
    (Family.FERMI, 1): LevelClass(StatLabel.FERMION, 1),
    (Family.FERMI, 0): LevelClass(StatLabel.FERMION, 2),
    (Family.FERMI, -1): LevelClass(StatLabel.BOSON_GHOST, 1),
}


def limit_form(family: Family, xi_canonical: float) -> LevelClass:
    """Classify a level by cos(xi): {1, 0, -1} within 1e-12 give classical forms, else ninion.

    The classification is the one induced by the occupation formula itself:
    cos(xi) = 0 halves the temperature of the surviving form, cos(xi) = -1
    swaps the family and flips the free-energy sign.
    """
    c = math.cos(xi_canonical)
    for target in (1, 0, -1):
        if abs(c - target) <= 1e-12:
            return _COS_MAP[(family, target)]
    return LevelClass(StatLabel.NINION, 1)


def _limit_form_exact(family: Family, xi_turns: Fraction) -> LevelClass:
    t = xi_turns % 1
    if t == 0:
        return _COS_MAP[(family, 1)]
    if t == Fraction(1, 2):
        return _COS_MAP[(family, -1)]
    if t in (Fraction(1, 4), Fraction(3, 4)):
        return _COS_MAP[(family, 0)]
    return LevelClass(StatLabel.NINION, 1)


def classify_levels(chi: StatAngle, family: Family,
                    m_range: Iterable[int]) -> list[tuple[int, LevelClass]]:
    """Per-level classification over a range of angular momenta.

    Ground truth is the occupation formula evaluated through the exact
    rational turns of xi, so cos(xi) in {1, 0, -1} is decided without any
    floating-point tolerance.
    """
    return [(m, _limit_form_exact(family, xi_of(m, chi, family).turns)) for m in m_range]
