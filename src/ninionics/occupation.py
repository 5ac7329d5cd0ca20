"""Ninionic occupation numbers.

The occupation number at statistical parameter xi,

    n(xi) = (e^eps cos(xi) -+ 1) / (1 -+ 2 e^eps cos(xi) + e^{2 eps}),

with eps = beta (omega - mu), upper signs for the bosonic family and lower
signs for the fermionic one, interpolates continuously between bosonic,
fermionic and ghost distributions. At cos(xi) in {1, 0, -1} it collapses to a
closed classical form, possibly with a stretched inverse temperature; away
from those points the level is a genuine ninion with no classical analogue.
Level m of a gas rotated by chi has xi = m chi for bosons and (m + 1/2) chi
for fermions.
"""

from __future__ import annotations

from array import array
from enum import Enum
from math import cos, exp
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError, PoleError

__all__ = [
    "Family",
    "StatLabel",
    "NinionParams",
    "occupation_number",
    "occupation_from_eps",
    "occupation_grid",
]

DENOMINATOR_FLOOR = 1e-15


class Family(str, Enum):
    """Underlying particle family selecting the sign structure."""

    BOSE = "bose"
    FERMI = "fermi"


_BOSE = Family.BOSE  # a module global: faster to read per call than Family.BOSE


class StatLabel(str, Enum):
    """Effective statistics of a mapped ensemble: a classical form or its ghost."""

    BOSON = "boson"
    FERMION = "fermion"
    BOSON_GHOST = "boson_ghost"
    FERMION_GHOST = "fermion_ghost"


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

