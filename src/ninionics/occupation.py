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

It is evaluated in gaps that keep their precision at both poles. With s = +1
(bose) or -1 (fermi), w = e^{-|eps|}, g = 1 - w and t = 1 - s cos(xi) taken as
2 sin^2(xi/2) or 2 cos^2(xi/2), n = -s (g + w t) / den for eps <= 0 and
-s w (t - g) / den for eps > 0, with den = g^2 + 2 w t. Only a gap t below 2^-1021
can take den under the normal range, so occupation_columns rules out every pole of a
table by checking those angles alone, and then computes each n as it is read.
"""

from __future__ import annotations

from enum import Enum
from math import cos, exp, expm1, sin
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainError, PoleError

__all__ = [
    "Family",
    "StatLabel",
    "NinionParams",
    "occupation_number",
    "occupation_from_eps",
    "occupation_columns",
]


class Family(str, Enum):
    """Underlying particle family selecting the sign structure."""

    BOSE = "bose"
    FERMI = "fermi"


_BOSE = Family.BOSE  # a module global: faster to read per call than Family.BOSE


class StatLabel(str, Enum):
    """Effective statistics of a mapped ensemble: a classical form or the bosonic ghost."""

    BOSON = "boson"
    FERMION = "fermion"
    BOSON_GHOST = "boson_ghost"


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


def _gap(s: float, xi: float) -> float:
    h = sin(0.5 * xi) if s > 0.0 else cos(0.5 * xi)  # t = 1 - s cos(xi) = 2 h^2
    return 2.0 * h * h


def _ratio(s: float, t: float, eps: float, w: float, g: float, xi: float) -> float:
    """n in the gap form at sign s (+1 bose, -1 fermi), t = _gap(s, xi), w and g."""
    den = g * g + 2.0 * w * t
    if den < 2.0 ** -1022:  # the smallest normal double
        raise PoleError(f"Bose-Einstein pole: the occupation denominator is below the "
                        f"smallest normal double at xi={xi!r}, eps={eps!r}")
    if eps > 0:
        return -s * w * (t - g) / den
    return -s * (g + w * t) / den


def occupation_from_eps(family: Family, xi: float, eps: float) -> float:
    """Occupation number at dimensionless energy eps = beta (omega - mu)."""
    s = 1.0 if family is _BOSE else -1.0
    return _ratio(s, _gap(s, xi), eps, exp(-abs(eps)), -expm1(-abs(eps)), xi)


def occupation_columns(family: Family, xis: Sequence[float],
                       eps_values: Callable[[], Iterable[float]]) -> list[Iterator[float]]:
    """occupation_from_eps at every (xi, eps), bit for bit, as one lazy column over a
    fresh eps_values() per xi. Any PoleError is raised here, at the first (xi, eps) in
    eps-major order: den >= t where w >= 1/2 (2w >= 1) and den > 1/4 where w < 1/2
    (g > 1/2), so only the angles with t below 2^-1021 are checked."""
    s = 1.0 if family is _BOSE else -1.0
    gaps = [(xi, _gap(s, xi)) for xi in xis]
    poles = [(xi, t) for xi, t in gaps if t < 2.0 ** -1021]
    if poles:
        for eps in eps_values():
            w, g = exp(-abs(eps)), -expm1(-abs(eps))
            for xi, t in poles:
                _ratio(s, t, eps, w, g, xi)
    return [_column(s, t, xi, eps_values) for xi, t in gaps]


def _column(s: float, t: float, xi: float,
            eps_values: Callable[[], Iterable[float]]) -> Iterator[float]:
    for eps in eps_values():
        yield _ratio(s, t, eps, exp(-abs(eps)), -expm1(-abs(eps)), xi)


def occupation_number(params: NinionParams) -> float:
    """Evaluate the occupation formula for a full parameter set.

    Raises
    ------
    PoleError
        On the bosonic pole and beside it, where the denominator leaves the normal
        double range; only |xi| and |eps| both under about 1.5e-154 reach that.
    """
    if params.beta <= 0.0:
        raise DomainError("beta must be positive")
    eps = params.beta * (params.omega - params.mu)
    return occupation_from_eps(params.family, params.xi, eps)

