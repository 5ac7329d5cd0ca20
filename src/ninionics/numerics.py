"""Small numerical helpers: Richardson extrapolation, regulator ladders."""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DomainError

TWO_PI = 2.0 * math.pi


def richardson_limit(values: Sequence[float], ratio: float,
                     orders: Sequence[int] = (1, 2)) -> float:
    """Extrapolate f(eps) -> f(0) from samples at geometrically shrinking eps.

    `values[i]` holds f at eps0 / ratio**i (largest regulator first). Each
    tableau stage eliminates the error term eps**orders[stage]; eliminating a
    power that is absent from the true error series is harmless.
    """
    if ratio <= 1.0:
        raise DomainError("extrapolation ratio must exceed 1")
    col = list(values)
    if len(col) < 2:
        return float(col[0])
    for k in orders[: len(col) - 1]:
        w = ratio ** k
        col = [(w * col[i + 1] - col[i]) / (w - 1.0) for i in range(len(col) - 1)]
    return float(col[-1])


def geometric_regulators(eps_values: Sequence[float]) -> float:
    """Validate a strictly decreasing geometric regulator ladder; return its ratio."""
    if len(eps_values) < 2:
        raise DomainError("need at least two regulator values to extrapolate")
    if any(e <= 0.0 for e in eps_values):
        raise DomainError("regulator values must be positive")
    ratios = [eps_values[i] / eps_values[i + 1] for i in range(len(eps_values) - 1)]
    if any(r <= 1.0 for r in ratios):
        raise DomainError("regulator values must decrease strictly")
    if any(abs(r / ratios[0] - 1.0) > 1e-9 for r in ratios):
        raise DomainError("regulator values must form a geometric progression")
    return ratios[0]

