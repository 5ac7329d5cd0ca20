"""Exception types and the memory budget shared across the package."""

__all__ = ["DomainError", "PoleError", "TruncationError", "MEMORY_BUDGET"]

MEMORY_BUDGET = 2 ** 30  # bytes one request may allocate, arrays and Python results


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested exactly on, or numerically too close to, a pole."""


class TruncationError(DomainError):
    """A truncation cap is too small for the stated tail bound."""
