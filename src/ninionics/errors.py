"""Exception types and the memory and row budgets shared across the package."""

__all__ = ["DomainError", "PoleError", "TruncationError", "MEMORY_BUDGET", "ROW_BUDGET"]

MEMORY_BUDGET = 2 ** 30  # bytes one request may allocate, arrays and Python results

ROW_BUDGET = 5_000_000
"""Rows one CLI table may hold (a scan in either format, an occupation table). Measured in
fresh processes on a 2-core Xeon VM, a scan row costs about 3 us as CSV and 8 us as JSON;
an occupation table is built whole, at about 8 us and 176 B per row (1M rows: 7.7 s, 192 MB
peak), so MEMORY_BUDGET holds about 6.1M. 5M admits a scan on [0, 1] up to order 4054."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested exactly on, or numerically too close to, a pole."""


class TruncationError(DomainError):
    """A truncation cap is too small for the stated tail bound."""
