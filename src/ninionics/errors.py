"""Exception types, the memory, row and term budgets, and the one gate that refuses a
request over any budget before its work starts."""

import math

__all__ = ["DomainError", "PoleError", "TruncationError", "MEMORY_BUDGET", "ROW_BUDGET",
           "TERM_BUDGET"]

MEMORY_BUDGET = 2 ** 30  # bytes one request may allocate; gates nogo's table and sieve

ROW_BUDGET = 5_000_000
"""Rows one table may hold (a scan in either format, an occupation table, an identity scan,
a rotor Z/K or weights table). Medians of three fresh launches on a 2-core Xeon VM: a
scan row costs about 1.6 us as CSV and 3.9 us as JSON (order 4054, 7.9 and 19.3 s). The
largest identity scan admitted, to q_max 4054 (4,996,542 rows), took 8.4-11.1 s as CSV
and 21.3 s as JSON, at 19 MB peak. An occupation table holds 8 B per row until it is
written, plus the omega columns' text when more than one angle reads it: 1M rows over
two angles took 3.5 s as CSV and 6.3 s as JSON, both at 34 MB peak (19 B per row, the
most), so 5M rows stay well inside MEMORY_BUDGET. 5M admits a scan on [0, 1] up to order
4054. The Z/K table holds nothing per row; its largest, 5M angles at beta/I = 3, where
ln Z has the most terms (about 22 an angle), took 50.5 s as CSV and 69.4 s as JSON at 16
MB peak (single fresh runs). The weights table holds at most about 161 B a row (768 MiB
at 5M); its largest, m_cut 2,499,999, took 5.9 s as CSV and 7.2 s as JSON at 418 MB."""

TERM_BUDGET = 10_000_000
"""Terms one request may sum with math.fsum: (S + 1)^2 cosine products for the rotor
weights on a support of S levels, q streamed logarithms for one identity phase sum. At
the edge on a 2-core Xeon VM, S = 3161 took 2.56 s in process, and a fresh identity --q
10000000 1.5 s (bose, gamma 1) to 2.3 s (fermi, gamma 0.1) at 16 MB peak RSS."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Raised on a pole, or so near one that the denominator leaves the normal double range."""


class TruncationError(DomainError):
    """A truncation cap is too small for the stated tail bound."""


def check_budget(request: str, estimate: int | float, budget: int = ROW_BUDGET,
                 name: str = "ninionics.errors.ROW_BUDGET", unit: str = "rows",
                 verb: str = "has", scale: int = 1, over: str = "") -> None:
    """Refuse, before any work, a request whose estimate is over its budget:
    "<request> <verb> an estimated <estimate / scale> <unit>, over <over> (<name>)",
    over being "the budget of <budget> <unit>" unless given. The comparison is exact
    for an int of any size; an estimate past the float range shows as inf. The estimate
    shows 4 significant digits, or as many more as it takes to read as over the budget."""
    if estimate > budget:
        try:
            shown = float(estimate) / scale
        except OverflowError:  # an int past the float range
            shown = math.inf
        digits = 4
        while digits < 17 and not float(f"{shown:.{digits}g}") > budget / scale:
            digits += 1
        raise DomainError(f"{request} {verb} an estimated {shown:.{digits}g} {unit}, over "
                          f"{over or f'the budget of {budget} {unit}'} ({name})")


def check_memory(request: str, need_bytes: int | float) -> None:
    """check_budget on bytes against MEMORY_BUDGET, shown in MiB: "<request> needs an
    estimated <N> MiB, over the 1024 MiB memory budget (ninionics.errors.MEMORY_BUDGET)"."""
    check_budget(request, need_bytes, MEMORY_BUDGET, "ninionics.errors.MEMORY_BUDGET", "MiB",
                 "needs", 2 ** 20, f"the {MEMORY_BUDGET // 2 ** 20} MiB memory budget")
