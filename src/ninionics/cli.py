"""Command-line interface: each subsystem exposed as a subcommand.

Every subcommand emits a header-bearing CSV table (default) or a single JSON
object with a schema_version field, to stdout or to --output. All quantities
are emitted as dimensionless combinations (beta^4 * densities, beta^3 *
entropy). Exit codes: 0 success, 1 computational or output error, 2 usage
error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import shutil
import sys
from fractions import Fraction
from itertools import islice
from typing import Iterable

from . import fractal
from .errors import DomainError, check_budget, check_memory
from .rationals import StatAngle, _farey_terms_bound, parse_turns, thomae

SCHEMA_VERSION = "1"

_ANGLE_RE = re.compile(
    r"^\s*(?P<sign>[+-]?)(?P<coef>\d+(?:\.\d+)?)?\s*pi\s*(?:/\s*(?P<den>\d+(?:\.\d+)?))?\s*$",
    re.IGNORECASE)


def parse_angle(text: str) -> float:
    """Angles as plain radians ('0.785') or pi expressions ('pi/4', '3pi/4', '-pi')."""
    m = _ANGLE_RE.match(text)
    if m is None:
        try:
            x = float(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from exc
    else:
        sign = -1.0 if m.group("sign") == "-" else 1.0
        coef = float(m.group("coef")) if m.group("coef") else 1.0
        den = float(m.group("den")) if m.group("den") else 1.0
        if den == 0.0:
            raise argparse.ArgumentTypeError("angle denominator must be nonzero")
        x = sign * coef * math.pi / den  # inf, or nan as inf/inf, for a huge coefficient
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"angle {text!r} must be finite")
    return x


def _positive_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x) or x <= 0.0:
        raise argparse.ArgumentTypeError(f"{text!r} must be a positive finite number")
    return x


def _nonneg_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x) or x < 0.0:
        raise argparse.ArgumentTypeError(f"{text!r} must be a nonnegative finite number")
    return x


def _finite_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} must be finite")
    return x


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be a positive integer")
    return n


def _grid_count(text: str) -> int:
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"{text!r} must be an integer of at least 2")
    return n


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse fraction {text!r}") from exc


def _open_unit_fraction(text: str) -> Fraction:
    x = _fraction(text)
    if not 0 < x < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must lie strictly inside (0, 1)")
    return x


def _min_denominator(text: str) -> int:
    n = int(text)
    if n < 3:
        raise argparse.ArgumentTypeError(f"{text!r} must be an integer of at least 3")
    return n


def _window(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("window must be 'lo,hi'")
    lo, hi = (_fraction(p) for p in parts)
    if not (0 <= lo < hi <= 1):
        raise argparse.ArgumentTypeError("window must satisfy 0 <= lo < hi <= 1")
    return lo, hi


def _nonempty(values: list, text: str) -> list:
    if not values:
        raise argparse.ArgumentTypeError(f"{text!r} lists no values")
    return values


def _int_list(text: str) -> list[int]:
    try:
        return _nonempty([int(p) for p in text.split(",") if p.strip()], text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse integer list {text!r}") from exc


def _angle_list(text: str) -> list[float]:
    return _nonempty([parse_angle(p) for p in text.split(",") if p.strip()], text)


def _turns(text: str) -> Fraction | float:
    """Turns as written; StatAngle.from_turns approximates a decimal with --q-max."""
    try:
        turns = parse_turns(text)
    except ValueError as exc:  # DomainError (p/0) is a ValueError too
        raise argparse.ArgumentTypeError(f"cannot parse turns {text!r}") from exc
    if isinstance(turns, float) and not math.isfinite(turns):  # a Fraction is finite
        raise argparse.ArgumentTypeError(f"turns {text!r} must be finite")
    return turns


def _write(args: argparse.Namespace, out, fieldnames: list[str],
           rows: Iterable[tuple | str], extras: dict) -> None:
    """Write rows as they arrive; JSON bytes equal json.dump(payload, indent=2) + "\n".

    A str row is a CSV line its producer formatted, and JSON writes its cells under
    their keys. Every such cell is the repr of an int or of a finite float, which is
    its own JSON text and starts with a digit or "-", or a bare word, which JSON quotes.
    """
    if args.format == "csv":
        # no field name or cell holds a comma, a quote or a newline, so plain joins
        # write the bytes csv.writer(lineterminator="\n") would
        out.write(",".join(fieldnames) + "\n")
        for row in rows:
            out.write(row if isinstance(row, str)
                      else ",".join(["" if v is None else str(v) for v in row]) + "\n")
        return
    import json  # only this path needs it: once per table, not per value
    dumps = json.dumps

    def value(v) -> str:
        """dumps(v), by the faster repr for a plain int or finite float (not np.float64)."""
        t = type(v)
        return repr(v) if t is int or t is float and math.isfinite(v) else dumps(v)

    def cell(text: str) -> str:
        return text if text[0] in "-0123456789" else dumps(text)

    head = {"schema_version": SCHEMA_VERSION, "command": args.command, **extras, "rows": []}
    out.write(dumps(head, indent=2)[:-3])  # up to the "[" of "rows"
    keys = [f"\n      {dumps(name)}: " for name in fieldnames]
    sep = ""
    for row in rows:
        texts = (map(cell, row[:-1].split(",")) if isinstance(row, str)
                 else map(value, row))
        out.write(sep + "\n    {" + ",".join([k + v for k, v in zip(keys, texts)])
                  + "\n    }")
        sep = ","
    out.write("\n  ]\n}\n" if sep else "]\n}\n")


def _emit(args: argparse.Namespace, fieldnames: list[str],
          rows: Iterable[tuple | str], extras: dict) -> None:
    """Write the table to stdout or --output. A new or regular file is written beside
    itself and renamed on success, so a failed streamed scan leaves the old file or
    none; anything else, such as /dev/null or a FIFO, is written in place."""
    if not args.output:
        _write(args, sys.stdout, fieldnames, rows, extras)
        return
    target = os.path.realpath(args.output)  # a symlink is written through
    renamable = os.path.isfile(target) or not os.path.exists(args.output)
    if not (renamable and os.access(os.path.dirname(target), os.W_OK)):
        with open(args.output, "w", newline="") as out:
            _write(args, out, fieldnames, rows, extras)
        return
    tmp = f"{target}.{os.getpid()}.tmp"
    out = open(tmp, "x", newline="")
    try:
        with out:
            _write(args, out, fieldnames, rows, extras)
        if os.path.isfile(target):
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


# ---------------------------------------------------------------- subcommands

def _cmd_thomae(args) -> tuple[list[str], list[tuple], dict]:
    turns = StatAngle.from_turns(args.chi, args.q_max).turns
    value = thomae(turns)
    fields = ["chi_num", "chi_den", "q", "thomae_num", "thomae_den", "thomae_value"]
    row = (turns.numerator, turns.denominator, turns.denominator,
           value.numerator, value.denominator, float(value))
    return fields, [row], {}


def _cmd_identity(args) -> tuple[list[str], Iterable[str], dict]:
    from . import identities  # each command loads only the modules it computes with
    family, gamma = args.family, args.gamma
    if args.p is not None:  # main has checked that --p and --q come together
        check = (identities.check_boson_identity if family == "bose"
                 else identities.check_fermion_identity)(args.p, args.q, gamma)
        fractions, count = [(args.p, args.q)], 1
        sums = {(args.q, args.p & 1): (check.lhs, check.rhs)}
    else:  # every sum before the first row
        sums = identities.identity_class_sums(family, args.q_max, gamma)
        fractions = identities.coprime_fractions(args.q_max)
        count = identities._coprime_count(args.q_max)
    # the columns after p, one tuple per class (q, p & 1); keyed by value, 0.0 == -0.0
    # would print one rhs for the other
    tails = {key: (key[0], gamma, lhs, rhs, abs(lhs - rhs)) for key, (lhs, rhs) in sums.items()}
    max_residual = max(tail[-1] for tail in tails.values())
    print(f"max residual over {count} fractions: {max_residual:.3e}", file=sys.stderr)
    fields = ["family", "p", "q", "gamma", "lhs", "rhs", "residual"]
    extras = {"max_residual": max_residual}
    texts = {key: "".join([f",{v!r}" for v in tail]) + "\n" for key, tail in tails.items()}
    return fields, (f"{family},{p}{texts[q, p & 1]}" for p, q in fractions), extras


_THERMO_FIELDS = ["family", "method", "chi_num", "chi_den", "q_effective",
                  "out_family", "weight", "beta", "effective_beta", "beta4_f",
                  "beta4_energy", "beta4_pressure", "beta3_entropy"]


def _cmd_thermo(args) -> tuple[list[str], list[tuple], dict]:
    from . import thermo  # thermo and occupation load only in the commands that use them
    from .occupation import Family
    spec = thermo.GasSpec(Family(args.family), args.mass, args.mu, args.degeneracy)
    angle = StatAngle.from_turns(args.chi, args.q_max)
    beta = args.beta
    mapped = thermo.rotated_ensemble(spec, beta, angle)
    if args.method == "closed":
        if args.mass != 0.0 or args.mu != 0.0:
            raise DomainError("closed forms cover the massless gas at mu = 0; "
                              "use --method quadrature")
        f = thermo.ensemble_thermo(mapped).f
    else:
        check_budget(f"a quadrature of one row per residue and mu branch at q = "
                     f"{angle.denominator}", thermo.quadrature_rows(spec, angle),
                     thermo.QUADRATURE_ROW_BUDGET, "ninionics.thermo.QUADRATURE_ROW_BUDGET")
        tol = args.inner_tol or thermo.DEFAULT_INNER_TOL
        f = thermo.free_energy_extrapolated(spec, beta, angle, inner_tol=tol)
    _check_finite(f"the {args.method} free energy f", f)
    # chi is printed modulo its family's period: one turn for bosons, two for fermions
    turns = (angle.bosonic() if spec.family is Family.BOSE else angle.fermionic()).turns
    eff_beta = mapped.effective_beta
    # no closed scaling law away from the massless case; at mu != 0 the entropy
    # beta (E + P - mu n) needs the density n, which neither method computes
    massless = args.mass == 0.0
    derived = ((-3.0 * f * beta ** 4, -f * beta ** 4) if massless else (None, None))
    entropy = -4.0 * f * eff_beta * beta ** 3 if massless and args.mu == 0.0 else None
    row = (spec.family.value, args.method, turns.numerator, turns.denominator,
           angle.denominator, mapped.out_family.value, mapped.multiplicity, beta,
           eff_beta, f * beta ** 4, *derived, entropy)
    for name, value in zip(_THERMO_FIELDS, row):  # a finite f can still overflow E or s
        if isinstance(value, float):
            _check_finite(name, value)
    return _THERMO_FIELDS, [row], {}


_WALLS_FIELDS = ["rotating", "beta4_f", "beta4_energy", "beta4_pressure", "beta3_entropy",
                 "oracle_beta4_energy", "oracle_beta3_entropy", "per_mode_quadrature",
                 "per_mode_closed_form", "per_mode_rel_error", "count_factor",
                 "relative_deviation"]


def _cmd_walls(args) -> tuple[list[str], list[tuple], dict]:
    from . import thermo
    result = thermo.crossed_walls_thermo(args.beta, args.rotating,
                                         args.inner_tol or thermo.DEFAULT_INNER_TOL)
    tq, report = result.quantities, result.oracle
    b3, b4 = args.beta ** 3, args.beta ** 4
    oracle = ((report.oracle.energy * b4, report.oracle.entropy * b3,
               report.per_mode_quadrature, report.per_mode_closed_form,
               report.per_mode_relative_error, report.count_factor,
               report.relative_deviation) if report else (None,) * 7)
    row = (args.rotating, tq.f * b4, tq.energy * b4, tq.pressure * b4, tq.entropy * b3,
           *oracle)
    return _WALLS_FIELDS, [row], {}


def _check_finite(name: str, *values: float) -> None:
    """Refuse, before any row is written, a table column with an inf or NaN value."""
    for v in values:
        if not math.isfinite(v):
            raise DomainError(f"{name} is {v!r}; every value in the table must be finite")


def _cmd_occupation(args) -> tuple[list[str], Iterable[str], dict]:
    check_budget("an occupation table", len(args.xi) * args.omega_count)
    from . import occupation
    family = occupation.Family(args.family)
    lo, beta, mu = args.omega_min, args.beta, args.mu
    step = (args.omega_max - lo) / (args.omega_count - 1)
    _check_finite("the omega step", step)
    # each column is monotone in omega, so its two ends bound it
    ends = (lo, lo + (args.omega_count - 1) * step)
    _check_finite("omega", *ends)
    _check_finite("beta*omega", *(beta * omega for omega in ends))
    _check_finite("beta*(omega - mu)", *(beta * (omega - mu) for omega in ends))

    def eps_values():
        return (beta * (lo + i * step - mu) for i in range(args.omega_count))
    # every pole before any row, so a PoleError leaves the output untouched
    table = occupation.occupation_columns(family, args.xi, eps_values)
    omegas = (lo + i * step for i in range(args.omega_count))
    fields = ["family", "xi", "omega", "beta_omega", "occupation"]
    return fields, _occupation_lines(family.value, args.xi, omegas, beta, table), {}


_OCCUPATION_BLOCK = 256  # omega lines per block of joined omega text


def _occupation_lines(family: str, xis: list[float], omegas: Iterable[float], beta: float,
                      table: Iterable[Iterable[float]]) -> Iterable[str]:
    """The CSV lines of the occupation table, each n read from its column as its line is
    written. Each omega's text is formatted once, into newline-joined blocks of
    _OCCUPATION_BLOCK lines that each xi splits in turn, kept only for more than one xi."""
    def omega_text(omega: float) -> str:
        text, scaled = repr(omega), beta * omega
        # beta > 0 keeps the sign, so a product equal to omega has its repr
        return f"{text},{text if scaled == omega else repr(scaled)},"
    blocks = iter(lambda: "\n".join(map(omega_text, islice(omegas, _OCCUPATION_BLOCK))), "")
    if len(xis) > 1:
        blocks = list(blocks)
    for xi, ns in zip(xis, table):
        head, ns = f"{family},{xi!r},", iter(ns)
        for block in blocks:
            for tail, n in zip(block.split("\n"), ns):
                yield f"{head}{tail}{n!r}\n"


def _cmd_scan(args) -> tuple[list[str], Iterable[str], dict]:
    n, (lo, hi) = args.order, args.window
    check_budget(f"a scan of order {n}", _farey_terms_bound(n, float(hi - lo)))
    return list(fractal.SCAN_FIELDS), fractal.iter_scan_lines(n, args.window), {"order": n}


# Budgeted per nogo row; its peak RSS grew 156 B a row (fixed, growing) and 163 B (near,
# whose sieve grows with the count too) from 100,000 to 300,000 rows in fresh processes
# on a 2-core Xeon. 1024 B keeps the largest admitted --count at 1,048,576.
_NOGO_ROW_BYTES = 1024


def _cmd_nogo(args) -> tuple[list[str], Iterable[str], dict]:
    # the pairs are built whole before the lines stream, so refuse before the sieve a
    # table that would not fit
    rows = len(args.m_indices) if args.m_indices and args.mode != "near" else args.count
    check_memory(f"a nogo table of {rows} rows", rows * _NOGO_ROW_BYTES)
    from . import thermo
    if args.mode == "near":
        probe = fractal.prime_ratio_sequence_near(args.target, args.count, args.min_denominator)
    else:
        n = args.prime_index
        m_indices = args.m_indices or range(n + 1, n + 1 + args.count)
        probe = fractal.prime_sequence_probe(n, m_indices, f"{args.mode}_denominator")
    # the Fermi branch depends on p/q only through the parity of p + q: 0 at 1/1, 1 at 0/1
    branches = [f"{mapped.out_family.value},{mapped.multiplicity!r}"
                for mapped in map(thermo.fermion_equivalence, (1, 0), (1, 1))]
    lines = (f"{c},{d},{c / d!r},{d},{1 / d ** 4!r},{branches[(c + d) % 2]},"
             f"{abs(c / d - probe.target)!r}\n" for c, d in probe.pairs)
    extras = {"mode": args.mode, "target": probe.target,
              "limit_estimate": probe.limit_estimate, "notices": probe.notices}
    fields = ["chi_num", "chi_den", "chi_real", "q", "energy_ratio",
              "fermi_branch", "fermi_weight", "distance_to_target"]
    return fields, lines, extras


def _cmd_rotor(args) -> tuple[list[str], list[tuple], dict]:
    from . import rotor
    spec = rotor.RotorSpec(args.inertia, args.m_cut)
    if args.table == "weights":
        fields, rows = ["m", "weight"], rotor.angular_distribution(spec, args.beta).items()
    else:
        fields = ["chi", "z_real", "z_imag", "k_real", "k_imag"]
        rows = rotor.zk_table(spec, args.beta, args.chi_points, args.half_shift)
    z0 = rotor.partition_rotwisted(spec, args.beta, 0.0, args.half_shift).real
    return fields, rows, {"Z_0": z0}


# -------------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, as are its subcommand parsers, that takes a word such as -1/3,
    -1e-3, -inf or -pi/4 after an option as its value. argparse reads only -5 and -.5 as
    negative numbers and any other word starting with - as an option, so --mu -1e-3
    lacked its argument. Every negative value the type parsers here accept matches the
    pattern; an option such as -h does not."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|pi|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ninionics",
        description="Free-gas thermodynamics under imaginary rotation: "
                    "fractal scaling, transmutation, ninionic occupation numbers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="output path (default stdout)")

    def chi_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--chi", type=_turns, required=True,
                       help="statistical angle in turns: 'p/q' or a decimal")
        p.add_argument("--q-max", type=_positive_int, default=10 ** 6,
                       help="denominator cap when --chi is a decimal")

    p = sub.add_parser("thomae", help="Thomae value of a rational angle")
    p.add_argument("--fraction", dest="chi", type=_turns, required=True,
                   help="statistical angle in turns: 'p/q' or a decimal")
    p.add_argument("--q-max", type=_positive_int, default=10 ** 6,
                   help="denominator cap when --fraction is a decimal")
    p.set_defaults(handler=_cmd_thomae)
    common(p)

    p = sub.add_parser("identity", help="phase-sum identity residuals")
    p.add_argument("--family", choices=("bose", "fermi"), required=True)
    p.add_argument("--gamma", type=_positive_float, required=True)
    p.add_argument("--q-max", type=_positive_int, default=64)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=_positive_int, default=None)
    p.set_defaults(handler=_cmd_identity)
    common(p)

    p = sub.add_parser("thermo", help="gas thermodynamics at an imaginary rotation angle")
    p.add_argument("--family", choices=("bose", "fermi"), default="bose")
    p.add_argument("--beta", type=_positive_float, default=1.0)
    chi_flags(p)
    p.add_argument("--method", choices=("closed", "quadrature"), default="closed")
    p.add_argument("--mass", type=_nonneg_float, default=0.0)
    p.add_argument("--mu", type=_finite_float, default=0.0)
    p.add_argument("--degeneracy", type=_positive_float, default=1.0)
    # no default here, so that parsing does not import thermo: the handler reads
    # thermo.DEFAULT_INNER_TOL
    p.add_argument("--inner-tol", type=_positive_float, default=None)
    p.set_defaults(handler=_cmd_thermo)
    common(p)

    p = sub.add_parser("walls", help="crossed Dirichlet/Neumann walls thermodynamics")
    p.add_argument("--beta", type=_positive_float, default=1.0)
    p.add_argument("--rotating", action="store_true")
    p.add_argument("--inner-tol", type=_positive_float, default=None)
    p.set_defaults(handler=_cmd_walls)
    common(p)

    p = sub.add_parser("occupation", help="ninionic occupation-number curves")
    p.add_argument("--family", choices=("bose", "fermi"), required=True)
    p.add_argument("--xi", type=_angle_list, required=True,
                   help="comma-separated angles: floats or pi expressions like pi/4")
    p.add_argument("--beta", type=_positive_float, default=1.0)
    p.add_argument("--mu", type=_finite_float, default=0.0)
    p.add_argument("--omega-min", type=_finite_float, default=0.05)
    p.add_argument("--omega-max", type=_finite_float, default=5.0)
    p.add_argument("--omega-count", type=_grid_count, default=100)
    p.set_defaults(handler=_cmd_occupation)
    common(p)

    p = sub.add_parser("scan", help="fractal Farey scan of scaling ratios")
    p.add_argument("--order", type=_positive_int, required=True)
    p.add_argument("--window", type=_window, default=(Fraction(0), Fraction(1)))
    p.set_defaults(handler=_cmd_scan)
    common(p)

    p = sub.add_parser("nogo", help="prime-sequence probes of sequence-dependent limits")
    p.add_argument("--mode", choices=("fixed", "growing", "near"), default="fixed")
    p.add_argument("--prime-index", type=_positive_int, default=1,
                   help="1-based index of the fixed prime (fixed/growing modes)")
    p.add_argument("--m-indices", type=_int_list, default=None)
    p.add_argument("--count", type=_positive_int, default=8)
    p.add_argument("--target", type=_open_unit_fraction, default=Fraction(1, 2),
                   help="accumulation point for --mode near")
    p.add_argument("--min-denominator", type=_min_denominator, default=100_000)
    p.set_defaults(handler=_cmd_nogo)
    common(p)

    p = sub.add_parser("rotor", help="planar-rotor twisted ensemble tables")
    p.add_argument("--inertia", type=_positive_float, default=1.0)
    p.add_argument("--m-cut", type=_positive_int, default=50)
    p.add_argument("--beta", type=_positive_float, default=1.0)
    p.add_argument("--half-shift", action="store_true",
                   help="use half-integer phase offsets (fermionic convention) in the "
                        "zk table")
    p.add_argument("--table", choices=("zk", "weights"), default="zk")
    p.add_argument("--chi-points", type=_positive_int, default=64)
    p.set_defaults(handler=_cmd_rotor)
    common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "identity" and (args.p is None) != (args.q is None):
        parser.error("--p and --q must be given together")
    try:
        fieldnames, rows, extras = args.handler(args)
        try:
            _emit(args, fieldnames, rows, extras)
        except OSError as exc:  # computing does no I/O, so this is the output
            print(f"error[{type(exc).__name__}]: cannot write {args.output or 'stdout'}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 1
    except DomainError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
