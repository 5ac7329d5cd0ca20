"""Command-line interface: each subsystem exposed as a subcommand.

Every subcommand emits a header-bearing CSV table (default) or a single JSON
object with a schema_version field, to stdout or to --output. All quantities
are emitted as dimensionless combinations (beta^4 * densities, beta^3 *
entropy). Exit codes: 0 success, 1 computational or output error, 2 usage
error.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import shutil
import sys
from fractions import Fraction
from typing import Iterable

from . import fractal
from .errors import MEMORY_BUDGET, ROW_BUDGET, DomainError
from .rationals import StatAngle, parse_turns, thomae

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
        if not math.isfinite(x):
            raise argparse.ArgumentTypeError(f"angle {text!r} must be finite")
        return x
    sign = -1.0 if m.group("sign") == "-" else 1.0
    coef = float(m.group("coef")) if m.group("coef") else 1.0
    den = float(m.group("den")) if m.group("den") else 1.0
    if den == 0.0:
        raise argparse.ArgumentTypeError("angle denominator must be nonzero")
    return sign * coef * math.pi / den


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
        return parse_turns(text)
    except ValueError as exc:  # DomainError (p/0) is a ValueError too
        raise argparse.ArgumentTypeError(f"cannot parse turns {text!r}") from exc


def _write(args: argparse.Namespace, out, fieldnames: list[str],
           rows: Iterable[tuple | str], extras: dict) -> None:
    """Write rows as they arrive; JSON bytes equal json.dump(payload, indent=2) + "\n"."""
    if args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:  # a str row is a CSV line its producer formatted
            if isinstance(row, str):
                out.write(row)
            else:
                writer.writerow(row)
        return
    import json  # only this path needs it: once per table, not per value
    dumps = json.dumps

    def value(v) -> str:
        """dumps(v), by the faster repr for a plain int or finite float (not np.float64)."""
        t = type(v)
        return repr(v) if t is int or t is float and math.isfinite(v) else dumps(v)

    head = {"schema_version": SCHEMA_VERSION, "command": args.command, **extras, "rows": []}
    out.write(dumps(head, indent=2)[:-3])  # up to the "[" of "rows"
    keys = [f"\n      {dumps(name)}: " for name in fieldnames]
    sep = ""
    for row in rows:
        out.write(sep + "\n    {" + ",".join([k + value(v) for k, v in zip(keys, row)])
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


def _cmd_identity(args) -> tuple[list[str], Iterable[tuple | str], dict]:
    from . import identities  # numpy loads only in the commands that compute with it
    if args.p is not None:  # main has checked that --p and --q come together
        check = (identities.check_boson_identity if args.family == "bose"
                 else identities.check_fermion_identity)
        checks = [check(args.p, args.q, args.gamma)]
    else:
        checks = identities.scan_identity_residuals(args.family, args.q_max, args.gamma)
    max_residual = max(c.residual for c in checks)
    print(f"max residual over {len(checks)} fractions: {max_residual:.3e}",
          file=sys.stderr)
    fields = ["family", "p", "q", "gamma", "lhs", "rhs", "residual"]
    rows = (_identity_lines(args.family, args.gamma, checks) if args.format == "csv" else
            ((args.family, c.p, c.q, c.gamma, c.lhs, c.rhs, c.residual) for c in checks))
    return fields, rows, {"max_residual": max_residual}


def _identity_lines(family: str, gamma: float, checks: list) -> Iterable[str]:
    """The CSV lines of the identity table. gamma is formatted once, and rhs once per q
    and parity of p, the two things it depends on; keyed by value, 0.0 == -0.0 would
    print one for the other."""
    gamma_text = f",{gamma!r},"
    rhs_texts: dict[tuple[int, int], str] = {}
    for c in checks:
        rhs = rhs_texts.get((c.q, c.p & 1))
        if rhs is None:
            rhs = rhs_texts[c.q, c.p & 1] = f",{c.rhs!r},"
        yield f"{family},{c.p},{c.q}{gamma_text}{c.lhs!r}{rhs}{c.residual!r}\n"


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
        rows = thermo.quadrature_rows(spec, angle)
        if rows > thermo.QUADRATURE_ROW_BUDGET:
            raise DomainError(
                f"quadrature needs {rows} rows, one per residue and mu branch, over the "
                f"budget of {thermo.QUADRATURE_ROW_BUDGET} rows "
                f"(ninionics.thermo.QUADRATURE_ROW_BUDGET)")
        tol = args.inner_tol or thermo.DEFAULT_INNER_TOL
        f = thermo.free_energy_extrapolated(spec, beta, angle, inner_tol=tol)
        _check_finite("the quadrature free energy f", f)
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


def _check_rows(table: str, rows: float) -> None:
    """Refuse, before any row is computed, a table predicted to be over ROW_BUDGET."""
    if rows > ROW_BUDGET:
        raise DomainError(f"{table} has an estimated {rows:.4g} rows, over the budget of "
                          f"{ROW_BUDGET} rows (ninionics.errors.ROW_BUDGET)")


def _check_finite(name: str, *values: float) -> None:
    """Refuse, before any row is written, a table column with an inf or NaN value."""
    for v in values:
        if not math.isfinite(v):
            raise DomainError(f"{name} is {v!r}; every value in the table must be finite")


def _cmd_occupation(args) -> tuple[list[str], Iterable[tuple | str], dict]:
    count = len(args.xi) * args.omega_count  # a count past 2^1000 would overflow a float
    _check_rows("an occupation table", count if count.bit_length() <= 1000 else math.inf)
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
    # every n before any row, so a PoleError leaves the output untouched
    eps = (beta * (lo + i * step - mu) for i in range(args.omega_count))
    table = occupation.occupation_grid(family, args.xi, eps)
    omegas = [lo + i * step for i in range(args.omega_count)]
    fields = ["family", "xi", "omega", "beta_omega", "occupation"]
    if args.format == "json":
        return fields, ((family.value, xi, omega, beta * omega, n)
                        for xi, ns in zip(args.xi, table) for omega, n in zip(omegas, ns)), {}
    return fields, _occupation_lines(family.value, args.xi, omegas, beta, table), {}


def _occupation_lines(family: str, xis: list[float], omegas: list[float], beta: float,
                      table: list[list[float]]) -> Iterable[str]:
    """The CSV lines of the occupation table; the omega and beta*omega text of each
    omega is formatted once, and kept only when more than one xi reads it."""
    tails = (f"{omega!r},{beta * omega!r}," for omega in omegas)
    if len(xis) > 1:
        tails = list(tails)
    for xi, ns in zip(xis, table):
        head = f"{family},{xi!r},"
        for tail, n in zip(tails, ns):
            yield f"{head}{tail}{n!r}\n"


def _cmd_scan(args) -> tuple[list[str], Iterable[tuple | str], dict]:
    # about 3 n^2 (hi - lo) / pi^2 rows, plus n + 1 for the error term (an upper bound on
    # [0, 1] up to n = 20000 at least); an order past 2^500 would overflow the float
    n, (lo, hi) = args.order, args.window
    _check_rows(f"a scan of order {n}", 3 * n ** 2 * float(hi - lo) / math.pi ** 2 + n + 1
                if n.bit_length() <= 500 else math.inf)
    produce = fractal.iter_scan_lines if args.format == "csv" else fractal.iter_scan_rows
    return list(fractal.SCAN_FIELDS), produce(n, args.window), {"order": n}


# Peak RSS per nogo row, rounded up from its growth between 100,000 and 300,000 rows in
# fresh processes on a 2-core Xeon: 394 B (fixed), 475 B (growing), 863 B (near, whose
# sieve grows with the count as well).
_NOGO_ROW_BYTES = 1024


def _cmd_nogo(args) -> tuple[list[str], list[tuple], dict]:
    # the points and rows are built whole, so refuse before the sieve a table that
    # would not fit; a count past 2^1000 would overflow the float estimate
    rows = len(args.m_indices) if args.m_indices and args.mode != "near" else args.count
    need = rows * _NOGO_ROW_BYTES if rows.bit_length() <= 1000 else math.inf
    if need > MEMORY_BUDGET:
        raise DomainError(
            f"a nogo table of {rows} rows needs an estimated {need / 2 ** 20:.4g} MiB, "
            f"over the {MEMORY_BUDGET / 2 ** 20:g} MiB memory budget "
            f"(ninionics.errors.MEMORY_BUDGET)")
    from . import thermo
    if args.mode == "near":
        probe = fractal.prime_ratio_sequence_near(
            args.target, args.count, args.min_denominator)
    else:
        mode = "fixed_denominator" if args.mode == "fixed" else "growing_denominator"
        m_indices = args.m_indices or range(args.prime_index + 1,
                                            args.prime_index + 1 + args.count)
        probe = fractal.prime_sequence_probe(args.prime_index, m_indices, mode)
    rows = []
    for turns, ratio in probe.points:
        p, q = turns.numerator, turns.denominator
        mapped = thermo.fermion_equivalence(p, q)
        rows.append((p, q, float(turns), q, float(ratio),
                     mapped.out_family.value, mapped.multiplicity,
                     abs(float(turns) - probe.target)))
    extras = {"mode": args.mode, "target": probe.target,
              "limit_estimate": probe.limit_estimate, "notices": probe.notices}
    fields = ["chi_num", "chi_den", "chi_real", "q", "energy_ratio",
              "fermi_branch", "fermi_weight", "distance_to_target"]
    return fields, rows, extras


def _cmd_rotor(args) -> tuple[list[str], list[tuple], dict]:
    from . import rotor
    spec = rotor.RotorSpec(args.inertia, args.m_cut)
    if args.table == "weights":
        weights = rotor.angular_distribution(spec, args.beta, half_shift=args.half_shift)
        fields, rows = ["m", "weight"], sorted(weights.items())
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
    p.add_argument("--target", type=_fraction, default=Fraction(1, 2),
                   help="accumulation point for --mode near")
    p.add_argument("--min-denominator", type=_positive_int, default=100_000)
    p.set_defaults(handler=_cmd_nogo)
    common(p)

    p = sub.add_parser("rotor", help="planar-rotor twisted ensemble tables")
    p.add_argument("--inertia", type=_positive_float, default=1.0)
    p.add_argument("--m-cut", type=_positive_int, default=50)
    p.add_argument("--beta", type=_positive_float, default=1.0)
    p.add_argument("--half-shift", action="store_true",
                   help="use half-integer phase offsets (fermionic convention)")
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
