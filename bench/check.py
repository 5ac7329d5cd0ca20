"""Output checker: each launch's output against a reference computed here.

No reference calls into ninionics. Exact outputs are checked exactly (Farey
adjacency b*c - a*d = 1 with b + d > order, ratio columns equal to the
correctly rounded 1/q^4 and 1/q^3, closed forms); floating outputs against
their closed form or formula at the tolerance the acceptance suite
(tests/test_acceptance.py) uses for that quantity. A failed check raises
``CheckFailed``; ``check`` returns the number of data rows.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction

import numpy as np
from scipy.special import kve

# Tolerances, each from the acceptance criterion named beside it.
EXACT_TOL = 1e-12      # closed forms, identity residuals, occupation, rotor (1, 2, 6, 7, 9, 12)
QUAD_TOL = 1e-5        # quadrature oracle against the q*beta map (5, 6)
PER_MODE_TOL = 1e-6    # crossed-walls per-mode quadrature (8) and the odd-m count (3)
SERIES_TOL = 1e-9      # per-mode closed form against its alternating series (8)
NOGO_DISTANCE = 1e-3   # near-probe points within 1e-3 of the target (11)

PI_SQ = math.pi ** 2

SCAN_FIELDS = ["chi_numerator", "chi_denominator", "chi_real", "q",
               "energy_ratio", "entropy_ratio"]
THOMAE_FIELDS = ["chi_num", "chi_den", "q", "thomae_num", "thomae_den", "thomae_value"]
THERMO_FIELDS = ["family", "method", "chi_num", "chi_den", "q_effective",
                 "out_family", "weight", "beta", "effective_beta", "beta4_f",
                 "beta4_energy", "beta4_pressure", "beta3_entropy"]
WALLS_FIELDS = ["rotating", "beta4_f", "beta4_energy", "beta4_pressure", "beta3_entropy",
                "oracle_beta4_energy", "oracle_beta3_entropy", "per_mode_quadrature",
                "per_mode_closed_form", "per_mode_rel_error", "count_factor",
                "relative_deviation"]
NOGO_FIELDS = ["chi_num", "chi_den", "chi_real", "q", "energy_ratio",
               "fermi_branch", "fermi_weight", "distance_to_target"]
IDENTITY_FIELDS = ["family", "p", "q", "gamma", "lhs", "rhs", "residual"]
OCCUPATION_FIELDS = ["family", "xi", "omega", "beta_omega", "occupation"]
ROTOR_WEIGHT_FIELDS = ["m", "weight"]
ROTOR_ZK_FIELDS = ["chi", "z_real", "z_imag", "k_real", "k_imag"]

FIELDS = {
    "scan": SCAN_FIELDS, "thomae": THOMAE_FIELDS, "thermo_closed": THERMO_FIELDS,
    "thermo_quad": THERMO_FIELDS, "walls": WALLS_FIELDS, "nogo_near": NOGO_FIELDS,
    "nogo_fixed": NOGO_FIELDS, "identity": IDENTITY_FIELDS,
    "occupation": OCCUPATION_FIELDS, "rotor_weights": ROTOR_WEIGHT_FIELDS,
    "rotor_zk": ROTOR_ZK_FIELDS,
}
# The field a digit-flip corruption targets, per kind.
VALUE_FIELD = {
    "scan": "energy_ratio", "thomae": "thomae_value", "thermo_closed": "beta4_f",
    "thermo_quad": "beta4_f", "walls": "beta4_f", "nogo_near": "energy_ratio",
    "nogo_fixed": "energy_ratio", "identity": "lhs", "occupation": "occupation",
    "rotor_weights": "weight", "rotor_zk": "z_real",
}


class CheckFailed(Exception):
    """An output does not match its reference."""


def need(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


def _is_json(launch) -> bool:
    return launch.params.get("format") == "json"


def table(launch, data: bytes) -> list[list]:
    """Data rows as lists in field order, after checking the header or JSON schema."""
    fields = FIELDS[launch.kind]
    if _is_json(launch):
        payload = json.loads(data)
        need(payload.get("schema_version") == "1", "schema_version is not '1'")
        need(payload.get("command") == launch.argv[0], "wrong command in payload")
        rows = payload["rows"]
        need(all(list(r) == fields for r in rows), "row keys differ from the schema")
        if launch.kind == "scan":
            need(payload.get("order") == launch.params["order"], "wrong order in payload")
        return [[r[f] for f in fields] for r in rows]
    lines = data.decode("ascii").split("\n")
    need(lines[-1] == "", "output does not end with a newline")
    need(lines[0] == ",".join(fields), f"header is {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:-1]]
    need(all(len(r) == len(fields) for r in rows), "row with a wrong field count")
    return rows


def _empty(x) -> bool:
    return x is None or x == ""


def _one_row(launch, data: bytes) -> list:
    rows = table(launch, data)
    need(len(rows) == 1, f"expected one row, got {len(rows)}")
    return rows[0]


# ------------------------------------------------------------------ references

def fermi_branch(p: int, q: int) -> tuple[str, float]:
    """(out_family, per-dof weight) of a fermion rotated by p/q turns."""
    return ("fermion", 1.0) if (p + q) % 2 else ("boson_ghost", -1.0)


def nonrotating_f(boson: bool, beta: float, mass: float, mu: float) -> float:
    """Free energy per dof of a non-rotating free gas, averaged over +/-mu.

    The Bessel series f = -sum_n s^(n+1) cosh(n beta mu) M^2 K_2(n beta M)
    / (2 pi^2 n^2 beta^2), s = +1 for bosons and -1 for fermions; its
    massless limit is -pi^2/(90 beta^4) times 1 or 7/8.
    """
    if mass == 0.0:
        f = -PI_SQ / (90.0 * beta ** 4)
        return f if boson else 7.0 / 8.0 * f
    total = 0.0
    for n in range(1, 100_000):
        # e^{-n beta M} cosh(n beta mu) folded into the exponent-scaled K_2.
        decay = 0.5 * (math.exp(-n * beta * (mass - mu)) + math.exp(-n * beta * (mass + mu)))
        term = mass ** 2 * kve(2, n * beta * mass) * decay / (2.0 * PI_SQ * n ** 2 * beta ** 2)
        total += term if (boson or n % 2) else -term
        if term <= 1e-17 * abs(total):
            break
    return -float(total)


def thermo_reference(params: dict, beta: float = 1.0) -> tuple[str, float, float]:
    """(out_family, weight, beta^4 f per dof) for a rotated gas, by the q*beta map."""
    p, q = params["p"], params["q"]
    if params["family"] == "bose":
        out_family, weight = "boson", 1.0
    else:
        out_family, weight = fermi_branch(p, q)
    f = weight * nonrotating_f(out_family != "fermion", q * beta,
                               params.get("mass", 0.0), params.get("mu", 0.0))
    return out_family, weight, f * beta ** 4


def primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n, i)))
    return [i for i, is_prime in enumerate(sieve) if is_prime]


def rotor_levels(m_cut: int, beta: float = 1.0, inertia: float = 1.0):
    m = np.arange(-m_cut, m_cut + 1)
    return m, np.exp(-beta * m.astype(float) ** 2 / (2.0 * inertia))


# ---------------------------------------------------------------------- checks

def check_scan(launch, data: bytes) -> int:
    order, lo, hi = launch.params["order"], launch.params["lo"], launch.params["hi"]
    rows = table(launch, data)
    need(len(rows) > 0, "no rows")
    inv4: dict[int, tuple[float, float]] = {}
    pa = pb = None
    for i, r in enumerate(rows):
        a, b = int(r[0]), int(r[1])
        need(int(r[3]) == b and 0 < b <= order, f"row {i}: bad denominator")
        need(float(r[2]) == a / b, f"row {i}: chi_real is not {a}/{b}")
        ratios = inv4.get(b)
        if ratios is None:
            # int / int is correctly rounded, i.e. float(Fraction(1, b**4)).
            ratios = inv4[b] = (1 / b ** 4, 1 / b ** 3)
        need(float(r[4]) == ratios[0] and float(r[5]) == ratios[1],
             f"row {i}: ratios are not 1/q^4, 1/q^3 at q={b}")
        if pb is not None:
            need(pb * a - pa * b == 1 and pb + b > order,
                 f"row {i}: {pa}/{pb}, {a}/{b} are not Farey neighbours")
        pa, pb = a, b
    first = (int(rows[0][0]), int(rows[0][1]))
    need(first == (lo.numerator, lo.denominator), f"first row {first} is not {lo}")
    need((pa, pb) == (hi.numerator, hi.denominator), f"last row {pa}/{pb} is not {hi}")
    return len(rows)


def check_thomae(launch, data: bytes) -> int:
    r = _one_row(launch, data)
    x = Fraction(launch.params["p"], launch.params["q"])
    need([int(v) for v in r[:5]] == [x.numerator, x.denominator, x.denominator, 1,
                                     x.denominator], f"row {r} is not thomae({x})")
    need(float(r[5]) == 1 / x.denominator, "thomae_value is not 1/q")
    return 1


def _check_thermo_row(launch, r: list, method: str, tol: float) -> None:
    params = launch.params
    p, q = params["p"], params["q"]
    out_family, weight, want = thermo_reference(params)
    need(r[0] == params["family"] and r[1] == method, "wrong family or method")
    need([int(r[2]), int(r[3]), int(r[4])] == [p, q, q], "wrong angle or q_effective")
    need(r[5] == out_family and float(r[6]) == weight,
         f"branch {r[5]} x {r[6]}, expected {out_family} x {weight}")
    need(float(r[7]) == 1.0 and float(r[8]) == q, "wrong beta or effective_beta")
    f = float(r[9])
    need(close(f, want, tol), f"beta4_f {f!r} vs {want!r}: rel err {abs(f / want - 1):.3e}")
    if params.get("mass", 0.0):
        need(all(_empty(x) for x in r[10:]), "derived fields set for a massive gas")
    else:
        derived = [float(x) for x in r[10:]]
        need(all(close(g, w, EXACT_TOL) for g, w in zip(derived, [-3 * f, -f, -4 * f * q])),
             "energy, pressure or entropy inconsistent with beta4_f")


def check_thermo_closed(launch, data: bytes) -> int:
    _check_thermo_row(launch, _one_row(launch, data), "closed", EXACT_TOL)
    return 1


def check_thermo_quad(launch, data: bytes) -> int:
    _check_thermo_row(launch, _one_row(launch, data), "quadrature", QUAD_TOL)
    return 1


def check_walls(launch, data: bytes) -> int:
    r = _one_row(launch, data)
    rotating = launch.params["rotating"]
    need(str(r[0]) == str(rotating), "wrong rotating flag")
    f, energy, pressure, entropy = (float(x) for x in r[1:5])
    if not rotating:
        want = [-PI_SQ / 360, PI_SQ / 120, PI_SQ / 360, PI_SQ / 90]  # 1/4 of the scalar
        need(all(_empty(x) for x in r[5:]), "oracle fields set without rotation")
    else:
        want = [PI_SQ / 5760, -PI_SQ / 1920, -PI_SQ / 5760, -4 * PI_SQ / 5760]
        o_energy, o_entropy, per_mode, closed_form, rel_err, count, deviation = (
            float(x) for x in r[5:])
        series = math.fsum((-1) ** (k + 1) / k ** 4 for k in range(1, 2000)) / PI_SQ
        need(close(closed_form, series, SERIES_TOL), "per-mode closed form is not the series")
        need(close(per_mode, closed_form, PER_MODE_TOL),
             f"per-mode quadrature off by {abs(per_mode / closed_form - 1):.3e}")
        need(abs(rel_err - abs(per_mode / closed_form - 1)) <= 1e-15 and rel_err <= PER_MODE_TOL,
             f"per_mode_rel_error {rel_err!r} above {PER_MODE_TOL}")
        need(abs(count - 0.25) <= PER_MODE_TOL, "odd-m count is not 1/4")
        f_oracle = per_mode * count
        need(close(o_energy, -3 * f_oracle, EXACT_TOL) and close(o_entropy, -4 * f_oracle, EXACT_TOL),
             "oracle quantities inconsistent with the per-mode integral")
        need(close(deviation, abs(o_energy - energy) / abs(energy), EXACT_TOL),
             "relative_deviation inconsistent")
    need(all(close(g, w, EXACT_TOL) for g, w in zip([f, energy, pressure, entropy], want)),
         "reported quantities differ from the closed form")
    return 1


def _check_nogo_row(i: int, r: list, target: float) -> tuple[int, int, float]:
    num, den = int(r[0]), int(r[1])
    need(int(r[3]) == den and float(r[2]) == num / den, f"row {i}: wrong chi_real or q")
    need(float(r[4]) == 1 / den ** 4, f"row {i}: energy_ratio is not 1/q^4")
    ghost = (num + den) % 2 == 0
    need(r[5] == ("boson_ghost" if ghost else "fermion")
         and float(r[6]) == (-2.0 if ghost else 1.0), f"row {i}: wrong fermi branch")
    distance = float(r[7])
    need(distance == abs(num / den - target), f"row {i}: wrong distance_to_target")
    return num, den, distance


def check_nogo_near(launch, data: bytes) -> int:
    target, count, min_den = (launch.params[k] for k in ("target", "count", "min_den"))
    rows = table(launch, data)
    need(len(rows) == count, f"expected {count} rows, got {len(rows)}")
    primes = primes_below(2 * min_den + 10_000)
    prime_set = set(primes)
    start = next(i for i, p in enumerate(primes) if p >= min_den)
    dens, distances = [], []
    for i, r in enumerate(rows):
        num, den, distance = _check_nogo_row(i, r, float(target))
        need(num in prime_set, f"row {i}: numerator {num} is not prime")
        goal = round(target * den)
        below = max(p for p in primes if p <= goal)
        above = min(p for p in primes if p >= goal)
        need(abs(num - goal) == min(goal - below, above - goal),
             f"row {i}: {num} is not the prime nearest {goal}")
        need(distance < NOGO_DISTANCE, f"row {i}: {distance:.3e} from the target")
        dens.append(den)
        distances.append(distance)
    need(sorted(dens) == primes[start:start + count],
         "denominators are not the successive primes above the minimum")
    need(distances == sorted(distances, reverse=True), "rows not ordered by distance")
    return len(rows)


def check_nogo_fixed(launch, data: bytes) -> int:
    n, count = launch.params["prime_index"], launch.params["count"]
    primes = primes_below(10_000)
    pn = primes[n - 1]
    expected = sorted((Fraction(primes[m - 1] % pn, pn).numerator, pn)
                      for m in range(n + 1, n + 1 + count) if primes[m - 1] % pn)
    rows = table(launch, data)
    need(len(rows) == len(expected), f"expected {len(expected)} rows, got {len(rows)}")
    last = rows[-1]
    target = int(last[0]) / int(last[1])
    got = sorted(_check_nogo_row(i, r, target)[:2] for i, r in enumerate(rows))
    need(got == expected, f"points {got} are not {expected}")
    return len(rows)


def check_identity(launch, data: bytes) -> int:
    family, q_max, gamma = (launch.params[k] for k in ("family", "q_max", "gamma"))
    pairs = [(p, q) for q in range(1, q_max + 1) for p in range(1, q + 1) if math.gcd(p, q) == 1]
    rows = table(launch, data)
    need(len(rows) == len(pairs), f"expected {len(pairs)} rows, got {len(rows)}")
    for i, (r, (p, q)) in enumerate(zip(rows, pairs)):
        need(r[0] == family and (int(r[1]), int(r[2])) == (p, q) and float(r[3]) == gamma,
             f"row {i}: expected {family} {p}/{q} at gamma {gamma}")
        sign = 1.0 if family == "bose" or (p + q) % 2 == 0 else -1.0
        want = math.log1p(-sign * math.exp(-q * gamma))
        lhs, rhs, residual = float(r[4]), float(r[5]), float(r[6])
        need(abs(rhs - want) <= EXACT_TOL and abs(lhs - want) <= EXACT_TOL,
             f"row {i}: phase sum {lhs!r} vs closed form {want!r}")
        need(residual == abs(lhs - rhs), f"row {i}: residual is not |lhs - rhs|")
    return len(rows)


def occupation_formula(family: str, xi: float, eps: float) -> float:
    """(e^eps cos xi -+ 1) / (1 -+ 2 e^eps cos xi + e^{2 eps})."""
    s = 1.0 if family == "bose" else -1.0
    e, c = math.exp(eps), math.cos(xi)
    return (e * c - s) / (1.0 - 2.0 * s * e * c + e * e)


def check_occupation(launch, data: bytes) -> int:
    p = launch.params
    count, beta, mu = p["count"], p["beta"], p["mu"]
    step = (p["omega_max"] - p["omega_min"]) / (count - 1)
    rows = table(launch, data)
    need(len(rows) == len(p["twelfths"]) * count, f"wrong row count {len(rows)}")
    for i, r in enumerate(rows):
        k, j = divmod(i, count)
        xi, omega, beta_omega, n = (float(x) for x in r[1:])
        need(r[0] == p["family"], f"row {i}: wrong family")
        need(abs(xi - p["twelfths"][k] * math.pi / 12) <= 1e-15 * max(1.0, xi),
             f"row {i}: xi is not {p['twelfths'][k]}pi/12")
        need(abs(omega - (p["omega_min"] + j * step)) <= 1e-12 and beta_omega == beta * omega,
             f"row {i}: omega off the grid")
        want = occupation_formula(p["family"], xi, beta * (omega - mu))
        need(abs(n - want) <= EXACT_TOL * max(1.0, abs(want)),
             f"row {i}: occupation {n!r} vs {want!r}")
    return len(rows)


def check_rotor_weights(launch, data: bytes) -> int:
    m_cut = launch.params["m_cut"]
    rows = table(launch, data)
    m, boltzmann = rotor_levels(m_cut)
    need([int(r[0]) for r in rows] == m.tolist(), "levels are not -m_cut..m_cut")
    weights = np.array([float(r[1]) for r in rows])
    err = float(np.max(np.abs(weights - boltzmann / math.fsum(boltzmann))))
    need(err <= EXACT_TOL, f"weights differ from Boltzmann by {err:.3e}")
    need(abs(math.fsum(weights) - 1.0) <= EXACT_TOL, "weights do not sum to 1")
    return len(rows)


def check_rotor_zk(launch, data: bytes) -> int:
    m_cut, n = launch.params["m_cut"], launch.params["chi_points"]
    rows = table(launch, data)
    need(len(rows) == n, f"expected {n} rows, got {len(rows)}")
    values = np.array([[float(x) for x in r] for r in rows])
    chi = -math.pi + 2.0 * math.pi * np.arange(1, n + 1) / n
    need(bool(np.all(np.abs(values[:, 0] - chi) <= 1e-13)), "chi grid is not (-pi, pi]")
    m, w = rotor_levels(m_cut)
    z = np.exp(1j * np.outer(values[:, 0], m)) @ w
    z0 = math.fsum(w)
    k = [-cmath.log(zz / z0) for zz in z]
    z_err = np.max(np.abs(values[:, 1] + 1j * values[:, 2] - z))
    k_err = np.max(np.abs(values[:, 3] + 1j * values[:, 4] - np.array(k)))
    need(z_err <= EXACT_TOL and k_err <= EXACT_TOL,
         f"Z off by {z_err:.3e}, K off by {k_err:.3e}")
    return len(rows)


CHECKS = {
    "scan": check_scan, "thomae": check_thomae, "thermo_closed": check_thermo_closed,
    "thermo_quad": check_thermo_quad, "walls": check_walls, "nogo_near": check_nogo_near,
    "nogo_fixed": check_nogo_fixed, "identity": check_identity,
    "occupation": check_occupation, "rotor_weights": check_rotor_weights,
    "rotor_zk": check_rotor_zk,
}


def check(launch, data: bytes) -> int:
    """Rows in a correct output; raises CheckFailed, also for output that does not parse."""
    try:
        return CHECKS[launch.kind](launch, data)
    except (ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from exc


# ------------------------------------------------------------- self-test data

def _flip_digit(text: str) -> str:
    """Raise the first significant digit by one (9 wraps to 1)."""
    for i, ch in enumerate(text):
        if ch in "123456789":
            return text[:i] + str(int(ch) % 9 + 1) + text[i + 1:]
    i = text.index("0")
    return text[:i] + "1" + text[i + 1:]


def _negate(text: str) -> str:
    return text[1:] if text.startswith("-") else "-" + text


def corruptions(launch, data: bytes) -> dict[str, bytes]:
    """Corrupted copies of a good output: a flipped digit in the row with the
    largest value, the last row dropped, and for thermo kinds a wrong-sign beta4_f."""
    fields = FIELDS[launch.kind]
    col = fields.index(VALUE_FIELD[launch.kind])
    if _is_json(launch):
        payload = json.loads(data)
        rows = [[r[f] for f in fields] for r in payload["rows"]]
    else:
        lines = data.decode("ascii").split("\n")
        rows = [line.split(",") for line in lines[1:-1]]
    big = max(range(len(rows)), key=lambda i: abs(float(rows[i][col])))

    def render(new_rows: list[list]) -> bytes:
        if _is_json(launch):
            out = dict(payload, rows=[dict(zip(fields, r)) for r in new_rows])
            return (json.dumps(out, indent=2) + "\n").encode()
        return ("\n".join([lines[0]] + [",".join(map(str, r)) for r in new_rows]) + "\n").encode()

    def edit(i: int, fn) -> list[list]:
        new = [list(r) for r in rows]
        value = fn(repr(new[i][col]) if _is_json(launch) else new[i][col])
        new[i][col] = float(value) if _is_json(launch) else value
        return new

    out = {"flipped_digit": render(edit(big, _flip_digit)), "dropped_row": render(rows[:-1])}
    if launch.kind in ("thermo_closed", "thermo_quad", "walls"):
        out["wrong_sign_beta4_f"] = render(edit(0, _negate))
    return out
