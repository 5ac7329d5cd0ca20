"""One cold interpreter of the traced run.

    python bench/tracechild.py main SPANS RUN ARGV...     span cli.main(ARGV); CLI output on stdout
    python bench/tracechild.py replay SPANS RUN LAUNCHES  replay each launch's layer calls

LAUNCHES is a JSON list of {"key", "kind", "params"}. A replay calls the
public functions the CLI command reaches, on the same inputs, one span each;
spans the command's cli.main calls directly carry ``top``. Spans (id, name,
start, end, parent, run) stay in memory and are written to SPANS as JSON
when the child ends. Needs ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager


class Recorder:
    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, top: bool = False, **attrs):
        """Record one span; yields a dict for counts measured inside it."""
        rec = {"id": len(self.spans), "name": name, "run": self.run, "top": top,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "counts": {}, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def _replay(rec: Recorder, kind: str, p: dict) -> None:
    import math
    from fractions import Fraction

    from ninionics import fractal, identities, occupation, rationals, rotor, thermo

    if kind == "scan":
        order, lo, hi = p["order"], Fraction(p["lo"]), Fraction(p["hi"])
        with rec.span("rationals.farey_bracket"):
            rationals.farey_bracket(lo, order)
        with rec.span("rationals.farey_interval") as c:
            c["farey_terms"] = sum(1 for _ in rationals.farey_interval(order, lo, hi))
        with rec.span("fractal.iter_fractal_scan", top=True):
            for _ in fractal.iter_fractal_scan(order, (lo, hi)):
                pass
    elif kind == "thomae":
        with rec.span("rationals.thomae", top=True):
            rationals.thomae(rationals.StatAngle.parse(f"{p['p']}/{p['q']}").turns)
    elif kind == "thermo_closed":
        with rec.span("thermo.closed", top=True):
            if p["family"] == "bose":
                thermo.blackbody_scalar(p["q"] * 1.0)
            else:
                thermo.ensemble_thermo(thermo.fermion_equivalence(p["p"], p["q"], 1.0))
    elif kind == "thermo_quad":
        spec = thermo.GasSpec(occupation.Family(p["family"]), p["mass"], p["mu"])
        angle = rationals.StatAngle.from_fraction(p["p"], p["q"])
        eps = thermo.DEFAULT_REGULATORS[0]
        with rec.span("thermo.free_energy_quadrature", top=True):
            thermo.free_energy_quadrature(spec, 1.0, angle, thermo.required_m_cut(eps), eps)
        # Runs after the single-regulator call in the same process: its time is
        # what the full ladder and Richardson step add to that call.
        with rec.span("thermo.free_energy_extrapolated", top=True) as c:
            c["value"] = thermo.free_energy_extrapolated(spec, 1.0, angle)
    elif kind == "walls":
        with rec.span("thermo.crossed_walls_thermo", top=True):
            thermo.crossed_walls_thermo(1.0, p["rotating"])
    elif kind == "nogo_near":
        with rec.span("fractal.prime_ratio_sequence_near", top=True):
            fractal.prime_ratio_sequence_near(Fraction(p["target"]), p["count"], p["min_den"])
    elif kind == "nogo_fixed":
        n = p["prime_index"]
        with rec.span("fractal.prime_sequence_probe", top=True):
            fractal.prime_sequence_probe(n, list(range(n + 1, n + 1 + p["count"])),
                                         "fixed_denominator")
    elif kind == "identity":
        with rec.span("identities.scan_identity_residuals", top=True) as c:
            checks = identities.scan_identity_residuals(p["family"], p["q_max"], p["gamma"])
        c["pairs"] = len(checks)
        c["max_residual"] = max(chk.residual for chk in checks)
    elif kind == "occupation":
        family = occupation.Family(p["family"])
        step = (p["omega_max"] - p["omega_min"]) / (p["count"] - 1)
        with rec.span("occupation.occupation_number", top=True) as c:
            for k in p["twelfths"]:
                xi = k * math.pi / 12
                for i in range(p["count"]):
                    occupation.occupation_number(occupation.NinionParams(
                        family, xi, p["beta"], p["omega_min"] + i * step, p["mu"]))
        c["points"] = len(p["twelfths"]) * p["count"]
    elif kind in ("rotor_weights", "rotor_zk"):
        _replay_rotor(rec, kind, p, rotor)
    else:
        raise ValueError(f"no replay for kind {kind!r}")


def _replay_rotor(rec: Recorder, kind: str, p: dict, rotor) -> None:
    import math
    import tracemalloc

    spec = rotor.RotorSpec(1.0, p["m_cut"])
    original = rotor.partition_rotwisted
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    rotor.partition_rotwisted = counted  # angular_distribution looks it up as a module global
    try:
        if kind == "rotor_zk":
            with rec.span("rotor.zk_table", top=True) as c:
                rotor.partition_rotwisted(spec, 1.0, 0.0)
                n = p["chi_points"]
                for j in range(1, n + 1):
                    chi = -math.pi + 2.0 * math.pi * j / n
                    rotor.partition_rotwisted(spec, 1.0, chi)
                    rotor.generating_function(spec, 1.0, chi)
            c["partition_calls"] = calls
            return
        with rec.span("rotor.partition_rotwisted", top=True):
            rotor.partition_rotwisted(spec, 1.0, 0.0)
        with rec.span("rotor.angular_distribution", top=True) as c:
            weights = rotor.angular_distribution(spec, 1.0)
        c["partition_calls"] = calls
    finally:
        rotor.partition_rotwisted = original
    boltzmann = {m: math.exp(-m * m / 2.0) for m in range(-p["m_cut"], p["m_cut"] + 1)}
    z0 = math.fsum(boltzmann.values())
    c["inversion_max_abs_err"] = max(abs(weights[m] - b / z0) for m, b in boltzmann.items())
    # Memory is taken on a second, untimed call: tracemalloc slows allocation.
    tracemalloc.start()
    try:
        rotor.angular_distribution(spec, 1.0)
        c["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    mode, spans_path, run = argv[:3]
    rec = Recorder(run)
    code = 0
    if mode == "main":
        with rec.span("launch"):
            with rec.span("import"):
                from ninionics import cli
            with rec.span("cli.main"):
                code = cli.main(argv[3:])
        sys.stdout.flush()
    elif mode == "replay":
        for launch in json.loads(argv[3]):
            with rec.span("replay", launch=launch["key"]):
                _replay(rec, launch["kind"], launch["params"])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(spans_path, "w") as fh:
        json.dump(rec.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
