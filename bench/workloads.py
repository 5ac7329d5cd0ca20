"""Seeded workloads: the CLI launches each workload makes, in order.

A workload is a fixed list of command kinds and sizes. The seed draws only
inputs that leave the cost and the reference unchanged: numerators coprime to
fixed denominators (by the q-only Thomae scaling the closed form and the
number of distinct mode integrals depend on q alone, and fermionic numerators
keep their parity so the branch stays fixed), the start of the fixed-width
narrow scan window, the ``thomae`` fraction, the ``nogo`` target and the
occupation angles. The program receives nothing but argv.

Why these three workloads:

- ``farey_scan``: Farey enumeration, Fraction building and row output do
  most of the work. The three commands use the rationals and cli layers in
  three ways (materialised CSV, streamed big-q window, pure-Python JSON), so
  a gain for one use that costs another shows.
- ``quadrature_oracle``: thermo mode integrals and the scipy import do the
  work and the output is a few hundred bytes. It exercises the quadrature
  oracle and bypasses the Farey and emit layers; scipy is needed, so lazy
  import cannot help. Its q stay where the oracle meets its tolerance (see
  ``oracle_probes``).
- ``cli_session``: eleven short launches, so interpreter start-up and import
  dominate; the rotor kernel sets the peak RSS. It exercises lazy import and
  the rotor inversion and bypasses quadrature.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 0
WORKLOADS = ("farey_scan", "quadrature_oracle", "cli_session")

# Kinds whose output is exact (rationals, or floats from exact operations
# only), so its bytes are pinned by a recorded sha256 on the default seed.
EXACT_KINDS = frozenset({"scan", "thomae", "thermo_closed", "walls", "nogo_near", "nogo_fixed"})

WINDOW_DENOMINATOR = 60_000  # narrow scan window: [a, a + 1] / 60000


@dataclass
class Launch:
    """One CLI launch: the checker key, the argv after ``-m ninionics.cli``, and its inputs."""

    kind: str
    argv: list[str]
    params: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def exact(self) -> bool:
        return self.kind in EXACT_KINDS and not self.params.get("rotating", False)

    @property
    def cold(self) -> bool:
        """The layer call fills a process-wide cache, so its replay needs a fresh child."""
        return self.kind == "thermo_quad" or (self.kind == "walls" and self.params["rotating"])


def _numerator(rng: random.Random, q: int, parity: int | None = None) -> int:
    choices = [p for p in range(1, q)
               if math.gcd(p, q) == 1 and (parity is None or p % 2 == parity)]
    return rng.choice(choices)


def scan(order: int, lo: Fraction = Fraction(0), hi: Fraction = Fraction(1),
         fmt: str = "csv") -> Launch:
    argv = ["scan", "--order", str(order)]
    if (lo, hi) != (0, 1):
        argv += ["--window", f"{lo},{hi}"]
    if fmt != "csv":
        argv += ["--format", fmt]
    return Launch("scan", argv, {"order": order, "lo": lo, "hi": hi, "format": fmt})


def thomae(p: int, q: int) -> Launch:
    return Launch("thomae", ["thomae", "--fraction", f"{p}/{q}"], {"p": p, "q": q})


def thermo_closed(family: str, p: int, q: int) -> Launch:
    argv = ["thermo", "--family", family, "--chi", f"{p}/{q}", "--method", "closed"]
    return Launch("thermo_closed", argv, {"family": family, "p": p, "q": q})


def thermo_quad(family: str, p: int, q: int, mass: float = 0.0, mu: float = 0.0) -> Launch:
    argv = ["thermo", "--method", "quadrature", "--family", family, "--chi", f"{p}/{q}"]
    if mass:
        argv += ["--mass", repr(mass)]
    if mu:
        argv += ["--mu", repr(mu)]
    return Launch("thermo_quad", argv,
                  {"family": family, "p": p, "q": q, "mass": mass, "mu": mu})


def walls(rotating: bool) -> Launch:
    return Launch("walls", ["walls"] + (["--rotating"] if rotating else []),
                  {"rotating": rotating})


def nogo_near(target: Fraction, count: int = 8, min_den: int = 100_000) -> Launch:
    argv = ["nogo", "--mode", "near", "--target", str(target), "--count", str(count),
            "--min-denominator", str(min_den)]
    return Launch("nogo_near", argv, {"target": target, "count": count, "min_den": min_den})


def nogo_fixed(prime_index: int = 1, count: int = 8) -> Launch:
    argv = ["nogo", "--mode", "fixed", "--prime-index", str(prime_index), "--count", str(count)]
    return Launch("nogo_fixed", argv, {"prime_index": prime_index, "count": count})


def identity(family: str, q_max: int, gamma: float) -> Launch:
    argv = ["identity", "--family", family, "--q-max", str(q_max), "--gamma", repr(gamma)]
    return Launch("identity", argv, {"family": family, "q_max": q_max, "gamma": gamma})


def occupation(family: str, twelfths: list[int], count: int) -> Launch:
    """Angles xi = k*pi/12 for k in ``twelfths``; omega on the CLI's default [0.05, 5] grid."""
    xi = ",".join(f"{k}pi/12" for k in twelfths)
    argv = ["occupation", "--family", family, "--xi", xi, "--omega-count", str(count)]
    return Launch("occupation", argv, {"family": family, "twelfths": twelfths, "count": count,
                                       "omega_min": 0.05, "omega_max": 5.0, "beta": 1.0,
                                       "mu": 0.0})


def rotor_weights(m_cut: int) -> Launch:
    return Launch("rotor_weights", ["rotor", "--m-cut", str(m_cut), "--table", "weights"],
                  {"m_cut": m_cut})


def rotor_zk(m_cut: int, chi_points: int) -> Launch:
    argv = ["rotor", "--m-cut", str(m_cut), "--chi-points", str(chi_points)]
    return Launch("rotor_zk", argv, {"m_cut": m_cut, "chi_points": chi_points})


def oracle_probes(seed: int) -> list[Launch]:
    """Quadrature launches at larger q, where the oracle misses its 1e-5 tolerance.

    At the default regulator ladder the q*beta map loses accuracy as q grows:
    p = +-1 misses from q = 16 (massless), 12 (massive boson, m = 0.5,
    mu = 0.2) and 11 (massive fermion, m = 1, mu = 0.5); by q = 23 other
    numerators miss too. A timed run must have no failing output, so the
    ``quadrature_oracle`` workload stays below those q. The traced run
    replays these probes and reports their error, so the defect stays in view.
    """
    rng = random.Random(f"oracle_probes:{seed}")
    return [thermo_quad("bose", _numerator(rng, 101), 101),
            thermo_quad("fermi", _numerator(rng, 211, parity=1), 211),  # ghost branch
            thermo_quad("fermi", _numerator(rng, 61, parity=0), 61, mass=1.0, mu=0.5)]


def build(name: str, seed: int) -> list[Launch]:
    """The launches of workload ``name`` for ``seed``, in the order they run."""
    rng = random.Random(f"{name}:{seed}")
    if name == "farey_scan":
        a = rng.randrange(1, WINDOW_DENOMINATOR - 1)
        lo = Fraction(a, WINDOW_DENOMINATOR)
        return [scan(700),
                scan(100_000, lo, lo + Fraction(1, WINDOW_DENOMINATOR)),
                scan(200, fmt="json")]
    if name == "quadrature_oracle":
        return [thermo_quad("bose", _numerator(rng, 13), 13),
                thermo_quad("fermi", _numerator(rng, 13, parity=1), 13),  # ghost branch
                thermo_quad("bose", _numerator(rng, 11), 11, mass=0.5, mu=0.2),
                thermo_quad("fermi", _numerator(rng, 9, parity=0), 9, mass=1.0, mu=0.5),
                walls(rotating=True)]
    if name == "cli_session":
        tq = rng.randrange(2, 10)
        return [thomae(_numerator(rng, 2000), 2000),
                thermo_closed("bose", _numerator(rng, 12), 12),
                thermo_closed("fermi", _numerator(rng, 9), 9),
                walls(rotating=False),
                nogo_near(Fraction(_numerator(rng, tq), tq)),
                nogo_fixed(),
                identity("fermi", 256, 1.0),
                occupation("bose", rng.sample(range(13), 3), 30_000),
                rotor_weights(1000),
                rotor_zk(400, 2000),
                scan(50, fmt="json")]
    raise ValueError(f"unknown workload {name!r}")
