"""Benchmark of the ninionics CLI: fresh-process workloads and a traced per-layer run.

    python3 bench/run.py --workload farey_scan --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 120    # every workload, round-robin
    python3 bench/run.py --self-test                     # corrupted outputs must fail

Run from anywhere inside a source checkout; the program is imported from
``src`` (``PYTHONPATH=src``), so nothing needs installing.

Untraced (``--trace 0``) is a closed loop with one client: each
``python -m ninionics.cli`` child starts after the previous one has exited.
A run warms up with one untimed launch, then repeats rounds of one set-up
probe (a fresh ``python -c "import ninionics.cli"``) and one pass over the
workload's command sequence until the next round would end more than half
a round past ``--seconds``, then takes a last probe. It reports:

- ``wall_s``: the sequence's wall time, as the sum over its commands of each
  command's median child wall time over the passes;
- ``setup_s``: median set-up probe;
- ``peak_rss_mb``: largest per-child ``ru_maxrss`` (from ``os.wait4`` in
  ``launcher.py``);
- ``ops_ok``: launches that exited 0 within the timeout and passed the output
  check, over launches attempted. Its complement, ``ops_failed``, is printed
  and carried by ``failed``/``attempted``.

Every output is checked against a reference computed by ``check.py``; a
repeated command must reproduce the bytes of its first launch, and on the
default seed an exact output must match the sha256 in ``digests.json``.

Traced (``--trace 1``) runs the sequence once untraced, then once through
``tracechild.py main`` (span around ``cli.main``), and replays in cold
children the layer calls of every workload's commands at this seed, so every
per-layer metric is measured in every traced run. It also replays the
quadrature oracle at the larger q of ``workloads.oracle_probes``, where it
misses its tolerance, and reports that error as ``thermo.oracle_probe_*``.
Spans go to ``bench/out/trace-<workload>-<seed>.json``.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import check
import workloads
from workloads import Launch

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
LAUNCH_TIMEOUT_S = 120.0
IMPORT_PROBES = 3
CHILD_ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONHASHSEED": "0",
    "LC_ALL": "C.UTF-8",
}  # NINIONICS_THREADS deliberately unset


@dataclass
class Child:
    wall: float
    rss_mb: float
    cpu: float
    code: int
    timed_out: bool
    out: bytes
    err: bytes


class Launcher:
    """Runs children one at a time through ``launcher.py``, which keeps
    their ``ru_maxrss`` free of this process's own peak; stops it on exit."""

    def __init__(self) -> None:
        OUT.mkdir(exist_ok=True)
        self._proc = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()

    def run(self, cmd: list[str]) -> Child:
        out, err = OUT / "stdout.bin", OUT / "stderr.bin"
        request = {"cmd": cmd, "env": CHILD_ENV, "cwd": str(ROOT), "stdout": str(out),
                   "stderr": str(err), "timeout": LAUNCH_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise SystemExit("bench: the launcher process exited")
        r = json.loads(line)
        return Child(r["wall"], r["maxrss_kb"] / 1024.0, r["cpu"], r["code"], r["timed_out"],
                     out.read_bytes(), err.read_bytes())


def cli_cmd(launch: Launch) -> list[str]:
    return [sys.executable, "-m", "ninionics.cli", *launch.argv]


def probe(launcher: Launcher, importtime: bool = False) -> Child:
    """Fresh ``python -c "import ninionics.cli"``: the fixed price of every launch."""
    flags = ["-X", "importtime"] if importtime else []
    child = launcher.run([sys.executable, *flags, "-c", "import ninionics.cli"])
    if child.code != 0:
        sys.stderr.write(child.err.decode(errors="replace"))
        raise SystemExit("bench: cannot import ninionics.cli from src/; "
                         "run from a ninionics source checkout")
    return child


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


@dataclass
class Workload:
    """Measurements of one workload in one run."""

    name: str
    seed: int
    launches: list[Launch]
    digests: dict[str, str]
    launcher: Launcher
    passes: int = 0
    walls: dict[str, list[float]] = field(default_factory=dict)
    setup: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    seen: dict[str, dict] = field(default_factory=dict)

    def run(self, launch: Launch, cmd: list[str] | None = None) -> Child:
        """Launch, then count it attempted and, unless its output checks, failed."""
        child = self.launcher.run(cmd or cli_cmd(launch))
        sha = hashlib.sha256(child.out).hexdigest()
        first = self.seen.get(launch.key)
        rows = 0
        if child.timed_out:
            problem = f"timed out after {LAUNCH_TIMEOUT_S:g} s"
        elif child.code != 0:
            problem = f"exit {child.code}: {child.err.decode(errors='replace')[-300:]}"
        elif first is not None:
            problem = first["problem"] if sha == first["sha256"] else "bytes differ from first launch"
        else:
            problem, rows = self._check_first(launch, child.out, sha)
        if first is None:
            self.seen[launch.key] = {"argv": launch.argv, "sha256": sha, "problem": problem,
                                     "rows": rows, "bytes": len(child.out)}
            print(f"  {'ok  ' if problem is None else 'FAIL'} {sha[:16]} {launch.key}"
                  + (f"\n       {problem}" if problem else ""), flush=True)
        self.walls.setdefault(launch.key, []).append(child.wall)
        self.attempted += 1
        self.failed += problem is not None
        self.rss.append(child.rss_mb)
        return child

    def _check_first(self, launch: Launch, out: bytes, sha: str) -> tuple[str | None, int]:
        """(problem or None, data rows) of a command's first output."""
        want = self.digests.get(launch.key) if self.seed == workloads.DEFAULT_SEED else None
        if want is not None and sha != want:
            return f"sha256 {sha} differs from the recorded {want}", 0
        try:
            return None, check.check(launch, out)
        except check.CheckFailed as exc:
            return str(exc), 0

    def one_pass(self) -> None:
        for launch in self.launches:
            self.run(launch)
        self.passes += 1

    def end_to_end(self) -> dict:
        ops_ok = 1.0 - self.failed / self.attempted
        return {
            "wall_s": metric(sum(statistics.median(w) for w in self.walls.values()), "s",
                             self.passes),
            "setup_s": metric(statistics.median(self.setup), "s", len(self.setup)),
            "peak_rss_mb": metric(max(self.rss), "MB", len(self.rss)),
            "ops_ok": metric(ops_ok, "ratio", self.attempted),
        }


def metric(value: float, unit: str, n: int | None = None) -> dict:
    """One metric; ``n`` is its sample count where it has one."""
    out = {"value": value, "unit": unit}
    if n is not None:
        out["n"] = n
    return out


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "child_env": {k: v for k, v in CHILD_ENV.items() if k != "PATH"}}


# ---------------------------------------------------------------- untraced run

def measure(launcher: Launcher, names: list[str], seed: int, seconds: float) -> list[Workload]:
    """Round-robin rounds of (set-up probe, one pass) per workload within ``seconds``."""
    digests = load_digests()
    states = [Workload(n, seed, workloads.build(n, seed), digests, launcher) for n in names]
    for _ in states:
        probe(launcher)  # warm-up: fills .pyc files and the page cache
    start = time.perf_counter()
    rounds = 0
    while True:
        for st in states:
            print(f"{st.name} seed {seed} pass {st.passes + 1}", flush=True)
            st.setup.append(probe(launcher).wall)
            st.one_pass()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds > seconds:  # start a round that ends by half a round late
            break
    for st in states:
        st.setup.append(probe(launcher).wall)
    return states


# ------------------------------------------------------------------ traced run

def parse_importtime(err: bytes) -> list[tuple[int, int, int, str]]:
    """(depth, self_us, cumulative_us, module) rows of ``-X importtime`` output."""
    rows = []
    for line in err.decode(errors="replace").splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        head, cum_us, name = line.split("|")
        self_us = head.split(":")[1]
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, int(self_us), int(cum_us), name.strip()))
    return rows


def import_breakdown(samples: list[tuple[float, bytes]]) -> dict:
    """import.* metrics: medians over ``-X importtime`` probes (wall, stderr)."""
    per = {"interpreter": [], "numpy": [], "scipy_integrate": [], "ninionics_self": []}
    for wall, err in samples:
        rows = parse_importtime(err)
        ours = [r for r in rows if r[3] == "ninionics" or r[3].startswith("ninionics.")]
        top = sum(r[2] for r in ours if r[0] == 0)
        per["interpreter"].append(wall - top / 1e6)
        per["numpy"].append(next((r[2] for r in rows if r[3] == "numpy"), 0) / 1e6)
        per["scipy_integrate"].append(
            next((r[2] for r in rows if r[3] == "scipy.integrate"), 0) / 1e6)
        per["ninionics_self"].append(sum(r[1] for r in ours) / 1e6)
    return {f"import.{k}_s": metric(statistics.median(v), "s", len(v)) for k, v in per.items()}


def mode_integrals(params: dict) -> int:
    """Distinct (canonical phase, +/-mu branch) momentum integrals of one quadrature launch."""
    p, q = params["p"], params["q"]
    if params["family"] == "bose":
        phases = {Fraction(a * p % q, q) for a in range(q)}
    else:
        phases = {Fraction((2 * a + 1) * p % (2 * q), 2 * q) for a in range(q)}
    return len({min(t, 1 - t) for t in phases}) * (2 if params["mu"] else 1)


def _jsonable(params: dict) -> dict:
    return {k: str(v) if isinstance(v, Fraction) else v for k, v in params.items()}


def replay(launcher: Launcher, groups: list[list[Launch]], run_id: str) -> list[dict]:
    """Replay the layer calls of each group of launches in a cold child of its own."""
    spans = []
    for i, group in enumerate(groups):
        path = OUT / f"spans-replay-{i}.json"
        payload = json.dumps([{"key": l.key, "kind": l.kind, "params": _jsonable(l.params)}
                              for l in group])
        child = launcher.run([sys.executable, str(BENCH / "tracechild.py"), "replay", str(path),
                              f"{run_id}-{i}", payload])
        if child.code != 0:
            raise SystemExit("bench: replay failed:\n" + child.err.decode(errors="replace"))
        spans += json.loads(path.read_text())
        path.unlink()
    return spans


def replay_all(launcher: Launcher, seed: int, run_id: str) -> list[dict]:
    """Replay the layer calls of every workload's launches at ``seed`` in cold children.

    Launches whose layer call fills a process-wide cache get a child each;
    the others share one child per workload.
    """
    groups: list[list[Launch]] = []
    for name in workloads.WORKLOADS:
        shared = []
        for launch in workloads.build(name, seed):
            if launch.cold:
                groups.append([launch])
            else:
                shared.append(launch)
        groups.append(shared)
    return replay(launcher, groups, f"{run_id}/replay")


def oracle_errors(launches: list[Launch], spans: list[dict]) -> list[float]:
    """Relative error of each quadrature launch's replayed value against the q*beta map."""
    value = {s["launch"]: s["counts"]["value"] for s in spans
             if s["name"] == "thermo.free_energy_extrapolated"}
    return [abs(value[l.key] / check.thermo_reference(l.params)[2] - 1.0) for l in launches]


def span_tree(spans: list[dict]) -> None:
    """Add ``dur`` and ``self`` (duration minus direct children) to each span, in place."""
    by_run: dict[tuple[str, int], dict] = {}
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        s["self"] = s["dur"]
        by_run[(s["run"], s["id"])] = s
    for s in spans:
        if s["parent"] is not None:
            by_run[(s["run"], s["parent"])]["self"] -= s["dur"]


def trace(launcher: Launcher, name: str, seed: int) -> tuple[Workload, dict]:
    """One traced run of ``name``; returns its state and the per-layer metrics."""
    st = Workload(name, seed, workloads.build(name, seed), load_digests(), launcher)
    probe(launcher)
    untraced = [st.run(launch) for launch in st.launches]
    imports = [probe(launcher, importtime=True) for _ in range(IMPORT_PROBES)]
    run_id = f"{name}/{seed}"
    spans, traced = [], []
    for i, launch in enumerate(st.launches):
        path = OUT / f"spans-main-{i}.json"
        cmd = [sys.executable, str(BENCH / "tracechild.py"), "main", str(path),
               f"{run_id}/main-{i}", *launch.argv]
        traced.append(st.run(launch, cmd))
        if path.is_file():
            main_spans = json.loads(path.read_text())
            for s in main_spans:
                s["launch"] = launch.key
            spans += main_spans
            path.unlink()
    spans += replay_all(launcher, seed, run_id)
    span_tree(spans)
    probes = workloads.oracle_probes(seed)
    probe_spans = replay(launcher, [[l] for l in probes], f"{run_id}/oracle-probe")
    span_tree(probe_spans)

    def total(span_name: str) -> float:
        return sum(s["dur"] for s in spans if s["name"] == span_name)

    def counts(span_name: str, key: str) -> list:
        return [s["counts"][key] for s in spans if s["name"] == span_name and key in s["counts"]]

    # Spans each launch's replay made directly, keyed by launch.
    def by_launch(spans: list[dict]) -> dict[str, list[dict]]:
        roots = {(s["run"], s["id"]): s["launch"] for s in spans if s["name"] == "replay"}
        replayed: dict[str, list[dict]] = {}
        for s in spans:
            if (s["run"], s["parent"]) in roots:
                s["launch"] = roots[(s["run"], s["parent"])]
                replayed.setdefault(s["launch"], []).append(s)
        return replayed

    replayed = by_launch(spans)
    by_launch(probe_spans)
    emit_self = 0.0
    for launch in st.launches:
        main_s = sum(s["dur"] for s in spans
                     if s["name"] == "cli.main" and s["launch"] == launch.key)
        emit_self += main_s - sum(s["dur"] for s in replayed[launch.key] if s["top"])
    quad = [l for n in workloads.WORKLOADS for l in workloads.build(n, seed)
            if l.kind == "thermo_quad"]
    rel_err = max(oracle_errors(quad, spans))
    probe_err = oracle_errors(probes, probe_spans)
    n_modes = sum(mode_integrals(l.params) for l in quad)
    quad_s = total("thermo.free_energy_quadrature")
    layer = {
        **import_breakdown([(c.wall, c.err) for c in imports]),
        "rationals.farey_interval_s": metric(total("rationals.farey_interval"), "s"),
        "rationals.farey_terms": metric(sum(counts("rationals.farey_interval", "farey_terms")), "count"),
        "rationals.farey_bracket_s": metric(total("rationals.farey_bracket"), "s"),
        "fractal.iter_fractal_scan_s": metric(total("fractal.iter_fractal_scan"), "s"),
        "cli.main_s": metric(total("cli.main"), "s", len(st.launches)),
        "cli.emit_self_s": metric(emit_self, "s", len(st.launches)),
        "cli.rows_out": metric(sum(v["rows"] for v in st.seen.values()), "count"),
        "cli.bytes_out": metric(sum(v["bytes"] for v in st.seen.values()), "B"),
        "thermo.free_energy_quadrature_s": metric(quad_s, "s", len(quad)),
        "thermo.ladder_s": metric(total("thermo.free_energy_extrapolated"), "s", len(quad)),
        "thermo.mode_integrals": metric(n_modes, "count"),
        "thermo.per_mode_s": metric(quad_s / n_modes, "s"),
        "thermo.crossed_walls_thermo_s": metric(total("thermo.crossed_walls_thermo"), "s"),
        "thermo.oracle_rel_err": metric(rel_err, "ratio", len(quad)),
        "thermo.oracle_probe_rel_err": metric(max(probe_err), "ratio", len(probes)),
        "thermo.oracle_probe_misses": metric(sum(e > check.QUAD_TOL for e in probe_err),
                                             "count", len(probes)),
        "rotor.angular_distribution_s": metric(total("rotor.angular_distribution"), "s"),
        "rotor.angular_distribution_peak_mb": metric(
            max(counts("rotor.angular_distribution", "peak_mb")), "MB"),
        "rotor.zk_table_s": metric(total("rotor.zk_table"), "s"),
        "rotor.partition_calls": metric(
            sum(counts("rotor.angular_distribution", "partition_calls"))
            + sum(counts("rotor.zk_table", "partition_calls")), "count"),
        "rotor.inversion_max_abs_err": metric(
            max(counts("rotor.angular_distribution", "inversion_max_abs_err")), "1"),
        "identities.scan_identity_residuals_s": metric(
            total("identities.scan_identity_residuals"), "s"),
        "identities.pairs": metric(sum(counts("identities.scan_identity_residuals", "pairs")), "count"),
        "identities.max_residual": metric(
            max(counts("identities.scan_identity_residuals", "max_residual")), "1"),
        "occupation.occupation_number_s": metric(total("occupation.occupation_number"), "s"),
        "occupation.points": metric(sum(counts("occupation.occupation_number", "points")), "count"),
        "proc.cpu_s": metric(sum(c.cpu for c in untraced), "s", len(untraced)),
        "proc.launches": metric(len(st.launches), "count"),
        "trace.overhead_s": metric(sum(c.wall for c in traced) - sum(c.wall for c in untraced), "s"),
    }
    self_times: dict[str, float] = {}
    for s in spans:
        self_times[s["name"]] = self_times.get(s["name"], 0.0) + s["self"]
    path = OUT / f"trace-{name}-{seed}.json"
    path.write_text(json.dumps({"spans": spans, "self_s": self_times,
                                "oracle_probe_spans": probe_spans}, indent=1))
    print(f"spans: {path}")
    return st, layer


# ------------------------------------------------------------ checker self-test

SELF_TEST = [
    workloads.scan(30),
    workloads.scan(200, Fraction(1, 3), Fraction(2, 5)),
    workloads.scan(20, fmt="json"),
    workloads.thomae(7, 12),
    workloads.thermo_closed("bose", 2, 5),
    workloads.thermo_closed("fermi", 1, 3),
    workloads.thermo_quad("fermi", 1, 3),
    workloads.thermo_quad("bose", 1, 2, mass=0.5, mu=0.2),
    workloads.walls(rotating=False),
    workloads.walls(rotating=True),
    workloads.nogo_near(Fraction(2, 5), count=3),
    workloads.nogo_fixed(prime_index=2, count=6),
    workloads.identity("bose", 16, 1.0),
    workloads.occupation("fermi", [0, 3, 6], 50),
    workloads.rotor_weights(50),
    workloads.rotor_zk(30, 64),
]


def self_test(launcher: Launcher) -> int:
    """Each good output must pass and each corruption of it must fail."""
    bad = 0
    for launch in SELF_TEST:
        child = launcher.run(cli_cmd(launch))
        try:
            check.check(launch, child.out)
        except check.CheckFailed as exc:
            print(f"FAIL good output rejected: {launch.key}: {exc}")
            bad += 1
            continue
        for what, data in check.corruptions(launch, child.out).items():
            try:
                check.check(launch, data)
            except check.CheckFailed as exc:
                print(f"ok   {what:<18} caught: {launch.key}: {exc}")
            else:
                print(f"FAIL {what:<18} passed: {launch.key}")
                bad += 1
    print(f"self-test: {'passed' if bad == 0 else f'{bad} failures'}")
    return 1 if bad else 0


def record_digests(launcher: Launcher) -> int:
    """Write digests.json: the sha256 of every exact default-seed output that checks."""
    digests = {}
    for name in workloads.WORKLOADS:
        for launch in workloads.build(name, workloads.DEFAULT_SEED):
            if launch.exact:
                child = launcher.run(cli_cmd(launch))
                check.check(launch, child.out)
                digests[launch.key] = hashlib.sha256(child.out).hexdigest()
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


# ------------------------------------------------------------------------ main

def report(st: Workload, metrics: dict) -> None:
    print(f"== {st.name} (seed {st.seed}): {len(st.launches)} launches per pass")
    for key, m in metrics.items():
        n = f"n={m['n']}" if "n" in m else ""
        print(f"  {key:<38} {m['value']:<24.10g} {m['unit']:<6} {n}")
    ops_failed = f"{st.failed / st.attempted:<24.10g} ratio  n={st.attempted}"
    print(f"  {'ops_failed':<38} {ops_failed} ({st.failed} of {st.attempted} launches)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record here as JSON")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ninionics" / "cli.py").is_file():
        print("bench: src/ninionics not found; run from a ninionics source checkout",
              file=sys.stderr)
        return 2
    with Launcher() as launcher:
        if args.self_test:
            return self_test(launcher)
        if args.record_digests:
            return record_digests(launcher)
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        env = environment()
        print("env: " + json.dumps(env))
        if args.trace:
            states, results = [], {}
            for name in names:
                st, results[name] = trace(launcher, name, args.seed)
                states.append(st)
        else:
            states = measure(launcher, names, args.seed, args.seconds)
            results = {st.name: st.end_to_end() for st in states}
    for st in states:
        report(st, results[st.name])
        for rec in st.seen.values():
            print(f"  sha256 {rec['sha256']} {' '.join(rec['argv'])}")
    if args.out:
        args.out.write_text(json.dumps({
            "env": env, "seed": args.seed, "trace": args.trace,
            "workloads": {st.name: {"metrics": results[st.name], "launches": list(st.seen.values()),
                                    "walls": st.walls, "setup": st.setup,
                                    "attempted": st.attempted, "failed": st.failed}
                          for st in states}}, indent=1))
    attempted = sum(st.attempted for st in states)
    failed = sum(st.failed for st in states)
    if len(states) == 1:
        metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in results[names[0]].items()}
    else:
        metrics = {f"{st.name}.{k}": {"value": m["value"], "unit": m["unit"]}
                   for st in states for k, m in results[st.name].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
