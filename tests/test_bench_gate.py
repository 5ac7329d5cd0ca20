"""The benchmark's output gate and its traced replay, run in process on every launch of
its three workloads.

`bench/check.py` checks each launch's output against a reference computed without
ninionics, at the tolerance of the matching acceptance criterion (the rotor's Z and K
to 1e-12, for one). `bench/tracechild.py` replays each launch's library calls for the
traced run (`--trace 1`), so a name or parameter it uses that the package lost fails
here, not only there; the rotor inversion's error, a per-layer metric, is held to
1e-12. A change that would fail either fails here first. The bench files are imported
by path; the oracle probes, which the benchmark runs only to report their error, are
left out.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from ninionics.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


check, tracechild, workloads = load("check"), load("tracechild"), load("workloads")
LAUNCHES = {f"{name}-{i}-{launch.kind}": launch for name in workloads.WORKLOADS
            for i, launch in enumerate(workloads.build(name, workloads.DEFAULT_SEED))}


@pytest.mark.parametrize("key", list(LAUNCHES))
def test_output_passes_the_bench_check(key):
    launch = LAUNCHES[key]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(launch.argv) == 0
    check.check(launch, out.getvalue().encode())


@pytest.mark.parametrize("key", list(LAUNCHES))
def test_traced_replay_runs(key):
    launch = LAUNCHES[key]
    recorder = tracechild.Recorder("test")
    tracechild._replay(recorder, launch.kind, launch.params)
    if launch.kind == "rotor_weights":
        # the inversion's error against the Boltzmann weights, as the traced run reports it
        errors = [span["counts"]["inversion_max_abs_err"] for span in recorder.spans
                  if span["name"] == "rotor.angular_distribution"]
        assert len(errors) == 1 and errors[0] <= 1e-12
