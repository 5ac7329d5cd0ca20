"""The benchmark's output gate, run in process on every launch of its three workloads.

`bench/check.py` checks each launch's output against a reference computed without
ninionics, at the tolerance of the matching acceptance criterion (the rotor's Z and K
to 1e-12, for one). A change that would fail that gate fails here first. Both bench
files are imported by path; the oracle probes, which the benchmark runs only to report
their error, are left out.
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


check, workloads = load("check"), load("workloads")
LAUNCHES = {f"{name}-{i}-{launch.kind}": launch for name in workloads.WORKLOADS
            for i, launch in enumerate(workloads.build(name, workloads.DEFAULT_SEED))}


@pytest.mark.parametrize("key", list(LAUNCHES))
def test_output_passes_the_bench_check(key):
    launch = LAUNCHES[key]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(launch.argv) == 0
    check.check(launch, out.getvalue().encode())
