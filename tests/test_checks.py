"""Rules that every check at the library boundary keeps."""

import ast
import math
from pathlib import Path

import pytest

import ninionics
from ninionics import fractal, identities, occupation, rationals, rotor, thermo
from ninionics.errors import DomainError


@pytest.mark.parametrize("call", [
    lambda: thermo.blackbody_scalar(math.nan),
    lambda: thermo.GasSpec(mass=math.nan),
    lambda: thermo.GasSpec(mu=math.nan),
    lambda: thermo.GasSpec(degeneracy=math.nan),
    lambda: thermo.required_m_cut(math.nan),
    lambda: thermo.odd_count_ratio(math.nan),
    lambda: identities.regularized_count_ratio(2, math.nan),
    lambda: rotor.RotorSpec(math.nan, 5),
    lambda: rotor.angular_distribution(rotor.RotorSpec(1.0, 5), math.nan),
], ids=["beta", "mass", "mu", "degeneracy", "required_m_cut", "odd_count_ratio",
        "regularized_count_ratio", "inertia", "rotor_beta"])
def test_nan_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("path", sorted(Path(ninionics.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_check_lives_in_an_assert(path):
    # python -O strips assert statements, so a check written as one vanishes
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


@pytest.mark.parametrize("path", sorted(Path(ninionics.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # numpy is the one runtime dependency; scipy comes only with the test extra
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module]
    found = [name for name in names if name.split(".")[0] == "scipy"]
    assert found == [], f"{path.name} imports {found}"


def test_traced_bench_calls_only_names_that_exist():
    # bench/tracechild.py replays the CLI's layer calls; a name it uses that the
    # package no longer has breaks only the traced bench run
    modules = {module.__name__.rpartition(".")[2]: module
               for module in (fractal, identities, occupation, rationals, rotor, thermo)}
    path = Path(__file__).resolve().parents[1] / "bench" / "tracechild.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert ("thermo", "free_energy_quadrature") in used
    missing = sorted(f"{mod}.{name}" for mod, name in used if not hasattr(modules[mod], name))
    assert missing == [], f"bench/tracechild.py uses names the package lacks: {missing}"
