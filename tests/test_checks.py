"""Rules that every check at the library boundary keeps."""

import ast
import math
from pathlib import Path

import pytest

import ninionics
from ninionics import errors, fractal, identities, occupation, oracle, rationals, rotor, thermo
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


def test_every_exported_name_resolves_lazily_to_its_object():
    # ninionics resolves its names on first use; each must be its submodule's own object
    for module in (errors, fractal, identities, occupation, oracle, rationals, rotor, thermo):
        for name in module.__all__:
            assert getattr(ninionics, name) is getattr(module, name), (module.__name__, name)
    # and the map names only what its submodule exports, so `import *` cannot break
    for module_name, names in ninionics._EXPORTS.items():
        stale = set(names) - set(getattr(ninionics, module_name).__all__)
        assert not stale, (module_name, stale)
    assert thermo.free_energy_extrapolated is oracle.free_energy_extrapolated
    with pytest.raises(AttributeError):
        ninionics.no_such_name
    # a submodule name is not an export: the import falls back to the submodule
    from ninionics import fractal as fractal_again, thermo as thermo_again
    assert (fractal_again, thermo_again) == (fractal, thermo)


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
