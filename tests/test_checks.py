"""Rules that every check at the library boundary keeps."""

import ast
import math
from fractions import Fraction
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
    # the package has no runtime dependency: scipy and numpy come only with the test
    # extra, for the reference values and the bench checks
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module]
    found = [name for name in names if name.split(".")[0] in ("scipy", "numpy")]
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


# one factory per record type; each call builds an equal record, a new object
RECORDS = {
    "StatAngle": lambda: rationals.StatAngle(Fraction(2, 7)),
    "FractalSample": lambda: fractal.sample_at(Fraction(2, 7)),
    "SelfSimilarityReport": lambda: fractal.self_similarity_check(8, (0, 1), 2),
    "SequenceProbe": lambda: fractal.prime_sequence_probe(2, [3, 4, 5]),
    "GasSpec": lambda: thermo.GasSpec(occupation.Family.FERMI, 0.5, 0.2, 2.0),
    "ThermoQuantities": lambda: thermo.blackbody_scalar(1.5),
    "MappedEnsemble": lambda: thermo.fermion_equivalence(1, 3),
    "WallsOracle": lambda: thermo.crossed_walls_thermo(1.0, True).oracle,
    "CrossedWalls": lambda: thermo.crossed_walls_thermo(1.0, False),
    "NinionParams": lambda: occupation.NinionParams(occupation.Family.BOSE, 0.3, 1.0, 2.0),
    "LevelClass": lambda: occupation.limit_form(occupation.Family.BOSE, 0.3),
    "IdentityCheck": lambda: identities.check_boson_identity(2, 5, 0.4),
    "RotorSpec": lambda: rotor.RotorSpec(0.5, 20),
    "EnsembleReport": lambda: rotor.ensemble_report(rotor.RotorSpec(1.0, 25), 1.0, 0.9),
    "ShiftCheck": lambda: rotor.shift_eigenphase_check(0.3, 3, 10),
}
UNHASHABLE = {"SequenceProbe", "EnsembleReport"}  # they hold a list or a dict


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_hash_equal(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert type(a).__name__ == name
    assert a is not b and a == b
    assert repr(a) == repr(b) and repr(a).startswith(f"{name}(")
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(name):
    record = RECORDS[name]()
    fields = record._fields if isinstance(record, tuple) else type(record).__slots__
    for field in [*fields, "no_such_field"]:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    assert record == RECORDS[name]()


@pytest.mark.parametrize("call,message", [
    (lambda: thermo.GasSpec(occupation.Family.BOSE, -1.0), "mass must be nonnegative"),
    (lambda: thermo.GasSpec(mass=-1.0), "mass must be nonnegative"),
    (lambda: thermo.GasSpec(occupation.Family.FERMI, 0.0, math.inf), "mu must be finite"),
    (lambda: thermo.GasSpec(mu=-math.inf), "mu must be finite"),
    (lambda: thermo.GasSpec(occupation.Family.BOSE, 0.0, 0.0, 0.0),
     "degeneracy must be positive"),
    (lambda: thermo.GasSpec(degeneracy=-2.0), "degeneracy must be positive"),
    (lambda: rotor.RotorSpec(0.0, 5), "inertia must be positive"),
    (lambda: rotor.RotorSpec(inertia=-1.0), "inertia must be positive"),
    (lambda: rotor.RotorSpec(1.0, 0), "m_cut must be >= 1"),
    (lambda: rotor.RotorSpec(m_cut=0), "m_cut must be >= 1"),
    (lambda: thermo.GasSpec()._replace(mass=-1.0), "mass must be nonnegative"),
    (lambda: rotor.RotorSpec()._replace(m_cut=0), "m_cut must be >= 1"),
], ids=["mass", "mass-keyword", "mu", "mu-keyword", "degeneracy", "degeneracy-keyword",
        "inertia", "inertia-keyword", "m_cut", "m_cut-keyword", "gas-replace", "rotor-replace"])
def test_spec_refusals_positional_and_keyword(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


def test_record_constructors_keep_their_defaults():
    bose = occupation.Family.BOSE
    assert (thermo.GasSpec() == thermo.GasSpec(bose, 0.0, 0.0, 1.0)
            == thermo.GasSpec(family=bose, mass=0.0, mu=0.0, degeneracy=1.0))
    assert rotor.RotorSpec() == rotor.RotorSpec(1.0, 50) == rotor.RotorSpec(inertia=1.0, m_cut=50)
    assert occupation.NinionParams(bose, 0.3, 1.0, 2.0).mu == 0.0
    assert occupation.LevelClass(occupation.StatLabel.BOSON).beta_multiplier == 1
    assert identities.IdentityCheck(p=1, q=2, gamma=0.5, lhs=1.0, rhs=0.5).residual == 0.5


def test_sequence_probes_never_share_notices():
    # a default is immutable, and a built probe does not hold the list it was built from
    a, b = fractal.SequenceProbe(0.0, [], 0.0), fractal.SequenceProbe(0.5, [], 1.0)
    assert a.notices == b.notices == ()
    skipped = fractal.prime_sequence_probe(2, [2, 3, 4])  # P_2 = 3 divides itself
    assert skipped.notices == ("P_2 = 3 is divisible by P_2 = 3; skipped",)
    for probe in (a, b, skipped):
        assert isinstance(probe.notices, tuple)
