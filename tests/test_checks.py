"""Rules that every check at the library boundary keeps."""

import ast
import importlib
import inspect
import math
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ninionics
from ninionics import errors, fractal, identities, occupation, rationals, rotor, thermo
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
    # a non-finite chi, NaN or either infinity
    *[lambda chi=chi, call=call: call(chi)
      for chi in (math.nan, math.inf, -math.inf) for call in (
          lambda chi: rotor.partition_rotwisted(rotor.RotorSpec(1.0, 10), 1.0, chi),
          lambda chi: rotor.partition_rotwisted(rotor.RotorSpec(1.0, 10), 1.0, chi, True),
          lambda chi: rotor.generating_function(rotor.RotorSpec(1.0, 10), 1.0, chi),
          lambda chi: rotor.shift_eigenphase_check(chi, 3, 10))],
], ids=["beta", "mass", "mu", "degeneracy", "required_m_cut", "odd_count_ratio",
        "regularized_count_ratio", "inertia", "rotor_beta",
        *[f"{name}_{chi}" for chi in ("nan", "inf", "-inf")
          for name in ("partition", "half_shift_partition", "generating_function",
                       "shift_eigenphase")]])
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
def test_no_budget_refusal_is_written_by_hand(path):
    # errors.check_budget is the one gate: its comparison is exact for an int of any
    # size, and a copy that formats its own estimate can overflow on a huge input
    if path.name == "errors.py":
        return
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
             and any(isinstance(part, ast.Constant) and "an estimated" in part.value
                     for part in node.values)]
    assert lines == [], f"{path.name} formats a budget refusal at lines {lines}"


# each budget a refusal names, with the scale of the unit it shows the estimate in
@pytest.mark.parametrize("budget,scale", [
    (errors.ROW_BUDGET, 1), (thermo.QUADRATURE_ROW_BUDGET, 1), (errors.TERM_BUDGET, 1),
    (errors.MEMORY_BUDGET, 2 ** 20)], ids=["rows", "quadrature-rows", "terms", "MiB"])
@given(data=st.data())
def test_a_refusal_shows_an_estimate_over_its_budget(budget, scale, data):
    estimate = data.draw(st.one_of(
        st.integers(budget + 1, budget + 10 ** 4),  # an int just over the budget
        st.integers(10 ** 309, 10 ** 400),  # one past the float range, shown as inf
        st.floats(budget, budget * 1.001, exclude_min=True)))
    with pytest.raises(DomainError) as refusal:
        if scale == 1:
            errors.check_budget("a request", estimate, budget)
        else:
            errors.check_memory("a request", estimate)
    shown = re.search(r"an estimated (\S+) ", str(refusal.value)).group(1)
    assert float(shown) > budget / scale, str(refusal.value)


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


def test_subsystems_import_as_submodules():
    # the package holds no names of its own: each subsystem is imported by name
    from ninionics import fractal as fractal_again, thermo as thermo_again
    assert (fractal_again, thermo_again) == (fractal, thermo)


ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(p for p in (ROOT / "src" / "ninionics").glob("*.py") if p.name != "__init__.py")
# what the library is for: the commands (cli.py is in LIBRARY), the acceptance suite
# and the bench; a name only the other tests read is not reached
READERS = [*LIBRARY, ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]


def loaded_names(tree):
    """Every name a tree reads: bare names, and the attribute of each attribute read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def library_roots(tree):
    """(name, its definition or None) for each name in __all__ and each top-level
    function, class or variable but a dunder."""
    roots = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            roots[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names = (ast.literal_eval(node.value) if target.id == "__all__"
                             else [target.id])
                    for name in names:
                        roots.setdefault(name, None)
    return {name: node for name, node in roots.items() if not name.startswith("__")}


def test_every_library_name_is_reached():
    # a name that no module, acceptance criterion or bench script reads is dead
    # surface; reads inside its own definition (a class naming itself) do not count
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in READERS}
    total = Counter(name for tree in trees.values() for name in loaded_names(tree))
    unreached = []
    for path in LIBRARY:
        for name, node in library_roots(trees[path]).items():
            own = Counter(loaded_names(node))[name] if node is not None else 0
            if total[name] == own:
                unreached.append(f"{path.stem}.{name}")
    assert unreached == [], f"reached by no command, acceptance criterion or bench: {unreached}"


def defined_names(path):
    """The names a module assigns at its top level."""
    return {target.id for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)}


def test_every_refusal_names_the_module_that_defines_its_budget():
    # a refusal names its budget as "ninionics.<module>.<NAME>": that module must assign
    # NAME itself, and NAME must be the object the call compares with, so a budget that
    # moves to another module cannot leave a refusal naming its old home
    gate = inspect.signature(errors.check_budget).parameters
    named, wrong = set(), []
    for path in LIBRARY:
        module = importlib.import_module(f"ninionics.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "check_budget"):
                continue
            args = {**dict(zip(gate, node.args)), **{kw.arg: kw.value for kw in node.keywords}}
            # a budget is passed by its bare name, or left to the gate's default
            budget = (getattr(module, args["budget"].id) if "budget" in args
                      else gate["budget"].default)
            name = ast.literal_eval(args["name"]) if "name" in args else gate["name"].default
            home, _, constant = name.rpartition(".")
            owner = importlib.import_module(home)
            if (constant not in defined_names(Path(owner.__file__))
                    or getattr(owner, constant) is not budget):
                wrong.append(f"{path.name}:{node.lineno} names {name}")
            named.add(name)
    assert wrong == [], wrong
    assert named == {f"ninionics.{name}" for name in (
        "errors.ROW_BUDGET", "errors.MEMORY_BUDGET", "errors.TERM_BUDGET",
        "thermo.QUADRATURE_ROW_BUDGET")}


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    read = set(loaded_names(tree))
    unused = [name for name in bound if name not in read]
    assert unused == [], f"{path.name} imports {unused} and never reads them"


ORACLE = ("_log_terms", "_exp_sinh", "_mode_table", "free_energy_quadrature",
          "free_energy_extrapolated")
CLOSED_FORMS = {"_rational_quantities", "ensemble_thermo", "rotated_ensemble",
                "fermion_equivalence", "dirac_ghost_thermo"}


def test_the_oracle_reads_no_closed_form_or_phase_sum():
    # the oracle checks the closed forms and phase sums, so it must not compute with
    # them: follow every thermo name it reads, and find none of theirs
    source = ROOT / "src" / "ninionics"
    tree = ast.parse((source / "thermo.py").read_text())
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            defs.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    phase_sums = {"identities", *library_roots(ast.parse((source / "identities.py").read_text()))}
    read, todo = set(), list(ORACLE)
    while todo:
        name = todo.pop()
        if name in defs and name not in read:
            todo += loaded_names(defs[name])
        read.add(name)
    found = {name for name in read
             if name in CLOSED_FORMS | phase_sums or name.startswith("blackbody_")}
    assert found == set(), f"the quadrature oracle reads {sorted(found)}"


# one factory per record type; each call builds an equal record, a new object
RECORDS = {
    "StatAngle": lambda: rationals.StatAngle(Fraction(2, 7)),
    "FractalSample": lambda: fractal.sample_at(Fraction(2, 7)),
    "SequenceProbe": lambda: fractal.prime_sequence_probe(2, [3, 4, 5]),
    "GasSpec": lambda: thermo.GasSpec(occupation.Family.FERMI, 0.5, 0.2, 2.0),
    "ThermoQuantities": lambda: thermo.blackbody_scalar(1.5),
    "MappedEnsemble": lambda: thermo.fermion_equivalence(1, 3),
    "WallsOracle": lambda: thermo.crossed_walls_thermo(1.0, True).oracle,
    "CrossedWalls": lambda: thermo.crossed_walls_thermo(1.0, False),
    "NinionParams": lambda: occupation.NinionParams(occupation.Family.BOSE, 0.3, 1.0, 2.0),
    "IdentityCheck": lambda: identities.check_boson_identity(2, 5, 0.4),
    "RotorSpec": lambda: rotor.RotorSpec(0.5, 20),
    "ShiftCheck": lambda: rotor.shift_eigenphase_check(0.3, 3, 10),
}
UNHASHABLE = {"SequenceProbe"}  # it holds a list


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
    assert identities.IdentityCheck(p=1, q=2, gamma=0.5, lhs=1.0, rhs=0.5).residual == 0.5


def test_sequence_probes_never_share_notices():
    # a default is immutable, and a built probe does not hold the list it was built from
    a, b = fractal.SequenceProbe(0.0, []), fractal.SequenceProbe(0.5, [(1, 2)])
    assert a.notices == b.notices == ()
    skipped = fractal.prime_sequence_probe(2, [2, 3, 4])  # P_2 = 3 divides itself
    assert skipped.notices == ("P_2 = 3 is divisible by P_2 = 3; skipped",)
    for probe in (a, b, skipped):
        assert isinstance(probe.notices, tuple)
