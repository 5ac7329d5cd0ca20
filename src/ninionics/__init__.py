"""Thermodynamics of free quantum gases under imaginary rotation.

Exact rational statistical angles, the phase-sum identities behind
statistical transmutation, closed-form and quadrature gas thermodynamics,
ninionic occupation numbers, fractal Farey scans, and a planar-rotor
realization of the angular-momentum generating function.

Every name below resolves on first use by importing its submodule, so
a launch loads only the submodules whose names it reads.
"""

import importlib

_EXPORTS = {
    "errors": ("DomainError", "PoleError", "TruncationError", "MEMORY_BUDGET", "ROW_BUDGET"),
    "fractal": (
        "FractalSample", "SelfSimilarityReport", "SequenceProbe", "sample_at",
        "iter_fractal_scan", "fractal_scan", "SCAN_FIELDS", "iter_scan_lines",
        "self_similarity_check", "prime_sequence_probe", "prime_ratio_sequence_near",
        "discontinuity_witness"),
    "identities": (
        "GAMMA_FLOOR", "IdentityCheck", "boson_phase_sum", "boson_identity_rhs",
        "boson_identity_residual", "check_boson_identity", "fermion_phase_sum",
        "fermion_identity_rhs", "fermion_identity_residual", "check_fermion_identity",
        "coprime_fractions", "residue_phases", "identity_class_sums",
        "scan_identity_residuals", "regularized_count_ratio", "regularized_count_limit"),
    "occupation": (
        "Family", "StatLabel", "NinionParams", "LevelClass", "XiValue", "xi_of",
        "occupation_number", "occupation_from_eps", "occupation_grid",
        "limit_form", "classify_levels"),
    "oracle": (
        "free_energy_quadrature", "free_energy_extrapolated", "required_m_cut",
        "DEFAULT_REGULATORS"),
    "rationals": (
        "StatAngle", "reduce_fraction", "thomae", "farey_sequence", "farey_interval",
        "farey_pairs", "farey_bracket", "farey_successor", "approximate_rational",
        "parse_turns", "primes_up_to", "nth_prime"),
    "rotor": (
        "RotorSpec", "ShiftCheck", "partition_rotwisted", "angular_distribution",
        "generating_function", "zk_table", "shift_eigenphase_check", "TAIL_BOUND", "TERM_BUDGET"),
    "thermo": (
        "GasSpec", "ThermoQuantities", "MappedEnsemble", "WallsOracle", "CrossedWalls",
        "blackbody_scalar", "blackbody_fermion", "fermion_equivalence", "rotated_ensemble",
        "ensemble_thermo", "dirac_ghost_thermo", "crossed_walls_thermo", "odd_count_ratio",
        "odd_count_limit", "consistency_residuals", "energy_from_free_energy",
        "DEFAULT_INNER_TOL", "QUADRATURE_ROW_BUDGET", "quadrature_rows"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # ninionics.thermo after a bare `import ninionics`
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:  # so `from ninionics import x` tries submodule x
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
