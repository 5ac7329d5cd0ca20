"""Thermodynamics of free quantum gases under imaginary rotation.

Exact rational statistical angles, the phase-sum identities behind
statistical transmutation, closed-form and quadrature gas thermodynamics,
ninionic occupation numbers, fractal Farey scans, and a planar-rotor
realization of the angular-momentum generating function.
"""

from .errors import DomainError, PoleError, TruncationError
from .fractal import (
    FractalSample,
    SelfSimilarityReport,
    SequenceProbe,
    discontinuity_witness,
    fractal_scan,
    iter_fractal_scan,
    prime_ratio_sequence_near,
    prime_sequence_probe,
    self_similarity_check,
)
from .identities import (
    GAMMA_FLOOR,
    IdentityCheck,
    boson_identity_residual,
    boson_phase_sum,
    check_boson_identity,
    check_fermion_identity,
    coprime_fractions,
    fermion_identity_residual,
    fermion_phase_sum,
    regularized_count_limit,
    regularized_count_ratio,
    scan_identity_residuals,
)
from .occupation import (
    Family,
    LevelClass,
    NinionParams,
    StatLabel,
    XiValue,
    classify_levels,
    limit_form,
    occupation_from_eps,
    occupation_number,
    xi_of,
)
from .rationals import (
    ReducedFraction,
    StatAngle,
    approximate_rational,
    farey_interval,
    farey_sequence,
    nth_prime,
    primes_up_to,
    reduce_fraction,
    thomae,
)
from .rotor import (
    EnsembleReport,
    RotorSpec,
    ShiftCheck,
    angular_distribution,
    ensemble_report,
    generating_function,
    partition_rotwisted,
    shift_eigenphase_check,
    zk_table,
)
from .thermo import (
    CrossedWalls,
    GasSpec,
    MappedEnsemble,
    ThermoQuantities,
    WallsOracle,
    blackbody_fermion,
    blackbody_scalar,
    consistency_residuals,
    crossed_walls_thermo,
    dirac_ghost_thermo,
    energy_from_free_energy,
    ensemble_thermo,
    fermion_equivalence,
    free_energy_extrapolated,
    free_energy_quadrature,
    odd_count_limit,
    odd_count_ratio,
    rotated_ensemble,
)

__version__ = "0.1.0"
