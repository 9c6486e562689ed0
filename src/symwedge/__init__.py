"""Constructive tabulated approximators for totally symmetric and totally
anti-symmetric functions of N points in R^d, with brute-force symmetric
polynomial oracles and a verification harness."""

from .approx_antisym import (
    MODE_PROJECTED,
    MODE_RANK,
    AntisymTabulator,
    build_antisym,
    choose_direction,
    eval_antisym,
    eval_antisym_batch,
)
from .approx_sym import (
    MODE_INDICATOR,
    MODE_SMOOTH,
    BuildStats,
    FeatureCountReport,
    SymmetricTabulator,
    build_sym,
    delta_for_epsilon,
    epsilon_density_limit,
    error_budget,
    eval_sym,
    eval_sym_batch,
    eval_sym_feature_form,
    feature_budget_bound,
    feature_count,
)
from .core import (
    BUILTIN_TARGET_NAMES,
    Configuration,
    DomainSpec,
    Permutation,
    Symmetry,
    TargetFunction,
    builtin_target,
    parity,
    permute,
    vandermonde_product,
)
from .errors import (
    BuildError,
    CapacityError,
    ConfigError,
    DirectionSearchError,
    DomainError,
    InversionError,
    SizeLimitError,
    SymwedgeError,
)
from .harness import (
    CheckResult,
    SampleSet,
    SweepResult,
    SweepRow,
    VerificationReport,
    cauchy_factor_check,
    convergence_sweep,
    gradient_bound_estimate,
    invariance_suite,
    run_verification,
    sample_configurations,
    sup_error,
    sweep_csv_text,
)
from .lattice import (
    CellAssignment,
    LatticeSpec,
    cell_of,
    corner_configuration,
    enumerate_wedge,
    lattice_sites,
    locate,
    repetition_constant,
    wedge_size,
)
from .permanent import (
    permanent_bruteforce,
    permanent_ryser,
    permanent_ryser_logdomain,
)
from .persistence import load_model, save_model
from .sympoly import (
    PowerSums,
    elementary_direct,
    elementary_from_power_sums,
    invert_power_sums,
    power_sums,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "Symmetry", "Configuration", "DomainSpec", "Permutation",
    "TargetFunction", "builtin_target", "BUILTIN_TARGET_NAMES",
    "permute", "parity", "vandermonde_product",
    # errors
    "SymwedgeError", "DomainError", "SizeLimitError", "CapacityError",
    "BuildError", "DirectionSearchError", "InversionError", "ConfigError",
    # permanents
    "permanent_bruteforce", "permanent_ryser", "permanent_ryser_logdomain",
    # symmetric polynomials
    "PowerSums", "power_sums", "elementary_direct", "elementary_from_power_sums",
    "invert_power_sums",
    # lattice
    "LatticeSpec", "lattice_sites", "cell_of", "wedge_size", "enumerate_wedge",
    "repetition_constant", "CellAssignment", "locate", "corner_configuration",
    # symmetric tabulator
    "MODE_INDICATOR", "MODE_SMOOTH", "BuildStats", "SymmetricTabulator",
    "build_sym", "eval_sym", "eval_sym_batch", "eval_sym_feature_form", "feature_count",
    "FeatureCountReport", "error_budget",
    "delta_for_epsilon", "epsilon_density_limit", "feature_budget_bound",
    # anti-symmetric tabulator
    "MODE_RANK", "MODE_PROJECTED", "AntisymTabulator", "build_antisym",
    "eval_antisym", "eval_antisym_batch", "choose_direction",
    # harness
    "SampleSet", "sample_configurations", "gradient_bound_estimate",
    "sup_error", "invariance_suite", "convergence_sweep", "SweepRow",
    "SweepResult", "sweep_csv_text", "cauchy_factor_check", "CheckResult",
    "VerificationReport", "run_verification",
    # persistence
    "save_model", "load_model",
]
