"""Cooperative newsvendor games under demand-distribution ambiguity.

The package computes deterministic cores, worst-case payoff ratios over all
joint demand distributions consistent with known block marginals, robust
core and least-core decisions, and contamination stress experiments. The
worst-case shortage and the minimum grand profit are closed-form
(comonotonic couplings); the worst-case ratios, the stability values and
the extremal joints come from a revised simplex solver that works on the
consistency polytope's incidence structure and returns vertices with
checked dual certificates.
"""

from .coop import (
    CharacteristicFunction,
    balancedness_duality_pair,
    build_deterministic_game,
    core_membership,
    imputation_check,
    least_core,
)
from .distributions import (
    Coalition,
    DiscreteMarginal,
    FrechetPolytope,
    Instance,
    JointDistribution,
    check_consistency,
    contaminate,
    get_polytope,
    independent_joint,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    sample_extremal,
    save_instance,
)
from .errors import (
    CapacityError,
    DomainError,
    GameInvalidError,
    InputError,
    NvGamesError,
    SolverError,
)
from .lp import LinearProgram, LpSolution, solve_lp
from .newsvendor import (
    OrderResult,
    ScalarDemand,
    expected_profit,
    grand_action_interval,
    optimal_order,
    quantile_order,
    worst_case_order,
    worst_case_shortage,
)
from .robust_game import (
    Decision,
    RobustGameSolver,
    VmaxResult,
    VmaxTable,
    imputation_exists,
    robust_core,
    robust_least_core,
    verify_rcore2,
)
from .stress import (
    ExcessRow,
    ExcessStats,
    ExperimentConfig,
    excess,
    gen_instance,
    run_stress,
    solve_pair,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CharacteristicFunction",
    "Coalition",
    "Decision",
    "DiscreteMarginal",
    "DomainError",
    "ExcessRow",
    "ExcessStats",
    "ExperimentConfig",
    "FrechetPolytope",
    "GameInvalidError",
    "InputError",
    "Instance",
    "JointDistribution",
    "LinearProgram",
    "LpSolution",
    "NvGamesError",
    "OrderResult",
    "RobustGameSolver",
    "ScalarDemand",
    "SolverError",
    "VmaxResult",
    "VmaxTable",
    "balancedness_duality_pair",
    "build_deterministic_game",
    "check_consistency",
    "contaminate",
    "core_membership",
    "excess",
    "expected_profit",
    "gen_instance",
    "get_polytope",
    "grand_action_interval",
    "imputation_check",
    "imputation_exists",
    "independent_joint",
    "instance_from_dict",
    "instance_to_dict",
    "least_core",
    "load_instance",
    "optimal_order",
    "quantile_order",
    "robust_core",
    "robust_least_core",
    "run_stress",
    "sample_extremal",
    "save_instance",
    "solve_lp",
    "solve_pair",
    "verify_rcore2",
    "worst_case_order",
    "worst_case_shortage",
    "write_csv",
]
