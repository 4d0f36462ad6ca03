"""prmplan: stochastic shortest path planning with portfolios of reduced models."""

from .mdp import (
    CompiledModel,
    ModelError,
    Policy,
    SspProblem,
    bellman_backup,
    compile_model,
    make_distribution,
    reachable_states,
    search_problem,
    tabular_problem,
)
from .reduction import (
    FULL_MODEL,
    M02,
    MOST_LIKELY,
    ModelSelector,
    OutcomeSelectionPrinciple,
    ReducedModel,
    UniformSelector,
    ZeroOneSelector,
    build_reduced_model,
    select_outcomes,
)
from .risk import (
    RiskPredicate,
    RiskProfile,
    exact_risk_reachability,
    nse_set,
)
from .simulator import (
    ExperimentReport,
    ModelResult,
    SimConfig,
    TrialStats,
    run_experiment,
    run_trial,
)
from .solvers import (
    NonconvergenceError,
    Solution,
    SolverConfig,
    compute_hmin,
    proper_hmin,
    solve_lao_star,
    solve_value_iteration,
)

__version__ = "0.1.0"
