"""Closed-form consumption-investment under uniform VaR/ES risk bounds.

Solvers for Black-Scholes markets with piecewise-constant deterministic
coefficients, risk measures of lognormal wealth in closed form, an
independent grid-search oracle, exact-law Monte Carlo, and a numerical
dynamic-programming verification of the feedback optimum.
"""

from .errors import (
    AlphaOutOfRange,
    ConditionViolated,
    ConvergenceFailure,
    EmptyFeasibleSet,
    GridTouchesBreakpoint,
    HypothesisViolated,
    InsufficientPaths,
    MertonRiskError,
    MismatchedPaths,
    NegativeArgument,
    NegativeRate,
    NoClosedFormRegime,
    SingularVolatility,
    TimeOutOfRange,
    UnsupportedRegime,
)
from .gaussian import Quantile, mills_bounds, normal_quantile, tail_ratio
from .market import (
    CoefficientPath,
    MarketModel,
    build_market,
    constant_market,
    load_market,
    market_from_dict,
    market_to_dict,
    save_market,
    theta_norm,
    weighted_g_norm,
)
from .mc import (
    PathEnsemble,
    SimConfig,
    empirical_risk_curve,
    estimate_cost,
    simulate_deterministic,
    simulate_hara_feedback,
)
from .oracle import (
    FamilyConfig,
    OracleResult,
    cost_closed_form,
    cost_quadrature,
    grid_search_oracle,
    log_risk_functional,
)
from .risk import (
    MeasureKind,
    RiskProfile,
    RiskSpec,
    constraint_profile,
    expected_shortfall,
    quantile_lambda,
    value_at_risk,
)
from .solution import ConditionCheck, Solution
from .strategies import (
    BudgetFractionConsumption,
    DeterministicStrategy,
    GrowthFractionConsumption,
    StepConsumption,
    constant_strategy,
    cumulants,
    step_strategy,
    theta_direction_strategy,
)
from .unconstrained import (
    HaraCoefficients,
    HaraFeedback,
    equal_gamma_strategy,
    equal_gamma_value,
    hara_g,
    kappa_tilde,
    solve_equal_gamma,
    solve_hara_unconstrained,
    solve_linear_unconstrained,
    solve_unconstrained,
)
from .utility import UtilityParams
from .bounded import big_g, kappa_hat, kappa_star
from .var_bound import (
    l_star,
    rho_var,
    solve_var,
    solve_var_linear,
    solve_var_tight,
    var_loose_bound_check,
)
from .es_bound import (
    PsiFunction,
    es_loose_bound_check,
    psi_function,
    rho_es,
    rho_es_upper_bound,
    solve_es,
    solve_es_linear,
    solve_es_tight,
)
from .hjb import HjbReport, hamiltonian_argmax_check, hjb_residual

__version__ = "0.1.0"
