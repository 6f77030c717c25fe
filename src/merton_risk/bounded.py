"""The regime ladder shared by the VaR- and ES-bounded problems.

Both bounds are solved by the same three closed-form regimes, tried in
this order:

  linear utility   invest everything along theta at the maximal feasible
                   total exposure rho* (the measure's budget); no
                   consumption; the bound saturates at t = T.

  loose bound      for equal exponents, when zeta reaches the measure's
                   loose threshold the unconstrained optimum already
                   satisfies the bound and remains optimal.

  tight bound      for small zeta the optimum is riskless: pi* = 0 and the
                   budget-fraction consumption spends exactly zeta of the
                   discounted endowment; the value is the split functional
                   G(x, zeta) = x^g1 zeta^g1 ||N1||_{q,T}
                              + x^g2 (1-zeta)^g2 N2(T).

The regimes are complementary but not exhaustive; anything in between is
reported with its margins, never extrapolated.  A ``BoundRules`` record
holds what differs between the two measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._rootfind import solve_bracketed
from .errors import ConditionViolated, NegativeRate, NoClosedFormRegime, UnsupportedRegime
from .market import MarketModel, weighted_g_norm
from .risk import MeasureKind, RiskSpec
from .solution import ConditionCheck, Solution
from .strategies import (
    BudgetFractionConsumption,
    CoefficientPath,
    DeterministicStrategy,
    constant_strategy,
    theta_direction_strategy,
)
from .unconstrained import solve_equal_gamma
from .utility import UtilityParams


@dataclass(frozen=True)
class BoundRules:
    """What one risk measure contributes to the regime ladder."""

    kind: MeasureKind
    name: str                      # "VaR" / "ES" in messages
    budget: Callable               # (model, spec) -> maximal exposure rho*
    loose_threshold: Callable      # (model, gamma, spec) -> least loose zeta
    floor_coeff: float             # theta coefficient of the quantile floor
    linear_condition: Callable     # (model, spec) -> ConditionCheck, or raises
    hypothesis: Callable | None = None     # (model, spec) -> None, or raises
    linear_law: dict = field(default_factory=dict)   # extra wealth-law fields

    def require(self, spec: RiskSpec) -> None:
        if spec.kind != self.kind:
            raise UnsupportedRegime(
                f"this solver handles the {self.name}-bounded problem")


def _rate_check(model: MarketModel) -> ConditionCheck:
    return ConditionCheck("rate_nonnegative", True, float(np.min(model.r_step)))


def solve_linear(rules: BoundRules, model: MarketModel, spec: RiskSpec,
                 x: float) -> Solution:
    """Linear utility: all exposure along theta at the budget rho*."""
    rules.require(spec)
    if not model.rate_nonnegative():
        raise NegativeRate(
            f"{rules.name}-bounded linear solution requires r_t >= 0")
    conditions = (_rate_check(model), rules.linear_condition(model, spec))
    rho = rules.budget(model, spec)
    tn = model.theta_norm_T
    R_T = float(model.R(model.horizon))
    if tn > 0:
        regime, value = f"{rules.kind.value}_linear", x * float(np.exp(rho * tn + R_T))
        strategy = theta_direction_strategy(model, rho)
        law = {"kind": "lognormal_exact", **rules.linear_law, "rho": rho}
    else:
        regime, value = f"{rules.kind.value}_linear_bond", x * float(np.exp(R_T))
        strategy = constant_strategy(np.zeros(model.dimension), 0.0, model.horizon)
        law = {"kind": "lognormal_exact",
               "note": "zero excess return; any exposure with total "
                       f"norm <= {rho:.6g} is optimal, zero is chosen",
               "rho": rho}
    return Solution(value=value, regime=regime, model=model, x=x,
                    utility=UtilityParams(1.0, 1.0), risk=spec,
                    strategy=strategy, wealth_law=law, conditions=conditions)


# ---------------------------------------------------------------------------
# Split functional G and the consumption/terminal split optimum
# ---------------------------------------------------------------------------

def consumption_norm(model: MarketModel, utility: UtilityParams) -> float:
    """||N1||_{q,T} = (int_0^T e^{q g1 R_t} dt)^{1/q}, q = 1/(1-gamma1)."""
    q = utility.q1
    return float(weighted_g_norm(model, utility.gamma1, q,
                                 model.horizon) ** (1.0 / q))


def _split_g(n1: float, n2: float, utility: UtilityParams, x: float, kappa):
    """G and dG/dkappa from the weights n1 = ||N1||_{q,T}, n2 = N2(T)."""
    kappa = np.asarray(kappa, dtype=np.float64)
    g1, g2 = utility.gamma1, utility.gamma2
    G = x ** g1 * kappa ** g1 * n1 + x ** g2 * (1.0 - kappa) ** g2 * n2
    with np.errstate(divide="ignore"):
        dG = (g1 * x ** g1 * kappa ** (g1 - 1.0) * n1
              - g2 * x ** g2 * (1.0 - kappa) ** (g2 - 1.0) * n2)
    if np.ndim(kappa) == 0:
        return float(G), float(dG)
    return G, dG


def _split_weights(model: MarketModel, utility: UtilityParams) -> tuple:
    return (consumption_norm(model, utility),
            float(np.exp(utility.gamma2 * model.R(model.horizon))))


def big_g(model: MarketModel, utility: UtilityParams, x: float,
          kappa) -> tuple:
    """Split functional G(x, kappa) and its kappa-derivative.

    G weighs consuming the fraction kappa of the discounted endowment
    against keeping 1-kappa for terminal wealth.  Strictly concave on
    (0,1); the derivative diverges at the endpoints for powers < 1.
    """
    return _split_g(*_split_weights(model, utility), utility, x, kappa)


def kappa_hat(model: MarketModel, gamma: float) -> float:
    """Split point ||N||^q / (||N||^q + N^q(T)) for equal exponents."""
    q = 1.0 / (1.0 - gamma)
    norm_q = weighted_g_norm(model, gamma, q, model.horizon)
    n_T_q = float(np.exp(q * gamma * model.R(model.horizon)))
    return float(norm_q / (norm_q + n_T_q))


def kappa_star(model: MarketModel, utility: UtilityParams, x: float) -> float:
    """argmax of G(x, .) on [0,1]; independent of x for equal exponents."""
    if utility.equal and utility.gamma1 < 1.0:
        return kappa_hat(model, utility.gamma1)
    weights = _split_weights(model, utility)
    deriv = lambda k: _split_g(*weights, utility, x, k)[1]
    eps = 1e-15
    # G still rising at the top of the bracket: for gamma2 just below 1 the
    # root lies closer to 1 than a double resolves
    if deriv(1.0 if utility.gamma2 == 1.0 else 1.0 - eps) >= 0.0:
        return 1.0
    return solve_bracketed(deriv, eps, 1.0 - eps,
                           residual_tol=1e-13, scale=max(1.0, abs(deriv(0.5))))


def split_zeta_conditions(model: MarketModel, utility: UtilityParams,
                          spec: RiskSpec, x: float,
                          theta_coeff: float) -> tuple:
    """Hypotheses of the riskless split optimum.

    theta_coeff is 1 for the VaR bound and 2 for the ES bound in the
    quantile-floor condition |z_a| >= (coeff + max(g)/((1-zeta) dlnG)) tn.
    """
    ks = kappa_star(model, utility, x)
    kh = kappa_hat(model, utility.gamma1)
    budget_margin = min(ks, kh) - spec.zeta
    checks = [ConditionCheck(
        "zeta_below_split_point", budget_margin > 0.0, budget_margin,
        f"kappa_star={ks:.6g}, kappa_hat={kh:.6g}")]

    tn = model.theta_norm_T
    if tn == 0.0:
        checks.append(ConditionCheck("quantile_floor", True, np.inf,
                                     "trivial for zero excess return"))
        return tuple(checks)
    G, dG = big_g(model, utility, x, spec.zeta)
    dlnG = dG / G
    if dlnG <= 0.0:
        checks.append(ConditionCheck("quantile_floor", False, -np.inf,
                                     "G not increasing at zeta"))
        return tuple(checks)
    rhs = (theta_coeff
           + max(utility.gamma1, utility.gamma2) / ((1.0 - spec.zeta) * dlnG)
           ) * tn
    checks.append(ConditionCheck("quantile_floor", spec.abs_z >= rhs,
                                 spec.abs_z - rhs,
                                 f"requires |z_alpha| >= {rhs:.6g}"))
    return tuple(checks)


def tight_strategy(model: MarketModel, utility: UtilityParams,
                   spec: RiskSpec) -> DeterministicStrategy:
    """Riskless split optimum: pi* = 0, budget-fraction consumption."""
    d = model.dimension
    y_path = CoefficientPath.constant(np.zeros(d), model.horizon)
    return DeterministicStrategy(
        y_path=y_path,
        consumption=BudgetFractionConsumption(gamma1=utility.gamma1,
                                              zeta=spec.zeta),
    )


def solve_tight(rules: BoundRules, model: MarketModel, utility: UtilityParams,
                spec: RiskSpec, x: float) -> Solution:
    """Riskless split optimum (small zeta)."""
    rules.require(spec)
    if not (0.0 < utility.gamma1 < 1.0 and 0.0 < utility.gamma2 <= 1.0):
        raise UnsupportedRegime(
            "tight regime requires gamma1 in (0,1) and gamma2 in (0,1]")
    if not model.rate_nonnegative():
        raise NegativeRate("tight regime requires r_t >= 0")
    checks = split_zeta_conditions(model, utility, spec, x,
                                   theta_coeff=rules.floor_coeff)
    for chk in checks:
        if not chk.satisfied:
            raise ConditionViolated(chk.name, chk.margin, chk.detail)
    value, _ = big_g(model, utility, x, spec.zeta)
    return Solution(
        value=value, regime=f"{rules.kind.value}_tight", model=model, x=x,
        utility=utility, risk=spec,
        strategy=tight_strategy(model, utility, spec),
        wealth_law={
            "kind": "deterministic",
            "note": "X*_t = x e^{R_t} (1 - zeta ||N1||_{q,t}^q / "
                    "||N1||_{q,T}^q); depends on mu, sigma only through "
                    "the hypothesis checks",
        },
        conditions=(_rate_check(model),) + checks,
    )


# ---------------------------------------------------------------------------
# Loose bound (equal exponents) and the ladder
# ---------------------------------------------------------------------------

def loose_bound_check(rules: BoundRules, model: MarketModel, gamma: float,
                      spec: RiskSpec) -> tuple[bool, float]:
    """Is the unconstrained optimum feasible?  Returns (verdict, margin)."""
    if rules.hypothesis is not None:
        rules.hypothesis(model, spec)
    margin = spec.zeta - rules.loose_threshold(model, gamma, spec)
    return margin >= 0.0, margin


def solve_bounded(rules: BoundRules, model: MarketModel,
                  utility: UtilityParams, spec: RiskSpec, x: float) -> Solution:
    """Regime dispatch: linear utility, else the loose bound (equal
    exponents only), else the tight regime.

    If neither of the last two applies their margins are reported and
    nothing is extrapolated.
    """
    rules.require(spec)
    if utility.is_linear:
        return solve_linear(rules, model, spec, x)
    if utility.gamma1 == 1.0:
        raise UnsupportedRegime(
            "no closed form for linear consumption with power wealth utility")
    margins: dict[str, float] = {}
    if utility.equal:
        ok, margin = loose_bound_check(rules, model, utility.gamma1, spec)
        margins["loose_bound"] = margin
        if ok:
            if not model.rate_nonnegative():
                raise NegativeRate("loose regime requires r_t >= 0")
            base = solve_equal_gamma(model, utility.gamma1, x)
            return Solution(
                value=base.value, regime=f"{rules.kind.value}_loose_unconstrained",
                model=model, x=x, utility=utility, risk=spec,
                strategy=base.strategy, wealth_law=base.wealth_law,
                conditions=base.conditions + (
                    ConditionCheck("loose_bound", True, margin),),
            )
    try:
        return solve_tight(rules, model, utility, spec, x)
    except ConditionViolated as exc:
        margins[exc.condition] = exc.margin
    raise NoClosedFormRegime(margins)
