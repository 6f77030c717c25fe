"""Optimal consumption-investment under the uniform VaR bound.

Three closed-form regimes:

  linear utility   invest everything along theta at the maximal feasible
                   total exposure rho* solving
                   ||theta||_T rho - rho^2/2 - |z_a| rho = ln(1-zeta);
                   no consumption; the bound saturates at t = T.

  loose bound      for equal exponents, when zeta is large enough
                   (1 - e^{l*} <= zeta) the unconstrained optimum already
                   satisfies the bound and remains optimal.

  tight bound      for small zeta the optimum is riskless: pi* = 0 and the
                   budget-fraction consumption spends exactly zeta of the
                   discounted endowment; the value is the split functional
                   G(x, zeta) = x^g1 zeta^g1 ||N1||_{q,T}
                              + x^g2 (1-zeta)^g2 N2(T).

The regimes are complementary but not exhaustive; anything in between is
reported, never extrapolated.
"""

from __future__ import annotations

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
from .unconstrained import kappa_tilde, solve_equal_gamma
from .utility import UtilityParams

ROOT_RESIDUAL = 1e-12


def rho_var(model: MarketModel, spec: RiskSpec) -> float:
    """Maximal feasible total exposure under the VaR bound.

    Positive root of ||theta||_T r - r^2/2 - |z_a| r = ln(1-zeta), written
    in the cancellation-free form sqrt(c^2 - 2 ln(1-zeta)) - c with
    c = |z_a| - ||theta||_T.
    """
    c = spec.abs_z - model.theta_norm_T
    w = -2.0 * spec.log_bound()          # -2 ln(1-zeta) > 0
    root = np.sqrt(c * c + w)
    if c >= 0:
        return float(w / (root + c))
    return float(root - c)


def rho_of_kappa_var(model: MarketModel, spec: RiskSpec, kappa) -> np.ndarray:
    """Exposure budget left after consuming the fraction kappa <= zeta."""
    kappa = np.asarray(kappa, dtype=np.float64)
    c = spec.abs_z - model.theta_norm_T
    w = c * c + 2.0 * (np.log1p(-kappa) - spec.log_bound())
    return np.sqrt(w) - c


def exposure_growth_factor(model: MarketModel, gamma: float, rho) -> np.ndarray:
    """sup_t of the cost tilt exp(g (y,theta)_t - g(1-g)/2 ||y||_t^2).

    For exposure norm rho along theta the maximizing norm is capped at
    q ||theta||_T when gamma < 1.
    """
    rho = np.asarray(rho, dtype=np.float64)
    tn = model.theta_norm_T
    if gamma < 1.0:
        rho = np.minimum(rho, tn / (1.0 - gamma))
    return np.exp(gamma * rho * tn - 0.5 * gamma * (1.0 - gamma) * rho ** 2)


def _require_var(spec: RiskSpec) -> None:
    if spec.kind != MeasureKind.VAR:
        raise UnsupportedRegime("this solver handles the VaR-bounded problem")


def solve_var_linear(model: MarketModel, spec: RiskSpec, x: float) -> Solution:
    """Linear utility under the uniform VaR bound."""
    _require_var(spec)
    if not model.rate_nonnegative():
        raise NegativeRate("VaR-bounded linear solution requires r_t >= 0")
    tn = model.theta_norm_T
    lower = max(0.0, 1.0 - float(np.exp(0.5 * spec.abs_z ** 2 - spec.abs_z * tn)))
    margin = spec.zeta - lower
    if margin <= 0.0:
        raise ConditionViolated(
            "var_linear_zeta_window", margin,
            "zeta must exceed the feasibility floor of the uniform bound")
    rho = rho_var(model, spec)
    conditions = (
        ConditionCheck("rate_nonnegative", True, float(np.min(model.r_step))),
        ConditionCheck("var_linear_zeta_window", True, margin),
    )
    R_T = float(model.R(model.horizon))
    if tn > 0:
        strategy = theta_direction_strategy(model, rho)
        return Solution(
            value=x * float(np.exp(rho * tn + R_T)),
            regime="var_linear", model=model, x=x,
            utility=UtilityParams(1.0, 1.0), risk=spec,
            strategy=strategy,
            wealth_law={"kind": "lognormal_exact",
                        "note": "dX = X (r + rho |theta|^2/||theta||_T) dt "
                                "+ X rho theta'/||theta||_T dW",
                        "rho": rho},
            conditions=conditions,
        )
    strategy = constant_strategy(np.zeros(model.dimension), 0.0, model.horizon)
    return Solution(
        value=x * float(np.exp(R_T)),
        regime="var_linear_bond", model=model, x=x,
        utility=UtilityParams(1.0, 1.0), risk=spec,
        strategy=strategy,
        wealth_law={"kind": "lognormal_exact",
                    "note": "zero excess return; any exposure with total "
                            f"norm <= {rho:.6g} is optimal, zero is chosen",
                    "rho": rho},
        conditions=conditions,
    )


# ---------------------------------------------------------------------------
# Split functional G and the consumption/terminal split optimum
# ---------------------------------------------------------------------------

def consumption_norm(model: MarketModel, utility: UtilityParams) -> float:
    """||N1||_{q,T} = (int_0^T e^{q g1 R_t} dt)^{1/q}, q = 1/(1-gamma1)."""
    q = utility.q1
    return float(weighted_g_norm(model, utility.gamma1, q,
                                 model.horizon) ** (1.0 / q))


def big_g(model: MarketModel, utility: UtilityParams, x: float,
          kappa) -> tuple:
    """Split functional G(x, kappa) and its kappa-derivative.

    G weighs consuming the fraction kappa of the discounted endowment
    against keeping 1-kappa for terminal wealth.  Strictly concave on
    (0,1); the derivative diverges at the endpoints for powers < 1.
    """
    kappa = np.asarray(kappa, dtype=np.float64)
    g1, g2 = utility.gamma1, utility.gamma2
    n1 = consumption_norm(model, utility)
    n2 = float(np.exp(g2 * model.R(model.horizon)))
    G = x ** g1 * kappa ** g1 * n1 + x ** g2 * (1.0 - kappa) ** g2 * n2
    with np.errstate(divide="ignore"):
        dG = (g1 * x ** g1 * kappa ** (g1 - 1.0) * n1
              - g2 * x ** g2 * (1.0 - kappa) ** (g2 - 1.0) * n2)
    if np.ndim(kappa) == 0:
        return float(G), float(dG)
    return G, dG


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
    if utility.gamma2 == 1.0:
        _, d_at_1 = big_g(model, utility, x, 1.0)
        if d_at_1 >= 0.0:
            return 1.0
    deriv = lambda k: big_g(model, utility, x, k)[1]
    eps = 1e-15
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


def build_tight_solution(model: MarketModel, utility: UtilityParams,
                         spec: RiskSpec, x: float, regime: str,
                         conditions: tuple) -> Solution:
    value, _ = big_g(model, utility, x, spec.zeta)
    strategy = tight_strategy(model, utility, spec)
    return Solution(
        value=value, regime=regime, model=model, x=x,
        utility=utility, risk=spec, strategy=strategy,
        wealth_law={
            "kind": "deterministic",
            "note": "X*_t = x e^{R_t} (1 - zeta ||N1||_{q,t}^q / "
                    "||N1||_{q,T}^q); depends on mu, sigma only through "
                    "the hypothesis checks",
        },
        conditions=conditions,
    )


def solve_var_tight(model: MarketModel, utility: UtilityParams,
                    spec: RiskSpec, x: float) -> Solution:
    """Riskless split optimum under the VaR bound (small zeta)."""
    _require_var(spec)
    if not (0.0 < utility.gamma1 < 1.0 and 0.0 < utility.gamma2 <= 1.0):
        raise UnsupportedRegime(
            "tight regime requires gamma1 in (0,1) and gamma2 in (0,1]")
    if not model.rate_nonnegative():
        raise NegativeRate("tight regime requires r_t >= 0")
    checks = split_zeta_conditions(model, utility, spec, x, theta_coeff=1.0)
    for chk in checks:
        if not chk.satisfied:
            raise ConditionViolated(chk.name, chk.margin, chk.detail)
    base = (ConditionCheck("rate_nonnegative", True,
                           float(np.min(model.r_step))),)
    return build_tight_solution(model, utility, spec, x, "var_tight",
                                base + checks)


# ---------------------------------------------------------------------------
# Loose bound (equal exponents): unconstrained optimum stays feasible
# ---------------------------------------------------------------------------

def l_star(model: MarketModel, gamma: float, spec: RiskSpec) -> float:
    """Worst-case log risk level of the unconstrained equal-gamma optimum."""
    q = 1.0 / (1.0 - gamma)
    tn = model.theta_norm_T
    lt = float(np.log1p(-kappa_tilde(model, gamma)))
    out = -q * tn * spec.abs_z + lt
    if gamma > 0.5:
        out -= 0.5 * q * (q - 2.0) * tn ** 2
    return out


def var_loose_bound_check(model: MarketModel, gamma: float,
                          spec: RiskSpec) -> tuple[bool, float]:
    """Is the unconstrained optimum feasible?  Returns (verdict, margin)."""
    threshold = 1.0 - float(np.exp(l_star(model, gamma, spec)))
    margin = spec.zeta - threshold
    return margin >= 0.0, margin


def solve_var(model: MarketModel, utility: UtilityParams, spec: RiskSpec,
              x: float) -> Solution:
    """Regime dispatch for the VaR-bounded problem.

    Loose bound is tried first (equal exponents only), then the tight
    regime; if neither applies the margins are reported and nothing is
    extrapolated.
    """
    _require_var(spec)
    if utility.is_linear:
        return solve_var_linear(model, spec, x)
    if utility.gamma1 == 1.0:
        raise UnsupportedRegime(
            "no closed form for linear consumption with power wealth utility")
    margins: dict[str, float] = {}
    if utility.equal:
        ok, margin = var_loose_bound_check(model, utility.gamma1, spec)
        margins["loose_bound"] = margin
        if ok:
            if not model.rate_nonnegative():
                raise NegativeRate("loose regime requires r_t >= 0")
            base = solve_equal_gamma(model, utility.gamma1, x)
            conditions = base.conditions + (
                ConditionCheck("loose_bound", True, margin),)
            return Solution(
                value=base.value, regime="var_loose_unconstrained",
                model=model, x=x, utility=utility, risk=spec,
                strategy=base.strategy, wealth_law=base.wealth_law,
                conditions=conditions,
            )
    try:
        return solve_var_tight(model, utility, spec, x)
    except ConditionViolated as exc:
        margins[exc.condition] = exc.margin
    raise NoClosedFormRegime(margins)
