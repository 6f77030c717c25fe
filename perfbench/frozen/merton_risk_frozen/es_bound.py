"""Optimal consumption-investment under the uniform Expected-Shortfall bound.

The ES analogue of the exposure budget solves psi(rho, 1) = ln(1-zeta) with

    psi(rho, u) = ||theta||_T rho u^2 + ln F_a(|z_a| + rho u),

which is strictly decreasing in both arguments while |z_a| >= 2||theta||_T;
outside that region the monotonicity (and the closed forms) are not
available and the solvers refuse.  The regime structure mirrors the VaR
case: linear utility invests at the budget rho*_ES, a loose bound leaves
the unconstrained optimum intact, and a tight bound forces the riskless
split optimum shared with the VaR solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rootfind import expand_bracket, solve_bracketed
from .errors import ConditionViolated, HypothesisViolated, NegativeRate, NoClosedFormRegime, UnsupportedRegime
from .gaussian import Quantile, gauss_hazard, log_tail_ratio, tail_ratio
from .market import MarketModel
from .risk import MeasureKind, RiskSpec
from .solution import ConditionCheck, Solution
from .strategies import constant_strategy, theta_direction_strategy
from .unconstrained import kappa_tilde, solve_equal_gamma
from .utility import UtilityParams
from .var_bound import build_tight_solution, split_zeta_conditions

ROOT_RESIDUAL = 1e-12


@dataclass(frozen=True)
class PsiFunction:
    """psi(rho, u) with its monotonicity hypothesis pinned at construction."""

    theta_norm_T: float
    quantile: Quantile

    def __call__(self, rho, u=1.0):
        rho = np.asarray(rho, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        return (self.theta_norm_T * rho * u ** 2
                + log_tail_ratio(self.quantile, self.quantile.abs_z + rho * u))

    def d_rho(self, rho):
        """d psi / d rho at u = 1 (negative while |z_a| >= ||theta||_T)."""
        rho = np.asarray(rho, dtype=np.float64)
        return self.theta_norm_T - gauss_hazard(self.quantile.abs_z + rho)


def psi_function(model: MarketModel, spec: RiskSpec) -> PsiFunction:
    return PsiFunction(theta_norm_T=model.theta_norm_T, quantile=spec.quantile)


def _check_hypothesis(model: MarketModel, spec: RiskSpec) -> None:
    if spec.abs_z < 2.0 * model.theta_norm_T:
        raise HypothesisViolated(
            f"|z_alpha| = {spec.abs_z:.6g} < 2||theta||_T = "
            f"{2 * model.theta_norm_T:.6g}; psi monotonicity unavailable")


def rho_es_upper_bound(model: MarketModel, spec: RiskSpec) -> float:
    """Explicit budget cap for |z_alpha| > 1."""
    z = spec.abs_z
    if z <= 1.0:
        raise HypothesisViolated("upper bound needs |z_alpha| > 1")
    return float((-np.log1p(-z ** -2) - spec.log_bound())
                 / (z - model.theta_norm_T))


def rho_es(model: MarketModel, spec: RiskSpec) -> float:
    """Exposure budget under the ES bound: root of psi(rho,1) = ln(1-zeta)."""
    _check_hypothesis(model, spec)
    psi = psi_function(model, spec)
    target = spec.log_bound()
    f = lambda r: float(psi(r) - target)
    if spec.abs_z > 1.0:
        hi = max(1.0, 2.0 * rho_es_upper_bound(model, spec))
    else:
        _, hi = expand_bracket(f, 0.0, 1.0)
    return solve_bracketed(f, 0.0, hi, fprime=lambda r: float(psi.d_rho(r)),
                           residual_tol=ROOT_RESIDUAL,
                           scale=max(1.0, abs(target)))


def rho_of_kappa_es(model: MarketModel, spec: RiskSpec, kappa) -> np.ndarray:
    """Exposure budget left after consuming the fraction kappa <= zeta."""
    psi = psi_function(model, spec)
    kappa = np.atleast_1d(np.asarray(kappa, dtype=np.float64))
    out = np.empty_like(kappa)
    if spec.abs_z > 1.0:
        hi = max(1.0, 2.0 * rho_es_upper_bound(model, spec))
    else:
        hi = 50.0
    for i, k in enumerate(kappa):
        target = spec.log_bound() - np.log1p(-k)
        out[i] = solve_bracketed(
            lambda r: float(psi(r) - target), 0.0, hi,
            fprime=lambda r: float(psi.d_rho(r)),
            residual_tol=ROOT_RESIDUAL, scale=max(1.0, abs(target)))
    return out if out.size > 1 else float(out[0])


def solve_es_linear(model: MarketModel, spec: RiskSpec, x: float) -> Solution:
    """Linear utility under the uniform ES bound."""
    if spec.kind != MeasureKind.ES:
        raise UnsupportedRegime("this solver handles the ES-bounded problem")
    if not model.rate_nonnegative():
        raise NegativeRate("ES-bounded linear solution requires r_t >= 0")
    _check_hypothesis(model, spec)
    rho = rho_es(model, spec)
    tn = model.theta_norm_T
    R_T = float(model.R(model.horizon))
    conditions = (
        ConditionCheck("rate_nonnegative", True, float(np.min(model.r_step))),
        ConditionCheck("psi_monotone", True, spec.abs_z - 2.0 * tn),
    )
    if tn > 0:
        strategy = theta_direction_strategy(model, rho)
        return Solution(
            value=x * float(np.exp(rho * tn + R_T)),
            regime="es_linear", model=model, x=x,
            utility=UtilityParams(1.0, 1.0), risk=spec,
            strategy=strategy,
            wealth_law={"kind": "lognormal_exact", "rho": rho},
            conditions=conditions,
        )
    strategy = constant_strategy(np.zeros(model.dimension), 0.0, model.horizon)
    return Solution(
        value=x * float(np.exp(R_T)),
        regime="es_linear_bond", model=model, x=x,
        utility=UtilityParams(1.0, 1.0), risk=spec,
        strategy=strategy,
        wealth_law={"kind": "lognormal_exact",
                    "note": "zero excess return; any exposure with total "
                            f"norm <= {rho:.6g} is optimal, zero is chosen",
                    "rho": rho},
        conditions=conditions,
    )


def es_loose_threshold(model: MarketModel, gamma: float,
                       spec: RiskSpec) -> float:
    """Smallest zeta for which the unconstrained optimum meets the ES bound."""
    q = 1.0 / (1.0 - gamma)
    tn = model.theta_norm_T
    kt = kappa_tilde(model, gamma)
    factor = tail_ratio(spec.quantile, spec.abs_z + q * tn)
    return 1.0 - (1.0 - kt) * float(np.exp(q * tn * tn)) * float(factor)


def es_loose_bound_check(model: MarketModel, gamma: float,
                         spec: RiskSpec) -> tuple[bool, float]:
    """Is the unconstrained optimum ES-feasible?  Returns (verdict, margin)."""
    _check_hypothesis(model, spec)
    margin = spec.zeta - es_loose_threshold(model, gamma, spec)
    return margin >= 0.0, margin


def solve_es_tight(model: MarketModel, utility: UtilityParams,
                   spec: RiskSpec, x: float) -> Solution:
    """Riskless split optimum under the ES bound (small zeta)."""
    if spec.kind != MeasureKind.ES:
        raise UnsupportedRegime("this solver handles the ES-bounded problem")
    if not (0.0 < utility.gamma1 < 1.0 and 0.0 < utility.gamma2 <= 1.0):
        raise UnsupportedRegime(
            "tight regime requires gamma1 in (0,1) and gamma2 in (0,1]")
    if not model.rate_nonnegative():
        raise NegativeRate("tight regime requires r_t >= 0")
    checks = split_zeta_conditions(model, utility, spec, x, theta_coeff=2.0)
    for chk in checks:
        if not chk.satisfied:
            raise ConditionViolated(chk.name, chk.margin, chk.detail)
    base = (ConditionCheck("rate_nonnegative", True,
                           float(np.min(model.r_step))),)
    return build_tight_solution(model, utility, spec, x, "es_tight",
                                base + checks)


def solve_es(model: MarketModel, utility: UtilityParams, spec: RiskSpec,
             x: float) -> Solution:
    """Regime dispatch for the ES-bounded problem (loose first, then tight)."""
    if spec.kind != MeasureKind.ES:
        raise UnsupportedRegime("this solver handles the ES-bounded problem")
    if utility.is_linear:
        return solve_es_linear(model, spec, x)
    if utility.gamma1 == 1.0:
        raise UnsupportedRegime(
            "no closed form for linear consumption with power wealth utility")
    margins: dict[str, float] = {}
    if utility.equal:
        ok, margin = es_loose_bound_check(model, utility.gamma1, spec)
        margins["loose_bound"] = margin
        if ok:
            if not model.rate_nonnegative():
                raise NegativeRate("loose regime requires r_t >= 0")
            base = solve_equal_gamma(model, utility.gamma1, x)
            conditions = base.conditions + (
                ConditionCheck("loose_bound", True, margin),)
            return Solution(
                value=base.value, regime="es_loose_unconstrained",
                model=model, x=x, utility=utility, risk=spec,
                strategy=base.strategy, wealth_law=base.wealth_law,
                conditions=conditions,
            )
    try:
        return solve_es_tight(model, utility, spec, x)
    except ConditionViolated as exc:
        margins[exc.condition] = exc.margin
    raise NoClosedFormRegime(margins)
