"""Optimal consumption-investment under the uniform Expected-Shortfall bound.

The ES analogue of the exposure budget solves psi(rho, 1) = ln(1-zeta) with

    psi(rho, u) = ||theta||_T rho u^2 + ln F_a(|z_a| + rho u),

which is strictly decreasing in both arguments while |z_a| >= 2||theta||_T;
outside that region the monotonicity (and the closed forms) are not
available and the solvers refuse.  rho_es solves the equation at u = 1;
the monotonicity in u is the lemma behind the closed forms, which the
tests check.  On the regime ladder shared with the VaR case (``bounded``)
linear utility invests at the budget rho*_ES, the loose bound needs this
hypothesis too, and the tight bound's quantile floor doubles the theta
coefficient of the VaR floor.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ._rootfind import expand_bracket, solve_bracketed
from .bounded import BoundRules, solve_bounded
from .errors import HypothesisViolated
from .gaussian import gauss_hazard, log_tail_ratio, tail_ratio
from .market import MarketModel
from .risk import MeasureKind, RiskSpec
from .solution import ConditionCheck
from .unconstrained import kappa_tilde

ROOT_RESIDUAL = 1e-12


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
    """Exposure budget rho*_ES under the ES bound: the root of
    psi(rho, 1) = ln(1-zeta), by safeguarded Newton steps on
    f(rho) = ||theta||_T rho + ln F_a(|z_a| + rho) - ln(1-zeta), whose
    derivative ||theta||_T - hazard(|z_a| + rho) is negative while
    |z_a| >= ||theta||_T."""
    _check_hypothesis(model, spec)
    tn, z = model.theta_norm_T, spec.abs_z
    target = spec.log_bound()

    def f(rho):
        return tn * rho + log_tail_ratio(z, z + rho) - target

    if z > 1.0:
        hi = max(1.0, 2.0 * rho_es_upper_bound(model, spec))
    else:
        hi = expand_bracket(f, 0.0, 1.0)[1]
    return solve_bracketed(f, 0.0, hi, fprime=lambda r: tn - gauss_hazard(z + r),
                           residual_tol=ROOT_RESIDUAL,
                           scale=max(1.0, abs(target)))


def es_loose_threshold(model: MarketModel, gamma: float,
                       spec: RiskSpec) -> float:
    """Smallest zeta for which the unconstrained optimum meets the ES bound."""
    q = 1.0 / (1.0 - gamma)
    tn = model.theta_norm_T
    kt = kappa_tilde(model, gamma)
    factor = tail_ratio(spec.abs_z, spec.abs_z + q * tn)
    return 1.0 - (1.0 - kt) * float(np.exp(q * tn * tn)) * float(factor)


def _psi_monotone(model: MarketModel, spec: RiskSpec) -> ConditionCheck:
    _check_hypothesis(model, spec)
    return ConditionCheck("psi_monotone", True,
                          spec.abs_z - 2.0 * model.theta_norm_T)


ES = BoundRules(
    kind=MeasureKind.ES, name="ES",
    # looked up at call time, so a rebound rho_es (as perfbench's tracer
    # installs) is the one called
    budget=lambda model, spec: rho_es(model, spec),
    loose_threshold=es_loose_threshold, floor_coeff=2.0,
    linear_condition=_psi_monotone, hypothesis=_check_hypothesis,
)

solve_es = partial(solve_bounded, ES)
