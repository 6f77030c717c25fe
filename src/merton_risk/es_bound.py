"""Optimal consumption-investment under the uniform Expected-Shortfall bound.

The ES analogue of the exposure budget solves psi(rho, 1) = ln(1-zeta) with

    psi(rho, u) = ||theta||_T rho u^2 + ln F_a(|z_a| + rho u),

which is strictly decreasing in both arguments while |z_a| >= 2||theta||_T;
outside that region the monotonicity (and the closed forms) are not
available and the solvers refuse.  On the regime ladder shared with the
VaR case (``bounded``) linear utility invests at the budget rho*_ES, the
loose bound needs this hypothesis too, and the tight bound's quantile
floor doubles the theta coefficient of the VaR floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._rootfind import expand_bracket, solve_bracketed
from .bounded import BoundRules, loose_bound_check, solve_bounded, solve_linear, solve_tight
from .errors import HypothesisViolated
from .gaussian import Quantile, gauss_hazard, log_tail_ratio, tail_ratio
from .market import MarketModel
from .risk import MeasureKind, RiskSpec
from .solution import ConditionCheck
from .unconstrained import kappa_tilde

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


def es_loose_threshold(model: MarketModel, gamma: float,
                       spec: RiskSpec) -> float:
    """Smallest zeta for which the unconstrained optimum meets the ES bound."""
    q = 1.0 / (1.0 - gamma)
    tn = model.theta_norm_T
    kt = kappa_tilde(model, gamma)
    factor = tail_ratio(spec.quantile, spec.abs_z + q * tn)
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
solve_es_linear = partial(solve_linear, ES)
solve_es_tight = partial(solve_tight, ES)
es_loose_bound_check = partial(loose_bound_check, ES)
