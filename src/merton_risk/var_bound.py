"""Optimal consumption-investment under the uniform VaR bound.

The VaR rungs of the shared regime ladder (``bounded``):

  linear utility   the exposure budget rho* solves
                   ||theta||_T rho - rho^2/2 - |z_a| rho = ln(1-zeta),
                   feasible once zeta exceeds the floor of the bound.

  loose bound      for equal exponents, 1 - e^{l*} <= zeta.

  tight bound      the riskless split optimum, under the quantile floor
                   |z_a| >= (1 + max(g)/((1-zeta) dlnG)) ||theta||_T.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .bounded import BoundRules, loose_bound_check, solve_bounded, solve_linear, solve_tight
from .errors import ConditionViolated
from .market import MarketModel
from .risk import MeasureKind, RiskSpec
from .solution import ConditionCheck
from .unconstrained import kappa_tilde


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


def _linear_zeta_window(model: MarketModel, spec: RiskSpec) -> ConditionCheck:
    """zeta above the feasibility floor 1 - e^{z^2/2 - |z| ||theta||_T}."""
    tn = model.theta_norm_T
    lower = max(0.0, 1.0 - float(np.exp(0.5 * spec.abs_z ** 2 - spec.abs_z * tn)))
    margin = spec.zeta - lower
    if margin <= 0.0:
        raise ConditionViolated(
            "var_linear_zeta_window", margin,
            "zeta must exceed the feasibility floor of the uniform bound")
    return ConditionCheck("var_linear_zeta_window", True, margin)


def l_star(model: MarketModel, gamma: float, spec: RiskSpec) -> float:
    """Worst-case log risk level of the unconstrained equal-gamma optimum."""
    q = 1.0 / (1.0 - gamma)
    tn = model.theta_norm_T
    lt = float(np.log1p(-kappa_tilde(model, gamma)))
    out = -q * tn * spec.abs_z + lt
    if gamma > 0.5:
        out -= 0.5 * q * (q - 2.0) * tn ** 2
    return out


def var_loose_threshold(model: MarketModel, gamma: float,
                        spec: RiskSpec) -> float:
    """Smallest zeta for which the unconstrained optimum meets the VaR bound."""
    return 1.0 - float(np.exp(l_star(model, gamma, spec)))


VAR = BoundRules(
    kind=MeasureKind.VAR, name="VaR", budget=rho_var,
    loose_threshold=var_loose_threshold, floor_coeff=1.0,
    linear_condition=_linear_zeta_window,
    linear_law={"note": "dX = X (r + rho |theta|^2/||theta||_T) dt "
                        "+ X rho theta'/||theta||_T dW"},
)

solve_var = partial(solve_bounded, VAR)
solve_var_linear = partial(solve_linear, VAR)
solve_var_tight = partial(solve_tight, VAR)
var_loose_bound_check = partial(loose_bound_check, VAR)
