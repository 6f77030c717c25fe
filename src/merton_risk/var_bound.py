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

from .bounded import BoundRules, solve_bounded
from .errors import ConditionViolated
from .market import MarketModel
from .risk import MeasureKind, RiskSpec
from .solution import ConditionCheck
from .unconstrained import kappa_tilde


def rho_var(model: MarketModel, spec: RiskSpec) -> float:
    """Exposure budget rho* under the VaR bound.

    Positive root sqrt(c^2 + w) - c of ||theta||_T r - r^2/2 - |z_a| r =
    ln(1-zeta), with c = |z_a| - ||theta||_T and w = -2 ln(1-zeta), taken as
    w / (sqrt(c^2 + w) + c) when c >= 0 so that it never cancels.
    """
    c = spec.abs_z - model.theta_norm_T
    w = -2.0 * spec.log_bound()
    root = np.sqrt(c * c + w)
    return float(w / (root + c) if c >= 0 else root - c)


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
    """Worst-case log risk level inf_t L_t of the unconstrained equal-gamma optimum.

    With s = ||theta||_t^2, L_t = ln(1 - kappa_t) + q (1 - q/2) s - q |z_a| sqrt(s).
    Both parts fall in t when |z_a| >= (2 - q) ||theta||_T (always for
    gamma >= 1/2), so the infimum is L_T.  Otherwise the s-part's interior
    minimum -q z_a^2 / (2 (2 - q)) gives a lower bound.
    """
    q = 1.0 / (1.0 - gamma)
    tn = model.theta_norm_T
    lt = float(np.log1p(-kappa_tilde(model, gamma)))
    if spec.abs_z < (2.0 - q) * tn:
        return lt - q * spec.abs_z ** 2 / (2.0 * (2.0 - q))
    return -q * tn * spec.abs_z + lt - 0.5 * q * (q - 2.0) * tn ** 2


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
