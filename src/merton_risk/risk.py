"""Closed-form VaR / ES of lognormal wealth and the uniform risk bound.

For a deterministic strategy the wealth at t is lognormal, so the
alpha-quantile and the shortfall mean have explicit forms:

    lambda_t = x exp(R_t - V_t + (y,theta)_t - ||y||_t^2/2 - |z_a| ||y||_t)
    m_t      = x F_a(|z_a| + ||y||_t) exp(R_t + (y,theta)_t - V_t)

    VaR_t = x e^{R_t} - lambda_t         ES_t = x e^{R_t} - m_t

The uniform constraint sup_t measure_t / (zeta x e^{R_t}) <= 1 is evaluated
in ratio form.  The equivalent log form

    VaR:  L_t  = (y,theta)_t - V_t - ||y||_t^2/2 - |z_a| ||y||_t >= ln(1-zeta)
    ES:   L*_t = (y,theta)_t - V_t + ln F_a(|z_a| + ||y||_t)     >= ln(1-zeta)

is formed only by log_risk_var / log_risk_es in tests/cross_checks.py,
and the tests compare its verdict with the ratio verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._piecewise import from_ticks, merge_ticks, to_ticks
from .gaussian import Quantile, normal_quantile, tail_ratio
from .market import MarketModel
from .strategies import Cumulants, DeterministicStrategy, cumulants

SATURATION_TOL = 1e-9
PROFILE_REFINE = 10_000


class MeasureKind(str, Enum):
    VAR = "var"
    ES = "es"


@dataclass(frozen=True)
class RiskSpec:
    """Uniform downside-risk bound: measure kind, tail level, budget fraction."""

    alpha: float
    zeta: float
    kind: MeasureKind = MeasureKind.VAR
    quantile: Quantile = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.zeta < 1.0:
            raise ValueError(f"zeta must lie in (0,1), got {self.zeta}")
        object.__setattr__(self, "kind", MeasureKind(self.kind))
        # alpha range is enforced by the quantile constructor
        object.__setattr__(self, "quantile", normal_quantile(self.alpha))

    @property
    def abs_z(self) -> float:
        return self.quantile.abs_z

    def log_bound(self) -> float:
        return float(np.log1p(-self.zeta))


# ---------------------------------------------------------------------------
# Pointwise closed forms
# ---------------------------------------------------------------------------

# _lambda_from_cumulants and _shortfall_mean take single strategies and
# batches alike (a batch adds a leading candidate axis to every curve).

def _lambda_from_cumulants(cum: Cumulants, quantile: Quantile, x: float, t):
    t = np.asarray(t, dtype=np.float64)
    ynn = cum.ynn(t)
    expo = (cum.model.R(t) - cum.V(t) + cum.ydt(t)
            - 0.5 * ynn - quantile.abs_z * np.sqrt(ynn))
    return x * np.exp(expo)


def _shortfall_mean(cum: Cumulants, quantile: Quantile, x: float, t):
    t = np.asarray(t, dtype=np.float64)
    yn = cum.y_norm(t)
    factor = tail_ratio(quantile, quantile.abs_z + yn)
    return x * factor * np.exp(cum.model.R(t) + cum.ydt(t) - cum.V(t))


# ---------------------------------------------------------------------------
# Uniform-constraint profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiskProfile:
    """Risk measures along a time grid plus the uniform-constraint verdict."""

    times: np.ndarray
    var_curve: np.ndarray
    es_curve: np.ndarray
    level_curve: np.ndarray
    kind: MeasureKind
    var_stderr: np.ndarray | None = None
    es_stderr: np.ndarray | None = None

    @property
    def ratio_curve(self) -> np.ndarray:
        measure = self.var_curve if self.kind == MeasureKind.VAR else self.es_curve
        return measure / self.level_curve

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratio_curve))

    def satisfied(self, tol: float = SATURATION_TOL) -> bool:
        return self.max_ratio <= 1.0 + tol


def profile_grid(node_ticks: np.ndarray, horizon: float,
                 n_refine: int = PROFILE_REFINE) -> np.ndarray:
    """Union of the breakpoints node_ticks with a uniform refinement of [0, T]."""
    uniform = to_ticks(np.linspace(0.0, horizon, n_refine))
    return from_ticks(merge_ticks(node_ticks, uniform))


def constraint_profile(model: MarketModel, strategy: DeterministicStrategy,
                       spec: RiskSpec, x: float,
                       grid=None, n_refine: int = PROFILE_REFINE) -> RiskProfile:
    """Evaluate VaR/ES against the level fraction along a grid.

    The grid always includes every coefficient and strategy breakpoint; by
    default a 10^4-point uniform refinement is added.
    """
    cum = cumulants(model, strategy)
    if grid is None:
        grid = profile_grid(cum.node_ticks, cum.horizon, n_refine)
    else:
        grid = from_ticks(merge_ticks(cum.node_ticks, to_ticks(grid)))
    bond = x * np.exp(model.R(grid))
    lam = _lambda_from_cumulants(cum, spec.quantile, x, grid)
    m = _shortfall_mean(cum, spec.quantile, x, grid)
    return RiskProfile(
        times=grid, var_curve=bond - lam, es_curve=bond - m,
        level_curve=spec.zeta * bond, kind=spec.kind,
    )


def max_ratios(cum: Cumulants, spec: RiskSpec, x: float,
               grid: np.ndarray) -> np.ndarray:
    """max_t measure_t / (zeta x e^{R_t}) per strategy of a cumulant batch.

    The formulas of constraint_profile on a given grid (profile_grid of the
    batch's nodes gives constraint_profile's), for the bounded measure only;
    a strategy is feasible when its entry is <= 1 + tol.
    """
    bond = x * np.exp(cum.model.R(grid))
    if spec.kind == MeasureKind.VAR:
        measure = bond - _lambda_from_cumulants(cum, spec.quantile, x, grid)
    else:
        measure = bond - _shortfall_mean(cum, spec.quantile, x, grid)
    return np.max(measure / (spec.zeta * bond), axis=-1)
