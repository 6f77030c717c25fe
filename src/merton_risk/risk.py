"""Closed-form VaR / ES of lognormal wealth and the uniform risk bound.

For a deterministic strategy the wealth at t is lognormal, so the
alpha-quantile and the shortfall mean have explicit forms:

    lambda_t = x exp(R_t - V_t + (y,theta)_t - ||y||_t^2/2 - |z_a| ||y||_t)
    m_t      = x F_a(|z_a| + ||y||_t) exp(R_t + (y,theta)_t - V_t)

    VaR_t = x e^{R_t} - lambda_t         ES_t = x e^{R_t} - m_t

The uniform constraint sup_t measure_t / (zeta x e^{R_t}) <= 1 is evaluated
both in ratio form and in the equivalent log form

    VaR:  L_t  = (y,theta)_t - V_t - ||y||_t^2/2 - |z_a| ||y||_t >= ln(1-zeta)
    ES:   L*_t = (y,theta)_t - V_t + ln F_a(|z_a| + ||y||_t)     >= ln(1-zeta)

and the two verdicts are checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._piecewise import from_ticks, merge_ticks, to_ticks
from ._table import fmt, write_rows
from .gaussian import Quantile, log_tail_ratio, normal_quantile, tail_ratio
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


def quantile_lambda(model: MarketModel, strategy: DeterministicStrategy,
                    alpha: float, x: float, t):
    """Exact alpha-quantile of wealth at time t."""
    cum = cumulants(model, strategy)
    out = _lambda_from_cumulants(cum, normal_quantile(alpha), x, t)
    return float(out) if np.ndim(t) == 0 else out


def value_at_risk(model: MarketModel, strategy: DeterministicStrategy,
                  alpha: float, x: float, t):
    """Excess loss of the alpha-quantile against the pure bond account.

    May be negative; negative values are returned as-is (spare risk budget).
    """
    cum = cumulants(model, strategy)
    lam = _lambda_from_cumulants(cum, normal_quantile(alpha), x, t)
    out = x * np.exp(cum.model.R(np.asarray(t, dtype=np.float64))) - lam
    return float(out) if np.ndim(t) == 0 else out


def _shortfall_mean(cum: Cumulants, quantile: Quantile, x: float, t):
    t = np.asarray(t, dtype=np.float64)
    yn = cum.y_norm(t)
    factor = tail_ratio(quantile, quantile.abs_z + yn)
    return x * factor * np.exp(cum.model.R(t) + cum.ydt(t) - cum.V(t))


def expected_shortfall(model: MarketModel, strategy: DeterministicStrategy,
                       alpha: float, x: float, t):
    """Excess loss of the tail conditional mean; always >= value_at_risk."""
    cum = cumulants(model, strategy)
    quantile = normal_quantile(alpha)
    m = _shortfall_mean(cum, quantile, x, t)
    out = x * np.exp(cum.model.R(np.asarray(t, dtype=np.float64))) - m
    return float(out) if np.ndim(t) == 0 else out


# ---------------------------------------------------------------------------
# Log-form functionals (sup-constraint in additive form)
# ---------------------------------------------------------------------------

def log_risk_var(cum: Cumulants, quantile: Quantile, t):
    """L_t; the VaR bound holds at t iff L_t >= ln(1 - zeta)."""
    t = np.asarray(t, dtype=np.float64)
    yn = cum.y_norm(t)
    return cum.ydt(t) - cum.V(t) - 0.5 * cum.ynn(t) - quantile.abs_z * yn


def log_risk_es(cum: Cumulants, quantile: Quantile, t):
    """L*_t; the ES bound holds at t iff L*_t >= ln(1 - zeta)."""
    t = np.asarray(t, dtype=np.float64)
    yn = cum.y_norm(t)
    return cum.ydt(t) - cum.V(t) + log_tail_ratio(quantile, quantile.abs_z + yn)


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
    max_ratio: float
    argmax_time: float
    log_curve: np.ndarray        # L_t or L*_t per kind
    log_bound: float             # ln(1 - zeta)
    var_stderr: np.ndarray | None = None
    es_stderr: np.ndarray | None = None

    @property
    def ratio_curve(self) -> np.ndarray:
        measure = self.var_curve if self.kind == MeasureKind.VAR else self.es_curve
        return measure / self.level_curve

    def satisfied(self, tol: float = SATURATION_TOL) -> bool:
        return self.max_ratio <= 1.0 + tol

    def log_satisfied(self, tol: float = SATURATION_TOL) -> bool:
        return bool(np.min(self.log_curve) >= self.log_bound - tol)

    def write_csv(self, path) -> None:
        write_rows(path, ["t", "var", "es", "level", "ratio"],
                   zip(*map(fmt, (self.times, self.var_curve, self.es_curve,
                                  self.level_curve, self.ratio_curve))))


def profile_grid(cum: Cumulants, n_refine: int = PROFILE_REFINE) -> np.ndarray:
    """Union of all breakpoints with a uniform refinement of [0, T]."""
    uniform = to_ticks(np.linspace(0.0, cum.horizon, n_refine))
    ticks = merge_ticks(cum.node_ticks, uniform)
    return from_ticks(ticks)


def constraint_profile(model: MarketModel, strategy: DeterministicStrategy,
                       spec: RiskSpec, x: float,
                       grid=None, n_refine: int = PROFILE_REFINE) -> RiskProfile:
    """Evaluate VaR/ES against the level fraction along a grid.

    The grid always includes every coefficient and strategy breakpoint; by
    default a 10^4-point uniform refinement is added.
    """
    cum = cumulants(model, strategy)
    if grid is None:
        grid = profile_grid(cum, n_refine)
    else:
        grid = from_ticks(merge_ticks(cum.node_ticks, to_ticks(grid)))
    quantile = spec.quantile

    bond = x * np.exp(model.R(grid))
    lam = _lambda_from_cumulants(cum, quantile, x, grid)
    m = _shortfall_mean(cum, quantile, x, grid)
    var_curve = bond - lam
    es_curve = bond - m
    level = spec.zeta * bond

    if spec.kind == MeasureKind.VAR:
        log_curve = log_risk_var(cum, quantile, grid)
        measure = var_curve
    else:
        log_curve = log_risk_es(cum, quantile, grid)
        measure = es_curve
    ratio = measure / level
    k = int(np.argmax(ratio))
    profile = RiskProfile(
        times=grid, var_curve=var_curve, es_curve=es_curve,
        level_curve=level, kind=spec.kind,
        max_ratio=float(ratio[k]), argmax_time=float(grid[k]),
        log_curve=log_curve, log_bound=spec.log_bound(),
    )
    return profile


def max_ratios(cum: Cumulants, spec: RiskSpec, x: float,
               n_refine: int = PROFILE_REFINE) -> np.ndarray:
    """max_t measure_t / (zeta x e^{R_t}) per strategy of a cumulant batch.

    The same grid and formulas as constraint_profile, for the bounded
    measure only; a strategy is feasible when its entry is <= 1 + tol.
    """
    grid = profile_grid(cum, n_refine)
    bond = x * np.exp(cum.model.R(grid))
    if spec.kind == MeasureKind.VAR:
        measure = bond - _lambda_from_cumulants(cum, spec.quantile, x, grid)
    else:
        measure = bond - _shortfall_mean(cum, spec.quantile, x, grid)
    return np.max(measure / (spec.zeta * bond), axis=-1)
