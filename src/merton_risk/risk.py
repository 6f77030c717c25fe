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

is bounded from below, interval by interval, by certified_feasible, which
lets the oracle accept a candidate without evaluating its ratio on the
whole profile grid; log_risk_var / log_risk_es in tests/cross_checks.py
form it pointwise, and the tests compare its verdict with the ratio
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._piecewise import from_ticks, merge_ticks, to_ticks
from .gaussian import log_tail_ratio, normal_quantile, tail_ratio
from .market import MarketModel
from .strategies import Cumulants, DeterministicStrategy, EvaluationPlan, GridPoints, cumulants

SATURATION_TOL = 1e-9
# certified_feasible's rounding margin per unit of term size (128 float64
# unit roundoffs) and its range limit in log units (see its comments)
_CERT_MARGIN = 128 * 2.0 ** -53
_CERT_MAX_LOG = 600.0


class MeasureKind(str, Enum):
    VAR = "var"
    ES = "es"


@dataclass(frozen=True)
class RiskSpec:
    """Uniform downside-risk bound: measure kind, tail level, budget fraction."""

    alpha: float
    zeta: float
    kind: MeasureKind = MeasureKind.VAR
    abs_z: float = field(init=False, compare=False, repr=False)   # |z_alpha|

    def __post_init__(self):
        if not 0.0 < self.zeta < 1.0:
            raise ValueError(f"zeta must lie in (0,1), got {self.zeta}")
        object.__setattr__(self, "kind", MeasureKind(self.kind))
        # alpha range is enforced by normal_quantile
        object.__setattr__(self, "abs_z", -normal_quantile(self.alpha))

    def log_bound(self) -> float:
        return float(np.log1p(-self.zeta))


# ---------------------------------------------------------------------------
# Pointwise closed forms
# ---------------------------------------------------------------------------

# Both take one strategy or a batch (a leading candidate axis), R_t and
# at(curve), a curve of cum at the same times; each curve is evaluated where
# the formula reads it, so few (candidates x times) arrays live at once.

def _lambda_from_cumulants(cum: Cumulants, at, R, abs_z: float, x: float):
    ynn = at(cum.ynn)
    expo = R - at(cum.V_of) + at(cum.ydt) - 0.5 * ynn - abs_z * np.sqrt(ynn)
    return x * np.exp(expo)


def _shortfall_mean(cum: Cumulants, at, R, abs_z: float, x: float):
    factor = tail_ratio(abs_z, abs_z + np.sqrt(at(cum.ynn)))
    return x * factor * np.exp(R + at(cum.ydt) - at(cum.V_of))


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

    @property
    def ratio_curve(self) -> np.ndarray:
        measure = self.var_curve if self.kind == MeasureKind.VAR else self.es_curve
        return measure / self.level_curve


def profile_grid(node_ticks: np.ndarray, horizon: float, n_refine: int) -> np.ndarray:
    """Union of the breakpoints node_ticks with a uniform refinement of [0, T]."""
    uniform = to_ticks(np.linspace(0.0, horizon, n_refine))
    return from_ticks(merge_ticks(node_ticks, uniform))


def constraint_profile(model: MarketModel, strategy: DeterministicStrategy,
                       spec: RiskSpec, x: float, grid) -> RiskProfile:
    """Evaluate VaR/ES against the level fraction along the times grid, to
    which every coefficient and strategy breakpoint is added."""
    cum = cumulants(model, strategy)
    grid = from_ticks(merge_ticks(cum.node_ticks, to_ticks(grid)))

    def at(curve):
        return curve(grid)

    R = model.R(grid)
    bond = x * np.exp(R)
    lam = _lambda_from_cumulants(cum, at, R, spec.abs_z, x)
    m = _shortfall_mean(cum, at, R, spec.abs_z, x)
    return RiskProfile(
        times=grid, var_curve=bond - lam, es_curve=bond - m,
        level_curve=spec.zeta * bond, kind=spec.kind,
    )


def max_ratios(cum: Cumulants, spec: RiskSpec, x: float,
               points: GridPoints) -> np.ndarray:
    """max_t measure_t / (zeta x e^{R_t}) per strategy of a step_cumulants
    batch over the times of points, an EvaluationPlan's screen or profile
    built with this x: constraint_profile's formulas, for the bounded
    measure only.  A strategy is feasible when its entry is <= 1 + tol."""
    if spec.kind == MeasureKind.VAR:
        measure = points.bond - _lambda_from_cumulants(cum, points, points.R, spec.abs_z, x)
    else:
        measure = points.bond - _shortfall_mean(cum, points, points.R, spec.abs_z, x)
    return np.max(measure / (spec.zeta * points.bond), axis=-1)


def certified_feasible(cum: Cumulants, spec: RiskSpec, x: float,
                       plan: EvaluationPlan) -> np.ndarray:
    """Strategies of a step_cumulants batch whose max_ratios entry is
    <= 1 + SATURATION_TOL on every grid of [0, T], proved from node values.

    On each node interval the affine part of L (the log form above) is
    (y,theta) - V, minus ||y||^2/2 for VaR, and is smallest at one of the
    two ends; ||y||^2 never decreases, so the other part, -|z_a| ||y|| or
    ln F_a(|z_a| + ||y||), is smallest at the right end.  Their sum bounds
    L from below on the interval.  A strategy is certified when the least
    such bound clears ln(1 - zeta) by a rounding margin; False means only
    "not proved".
    """
    abs_z = spec.abs_z
    ydt, ynn, V = cum.ydt.values, cum.ynn.values, cum.V_of.values
    affine = ydt - V
    norm_right = np.sqrt(ynn[..., 1:])
    if spec.kind == MeasureKind.VAR:
        affine = affine - 0.5 * ynn
        spread = -abs_z * norm_right
    else:
        spread = log_tail_ratio(abs_z, abs_z + norm_right)
    lower = np.min(np.minimum(affine[..., :-1], affine[..., 1:]) + spread, axis=-1)

    # Rounding.  max_ratios computes u = lambda / bond (VaR) or m / bond
    # (ES) at each grid point, then the ratio (1 - u) / zeta.  ln u is L with
    # every term rounded: an interpolated curve value is within 11 eps of its
    # interval's larger node value, a sum within eps of its partial sum, and
    # ln F within 16 eps (1 + a^2) at an argument a, whose own error of about
    # 10 eps a moves ln F by at most (1 + a) times as much, since
    # |d ln F / da| <= 1 + a.  With size the sum of the magnitudes below (R
    # enters the grid's sums before it cancels), ln u is within 64 eps size
    # of the exact L of the node values, less 10 eps for the exponentials
    # and products, and lower is within 8 eps size of its exact value.  So
    # lower >= ln(1 - zeta) + 128 eps size, with size >= 1, gives
    # ln u > ln(1 - zeta) + 46 eps, hence 1 - u < zeta, and the ratio, three
    # roundings from (1 - u) / zeta, is below 1 + 4 eps, inside
    # 1 + SATURATION_TOL.  The margin is absolute in L whatever zeta is: the
    # ratio's rounding error grows like eps / zeta only through the division
    # of 1 - u by zeta, and the error of u is bounded here before it.
    log_bound = spec.log_bound()
    norm_T = np.sqrt(ynn[..., -1])
    size = (plan.R_absmax + V[..., -1]
            + np.max(np.abs(ydt), axis=-1) + ynn[..., -1] + abs_z * norm_T
            + (1.0 + abs_z + norm_T) ** 2 - log_bound)
    # Range: every exponential and product of the ratio lies within
    # e^{+-(2 size + |ln x| + |ln zeta|)}, kept well inside float64's normal
    # range (e^{+-708}), where the relative errors above hold.
    in_range = 2.0 * size + abs(np.log(x)) - np.log(spec.zeta) <= _CERT_MAX_LOG
    return in_range & (lower >= log_bound + _CERT_MARGIN * size)
