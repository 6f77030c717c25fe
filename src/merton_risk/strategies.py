"""Deterministic control strategies: exposure y_t plus consumption rate v_t.

Wealth under such a control is the exponential of a Gaussian process,

    X_t = x exp(R_t - V_t + (y,theta)_t - ||y||_t^2 / 2 + int y' dW),

so every functional the risk formulas and the closed-form cost need reduces
to the cumulants

    V_t = int v,   (y,theta)_t = int y'theta,   ||y||_t^2 = int |y|^2,

all of which are exact here: y is piecewise-constant and both consumption
families, step rates and the growth-fraction law of the paper's two explicit
optima, keep v_t e^{-V_t} exponential-affine per interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._piecewise import (
    PiecewiseLinear,
    cumulative_linear,
    from_ticks,
    integrate_steps,
    merge_ticks,
    segment_index,
    to_ticks,
)
from .errors import InputError
from .market import CoefficientPath, MarketModel

_LOG_ZERO = -np.inf


# ---------------------------------------------------------------------------
# Consumption families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepConsumption:
    """Piecewise-constant nonnegative rate v_t."""

    v_path: CoefficientPath

    def __post_init__(self):
        if self.v_path.values.ndim != 1 or np.any(self.v_path.values < 0):
            raise InputError("consumption rate must be scalar and >= 0")

    def breakpoints(self) -> np.ndarray:
        return self.v_path.node_ticks()

    def _cum(self):
        nodes = self.v_path.node_ticks()
        return cumulative_linear(nodes, self.v_path.values)

    def v_of(self, model: MarketModel, t):
        return np.asarray(self.v_path.value_at(to_ticks(t)), dtype=np.float64)

    def V_of(self, model: MarketModel, t):
        return self._cum()(t)

    def log_affine(self, model: MarketModel, node_ticks: np.ndarray):
        """(a, b) with v e^{-V} = exp(a_j + b_j (t - node_j)) per interval."""
        left = node_ticks[:-1]
        v = self.v_path.value_at(left)
        return _step_log_affine(v, self._cum()(from_ticks(left)))


def _step_log_affine(v, V_left):
    """(a, b) of v e^{-V} for a step rate v with V = V_left at each left node."""
    with np.errstate(divide="ignore"):
        a = np.where(v > 0, np.log(np.where(v > 0, v, 1.0)) - V_left, _LOG_ZERO)
    return a, -v


@dataclass(frozen=True)
class GrowthFractionConsumption:
    """Spend the growth-weighted share of the remaining budget: v_t = E_t / D_t.

    E_t = exp(a R_t + b TS_t) is the growth weight and D_t = D_0 - int_0^t E
    the budget left, so V_t = ln D_0 - ln D_t and v e^{-V} = E_t / D_0.
    Without zeta, D_0 = int_0^T E + E_T keeps E_T for terminal wealth (the
    equal-exponent optimum, E = G^q); with zeta, D_0 = int_0^T E / zeta
    spends exactly zeta of the discounted endowment, V_T = -ln(1 - zeta)
    (the riskless tight-bound optimum, E = N^q).
    """

    a: float                     # weight of R_t in the growth exponent
    b: float = 0.0               # weight of TS_t = int |theta|^2
    zeta: float | None = None

    def breakpoints(self) -> np.ndarray:
        return np.array([0], dtype=np.int64)

    def integral(self, model: MarketModel):
        """t -> int_0^t E, exact."""
        return model.exp_growth_integral(self.a, self.b)

    def weight(self, model: MarketModel, t):
        """Growth weight E_t."""
        return np.exp(self.a * model.R(t) + self.b * model.theta_sq_cum(t))

    def budget(self, model: MarketModel) -> float:
        """Initial budget D_0."""
        spent = self.integral(model).end_value
        if self.zeta is None:
            return spent + float(self.weight(model, model.horizon))
        return spent / self.zeta

    def spent_fraction(self, model: MarketModel) -> float:
        """Fraction 1 - e^{-V_T} of the budget consumed by T."""
        return self.integral(model).end_value / self.budget(model)

    def v_of(self, model: MarketModel, t):
        t = np.asarray(t, dtype=np.float64)
        return self.weight(model, t) / (self.budget(model) - self.integral(model)(t))

    def V_of(self, model: MarketModel, t):
        d0 = self.budget(model)
        return np.log(d0) - np.log(d0 - self.integral(model)(t))

    def log_affine(self, model: MarketModel, node_ticks: np.ndarray):
        # v e^{-V} = E_t / D_0
        left = node_ticks[:-1]
        left_t = from_ticks(left)
        a = (self.a * model.R(left_t) + self.b * model.theta_sq_cum(left_t)
             - np.log(self.budget(model)))
        idx = segment_index(model.node_ticks, left)
        theta_sq = np.sum(model.theta_step[idx] ** 2, axis=1)
        return a, self.a * model.r_step[idx] + self.b * theta_sq


# ---------------------------------------------------------------------------
# Strategy = exposure path + consumption family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeterministicStrategy:
    """Control in the lognormal class: deterministic (y_t, v_t)."""

    y_path: CoefficientPath     # (k, d) exposure y_t = sigma_t' pi_t
    consumption: object          # one of the consumption families above

    def dimension(self) -> int:
        return self.y_path.values.shape[1]

    def pi_at(self, model: MarketModel, t) -> np.ndarray:
        """Portfolio fractions pi_t = (sigma_t')^{-1} y_t."""
        t_ticks = to_ticks(t)
        idx = segment_index(model.node_ticks, t_ticks)
        sigmas = model.sigma_step[idx]
        y = np.asarray(self.y_path.value_at(t_ticks), dtype=np.float64)
        return np.linalg.solve(np.swapaxes(sigmas, -1, -2), y[..., None])[..., 0]

    def v_at(self, model: MarketModel, t) -> np.ndarray:
        return np.asarray(self.consumption.v_of(model, t), dtype=np.float64)


def step_strategy(y_segments, v_segments, horizon: float) -> DeterministicStrategy:
    """Piecewise-constant strategy from [(t0, y_vec)] and [(t0, v)] lists."""
    y_segments = [(t, np.atleast_1d(np.asarray(y, dtype=np.float64)))
                  for t, y in y_segments]
    return DeterministicStrategy(
        y_path=CoefficientPath.from_segments(y_segments, horizon),
        consumption=StepConsumption(
            CoefficientPath.from_segments(
                [(t, np.asarray(float(v))) for t, v in v_segments], horizon)),
    )


def scaled_theta_strategy(model: MarketModel, factor: float,
                          consumption=None) -> DeterministicStrategy:
    """y_t = factor * theta_t with the given consumption, none by default:
    every explicit optimum's control (factor 1/(1-gamma) for equal exponents,
    rho/||theta||_T under linear utility, 0 when riskless)."""
    y_path = CoefficientPath(
        breakpoint_ticks=model.node_ticks[:-1],
        # + 0.0 turns factor 0's -0.0 against a negative theta into +0.0,
        # which outputs print as 0, not -0
        values=factor * model.theta_step + 0.0,
        horizon_ticks=int(model.node_ticks[-1]),
    )
    if consumption is None:
        consumption = StepConsumption(CoefficientPath.constant(np.array(0.0), model.horizon))
    return DeterministicStrategy(y_path=y_path, consumption=consumption)


# ---------------------------------------------------------------------------
# Exact cumulants of a (model, strategy) pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cumulants:
    """Exact cumulative functionals of controls against a market.

    Holds one strategy, or a batch of K strategies on one shared partition
    (see step_cumulants): then every curve and per-interval array carries a
    leading candidate axis, of length 1 where a factor is shared, and the
    risk and cost formulas broadcast over it.  What only the cost reads is
    built when it asks (cost_terms), not with the curves.
    """

    model: MarketModel
    node_ticks: np.ndarray       # merged partition (k+1,)
    ydt: PiecewiseLinear         # (y,theta)_t
    ynn: PiecewiseLinear         # ||y||_t^2, the variance of ln X_t
    V_of: object                 # t -> V_t = int_0^t v
    cost_terms: object           # () -> (V_T, a, b): V at the horizon and the
                                 # per-interval log-affine v e^{-V} = e^{a + b (t - node)}

    def V(self, t):
        return np.asarray(self.V_of(t), dtype=np.float64)

    def log_drift(self, t):
        """mean of ln(X_t/x): R_t - V_t + (y,theta)_t - ||y||_t^2/2."""
        t = np.asarray(t, dtype=np.float64)
        return self.model.R(t) - self.V(t) + self.ydt(t) - 0.5 * self.ynn(t)


def cumulants(model: MarketModel, strategy: DeterministicStrategy) -> Cumulants:
    if strategy.dimension() != model.dimension:
        raise InputError("strategy and market dimensions disagree")
    if strategy.y_path.horizon_ticks != model.node_ticks[-1]:
        raise InputError("strategy and market horizons disagree")
    node_ticks = merge_ticks(
        model.node_ticks,
        strategy.y_path.node_ticks(),
        strategy.consumption.breakpoints(),
    )
    y = strategy.y_path.value_at(node_ticks[:-1])
    theta = model.theta_step[segment_index(model.node_ticks, node_ticks[:-1])]
    ydt = cumulative_linear(node_ticks, np.sum(y * theta, axis=-1))
    ynn = cumulative_linear(node_ticks, np.sum(y * y, axis=-1))
    consumption = strategy.consumption
    return Cumulants(
        model=model, node_ticks=node_ticks, ydt=ydt, ynn=ynn,
        V_of=partial(consumption.V_of, model),
        cost_terms=lambda: (consumption.V_of(model, model.horizon),
                            *consumption.log_affine(model, node_ticks)),
    )


@dataclass(frozen=True)
class GridPoints:
    """Ascending times t on a partition: how many fall at each node j (t in
    [node_j, node_{j+1}), or T), t - node_j, R_t and x e^{R_t}."""

    runs: np.ndarray
    offsets: np.ndarray
    R: np.ndarray
    bond: np.ndarray

    def __call__(self, curve: PiecewiseLinear) -> np.ndarray:
        """A batch of curves on the partition at the times: np.interp row by
        row (zero slope past T)."""
        values = curve.values
        slopes = np.concatenate((curve.slopes, np.zeros(values.shape[:-1] + (1,))),
                                axis=-1)
        return (np.repeat(slopes, self.runs, axis=-1) * self.offsets
                + np.repeat(values, self.runs, axis=-1))


@dataclass(frozen=True)
class EvaluationPlan:
    """What the batches of step controls on one partition share: dt and theta
    per interval, R at the nodes, its slopes and max |R|, and given a profile
    grid, the GridPoints of T alone (screen) and of the grid (profile)."""

    model: MarketModel
    node_ticks: np.ndarray
    dt: np.ndarray
    theta: np.ndarray
    R: np.ndarray
    R_slopes: np.ndarray
    R_absmax: float
    screen: GridPoints | None
    profile: GridPoints | None

    @classmethod
    def build(cls, model: MarketModel, node_ticks: np.ndarray, x: float,
              grid: np.ndarray | None) -> "EvaluationPlan":
        """grid, ascending to T, gives screen and profile (None: neither); x, the bond."""
        nodes = from_ticks(node_ticks)
        dt = np.diff(nodes)

        def points(t):
            j = np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, len(nodes) - 1)
            R = model.R(t)
            return GridPoints(np.bincount(j, minlength=len(nodes)), t - nodes[j],
                              R, x * np.exp(R))

        R = model.R(nodes)
        return cls(model, node_ticks, dt,
                   model.theta_step[segment_index(model.node_ticks, node_ticks[:-1])],
                   R, np.diff(R) / dt, np.max(np.abs(model.cum_r.values)),
                   *((None, None) if grid is None else (points(grid[-1:]), points(grid))))


def step_cumulants(plan: EvaluationPlan, y, v) -> Cumulants:
    """Cumulants of K controls held constant on every interval of plan's
    partition, which must hold every market breakpoint.

    y : (K or 1, k, d) exposures and v : (K or 1, k) consumption rates, one
    row per control and one column per interval.  A factor with one row is
    shared by every control: its curves keep a leading 1, are computed once
    and broadcast in the risk and cost formulas.  Row i matches cumulants()
    of the step strategy with those values up to rounding.
    """
    v = np.asarray(v, dtype=np.float64)
    if np.any(v < 0):
        raise InputError("consumption rates must be >= 0")
    nodes, dt = plan.node_ticks, plan.dt
    V = integrate_steps(nodes, dt, v)
    return Cumulants(model=plan.model, node_ticks=nodes,
                     ydt=integrate_steps(nodes, dt, np.sum(y * plan.theta, axis=-1)),
                     ynn=integrate_steps(nodes, dt, np.sum(y * y, axis=-1)), V_of=V,
                     cost_terms=lambda: (V.values[..., -1],
                                         *_step_log_affine(v, V.values[..., :-1])))
