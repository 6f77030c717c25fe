"""Black-Scholes market with piecewise-constant deterministic coefficients.

The market carries a riskless rate path r, drift vector path mu and
volatility matrix path sigma on a common horizon [0, T].  The market price
of risk theta_t = sigma_t^{-1} (mu_t - r_t 1) is solved per interval, and
the two workhorse cumulatives

    R_t       = int_0^t r_u du
    TS_t      = int_0^t |theta_u|^2 du

are exact piecewise-linear functions.  Weighted growth norms of the form
int_0^t exp(q*gamma*R_u [+ q(q-1)/2 * TS_u]) du are exact per-interval
exponential antiderivatives, so no quadrature error enters downstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._piecewise import (
    PiecewiseLinear,
    cumulative_exp_affine,
    cumulative_linear,
    from_ticks,
    merge_ticks,
    segment_index,
    to_ticks,
)
from .errors import MismatchedPaths, SingularVolatility, TimeOutOfRange

SINGULARITY_RTOL = 1e-10  # reject sigma blocks with s_min/s_max below this


@dataclass(frozen=True)
class CoefficientPath:
    """Cadlag piecewise-constant path: values[j] holds on [break_j, break_{j+1}).

    breakpoint_ticks : (k,) int64, strictly increasing, first = 0
    values           : (k, ...) scalar / vector / matrix per interval
    horizon_ticks    : end of the last interval
    """

    breakpoint_ticks: np.ndarray
    values: np.ndarray
    horizon_ticks: int

    def __post_init__(self):
        bp = self.breakpoint_ticks
        if bp[0] != 0:
            raise MismatchedPaths("first breakpoint must be t = 0")
        if np.any(np.diff(bp) <= 0):
            raise MismatchedPaths("breakpoints must be strictly increasing")
        if self.horizon_ticks <= bp[-1]:
            raise MismatchedPaths("horizon must exceed the last breakpoint")
        if len(self.values) != len(bp):
            raise MismatchedPaths("one value per breakpoint interval required")

    @classmethod
    def from_segments(cls, segments, horizon: float) -> "CoefficientPath":
        """Build from [(t0, value), ...] with the last segment closing at T."""
        times = [seg[0] for seg in segments]
        vals = [np.asarray(seg[1], dtype=np.float64) for seg in segments]
        return cls(
            breakpoint_ticks=to_ticks(times),
            values=np.stack(vals),
            horizon_ticks=int(to_ticks(horizon)),
        )

    @classmethod
    def constant(cls, value, horizon: float) -> "CoefficientPath":
        return cls.from_segments([(0.0, value)], horizon)

    @property
    def horizon(self) -> float:
        return float(from_ticks(self.horizon_ticks))

    def node_ticks(self) -> np.ndarray:
        return np.concatenate([self.breakpoint_ticks, [self.horizon_ticks]])

    def value_at(self, t_ticks: np.ndarray) -> np.ndarray:
        idx = segment_index(self.node_ticks(), np.asarray(t_ticks))
        return self.values[idx]


@dataclass(frozen=True)
class MarketModel:
    """Immutable market with derived theta and exact cumulative integrals."""

    rates: CoefficientPath
    drifts: CoefficientPath
    vols: CoefficientPath
    node_ticks: np.ndarray        # merged partition nodes, (k+1,)
    r_step: np.ndarray            # (k,)
    mu_step: np.ndarray           # (k, d)
    sigma_step: np.ndarray        # (k, d, d)
    theta_step: np.ndarray        # (k, d)
    cum_r: PiecewiseLinear        # R_t
    cum_theta_sq: PiecewiseLinear  # int |theta|^2
    _exp_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def horizon(self) -> float:
        return float(from_ticks(self.node_ticks[-1]))

    @property
    def dimension(self) -> int:
        return self.mu_step.shape[1]

    @property
    def nodes(self) -> np.ndarray:
        return from_ticks(self.node_ticks)

    def check_time(self, t) -> None:
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < -1e-15) or np.any(t > self.horizon * (1 + 1e-12) + 1e-15):
            raise TimeOutOfRange(f"time outside [0, {self.horizon}]")

    def R(self, t):
        return self.cum_r(t)

    def theta_sq_cum(self, t):
        return self.cum_theta_sq(t)

    def theta_norm(self, t) -> float:
        self.check_time(t)
        return np.sqrt(self.cum_theta_sq(t))

    @property
    def theta_norm_T(self) -> float:
        return float(np.sqrt(self.cum_theta_sq.end_value))

    def theta_at(self, t) -> np.ndarray:
        """theta value on the interval containing each time (vectorized)."""
        idx = segment_index(self.node_ticks, to_ticks(t))
        return self.theta_step[idx]

    def rate_nonnegative(self) -> bool:
        return bool(np.all(self.r_step >= 0.0))

    def exp_growth_integral(self, a_rate: float, b_theta_sq: float):
        """Exact antiderivative of exp(a*R_u + b*TS_u) du, cached."""
        key = (float(a_rate), float(b_theta_sq))
        if key not in self._exp_cache:
            exponent = PiecewiseLinear(
                node_ticks=self.node_ticks,
                values=a_rate * self.cum_r.values + b_theta_sq * self.cum_theta_sq.values,
            )
            self._exp_cache[key] = cumulative_exp_affine(exponent)
        return self._exp_cache[key]


def build_market(rates: CoefficientPath, drifts: CoefficientPath,
                 vols: CoefficientPath) -> MarketModel:
    """Assemble a MarketModel; solves theta per interval by linear solve.

    Raises MismatchedPaths when horizons/dimensions disagree and
    SingularVolatility when a sigma block fails the relative singular-value
    test at 1e-10.
    """
    if not (rates.horizon_ticks == drifts.horizon_ticks == vols.horizon_ticks):
        raise MismatchedPaths("coefficient paths must share the horizon")
    if rates.values.ndim != 1:
        raise MismatchedPaths("rate values must be scalars")
    if drifts.values.ndim != 2:
        raise MismatchedPaths("drift values must be d-vectors")
    d = drifts.values.shape[1]
    if vols.values.ndim != 3 or vols.values.shape[1:] != (d, d):
        raise MismatchedPaths("vol values must be d x d matrices")

    node_ticks = merge_ticks(
        rates.node_ticks(), drifts.node_ticks(), vols.node_ticks()
    )
    left = node_ticks[:-1]
    r_step = rates.value_at(left)
    mu_step = drifts.value_at(left)
    sigma_step = vols.value_at(left)

    svals = np.linalg.svd(sigma_step, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        rcond = svals[:, -1] / svals[:, 0]
    if np.any(~np.isfinite(rcond)) or np.any(rcond < SINGULARITY_RTOL):
        j = int(np.argmin(np.where(np.isfinite(rcond), rcond, -np.inf)))
        raise SingularVolatility(
            f"sigma block starting at t={from_ticks(left[j]):.6g} has relative "
            f"condition {rcond[j]:.3g} < {SINGULARITY_RTOL:g}")

    excess = mu_step - r_step[:, None]
    theta_step = np.linalg.solve(sigma_step, excess[..., None])[..., 0]

    cum_r = cumulative_linear(node_ticks, r_step)
    cum_theta_sq = cumulative_linear(node_ticks, np.sum(theta_step ** 2, axis=1))
    return MarketModel(
        rates=rates, drifts=drifts, vols=vols,
        node_ticks=node_ticks, r_step=r_step, mu_step=mu_step,
        sigma_step=sigma_step, theta_step=theta_step,
        cum_r=cum_r, cum_theta_sq=cum_theta_sq,
    )


def constant_market(r: float, mu, sigma, horizon: float) -> MarketModel:
    """Convenience constructor for constant-coefficient markets."""
    mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim == 0:
        sigma = sigma.reshape(1, 1)
    return build_market(
        CoefficientPath.constant(float(r), horizon),
        CoefficientPath.constant(mu, horizon),
        CoefficientPath.constant(sigma, horizon),
    )


def theta_norm(model: MarketModel, t) -> float:
    """||theta||_t = sqrt(int_0^t |theta_u|^2 du); nondecreasing, 0 at t=0."""
    return model.theta_norm(t)


def weighted_g_norm(model: MarketModel, gamma: float, q: float, t,
                    tilted: bool = False) -> float:
    """Exact growth norm int_0^t exp(q*gamma*R_u) du.

    With tilted=True the exponent gains the q(q-1)/2 * int |theta|^2 term,
    matching the risk-adjusted growth factor of the equal-exponent optimum.
    """
    model.check_time(t)
    b = 0.5 * q * (q - 1.0) if tilted else 0.0
    integ = model.exp_growth_integral(q * gamma, b)
    out = integ(t)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# JSON interface:  {"T": ..., "d": ..., "r": [{"t0":..., "value":...}, ...],
#                   "mu": [...], "sigma": [...]}
# ---------------------------------------------------------------------------

def market_from_dict(doc: dict) -> MarketModel:
    try:
        horizon = float(doc["T"])
        d = int(doc["d"])
        times = [horizon] + [seg["t0"] for k in ("r", "mu", "sigma") for seg in doc[k]]
        if not np.all(np.isfinite(np.asarray(times, dtype=np.float64))):
            raise MismatchedPaths("non-finite horizon or breakpoint")
        r_path = CoefficientPath.from_segments(
            [(seg["t0"], float(seg["value"])) for seg in doc["r"]], horizon)
        mu_path = CoefficientPath.from_segments(
            [(seg["t0"], np.asarray(seg["value"], dtype=np.float64))
             for seg in doc["mu"]], horizon)
        sg_path = CoefficientPath.from_segments(
            [(seg["t0"], np.asarray(seg["value"], dtype=np.float64))
             for seg in doc["sigma"]], horizon)
    except (KeyError, TypeError, ValueError) as exc:
        raise MismatchedPaths(f"malformed market document: {exc}") from exc
    # a NaN or infinite coefficient is an input error, never a regime verdict
    if not all(np.isfinite(p.values).all() for p in (r_path, mu_path, sg_path)):
        raise MismatchedPaths("non-finite r, mu or sigma value")
    if mu_path.values.shape[1] != d:
        raise MismatchedPaths("mu entries disagree with declared dimension")
    return build_market(r_path, mu_path, sg_path)


def market_to_dict(model: MarketModel) -> dict:
    def segments(path: CoefficientPath):
        return [
            {"t0": float(t), "value": np.asarray(v).tolist()}
            for t, v in zip(from_ticks(path.breakpoint_ticks), path.values)
        ]

    return {
        "T": model.horizon,
        "d": model.dimension,
        "r": segments(model.rates),
        "mu": segments(model.drifts),
        "sigma": segments(model.vols),
    }


def load_market(path) -> MarketModel:
    with open(path, "r", encoding="utf-8") as fh:
        return market_from_dict(json.load(fh))


def save_market(model: MarketModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(market_to_dict(model), fh, indent=2)
        fh.write("\n")
