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
from .errors import MismatchedPaths, SingularVolatility

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

    def node_ticks(self) -> np.ndarray:
        return np.concatenate([self.breakpoint_ticks, [self.horizon_ticks]])

    def value_at(self, t_ticks: np.ndarray) -> np.ndarray:
        idx = segment_index(self.node_ticks(), np.asarray(t_ticks))
        return self.values[idx]


@dataclass(frozen=True)
class MarketModel:
    """Immutable market with derived theta and exact cumulative integrals."""

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

    def R(self, t):
        return self.cum_r(t)

    def theta_sq_cum(self, t):
        return self.cum_theta_sq(t)

    @property
    def theta_norm_T(self) -> float:
        return float(np.sqrt(self.cum_theta_sq.end_value))

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
        node_ticks=node_ticks, r_step=r_step, mu_step=mu_step,
        sigma_step=sigma_step, theta_step=theta_step,
        cum_r=cum_r, cum_theta_sq=cum_theta_sq,
    )


# ---------------------------------------------------------------------------
# JSON interface:  {"T": ..., "d": ..., "r": [{"t0":..., "value":...}, ...],
#                   "mu": [...], "sigma": [...]}; every number a JSON number
# and d a JSON integer
# ---------------------------------------------------------------------------

def json_number(value, name: str) -> float:
    """A JSON number as a float: an int or a float, never a bool or a string.

    Raises TypeError for any other value and ValueError for an int beyond
    the float range.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{name} is out of the float range") from exc


def _json_array(value, name: str) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float64 array."""
    def numbers(v):
        return [numbers(item) for item in v] if isinstance(v, list) else json_number(v, name)
    return np.asarray(numbers(value), dtype=np.float64)


def market_from_dict(doc: dict) -> MarketModel:
    try:
        horizon = json_number(doc["T"], "T")
        d = doc["d"]
        if isinstance(d, bool) or not isinstance(d, int):
            raise TypeError(f"d must be an integer, got {d!r}")
        segments = {k: [(json_number(seg["t0"], f"{k} t0"), seg["value"]) for seg in doc[k]]
                    for k in ("r", "mu", "sigma")}
        times = [horizon] + [t for segs in segments.values() for t, _ in segs]
        if not np.all(np.isfinite(times)):
            raise MismatchedPaths("non-finite horizon or breakpoint")
        r_path = CoefficientPath.from_segments(
            [(t, json_number(v, "r value")) for t, v in segments["r"]], horizon)
        mu_path = CoefficientPath.from_segments(
            [(t, _json_array(v, "mu value")) for t, v in segments["mu"]], horizon)
        sg_path = CoefficientPath.from_segments(
            [(t, _json_array(v, "sigma value")) for t, v in segments["sigma"]], horizon)
    except (KeyError, TypeError, ValueError) as exc:
        raise MismatchedPaths(f"malformed market document: {exc}") from exc
    # a NaN or infinite coefficient is an input error, never a regime verdict
    if not all(np.isfinite(p.values).all() for p in (r_path, mu_path, sg_path)):
        raise MismatchedPaths("non-finite r, mu or sigma value")
    if mu_path.values.shape[1:] != (d,):
        raise MismatchedPaths("mu entries disagree with declared dimension")
    return build_market(r_path, mu_path, sg_path)
