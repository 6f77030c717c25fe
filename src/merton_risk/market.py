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
    check_on_grid,
    cumulative_exp_affine,
    from_ticks,
    integrate_steps,
    merge_ticks,
    to_ticks,
)
from .errors import InputError

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
        # a few breakpoints: Python ints are cheaper here than numpy reductions
        bp = self.breakpoint_ticks.tolist()
        if not bp or bp[0] != 0:
            raise InputError("first breakpoint must be t = 0")
        if any(b <= a for a, b in zip(bp, bp[1:])):
            raise InputError("breakpoints must be strictly increasing")
        if self.horizon_ticks <= bp[-1]:
            raise InputError("horizon must exceed the last breakpoint")
        if len(self.values) != len(bp):
            raise InputError("one value per breakpoint interval required")

    @classmethod
    def from_segments(cls, segments, horizon: float) -> "CoefficientPath":
        """Build from [(t0, value), ...] with the last segment closing at T;
        the values must share one shape."""
        ticks = to_ticks([seg[0] for seg in segments] + [horizon])
        return cls(
            breakpoint_ticks=ticks[:-1],
            values=np.array([seg[1] for seg in segments], dtype=np.float64),
            horizon_ticks=int(ticks[-1]),
        )

    @classmethod
    def constant(cls, value, horizon: float) -> "CoefficientPath":
        return cls.from_segments([(0.0, value)], horizon)

    def node_ticks(self) -> np.ndarray:
        return np.concatenate([self.breakpoint_ticks, [self.horizon_ticks]])

    def value_at(self, t_ticks) -> np.ndarray:
        """The value at each time; times past the horizon take the last one."""
        idx = self.breakpoint_ticks.searchsorted(t_ticks, side="right") - 1
        return self.values[np.maximum(idx, 0)]


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

    Raises InputError when horizons or dimensions disagree or a sigma
    block fails the relative singular-value test at 1e-10.
    """
    if not (rates.horizon_ticks == drifts.horizon_ticks == vols.horizon_ticks):
        raise InputError("coefficient paths must share the horizon")
    if rates.values.ndim != 1:
        raise InputError("rate values must be scalars")
    if drifts.values.ndim != 2:
        raise InputError("drift values must be d-vectors")
    d = drifts.values.shape[1]
    if vols.values.ndim != 3 or vols.values.shape[1:] != (d, d):
        raise InputError("vol values must be d x d matrices")

    node_ticks = merge_ticks(rates.breakpoint_ticks, drifts.breakpoint_ticks,
                             vols.breakpoint_ticks, [rates.horizon_ticks])
    left = node_ticks[:-1]
    r_step = rates.value_at(left)
    mu_step = drifts.value_at(left)
    sigma_step = vols.value_at(left)

    svals = np.linalg.svd(sigma_step, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        rcond = svals[:, -1] / svals[:, 0]
    # singular values are finite and s_min <= s_max, so a NaN (a zero block)
    # is the only non-finite ratio, and it fails the comparison
    if not np.all(rcond >= SINGULARITY_RTOL):
        j = int(np.argmin(np.where(np.isfinite(rcond), rcond, -np.inf)))
        raise InputError(
            f"sigma block starting at t={from_ticks(left[j]):.6g} has relative "
            f"condition {rcond[j]:.3g} < {SINGULARITY_RTOL:g}")

    excess = mu_step - r_step[:, None]
    theta_step = np.linalg.solve(sigma_step, excess[..., None])[..., 0]

    nodes = from_ticks(node_ticks)
    dt = nodes[1:] - nodes[:-1]
    cum_r = integrate_steps(node_ticks, dt, r_step)
    cum_theta_sq = integrate_steps(node_ticks, dt, (theta_step ** 2).sum(axis=1))
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


def _json_numbers(value, name: str):
    """A JSON number, or nested lists of them, as floats in the same nesting."""
    if isinstance(value, list):
        return [_json_numbers(item, name) for item in value]
    return json_number(value, name)


def market_from_dict(doc: dict) -> MarketModel:
    try:
        horizon = json_number(doc["T"], "T")
        d = doc["d"]
        if isinstance(d, bool) or not isinstance(d, int):
            raise TypeError(f"d must be an integer, got {d!r}")
        segments = {k: [(json_number(seg["t0"], f"{k} t0"),
                         _json_numbers(seg["value"], f"{k} value")) for seg in doc[k]]
                    for k in ("r", "mu", "sigma")}
        for k, segs in segments.items():
            if not segs:
                raise InputError(f"{k} needs at least one segment")
        check_on_grid([("T", horizon)] + [(f"{k} t0", t) for k, segs in segments.items()
                                          for t, _ in segs])
        r_path, mu_path, sg_path = (CoefficientPath.from_segments(segments[k], horizon)
                                    for k in ("r", "mu", "sigma"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed market document: {exc}") from exc
    # a NaN or infinite coefficient is an input error, never a regime verdict
    if not all(np.isfinite(p.values).all() for p in (r_path, mu_path, sg_path)):
        raise InputError("non-finite r, mu or sigma value")
    if mu_path.values.shape[1:] != (d,):
        raise InputError("mu entries disagree with declared dimension")
    return build_market(r_path, mu_path, sg_path)
