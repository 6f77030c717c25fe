"""Exact integral machinery for piecewise-constant paths.

Times are snapped to an integer tick grid (1 tick = 1e-9 years) so that
breakpoint merges across paths are exact set unions instead of float
comparisons.  A piecewise-constant integrand has a piecewise-linear
antiderivative, and an exp(affine) integrand has an exact expm1-based
antiderivative; both are tabulated at the breakpoints and evaluated in
between without quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TICK = 1e-9  # years per tick
# the grid's range in years: int64 ticks hold any time below it, and the
# difference of two such times
TIME_LIMIT = 2.0 ** 62 * TICK


def to_ticks(t) -> np.ndarray:
    """Snap times (years) to the integer tick grid."""
    return np.rint(np.asarray(t, dtype=np.float64) / TICK).astype(np.int64)


def from_ticks(ticks) -> np.ndarray:
    return np.asarray(ticks, dtype=np.float64) * TICK


def ascending_unique(values) -> np.ndarray:
    """np.unique of NaN-free values, by the sort and the drop of repeats that
    np.unique runs, but without numpy's set routines, which import numpy.ma.
    The same sort leaves equal values (0.0 and -0.0) in the same order, so
    the first one kept is np.unique's."""
    ordered = np.sort(values, axis=None)
    keep = np.empty(ordered.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def merge_ticks(*tick_arrays) -> np.ndarray:
    """Ascending union of breakpoint tick arrays."""
    return ascending_unique(np.concatenate(tick_arrays)).astype(np.int64, copy=False)


def segment_index(node_ticks: np.ndarray, t_ticks: np.ndarray) -> np.ndarray:
    """Index j of the interval [node_j, node_{j+1}) containing each time.

    Times at the right endpoint map to the last interval, so closed-at-T
    evaluation works.
    """
    idx = np.searchsorted(node_ticks, t_ticks, side="right") - 1
    return np.minimum(np.maximum(idx, 0), len(node_ticks) - 2)


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function tabulated at breakpoint nodes.

    node_ticks : (k+1,) int64 ascending, node_ticks[0] = 0
    values     : (..., k+1) float, function value at each node; leading axes
                 hold a batch of functions on the same nodes
    """

    node_ticks: np.ndarray
    values: np.ndarray

    @property
    def nodes(self) -> np.ndarray:
        return from_ticks(self.node_ticks)

    @property
    def end_value(self) -> float:
        return float(self.values[-1])

    def __call__(self, t):
        """The function at t, for one function (1-d values); a batch is
        evaluated through strategies.GridPoints."""
        out = np.interp(np.asarray(t, dtype=np.float64), self.nodes, self.values)
        return out if out.ndim else float(out)

    @cached_property
    def slopes(self) -> np.ndarray:
        """Slope on each interval, (..., k); computed once per curve."""
        return np.diff(self.values) / np.diff(self.nodes)


def cumulative_linear(node_ticks: np.ndarray, rates: np.ndarray) -> PiecewiseLinear:
    """Antiderivative t -> int_0^t f(u) du of a step function.

    rates : (..., k) value of f on [node_j, node_{j+1}); leading axes batch.
    """
    return integrate_steps(node_ticks, np.diff(from_ticks(node_ticks)), rates)


def integrate_steps(node_ticks: np.ndarray, dt: np.ndarray,
                    rates: np.ndarray) -> PiecewiseLinear:
    """cumulative_linear with the interval lengths dt of node_ticks given."""
    steps = (rates * dt).cumsum(axis=-1)
    vals = np.concatenate((np.zeros(steps.shape[:-1] + (1,)), steps), axis=-1)
    return PiecewiseLinear(node_ticks=node_ticks, values=vals)


def exp_affine_segment(offsets, slopes, dt):
    """Exact int_0^dt exp(offset + slope*u) du, elementwise.

    Uses expm1 so nearly-flat exponents lose no precision.
    """
    offsets = np.asarray(offsets, dtype=np.float64)
    slopes = np.asarray(slopes, dtype=np.float64)
    dt = np.asarray(dt, dtype=np.float64)
    x = slopes * dt
    flat = np.abs(x) < 1e-14
    safe = np.where(flat, 1.0, slopes)
    out = np.where(
        flat,
        np.exp(offsets) * dt * (1.0 + 0.5 * x),
        np.exp(offsets) * np.expm1(x) / safe,
    )
    return out


@dataclass(frozen=True)
class ExpAffineIntegral:
    """Cumulative integral of exp(E(t)) for continuous piecewise-linear E."""

    node_ticks: np.ndarray
    exp_offsets: np.ndarray   # E at left node of each interval, (k,)
    exp_slopes: np.ndarray    # slope of E on each interval, (k,)
    cumvals: np.ndarray       # integral at the nodes, (k+1,)

    @property
    def nodes(self) -> np.ndarray:
        return from_ticks(self.node_ticks)

    @property
    def end_value(self) -> float:
        return float(self.cumvals[-1])

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        idx = segment_index(self.node_ticks, to_ticks(tt))
        left = self.nodes[idx]
        part = exp_affine_segment(self.exp_offsets[idx], self.exp_slopes[idx], tt - left)
        out = self.cumvals[idx] + part
        return float(out[0]) if scalar else out


def cumulative_exp_affine(exponent: PiecewiseLinear) -> ExpAffineIntegral:
    """Exact antiderivative t -> int_0^t exp(E(u)) du."""
    nodes = exponent.nodes
    dt = np.diff(nodes)
    offsets = exponent.values[:-1]
    slopes = exponent.slopes
    seg = exp_affine_segment(offsets, slopes, dt)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    return ExpAffineIntegral(
        node_ticks=exponent.node_ticks,
        exp_offsets=offsets,
        exp_slopes=slopes,
        cumvals=cum,
    )
