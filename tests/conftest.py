"""Shared builders for randomized market / strategy sweeps."""

from __future__ import annotations

import json

import numpy as np
import pytest

from merton_risk._piecewise import segment_index, to_ticks
from merton_risk.market import CoefficientPath, MarketModel, build_market
from merton_risk.strategies import step_strategy
from merton_risk.unconstrained import solve_hara_unconstrained

from cross_checks import constant_strategy


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


def unit_feedback(model: MarketModel, utility):
    """The unconstrained optimum's feedback law, solved at wealth 1."""
    return solve_hara_unconstrained(model, utility, 1.0).feedback


def theta_at(model: MarketModel, t) -> np.ndarray:
    """theta value on the interval containing each time (vectorized)."""
    idx = segment_index(model.node_ticks, to_ticks(t))
    return model.theta_step[idx]


def _reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture
def standard_market() -> MarketModel:
    """r = 0, single asset, theta = 0.5, T = 1."""
    return constant_market(0.0, [0.1], [[0.2]], 1.0)


@pytest.fixture
def flat_market() -> MarketModel:
    """r = 0, theta = 0, T = 1."""
    return constant_market(0.0, [0.0], [[0.2]], 1.0)


def random_market(rng: np.random.Generator, d: int = 1, max_pieces: int = 4,
                  horizon: float = 1.0, r_max: float = 0.06,
                  theta_max: float = 0.6) -> MarketModel:
    """Random piecewise-constant market with well-conditioned volatility."""

    def cuts(k):
        if k == 1:
            return np.array([0.0])
        inner = np.sort(rng.uniform(0.05, 0.95, size=k - 1)) * horizon
        return np.concatenate([[0.0], np.round(inner, 6)])

    kr, km, ks = (int(rng.integers(1, max_pieces + 1)) for _ in range(3))
    r_vals = rng.uniform(0.0, r_max, size=kr)
    r_path = CoefficientPath.from_segments(list(zip(cuts(kr), r_vals)), horizon)

    sig_vals = []
    for _ in range(ks):
        base = np.diag(rng.uniform(0.15, 0.4, size=d))
        noise = 0.05 * rng.standard_normal((d, d))
        sig_vals.append(base + noise - np.diag(np.diag(noise)))
    sig_path = CoefficientPath.from_segments(
        list(zip(cuts(ks), sig_vals)), horizon)

    # drifts chosen as mu = r 1 + sigma theta for bounded market price of risk
    merged = np.unique(np.concatenate([cuts(kr), cuts(km), cuts(ks)]))
    mu_vals = []
    for t in merged:
        r_here = r_vals[np.searchsorted(cuts(kr), t, side="right") - 1]
        s_here = sig_vals[np.searchsorted(cuts(ks), t, side="right") - 1]
        theta = rng.uniform(-theta_max, theta_max, size=d)
        mu_vals.append(r_here + s_here @ theta)
    mu_path = CoefficientPath.from_segments(
        list(zip(merged, mu_vals)), horizon)
    return build_market(r_path, mu_path, sig_path)


def random_strategy(rng: np.random.Generator, model: MarketModel,
                    max_pieces: int = 4, y_scale: float = 0.6,
                    v_scale: float = 0.5):
    """Random piecewise-constant strategy in the lognormal class."""
    d = model.dimension
    horizon = model.horizon
    k = int(rng.integers(1, max_pieces + 1))
    if k == 1:
        cuts = np.array([0.0])
    else:
        cuts = np.concatenate(
            [[0.0], np.round(np.sort(rng.uniform(0.05, 0.95, k - 1)), 6)
             * horizon])
    y_segments = [(float(t), rng.uniform(-y_scale, y_scale, size=d))
                  for t in cuts]
    v_segments = [(float(t), float(rng.uniform(0.0, v_scale))) for t in cuts]
    return step_strategy(y_segments, v_segments, horizon)


def theta_market(theta_norm: float, horizon: float = 1.0,
                 r: float = 0.0) -> MarketModel:
    """Single-asset market with |theta| = theta_norm/sqrt(T) constant."""
    sigma = 0.2
    theta = theta_norm / np.sqrt(horizon)
    return constant_market(r, [r + sigma * theta], [[sigma]], horizon)


def bond_strategy(model: MarketModel):
    return constant_strategy(np.zeros(model.dimension), 0.0, model.horizon)
