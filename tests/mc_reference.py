"""Whole-matrix and Euler references for the streamed Monte Carlo in mc.py."""

from __future__ import annotations

import numpy as np

from merton_risk.market import MarketModel
from merton_risk.mc import _BLOCK
from merton_risk.unconstrained import solve_hara_unconstrained
from merton_risk.utility import UtilityParams

from conftest import theta_at


def block_normals(seed: int, n_paths: int, n_steps: int) -> np.ndarray:
    """(n_paths, n_steps) standard normals from per-block SFC64 streams, the
    stream of block b keyed by (seed, b) as the seed's spawned child b."""
    children = np.random.SeedSequence(seed).spawn(-(-n_paths // _BLOCK))
    return np.vstack([
        np.random.Generator(np.random.SFC64(child)).standard_normal(
            (min(_BLOCK, n_paths - b0), n_steps))
        for b0, child in zip(range(0, n_paths, _BLOCK), children)])


def simulate_feedback_euler(model: MarketModel, utility: UtilityParams,
                            x: float, n_paths: int, n_steps: int,
                            seed: int = 0) -> np.ndarray:
    """Terminal wealth by Euler stepping of the feedback SDE (cross-check).

    The implicit g-root is Newton-polished per step, warm-started from the
    previous step (the state moves O(sqrt(dt)) between steps).
    """
    fb = solve_hara_unconstrained(model, utility, x).feedback
    q1, q2 = utility.q1, utility.q2
    ts = np.linspace(0.0, model.horizon, n_steps + 1)
    dt = np.diff(ts)
    X = np.full(n_paths, float(x))
    u = np.full(n_paths, np.log(fb.g(0.0, x)))
    gen = np.random.Generator(np.random.Philox(key=seed))
    for k in range(n_steps):
        t = ts[k]
        theta = theta_at(model, t)
        A1 = float(fb.A1(t))
        A2 = float(fb.A2(t))
        for _ in range(4):
            e1 = A1 * np.exp(-q1 * u)
            e2 = A2 * np.exp(-q2 * u)
            u -= (e1 + e2 - X) / -(q1 * e1 + q2 * e2)
        g = np.exp(u)
        p = q1 * A1 * g ** -q1 + q2 * A2 * g ** -q2
        c = (utility.gamma1 / g) ** q1
        r = model.r_step[np.searchsorted(model.nodes, t, side="right") - 1]
        drift = r * X + p * float(theta @ theta) - c
        dW = gen.standard_normal((n_paths, len(theta))) * np.sqrt(dt[k])
        X = np.maximum(X + drift * dt[k] + p * (dW @ theta), 1e-12)
    return X
