"""Solver output container: optimal value, regime tag, controls, wealth law."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._table import grid_axes, write_json, write_table
from .market import MarketModel
from .risk import RiskSpec, profile_grid
from .strategies import DeterministicStrategy, cumulants
from .utility import UtilityParams


def curve_times(model: MarketModel, n: int) -> tuple:
    """(grid, text): the times at which solve samples a solution's curves,
    every market node and n uniform times, and each time in '.12g', built
    once for the t column of both controls.csv and wealth.csv."""
    grid = profile_grid(model.node_ticks, model.horizon, n)
    return grid, ["%.12g" % t for t in grid.tolist()]


@dataclass(frozen=True)
class ConditionCheck:
    """One solvability hypothesis with its numeric margin (>= 0 iff satisfied)."""

    name: str
    satisfied: bool
    margin: float
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "satisfied": bool(self.satisfied),
            "margin": float(self.margin),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Solution:
    """Optimal value and control of one of the closed-form regimes."""

    value: float
    regime: str
    model: MarketModel
    x: float
    utility: UtilityParams | None = None
    risk: RiskSpec | None = None
    strategy: DeterministicStrategy | None = None
    feedback: object | None = None          # HaraFeedback for implicit controls
    wealth_law: dict = field(default_factory=dict)
    conditions: tuple = ()

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.value)

    def wealth_mean(self, t) -> np.ndarray:
        """E[X*_t] in closed form."""
        t = np.asarray(t, dtype=np.float64)
        if self.strategy is not None:
            cum = cumulants(self.model, self.strategy)
            return self.x * np.exp(self.model.R(t) - cum.V(t) + cum.ydt(t))
        if self.feedback is not None:
            return self.feedback.wealth_mean(t)
        return self.x * np.exp(self.model.R(t))

    def to_json_dict(self) -> dict:
        doc = {
            "value": None if self.unbounded else float(self.value),
            "unbounded": self.unbounded,
            "regime": self.regime,
            "x0": float(self.x),
            "conditions_report": [c.as_dict() for c in self.conditions],
            "wealth_law": self.wealth_law,
        }
        if self.utility is not None:
            doc["utility"] = {"gamma1": self.utility.gamma1,
                              "gamma2": self.utility.gamma2}
        if self.risk is not None:
            doc["risk"] = {"kind": self.risk.kind.value,
                           "alpha": self.risk.alpha, "zeta": self.risk.zeta}
        return doc

    def write_json(self, path) -> None:
        write_json(path, self.to_json_dict())

    def write_controls_csv(self, path, times: tuple) -> None:
        """Sampled (t, pi*, v*) curves at times, curve_times' (grid, text)
        pair; deterministic-class solutions only."""
        grid, text = times
        d = self.model.dimension
        header = ["t"] + [f"pi_{j+1}" for j in range(d)] + ["v"]
        columns = []
        if self.strategy is not None:
            pis = np.reshape(self.strategy.pi_at(self.model, grid), (grid.size, d))
            vs = np.broadcast_to(self.strategy.v_at(self.model, grid), grid.shape)
            columns = [text, *pis.T, vs]
        write_table(path, header, columns, ["s"] + [".12g"] * (len(columns) - 1))

    def write_wealth_csv(self, path, times: tuple) -> None:
        """E[X*_t] at times, curve_times' (grid, text) pair."""
        grid, text = times
        write_table(path, ["t", "wealth_mean"], [text, self.wealth_mean(grid)],
                    ["s", ".12g"])

    def write_feedback_grids(self, path_p, path_c) -> None:
        """Dump 51 x 51 grids of a feedback solution's handles p and c* over t
        and x/x0 in [0.2, 5]."""
        ts = np.linspace(0.0, self.model.horizon, 51)
        xs = np.linspace(0.2 * self.x, 5.0 * self.x, 51)
        gs = self.feedback.g(ts[:, None], xs)
        axes = grid_axes(ts, xs)
        for path, name, values in ((path_p, "p", self.feedback.p_from_g(ts[:, None], gs)),
                                   (path_c, "c_star", self.feedback.c_from_g(gs))):
            write_table(path, ["t", "x", name], [*axes, np.ravel(values)],
                        ["s", "s", ".12g"])
