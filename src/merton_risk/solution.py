"""Solver output container: optimal value, regime tag, controls, wealth law."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._piecewise import from_ticks, merge_ticks, to_ticks
from ._table import fmt, write_grid_csv, write_rows
from .market import MarketModel
from .risk import RiskSpec
from .strategies import DeterministicStrategy, cumulants
from .utility import UtilityParams


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

    def control_grid(self, n: int = 201) -> np.ndarray:
        ticks = merge_ticks(
            self.model.node_ticks,
            to_ticks(np.linspace(0.0, self.model.horizon, n)),
        )
        return from_ticks(ticks)

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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    def write_controls_csv(self, path, n: int = 201) -> None:
        """Sampled (t, pi*, v*) curves; deterministic-class solutions only."""
        grid = self.control_grid(n)
        d = self.model.dimension
        header = ["t"] + [f"pi_{j+1}" for j in range(d)] + ["v"]
        rows = ()
        if self.strategy is not None:
            pis = np.reshape(self.strategy.pi_at(self.model, grid), (grid.size, d))
            vs = np.broadcast_to(self.strategy.v_at(self.model, grid), grid.shape)
            rows = zip(fmt(grid), *(fmt(col) for col in pis.T), fmt(vs))
        write_rows(path, header, rows)

    def write_wealth_csv(self, path, n: int = 201) -> None:
        grid = self.control_grid(n)
        write_rows(path, ["t", "wealth_mean"],
                   zip(fmt(grid), fmt(self.wealth_mean(grid))))

    def write_feedback_grids(self, path_p, path_c, n_t: int = 51,
                             n_x: int = 51, x_lo: float = None,
                             x_hi: float = None) -> None:
        """Dump (t, x) grids of the feedback handles p and c*."""
        if self.feedback is None:
            return
        x_lo = 0.2 * self.x if x_lo is None else x_lo
        x_hi = 5.0 * self.x if x_hi is None else x_hi
        ts = np.linspace(0.0, self.model.horizon, n_t)
        xs = np.linspace(x_lo, x_hi, n_x)
        gs = self.feedback.g(ts[:, None], xs)
        write_grid_csv(path_p, ["t", "x", "p"], ts, xs,
                       self.feedback.p_from_g(ts[:, None], gs))
        write_grid_csv(path_c, ["t", "x", "c_star"], ts, xs, self.feedback.c_from_g(gs))
