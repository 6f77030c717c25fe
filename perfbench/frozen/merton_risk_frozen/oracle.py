"""Closed-form cost of deterministic strategies and a grid-search oracle.

For any strategy in the lognormal class the expected cost splits into a
consumption integral and a terminal term,

    J = x^g1 int_0^T (v e^{-V})^{g1} e^{g1 R} h1(t) dt
        + x^g2 e^{g2 (R_T - V_T)} h2(T),
    h_i(t) = exp(g_i (y,theta)_t - g_i(1-g_i)/2 ||y||_t^2),

whose integrand is exp(affine) on every breakpoint interval for the
supported strategy families, so the integral is evaluated exactly.  A
quadrature route over the same integrand is kept as an independent
cross-check, and a constrained grid search over an exposure/consumption
family brackets the solver optima from below.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from ._piecewise import exp_affine_segment
from .errors import EmptyFeasibleSet
from .market import MarketModel
from .risk import (
    MeasureKind,
    RiskSpec,
    constraint_profile,
    log_risk_es,
    log_risk_var,
)
from .strategies import (
    DeterministicStrategy,
    constant_strategy,
    cumulants,
    step_strategy,
    theta_direction_strategy,
)
from .utility import UtilityParams

THREADS_ENV = "MERTON_RISK_THREADS"


def thread_cap() -> int:
    """Parallelism cap from the environment (>= 1)."""
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _cost_pieces(model: MarketModel, strategy: DeterministicStrategy,
                 utility: UtilityParams, x: float):
    cum = cumulants(model, strategy)
    nodes = cum.nodes
    dt = np.diff(nodes)
    g1, g2 = utility.gamma1, utility.gamma2

    R_nodes = model.R(nodes)
    ydt_nodes = cum.ydt.values
    ynn_nodes = cum.ynn.values
    r_slope = np.diff(R_nodes) / dt
    ydt_slope = cum.ydt.slopes()
    ynn_slope = cum.ynn.slopes()

    k1 = 0.5 * g1 * (1.0 - g1)
    offsets = (g1 * cum.cons_a + g1 * R_nodes[:-1]
               + g1 * ydt_nodes[:-1] - k1 * ynn_nodes[:-1])
    slopes = (g1 * cum.cons_b + g1 * r_slope
              + g1 * ydt_slope - k1 * ynn_slope)

    V_T = cum.V_T()
    k2 = 0.5 * g2 * (1.0 - g2)
    terminal = np.exp(g2 * (R_nodes[-1] - V_T)
                      + g2 * ydt_nodes[-1] - k2 * ynn_nodes[-1])
    return cum, dt, offsets, slopes, terminal


def cost_closed_form(model: MarketModel, strategy: DeterministicStrategy,
                     utility: UtilityParams, x: float) -> float:
    """Expected cost J(x, strategy), exact per breakpoint interval."""
    _, dt, offsets, slopes, terminal = _cost_pieces(model, strategy, utility, x)
    finite = np.isfinite(offsets)
    consumption = 0.0
    if np.any(finite):
        consumption = float(np.sum(exp_affine_segment(
            offsets[finite], slopes[finite], dt[finite])))
    g1, g2 = utility.gamma1, utility.gamma2
    return x ** g1 * consumption + x ** g2 * float(terminal)


def cost_quadrature(model: MarketModel, strategy: DeterministicStrategy,
                    utility: UtilityParams, x: float,
                    rtol: float = 1e-10) -> float:
    """Same cost via adaptive quadrature per interval (cross-check route)."""
    _, dt, offsets, slopes, terminal = _cost_pieces(model, strategy, utility, x)
    consumption = 0.0
    for j in range(len(dt)):
        if not np.isfinite(offsets[j]):
            continue
        val, _ = integrate.quad(
            lambda u, j=j: np.exp(offsets[j] + slopes[j] * u),
            0.0, dt[j], epsrel=rtol, epsabs=0.0, limit=200)
        consumption += val
    g1, g2 = utility.gamma1, utility.gamma2
    return x ** g1 * consumption + x ** g2 * float(terminal)


def log_risk_functional(model: MarketModel, strategy: DeterministicStrategy,
                        spec: RiskSpec, t):
    """Additive constraint functional; bound holds iff >= ln(1-zeta)."""
    cum = cumulants(model, strategy)
    if spec.kind == MeasureKind.VAR:
        out = log_risk_var(cum, spec.quantile, t)
    else:
        out = log_risk_es(cum, spec.quantile, t)
    return float(out) if np.ndim(t) == 0 else out


# ---------------------------------------------------------------------------
# Grid-search oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyConfig:
    """Finite search family: exposure along the theta direction, step rates.

    Exposure candidates are y = rho * theta_t / ||theta||_T for rho on
    rho_grid (y = 0 is always included).  Consumption candidates are
    piecewise-constant with v_pieces equal intervals and levels drawn from
    v_levels; for v_pieces > 1 the levels are refined by coordinate descent
    on the grid (the cost is concave along each coordinate).
    """

    rho_grid: np.ndarray
    v_levels: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    v_pieces: int = 1
    coordinate_passes: int = 3
    n_profile: int = 2001
    random_directions: int = 0
    seed: int = 0


@dataclass(frozen=True)
class OracleRecord:
    rho: float
    v_levels: tuple
    feasible: bool
    cost: float
    label: str = "theta_direction"


@dataclass(frozen=True)
class OracleResult:
    best_cost: float
    best_strategy: DeterministicStrategy
    records: tuple

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["label", "rho", "v_levels", "feasible", "cost"])
            for rec in self.records:
                writer.writerow([
                    rec.label, f"{rec.rho:.12g}",
                    " ".join(f"{v:.8g}" for v in rec.v_levels),
                    int(rec.feasible),
                    f"{rec.cost:.12g}" if np.isfinite(rec.cost) else "nan",
                ])


def _make_candidate(model: MarketModel, rho: float, levels,
                    v_pieces: int) -> DeterministicStrategy:
    horizon = model.horizon
    levels = np.atleast_1d(np.asarray(levels, dtype=np.float64))
    if len(levels) == 1 and v_pieces == 1:
        if rho == 0.0 or model.theta_norm_T == 0.0:
            return constant_strategy(np.zeros(model.dimension),
                                     float(levels[0]), horizon)
        strat = theta_direction_strategy(model, rho)
        if levels[0] == 0.0:
            return strat
        return DeterministicStrategy(
            y_path=strat.y_path,
            consumption=constant_strategy(
                np.zeros(model.dimension), float(levels[0]), horizon
            ).consumption,
        )
    edges = np.linspace(0.0, horizon, len(levels) + 1)[:-1]
    v_segments = [(float(t0), float(w)) for t0, w in zip(edges, levels)]
    if rho == 0.0 or model.theta_norm_T == 0.0:
        y_segments = [(0.0, np.zeros(model.dimension))]
        return step_strategy(y_segments, v_segments, horizon)
    base = theta_direction_strategy(model, rho)
    cons = step_strategy([(0.0, np.zeros(model.dimension))],
                         v_segments, horizon).consumption
    return DeterministicStrategy(y_path=base.y_path, consumption=cons)


def grid_search_oracle(model: MarketModel, utility: UtilityParams,
                       spec: RiskSpec | None, x: float,
                       config: FamilyConfig) -> OracleResult:
    """Best feasible candidate in the family; independent solver check.

    Raises EmptyFeasibleSet when the family is empty or fully infeasible.
    Candidate evaluations are pure and run on a deterministic-order thread
    pool capped by MERTON_RISK_THREADS.
    """
    rho_in = np.asarray(config.rho_grid, dtype=np.float64)
    lvl_in = np.asarray(config.v_levels, dtype=np.float64)
    if rho_in.size == 0 and lvl_in.size == 0:
        raise EmptyFeasibleSet("the candidate family is empty")
    rhos = np.unique(np.concatenate([[0.0], rho_in]))
    if model.theta_norm_T == 0.0:
        rhos = np.array([0.0])
    levels = np.unique(lvl_in) if lvl_in.size else np.array([0.0])

    def evaluate(strategy):
        if spec is not None:
            profile = constraint_profile(model, strategy, spec, x,
                                         n_refine=config.n_profile)
            if not profile.satisfied():
                return False, -np.inf
        return True, cost_closed_form(model, strategy, utility, x)

    records = []
    best = (-np.inf, None)

    # pure investment along theta, pure constant consumption, and a coarse
    # cartesian of the two (the fine cross product is never needed: the
    # closed-form optima are attained on the axes or by the piecewise
    # refinement below)
    candidates = [(float(r), (0.0,)) for r in rhos]
    candidates += [(0.0, (float(w),)) for w in levels if w > 0]
    rho_coarse = rhos[:: max(1, len(rhos) // 25)]
    lvl_coarse = levels[:: max(1, len(levels) // 10)]
    candidates += [(float(r), (float(w),))
                   for r in rho_coarse if r > 0
                   for w in lvl_coarse if w > 0]
    with ThreadPoolExecutor(max_workers=thread_cap()) as pool:
        strategies = [_make_candidate(model, r, w, 1) for r, w in candidates]
        results = list(pool.map(evaluate, strategies))
    for (rho, w), strat, (feasible, cost) in zip(candidates, strategies, results):
        records.append(OracleRecord(rho=rho, v_levels=w,
                                    feasible=feasible, cost=cost))
        if feasible and cost > best[0]:
            best = (cost, strat)

    if config.random_directions > 0 and model.theta_norm_T > 0:
        rng = np.random.default_rng(config.seed)
        horizon = model.horizon
        for _ in range(config.random_directions):
            u = rng.standard_normal(model.dimension)
            u /= np.linalg.norm(u)
            rho = float(rng.choice(rhos[rhos > 0])) if np.any(rhos > 0) else 0.0
            strat = constant_strategy(rho * u / np.sqrt(horizon), 0.0, horizon)
            feasible, cost = evaluate(strat)
            records.append(OracleRecord(rho=rho, v_levels=(0.0,),
                                        feasible=feasible, cost=cost,
                                        label="random_direction"))
            if feasible and cost > best[0]:
                best = (cost, strat)

    if config.v_pieces > 1 and best[1] is not None:
        # coordinate descent from the best single-level candidate
        best_rec = max((r for r in records if r.feasible),
                       key=lambda r: r.cost, default=None)
        if best_rec is not None:
            best_rho = best_rec.rho
            current = np.full(config.v_pieces, best_rec.v_levels[0])
            best_cost = best_rec.cost
            for _ in range(config.coordinate_passes):
                improved = False
                for i in range(config.v_pieces):
                    for w in levels:
                        trial = current.copy()
                        trial[i] = w
                        if np.array_equal(trial, current):
                            continue
                        strat = _make_candidate(model, best_rho, trial,
                                                config.v_pieces)
                        feasible, cost = evaluate(strat)
                        records.append(OracleRecord(
                            rho=best_rho, v_levels=tuple(trial),
                            feasible=feasible, cost=cost,
                            label="coordinate_descent"))
                        if feasible and cost > best_cost + 1e-15:
                            best_cost, current, improved = cost, trial, True
                if not improved:
                    break
            strat = _make_candidate(model, best_rho, current, config.v_pieces)
            feasible, cost = evaluate(strat)
            if feasible and cost > best[0]:
                best = (cost, strat)

    if best[1] is None:
        raise EmptyFeasibleSet("no candidate in the family satisfies the bound")
    return OracleResult(best_cost=float(best[0]), best_strategy=best[1],
                        records=tuple(records))
