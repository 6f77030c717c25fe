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

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._piecewise import (
    exp_affine_segment,
    from_ticks,
    merge_ticks,
    segment_index,
    to_ticks,
)
from ._table import write_rows
from .errors import EmptyFeasibleSet
from .market import MarketModel
from .risk import (
    SATURATION_TOL,
    MeasureKind,
    RiskSpec,
    log_risk_es,
    log_risk_var,
    max_ratios,
)
from .strategies import (
    Cumulants,
    DeterministicStrategy,
    cumulants,
    step_cumulants,
    step_strategy,
)
from .utility import UtilityParams

# Oracle candidates screened and costed together: bounds the (candidates x
# profile grid) arrays of the screen to a few MB.
_CHUNK = 32


def _cost_pieces(cum: Cumulants, utility: UtilityParams):
    """Interval lengths, exp-affine offsets and slopes of the consumption
    integrand, and the terminal term; a batch adds a leading axis."""
    model = cum.model
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
               + g1 * ydt_nodes[..., :-1] - k1 * ynn_nodes[..., :-1])
    slopes = (g1 * cum.cons_b + g1 * r_slope
              + g1 * ydt_slope - k1 * ynn_slope)

    V_T = cum.V_T()
    k2 = 0.5 * g2 * (1.0 - g2)
    terminal = np.exp(g2 * (R_nodes[-1] - V_T)
                      + g2 * ydt_nodes[..., -1] - k2 * ynn_nodes[..., -1])
    return dt, offsets, slopes, terminal


def _cost(cum: Cumulants, utility: UtilityParams, x: float):
    """J(x, .) for the strategy or each strategy of the batch in cum."""
    dt, offsets, slopes, terminal = _cost_pieces(cum, utility)
    # offsets are -inf where nothing is consumed; those intervals add exp(-inf) = 0
    consumption = np.sum(exp_affine_segment(offsets, slopes, dt), axis=-1)
    g1, g2 = utility.gamma1, utility.gamma2
    return x ** g1 * consumption + x ** g2 * terminal


def cost_closed_form(model: MarketModel, strategy: DeterministicStrategy,
                     utility: UtilityParams, x: float) -> float:
    """Expected cost J(x, strategy), exact per breakpoint interval."""
    return float(_cost(cumulants(model, strategy), utility, x))


def cost_quadrature(model: MarketModel, strategy: DeterministicStrategy,
                    utility: UtilityParams, x: float,
                    rtol: float = 1e-10) -> float:
    """Same cost via adaptive quadrature per interval (cross-check route)."""
    # slow to import, and no command takes this cross-check route
    from scipy import integrate

    dt, offsets, slopes, terminal = _cost_pieces(cumulants(model, strategy), utility)
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
        write_rows(path, ["label", "rho", "v_levels", "feasible", "cost"], (
            (rec.label, f"{rec.rho:.12g}",
             " ".join(f"{v:.8g}" for v in rec.v_levels),
             "1" if rec.feasible else "0",
             f"{rec.cost:.12g}" if np.isfinite(rec.cost) else "nan")
            for rec in self.records))


def _step_candidate(model: MarketModel, node_ticks: np.ndarray, y, v):
    """The strategy holding y (k or 1, d) and v (k,) on node_ticks' intervals."""
    starts = from_ticks(node_ticks[:-1])
    y = np.broadcast_to(y, v.shape + np.shape(y)[-1:])
    return step_strategy(list(zip(starts, y)), list(zip(starts, v)), model.horizon)


def _theta_exposures(model: MarketModel, node_ticks: np.ndarray, rhos):
    """(K, k, d) exposures rho theta_t / ||theta||_T on the intervals of
    node_ticks, zero when theta vanishes."""
    theta = model.theta_step[segment_index(model.node_ticks, node_ticks[:-1])]
    tn = model.theta_norm_T
    scale = np.asarray(rhos) / tn if tn > 0 else np.zeros(len(rhos))
    return scale[:, None, None] * theta


def _evaluate(model: MarketModel, utility: UtilityParams, spec: RiskSpec | None,
              x: float, n_profile: int, node_ticks: np.ndarray, y, v):
    """Feasibility flags and costs (-inf when infeasible) of step candidates.

    y : (K or 1, k, d) exposures and v : (K, k) consumption rates on the
    intervals of node_ticks; candidates go through in chunks of _CHUNK.
    """
    v = np.asarray(v, dtype=np.float64)
    y = np.broadcast_to(y, v.shape + np.shape(y)[-1:])
    feasible = np.ones(len(v), dtype=bool)
    costs = np.empty(len(v))
    for lo in range(0, len(v), _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        cum = step_cumulants(model, node_ticks, y[rows], v[rows])
        if spec is not None:
            feasible[rows] = max_ratios(cum, spec, x, n_profile) <= 1.0 + SATURATION_TOL
        costs[rows] = _cost(cum, utility, x)
    return feasible, np.where(feasible, costs, -np.inf)


def grid_search_oracle(model: MarketModel, utility: UtilityParams,
                       spec: RiskSpec | None, x: float,
                       config: FamilyConfig) -> OracleResult:
    """Best feasible candidate in the family; independent solver check.

    Raises EmptyFeasibleSet when the family is empty or fully infeasible.
    The candidates of each search stage share one node partition, so they
    are screened against the bound and costed as one batch of generic
    cumulants; no solver formula enters.
    """
    rho_in = np.asarray(config.rho_grid, dtype=np.float64)
    lvl_in = np.asarray(config.v_levels, dtype=np.float64)
    if rho_in.size == 0 and lvl_in.size == 0:
        raise EmptyFeasibleSet("the candidate family is empty")
    rhos = np.unique(np.concatenate([[0.0], rho_in]))
    if model.theta_norm_T == 0.0:
        rhos = np.array([0.0])
    levels = np.unique(lvl_in) if lvl_in.size else np.array([0.0])
    evaluate = partial(_evaluate, model, utility, spec, x, config.n_profile)
    horizon = model.horizon
    n_steps = len(model.node_ticks) - 1

    records = []
    best = (-np.inf, None)       # cost and (node_ticks, y, v) of the best candidate

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
    y = _theta_exposures(model, model.node_ticks, [r for r, _ in candidates])
    v = np.repeat([[w[0]] for _, w in candidates], n_steps, axis=1)
    feasible, costs = evaluate(model.node_ticks, y, v)
    for k, ((rho, w), ok, cost) in enumerate(zip(candidates, feasible, costs)):
        records.append(OracleRecord(rho=rho, v_levels=w,
                                    feasible=bool(ok), cost=float(cost)))
        if ok and cost > best[0]:
            best = (cost, (model.node_ticks, y[k], v[k]))

    if config.random_directions > 0 and model.theta_norm_T > 0:
        rng = np.random.default_rng(config.seed)
        draw_rho, draw_y = [], []
        for _ in range(config.random_directions):
            u = rng.standard_normal(model.dimension)
            u /= np.linalg.norm(u)
            rho = float(rng.choice(rhos[rhos > 0])) if np.any(rhos > 0) else 0.0
            draw_rho.append(rho)
            draw_y.append(rho * u / np.sqrt(horizon))
        y = np.array(draw_y)[:, None, :]
        v = np.zeros((len(draw_y), n_steps))
        feasible, costs = evaluate(model.node_ticks, y, v)
        for k, (rho, ok, cost) in enumerate(zip(draw_rho, feasible, costs)):
            records.append(OracleRecord(rho=rho, v_levels=(0.0,),
                                        feasible=bool(ok), cost=float(cost),
                                        label="random_direction"))
            if ok and cost > best[0]:
                best = (cost, (model.node_ticks, y[k], v[k]))

    if config.v_pieces > 1 and best[1] is not None:
        # coordinate descent from the best single-level candidate
        best_rec = max((r for r in records if r.feasible),
                       key=lambda r: r.cost, default=None)
        if best_rec is not None:
            best_rho = best_rec.rho
            current = np.full(config.v_pieces, best_rec.v_levels[0])
            best_cost = best_rec.cost
            piece_ticks = to_ticks(np.linspace(0.0, horizon, config.v_pieces + 1))
            node_ticks = merge_ticks(model.node_ticks, piece_ticks)
            piece = segment_index(piece_ticks, node_ticks[:-1])
            y = _theta_exposures(model, node_ticks, [best_rho])
            for _ in range(config.coordinate_passes):
                improved = False
                for i in range(config.v_pieces):
                    # every level of coordinate i at once, then the sequential
                    # acceptance rule replayed over the results
                    trials = np.repeat(current[None, :], len(levels), axis=0)
                    trials[:, i] = levels
                    feasible, costs = evaluate(node_ticks, y, trials[:, piece])
                    for trial, ok, cost in zip(trials, feasible, costs):
                        if np.array_equal(trial, current):
                            continue
                        records.append(OracleRecord(
                            rho=best_rho, v_levels=tuple(trial),
                            feasible=bool(ok), cost=float(cost),
                            label="coordinate_descent"))
                        if ok and cost > best_cost + 1e-15:
                            best_cost, current, improved = cost, trial, True
                if not improved:
                    break
            v = current[None, piece]
            feasible, costs = evaluate(node_ticks, y, v)
            if feasible[0] and costs[0] > best[0]:
                best = (costs[0], (node_ticks, y[0], v[0]))

    if best[1] is None:
        raise EmptyFeasibleSet("no candidate in the family satisfies the bound")
    return OracleResult(best_cost=float(best[0]),
                        best_strategy=_step_candidate(model, *best[1]),
                        records=tuple(records))
