"""Closed-form cost of deterministic strategies and a grid-search oracle.

For any strategy in the lognormal class the expected cost splits into a
consumption integral and a terminal term,

    J = x^g1 int_0^T (v e^{-V})^{g1} e^{g1 R} h1(t) dt
        + x^g2 e^{g2 (R_T - V_T)} h2(T),
    h_i(t) = exp(g_i (y,theta)_t - g_i(1-g_i)/2 ||y||_t^2),

whose integrand is exp(affine) on every breakpoint interval for the
supported strategy families, so the integral is evaluated exactly.  A
constrained grid search over an exposure/consumption family brackets the
solver optima from below.

The bound must hold at every t of a profile grid.  Each evaluation takes
its candidates through three stages: it builds their cumulants, costs them
and screens them at t = T in one batch; it certifies the survivors with a
lower bound of the log risk functional per node interval
(risk.certified_feasible); and it checks only the survivors left unproved
on the whole grid, from cumulants built again on their rows of the
controls.  A candidate above the bound at T is above it on the grid, and a
certified one is below it at every grid point as computed, so the verdict
is the one-pass verdict, bit for bit.  Each node partition's plan
(strategies.EvaluationPlan: dt, theta and R on its intervals, and where T
and the profile grid's times fall on its nodes) is built once per search,
and every evaluation on the partition reads it, its exposures along theta
included; the screen at T and the grid evaluate the curves alike.

The search keeps its candidates as columns, one numpy record array per
stage (label, rho, consumption levels, feasible flag and cost), from the
arrays the evaluation returns to oracle.csv, whose layout is one line per
candidate as before.  Its answer is the cost of the first best feasible
record, with no closing evaluation.  The coordinate descent evaluates the
trials of a run of coordinates in one batch and each distinct trial once
(_coordinate_descent), and records what one evaluation per coordinate
would.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._piecewise import ascending_unique, exp_affine_segment, merge_ticks, segment_index, to_ticks
from ._table import write_table
from .errors import EmptyFeasibleSet
from .market import MarketModel
from .risk import (
    SATURATION_TOL,
    RiskSpec,
    certified_feasible,
    max_ratios,
    profile_grid,
)
from .strategies import (
    Cumulants,
    DeterministicStrategy,
    EvaluationPlan,
    cumulants,
    step_cumulants,
)
from .utility import UtilityParams

# Oracle candidates costed and screened at t = T together: bounds their
# (candidates x intervals) arrays to about a MB; a search stage larger than
# this (a fine exposure step) goes through in several batches.
_BATCH_ROWS = 1024
# Survivors of the screen at T that the node-interval certificate leaves
# unproved, checked together on the whole profile grid:
# bounds their (candidates x 2,001+ points) arrays to a few MB.  A factor
# shared by the whole batch keeps one row in both stages.
_CHUNK = 32
COORDINATE_PASSES = 3    # sweeps of the coordinate descent over v levels
N_PROFILE = 2001         # uniform times of the feasibility screen's grid


def _cost_pieces(cum: Cumulants, utility: UtilityParams, plan: EvaluationPlan):
    """Interval lengths, exp-affine offsets and slopes of the consumption
    integrand, and the terminal term; a batch adds a leading axis.  plan is
    on cum's partition."""
    dt = plan.dt
    g1, g2 = utility.gamma1, utility.gamma2
    ydt_nodes = cum.ydt.values
    ynn_nodes = cum.ynn.values
    V_T, cons_a, cons_b = cum.cost_terms()

    k1 = 0.5 * g1 * (1.0 - g1)
    offsets = (g1 * cons_a + g1 * plan.R[:-1]
               + g1 * ydt_nodes[..., :-1] - k1 * ynn_nodes[..., :-1])
    slopes = (g1 * cons_b + g1 * plan.R_slopes
              + g1 * cum.ydt.slopes - k1 * cum.ynn.slopes)

    k2 = 0.5 * g2 * (1.0 - g2)
    terminal = np.exp(g2 * (plan.R[-1] - V_T)
                      + g2 * ydt_nodes[..., -1] - k2 * ynn_nodes[..., -1])
    return dt, offsets, slopes, terminal


def _cost(cum: Cumulants, utility: UtilityParams, x: float, plan: EvaluationPlan):
    """J(x, .) for the strategy or each strategy of the batch in cum."""
    dt, offsets, slopes, terminal = _cost_pieces(cum, utility, plan)
    # offsets are -inf where nothing is consumed; those intervals add exp(-inf) = 0
    consumption = np.sum(exp_affine_segment(offsets, slopes, dt), axis=-1)
    g1, g2 = utility.gamma1, utility.gamma2
    return x ** g1 * consumption + x ** g2 * terminal


def cost_closed_form(model: MarketModel, strategy: DeterministicStrategy,
                     utility: UtilityParams, x: float) -> float:
    """Expected cost J(x, strategy), exact per breakpoint interval."""
    cum = cumulants(model, strategy)
    return float(_cost(cum, utility, x, EvaluationPlan.build(model, cum.node_ticks, x, None)))


# ---------------------------------------------------------------------------
# Grid-search oracle
# ---------------------------------------------------------------------------

def _stage_block(label: str, rho, levels, feasible, cost) -> np.recarray:
    """One search stage's candidates as a record array: the stage label,
    rho, the (n, k) consumption levels, the feasibility flag and the cost
    (-inf when infeasible)."""
    block = np.recarray(len(levels), dtype=[
        ("label", f"U{len(label)}"), ("rho", "f8"),
        ("v_levels", "f8", levels.shape[1:]), ("feasible", "?"), ("cost", "f8")])
    block["label"], block["rho"], block["v_levels"] = label, rho, levels
    block["feasible"], block["cost"] = feasible, cost
    return block


def _level_text(levels: np.ndarray) -> list:
    """Each row of the (n, k) levels as k '.8g' fields joined by spaces."""
    n, k = levels.shape
    template = ("%.8g " * (k - 1) + "%.8g\n") * n
    return (template % tuple(levels.ravel().tolist())).splitlines()


@dataclass(frozen=True)
class OracleRecords:
    """Every candidate of a search in order, kept as one record array per
    stage (_stage_block); iteration gives one numpy record per candidate."""

    stages: tuple

    def __len__(self) -> int:
        return sum(len(stage) for stage in self.stages)

    def __iter__(self):
        return chain.from_iterable(self.stages)


@dataclass(frozen=True)
class OracleResult:
    best_cost: float           # the first largest feasible cost of the records
    records: OracleRecords

    def write_csv(self, path) -> None:
        """One line per candidate, stage by stage; a non-finite cost is
        written as nan."""
        stages = self.records.stages

        def column(name):
            return np.concatenate([stage[name] for stage in stages])

        cost = column("cost")
        write_table(path, ["label", "rho", "v_levels", "feasible", "cost"], [
            column("label"), column("rho"),
            list(chain.from_iterable(_level_text(stage.v_levels) for stage in stages)),
            column("feasible"), np.where(np.isfinite(cost), cost, np.nan),
        ], ["s", ".12g", "s", "d", ".12g"])


def _theta_exposures(plan: EvaluationPlan, rhos):
    """(K, k, d) exposures rho theta_t / ||theta||_T on the intervals of
    plan's partition, zero when theta vanishes."""
    tn = plan.model.theta_norm_T
    scale = np.asarray(rhos) / tn if tn > 0 else np.zeros(len(rhos))
    return scale[:, None, None] * plan.theta


def _rows(factors, rows) -> tuple:
    """The rows of each (y or v) factor; a factor with one row is shared by
    every candidate and stays whole."""
    return tuple(f if len(f) == 1 else f[rows] for f in factors)


def _evaluate(plan: EvaluationPlan, utility: UtilityParams, spec: RiskSpec | None,
              x: float, y, v):
    """Feasibility flags and costs (-inf when infeasible) of step candidates.

    y : (K or 1, k, d) exposures and v : (K or 1, k) consumption rates on the
    intervals of plan's partition; plan has the profile grid's points when
    spec bounds the risk.  A factor with one row is shared by every
    candidate and enters the cumulants, screen and cost once, unbroadcast.

    The cumulants of up to _BATCH_ROWS candidates are built in one batch, which
    is costed and screened at the grid's last point t = T alone.  Those that
    pass and that certified_feasible does not prove feasible from the node
    values are checked on the whole grid _CHUNK at a time, from cumulants
    built on their rows of y and v.  The verdict is the one-pass verdict: a
    ratio above the bound at T is above it on the grid; a certified
    candidate's computed ratio is within the bound at every point of any
    grid; and each point's ratio is elementwise, so its bits do not depend
    on the rows or points that share the array.  Each candidate's curves and cost are sums along
    its own row, so they too do not depend on the batch (tests pin both),
    once y and v are C-ordered: numpy sums a row of a Fortran-ordered array
    in sequence rather than pairwise.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    v = np.ascontiguousarray(v, dtype=np.float64)
    n, = np.broadcast_shapes(np.shape(y)[:1], v.shape[:1])
    feasible = np.ones(n, dtype=bool)
    costs = np.empty(n)
    for lo in range(0, n, _BATCH_ROWS):
        rows = slice(lo, lo + _BATCH_ROWS)
        batch = _rows((y, v), rows)
        cum = step_cumulants(plan, *batch)
        costs[rows] = _cost(cum, utility, x, plan)
        if spec is None:
            continue
        ok = max_ratios(cum, spec, x, plan.screen) <= 1.0 + SATURATION_TOL
        unproved = np.flatnonzero(ok & ~certified_feasible(cum, spec, x, plan))
        for at in range(0, len(unproved), _CHUNK):
            part = unproved[at:at + _CHUNK]
            ratios = max_ratios(step_cumulants(plan, *_rows(batch, part)), spec, x,
                                plan.profile)
            ok[part] = ratios <= 1.0 + SATURATION_TOL
        feasible[rows] = ok
    return feasible, np.where(feasible, costs, -np.inf)


def _first_best(stages) -> int | None:
    """Index, over the stages' records in order, of the first largest
    feasible cost, or None when no record is feasible; a NaN cost never
    counts."""
    cost = np.concatenate([stage.cost for stage in stages])
    ok = np.concatenate([stage.feasible for stage in stages]) & (cost > -np.inf)
    return int(np.argmax(np.where(ok, cost, -np.inf))) if ok.any() else None


def _coordinate_descent(evaluate, rho: float, levels, current,
                        current_cost: float) -> list:
    """Stage blocks of a coordinate descent from the level row current, of
    cost current_cost: a pass sets each entry c in turn to every level and
    moves to the first feasible trial above current_cost + 1e-15; block c
    keeps every trial but current itself.  Passes stop after one with no
    move, or after COORDINATE_PASSES.  evaluate maps (n, len(current)) level
    rows to flags and costs, the same bits in any batch.

    A block that moved is taken to predict a move at the next coordinate,
    and one that did not, none: after a move, and at the descent's start,
    one evaluate call takes the next coordinate's trials alone; after a
    block with no move it takes those of every coordinate left in the pass,
    all from current.  A move at c drops the later blocks, and the next
    call starts at c + 1.  A call sends only the trials this descent has
    not evaluated yet, each once, keyed by their bytes (so -0.0 and 0.0
    differ).
    """
    v_pieces, n_levels = len(current), len(levels)
    row_key = np.dtype((np.void, current.itemsize * v_pieces))
    memo = {}                    # trial row bytes -> its entry in flags, costs
    flags, costs = np.empty(0, bool), np.empty(0)
    blocks = []
    moved = True
    for _ in range(COORDINATE_PASSES):
        improved = False
        i = 0
        while i < v_pieces:
            stop = i + 1 if moved else v_pieces
            # trials[c - i, j]: current with entry c set to levels[j]
            trials = np.tile(current, (stop - i, n_levels, 1))
            coordinates = np.arange(i, stop)
            trials[coordinates - i, :, coordinates] = levels
            seen = len(memo)
            index = np.array([memo.setdefault(key, len(memo))
                              for key in trials.view(row_key).ravel().tolist()])
            new = index >= seen
            # the trials new to the memo, each at its first occurrence
            _, first = np.unique(index[new], return_index=True)
            if first.size:
                feasible, values = evaluate(trials.reshape(-1, v_pieces)[new][first])
                flags = np.concatenate((flags, feasible))
                costs = np.concatenate((costs, values))
            index = index.reshape(stop - i, n_levels)
            for c in coordinates.tolist():
                block, at = trials[c - i], index[c - i]
                kept, moved = [], False
                for j, (level, ok, cost) in enumerate(zip(
                        levels.tolist(), flags[at].tolist(), costs[at].tolist())):
                    # trial j differs from current in entry c alone
                    if level == current[c]:
                        continue
                    kept.append(j)
                    if ok and cost > current_cost + 1e-15:
                        current_cost, current, moved = cost, block[j], True
                blocks.append(_stage_block("coordinate_descent", rho, block[kept],
                                           flags[at[kept]], costs[at[kept]]))
                if moved:
                    break
            improved |= moved
            i = c + 1
        if not improved:
            break
    return blocks


def grid_search_oracle(model: MarketModel, utility: UtilityParams,
                       spec: RiskSpec | None, x: float, rho_grid,
                       v_levels=(0.0,), v_pieces: int = 1) -> OracleResult:
    """Best feasible cost in a finite family; independent solver check.

    Exposure candidates are y = rho theta_t / ||theta||_T for rho on
    rho_grid (y = 0 is always included).  Consumption candidates are
    piecewise constant with v_pieces equal intervals and levels drawn from
    v_levels; for v_pieces > 1 the levels are refined by coordinate descent
    on the grid in COORDINATE_PASSES sweeps (the cost is concave along each
    coordinate), one evaluation per run of coordinates and none twice for a
    trial (_coordinate_descent).  The answer is the first largest feasible
    cost among the records, in the order oracle.csv lists them.

    Raises EmptyFeasibleSet when the family is empty or fully infeasible.
    The candidates of each search stage share one node partition, so they
    are screened against the bound and costed in batches of generic
    cumulants; no solver formula enters.
    """
    rho_in = np.asarray(rho_grid, dtype=np.float64)
    lvl_in = np.asarray(v_levels, dtype=np.float64)
    if rho_in.size == 0 and lvl_in.size == 0:
        raise EmptyFeasibleSet("the candidate family is empty")
    rhos = ascending_unique(np.concatenate([[0.0], rho_in]))
    if model.theta_norm_T == 0.0:
        rhos = np.array([0.0])
    levels = ascending_unique(lvl_in) if lvl_in.size else np.array([0.0])
    horizon = model.horizon

    def plan_on(node_ticks):
        """The plan of node_ticks, built once per search."""
        grid = None if spec is None else profile_grid(node_ticks, horizon, N_PROFILE)
        return EvaluationPlan.build(model, node_ticks, x, grid)

    market_plan = plan_on(model.node_ticks)
    n_steps = len(model.node_ticks) - 1

    # pure investment along theta, pure constant consumption, and a coarse
    # cartesian of the two (the fine cross product is never needed: the
    # closed-form optima are attained on the axes or by the piecewise
    # refinement below); each axis holds its zero factor as one shared row
    rho_coarse = rhos[:: max(1, len(rhos) // 25)]
    lvl_coarse = levels[:: max(1, len(levels) // 10)]
    product = np.array([(r, w) for r in rho_coarse if r > 0
                        for w in lvl_coarse if w > 0]).reshape(-1, 2).T
    stages = []
    for r_b, w_b in ((rhos, [0.0]), ([0.0], levels[levels > 0]), product):
        rho, level = np.broadcast_arrays(r_b, w_b)
        feasible, costs = _evaluate(
            market_plan, utility, spec, x, _theta_exposures(market_plan, r_b),
            np.repeat(np.reshape(w_b, (-1, 1)), n_steps, axis=1))
        stages.append(_stage_block("theta_direction", rho, level[:, None],
                                   feasible, costs))

    first = _first_best(stages)
    if v_pieces > 1 and first is not None:
        # coordinate descent from the best single-level candidate
        start = np.concatenate(stages)[first]
        piece_ticks = to_ticks(np.linspace(0.0, horizon, v_pieces + 1))
        node_ticks = merge_ticks(model.node_ticks, piece_ticks)
        piece = segment_index(piece_ticks, node_ticks[:-1])
        plan = plan_on(node_ticks)
        rho = float(start["rho"])
        y = _theta_exposures(plan, [rho])

        def evaluate(trials):
            return _evaluate(plan, utility, spec, x, y, trials[:, piece])

        stages += _coordinate_descent(evaluate, rho, levels,
                                      np.full(v_pieces, start["v_levels"][0]),
                                      float(start["cost"]))

    best = _first_best(stages)
    if best is None:
        raise EmptyFeasibleSet("no candidate in the family satisfies the bound")
    best_cost = np.concatenate([stage.cost for stage in stages])[best]
    return OracleResult(best_cost=float(best_cost), records=OracleRecords(tuple(stages)))
