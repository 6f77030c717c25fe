"""Closed-form cost, log risk functional, and the grid-search oracle."""

import contextlib
import csv
import io
import json
import tracemalloc
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import merton_risk.oracle as oracle_module
from merton_risk._piecewise import from_ticks, merge_ticks, segment_index, to_ticks
from merton_risk.bounded import solve_linear, solve_tight
from merton_risk.cli import main
from merton_risk.errors import EmptyFeasibleSet
from merton_risk.es_bound import ES, rho_es
from merton_risk.mc import SimConfig, estimate_cost, simulate_deterministic
from merton_risk.oracle import (
    _BATCH_ROWS,
    _CHUNK,
    N_PROFILE,
    _theta_exposures,
    cost_closed_form,
    grid_search_oracle,
)
from merton_risk.risk import (
    SATURATION_TOL,
    MeasureKind,
    RiskSpec,
    certified_feasible,
    constraint_profile,
    max_ratios,
    profile_grid,
)
from merton_risk.strategies import (
    DeterministicStrategy,
    EvaluationPlan,
    cumulants,
    scaled_theta_strategy,
    step_cumulants,
    step_strategy,
)
from merton_risk.utility import UtilityParams
from merton_risk.var_bound import VAR, rho_var

from conftest import bond_strategy, constant_market, random_market, random_strategy
from cross_checks import (
    coordinate_descent_per_coordinate,
    cost_quadrature,
    curve_at,
    evaluate_full_grid,
    log_risk_es,
    log_risk_var,
    max_ratios_per_call,
    satisfied,
)


def linear_cost_direct(model, strategy, x):
    """Independent linear-utility cost: x (int e^{R-V+(y,th)} v dt + e^{.}|_T).

    Dense per-interval trapezoid on the exact cumulant curves (the rate v
    jumps at breakpoints, so each interval is integrated separately).
    """
    cum = cumulants(model, strategy)
    integral = 0.0
    nodes = from_ticks(cum.node_ticks)
    for a, b in zip(nodes[:-1], nodes[1:]):
        ts = np.linspace(a, b, 20_001)
        expo = model.R(ts) - cum.V(ts) + cum.ydt(ts)
        v = float(strategy.v_at(model, np.array([0.5 * (a + b)]))[0])
        integral += np.trapezoid(np.exp(expo) * v, ts)
    T = model.horizon
    expo_T = model.R(T) - cum.V(T) + cum.ydt(T)
    return x * (integral + np.exp(expo_T))


def test_cost_zero_theta_linear_is_bond_value():
    # at zero rate and no excess return, every consumption plan nets x;
    # with r > 0 consuming early strictly loses interest (upper bound xe^{RT})
    m0 = constant_market(0.0, [0.0], [[0.3]], 2.0)
    u = UtilityParams(1.0, 1.0)
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = random_strategy(rng, m0, y_scale=0.0, v_scale=1.0)
        assert cost_closed_form(m0, s, u, 1.0) == pytest.approx(1.0,
                                                                rel=1e-12)
    m = constant_market(0.04, [0.04], [[0.3]], 2.0)
    for _ in range(10):
        s = random_strategy(rng, m, y_scale=0.0, v_scale=1.0)
        cost = cost_closed_form(m, s, u, 1.0)
        assert cost <= np.exp(0.08) + 1e-12
    s0 = random_strategy(rng, m, y_scale=0.0, v_scale=0.0)
    assert cost_closed_form(m, s0, u, 1.0) == pytest.approx(np.exp(0.08),
                                                            rel=1e-12)


def test_cost_pure_bond_power_utility():
    m = constant_market(0.0, [0.0], [[0.2]], 1.0)
    s = bond_strategy(m)
    assert cost_closed_form(m, s, UtilityParams(0.5, 0.5), 1.0) == 1.0
    assert cost_closed_form(m, s, UtilityParams(0.9, 0.5), 1.0) == 1.0


def test_cost_tight_consumption_plan(standard_market):
    spec = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    u = UtilityParams(0.5, 0.5)
    s = solve_tight(VAR, standard_market, u, spec, 1.0).strategy
    expected = np.sqrt(0.1) + np.sqrt(0.9)
    assert cost_closed_form(standard_market, s, u, 1.0) == pytest.approx(
        expected, rel=1e-13)


def test_cost_linear_reduction_matches_direct_formula(standard_market):
    rng = np.random.default_rng(7)
    u = UtilityParams(1.0, 1.0)
    for _ in range(5):
        s = random_strategy(rng, standard_market)
        direct = linear_cost_direct(standard_market, s, 1.3)
        assert cost_closed_form(standard_market, s, u, 1.3) == pytest.approx(
            direct, rel=1e-8)


def test_cost_closed_form_vs_quadrature_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = random_market(rng, d=int(rng.integers(1, 3)))
        s = random_strategy(rng, m)
        u = UtilityParams(float(rng.uniform(0.15, 1.0)),
                          float(rng.uniform(0.15, 1.0)))
        x = float(rng.uniform(0.5, 3.0))
        cf = cost_closed_form(m, s, u, x)
        cq = cost_quadrature(m, s, u, x)
        assert cf == pytest.approx(cq, rel=1e-10)


def test_cost_vs_monte_carlo_random_strategies():
    rng = np.random.default_rng(13)
    misses = 0
    for k in range(30):
        m = random_market(rng, max_pieces=3)
        s = random_strategy(rng, m, y_scale=0.5, v_scale=0.6)
        u = UtilityParams(float(rng.uniform(0.3, 1.0)),
                          float(rng.uniform(0.3, 1.0)))
        cf = cost_closed_form(m, s, u, 1.0)
        ens = simulate_deterministic(m, s, u, 1.0, SimConfig(
            n_paths=20_000, seed=1000 + k, n_steps=12))
        est, se = estimate_cost(ens, u)
        if abs(est - cf) > 4 * se:
            misses += 1
    assert misses == 0


def test_log_risk_functional_examples(standard_market):
    spec_v = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    spec_e = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.ES)
    bond = bond_strategy(standard_market)
    ts = np.linspace(0.0, 1.0, 9)
    bond_cum = cumulants(standard_market, bond)
    assert np.allclose(log_risk_var(bond_cum, spec_v.abs_z, ts),
                       0.0)
    assert np.allclose(log_risk_es(bond_cum, spec_e.abs_z, ts),
                       0.0)
    # the bound saturates at T for both linear optima
    sol_v = solve_linear(VAR, standard_market, spec_v, 1.0)
    assert log_risk_var(cumulants(standard_market, sol_v.strategy),
                        spec_v.abs_z, 1.0) \
        == pytest.approx(spec_v.log_bound(), abs=1e-12)
    sol_e = solve_linear(ES, standard_market, spec_e, 1.0)
    got = log_risk_es(cumulants(standard_market, sol_e.strategy), spec_e.abs_z, 1.0)
    assert abs(got - spec_e.log_bound()) < 1e-10


def test_oracle_dominated_by_solver_on_random_feasible():
    rng = np.random.default_rng(17)
    m = constant_market(0.0, [0.1], [[0.2]], 1.0)
    spec = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    u = UtilityParams(0.5, 0.5)
    j_star = solve_tight(VAR, m, u, spec, 1.0).value
    checked = 0
    for _ in range(2000):
        # scales matched to the tight budget so the sweep stays feasible often
        s = random_strategy(rng, m, y_scale=0.05, v_scale=0.12)
        prof = constraint_profile(m, s, spec, 1.0, np.linspace(0.0, m.horizon, 301))
        if not satisfied(prof, 1e-9):
            continue
        checked += 1
        assert cost_closed_form(m, s, u, 1.0) <= j_star * (1 + 1e-9)
    assert checked > 100  # the sweep actually exercised feasible strategies


def test_oracle_empty_family(standard_market):
    spec = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    with pytest.raises(EmptyFeasibleSet):
        grid_search_oracle(standard_market, UtilityParams(0.5, 0.5), spec,
                           1.0, np.array([]), v_levels=np.array([]))


def _first_best_record(records):
    """The first record of largest feasible cost, by a strict > over the
    records in order."""
    best = None
    for rec in records:
        if rec.feasible and rec.cost > (-np.inf if best is None else best.cost):
            best = rec
    return best


def test_oracle_tight_instance_structure(standard_market):
    spec = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    u = UtilityParams(0.5, 0.5)
    res = grid_search_oracle(standard_market, u, spec, 1.0, np.arange(0.0, 0.08, 4e-3),
                             v_levels=np.linspace(0.0, 0.2, 81), v_pieces=4)
    # the answer is the first best record's cost, bit for bit
    best = _first_best_record(res.records)
    assert res.best_cost == best.cost
    cum = cumulants(standard_market,
                    _rebuild_candidate(standard_market, best.rho, best.v_levels))
    assert np.sqrt(cum.ynn.end_value) == pytest.approx(0.0, abs=1e-12)
    assert float(cum.V(standard_market.horizon)) == pytest.approx(-np.log1p(-0.1), abs=5e-3)


def _rebuild_candidate(model, rho, v_levels):
    """The strategy behind an oracle candidate, built alone from the public
    constructors."""
    horizon = model.horizon
    edges = np.linspace(0.0, horizon, len(v_levels) + 1)[:-1]
    plan = step_strategy([(0.0, np.zeros(model.dimension))],
                         list(zip(edges, v_levels)), horizon)
    if rho == 0.0:
        return plan
    return DeterministicStrategy(
        y_path=scaled_theta_strategy(model, rho / model.theta_norm_T).y_path,
        consumption=plan.consumption)


def evaluate_on_grid(model, utility, spec, x, node_ticks, y, v):
    """_evaluate on the plan of node_ticks and its profile grid, as
    grid_search_oracle builds it."""
    grid = None if spec is None else profile_grid(node_ticks, model.horizon, N_PROFILE)
    return oracle_module._evaluate(EvaluationPlan.build(model, node_ticks, x, grid),
                                   utility, spec, x, y, v)


def _large_theta_market():
    """theta = 1.5 on [0, 1].  At alpha = 0.025, |z_alpha| < 2||theta||_T:
    the bound on exposures along theta binds inside (0, T), so at zeta = 0.15
    some of them pass at T and still break the bound on the profile grid."""
    return constant_market(0.0, [0.3], [[0.2]], 1.0)


def _flip_point(passes, lo, hi):
    """Adjacent floats lo < hi with passes(lo) and not passes(hi), by bisection."""
    assert passes(lo) and not passes(hi)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if passes(mid) else (lo, mid)
    return lo, hi


def _profile_edge(model, spec, x):
    """Largest rho whose theta-direction exposure passes constraint_profile,
    by bisection on its verdict."""
    def passes(rho):
        strategy = scaled_theta_strategy(model, rho / model.theta_norm_T)
        return satisfied(constraint_profile(model, strategy, spec, x,
                                            np.linspace(0.0, model.horizon, N_PROFILE)))
    return _flip_point(passes, 0.0, 1.0)[0]


@pytest.mark.parametrize("kind", [MeasureKind.VAR, MeasureKind.ES])
@pytest.mark.parametrize("v_pieces,large_theta", [
    pytest.param(1, False, id="1-0"),
    pytest.param(4, False, id="4-0"),
    pytest.param(4, True, id="4-0-large_theta"),
])
def test_oracle_batched_matches_looped(kind, v_pieces, large_theta):
    spec = RiskSpec(alpha=0.025, zeta=0.15, kind=kind)
    u = UtilityParams(0.6, 0.4)
    # exposures just inside and just outside the bound test the verdict there;
    # where the bound binds inside (0, T) the closed-form rho* is only the
    # edge at T, so the edge is found on the profile itself
    if large_theta:
        model = _large_theta_market()
        rho_star = _profile_edge(model, spec, 1.2)
    else:
        model = random_market(np.random.default_rng(23), d=2, max_pieces=3)
        rho_star = (rho_var if kind == MeasureKind.VAR else rho_es)(model, spec)
    edge = rho_star * np.array([1 - 1e-6, 1 + 1e-6])
    res = grid_search_oracle(model, u, spec, 1.2,
                             np.concatenate([np.arange(0.0, 0.3, 0.02), edge]),
                             v_levels=np.linspace(0.0, 0.4, 9), v_pieces=v_pieces)
    blocks = res.records.stages
    stages = {"theta_direction"} | ({"coordinate_descent"} if v_pieces > 1 else set())
    assert set(np.concatenate([b.label for b in blocks]).tolist()) == stages
    feasible = inner_breaks = 0
    for b in blocks:
        for rho, levels, ok, rec_cost in zip(b.rho, b.v_levels, b.feasible, b.cost):
            s = _rebuild_candidate(model, rho, levels)
            prof = constraint_profile(model, s, spec, 1.2,
                                      np.linspace(0.0, model.horizon, N_PROFILE))
            assert ok == satisfied(prof)
            inner_breaks += prof.ratio_curve[-1] <= 1.0 + SATURATION_TOL and not ok
            if ok:
                feasible += 1
                cost = cost_closed_form(model, s, u, 1.2)
                assert rec_cost == pytest.approx(cost, rel=1e-12)
            else:
                assert rec_cost == -np.inf
    assert 0 < feasible < len(res.records)
    single = [b for b in blocks if b.v_levels.shape[1] == 1]
    inside, outside = (
        np.concatenate([b.feasible[(b.rho == rho) & (b.v_levels[:, 0] == 0.0)]
                        for b in single])[0]
        for rho in edge)
    assert inside and not outside
    assert res.best_cost == pytest.approx(
        np.max(np.concatenate([b.cost[b.feasible] for b in blocks])), rel=1e-12)
    # a record that passes at T and fails inside (0, T)
    assert inner_breaks > 0 or not large_theta


@pytest.mark.parametrize("kind", [MeasureKind.VAR, MeasureKind.ES, None])
def test_evaluate_shared_factor_matches_broadcast(kind):
    """A one-row exposure or consumption factor, or both, gives the same
    bits as the factor repeated for every candidate."""
    rng = np.random.default_rng(31)
    model = random_market(rng, d=2, max_pieces=3)
    spec = None if kind is None else RiskSpec(alpha=0.025, zeta=0.15, kind=kind)
    node_ticks = merge_ticks(model.node_ticks,
                             to_ticks(np.linspace(0.0, model.horizon, 5)))
    n = 70                       # crosses two _CHUNK boundaries
    assert 2 * _CHUNK < n
    shape = (n, len(node_ticks) - 1)
    # rows scaled up from a tenth, so that both verdicts occur
    scale = np.linspace(0.1, 1.0, n)
    y = (rng.uniform(-0.15, 0.15, size=shape + (model.dimension,))
         * scale[:, None, None])
    v = rng.uniform(0.0, 0.3, size=shape) * (rng.random(shape) < 0.8) * scale[:, None]
    evaluate = partial(evaluate_on_grid, model, UtilityParams(0.6, 0.4), spec, 1.2,
                       node_ticks)
    for y_b, v_b in ((y[:1], v), (y, v[:1]), (y[:1], v[:1])):
        got = evaluate(y_b, v_b)
        want = evaluate(np.repeat(y_b, n // len(y_b), axis=0),
                        np.repeat(v_b, n // len(v_b), axis=0))
        assert len(got[0]) == max(len(y_b), len(v_b))
        for g, w in zip(got, want):
            assert np.array_equal(np.broadcast_to(g, w.shape), w)
        if spec is not None and len(got[0]) == n:
            assert 0 < np.sum(want[0]) < n


@pytest.mark.parametrize("kind", [MeasureKind.ES, None])
def test_evaluate_descent_batch_matches_one_row_evaluations(kind):
    """The coordinate descent's batch, its trials gathered onto the node
    intervals column by column (a Fortran-ordered array), costs each row
    with the bits of that row evaluated alone."""
    rng = np.random.default_rng(31)
    model = random_market(rng, d=2, max_pieces=3)
    spec = None if kind is None else RiskSpec(alpha=0.025, zeta=0.6, kind=kind)
    piece_ticks = to_ticks(np.linspace(0.0, model.horizon, 9))
    node_ticks = merge_ticks(model.node_ticks, piece_ticks)
    piece = segment_index(piece_ticks, node_ticks[:-1])
    trials = np.repeat(rng.uniform(0.0, 0.3, size=(1, 8)), 41, axis=0)
    trials[:, 3] = np.linspace(0.0, 0.4, 41)
    v = trials[:, piece]
    assert len(piece) > 8 and not v.flags.c_contiguous
    y = _theta_exposures(EvaluationPlan.build(model, node_ticks, 1.2, None), [0.2])
    evaluate = partial(evaluate_on_grid, model, UtilityParams(0.6, 0.4), spec, 1.2,
                       node_ticks, y)
    batch = evaluate(v)
    assert batch[0].all()
    alone = [evaluate(np.ascontiguousarray(v[j:j + 1])) for j in range(len(v))]
    for got, want in zip(batch, zip(*alone)):
        assert np.array_equal(got, np.concatenate(want))


@pytest.mark.parametrize("kind,rho", [(MeasureKind.VAR, 0.1), (MeasureKind.ES, 0.075)])
def test_evaluate_stacked_descent_batch_matches_one_row_evaluations(kind, rho, monkeypatch):
    """The descent's stacked batch, the trials of coordinates 1 to 7 from a
    constant level row after coordinate 0 found no move (that row left out,
    coordinate 0 sent it), gathered onto the node intervals, gives each row
    the flag and cost bits of that row evaluated alone, where some rows fail
    at T, some the certificate clears, and some reach the profile grid,
    which accepts some and rejects others."""
    model = _large_theta_market()
    spec = RiskSpec(alpha=0.025, zeta=0.1, kind=kind)
    piece_ticks = to_ticks(np.linspace(0.0, model.horizon, 9))
    node_ticks = merge_ticks(model.node_ticks, piece_ticks)
    piece = segment_index(piece_ticks, node_ticks[:-1])
    levels = np.linspace(0.0, 0.4, 41)
    batches = []

    def logged(trials):
        batches.append(trials)
        return np.zeros(len(trials), dtype=bool), np.full(len(trials), -np.inf)

    # no trial beats an infinite cost: coordinate 0 alone, then the rest of
    # the pass in one call, and no second pass
    oracle_module._coordinate_descent(logged, rho, levels, np.full(8, levels[1]), np.inf)
    first, trials = batches
    assert (len(first), len(trials)) == (len(levels), 7 * len(levels) - 7)
    v = trials[:, piece]
    y = _theta_exposures(EvaluationPlan.build(model, node_ticks, 1.2, None), [rho])
    evaluate = partial(evaluate_on_grid, model, UtilityParams(0.6, 0.4), spec, 1.2,
                       node_ticks, y)
    at_T, on_grid = _count_grid_rows(monkeypatch)
    feasible, costs = evaluate(v)
    survivors, to_grid = sum(at_T), sum(on_grid)
    rejected_on_grid = survivors - np.sum(feasible)
    # fails at T, certified, accepted and rejected on the grid
    assert survivors < len(v) and to_grid < survivors, (at_T, on_grid)
    assert 0 < rejected_on_grid < to_grid, (at_T, on_grid)
    alone = [evaluate(np.ascontiguousarray(v[j:j + 1])) for j in range(len(v))]
    assert np.array_equal(feasible, np.concatenate([f for f, _ in alone]))
    assert np.array_equal(_bits(costs), _bits(np.concatenate([c for _, c in alone])))


def _run_logged(monkeypatch, descend, search):
    """search() with descend as the oracle's coordinate descent: its result,
    the level rows of each evaluate call of the descent, and the descent's
    (evaluate, arguments, stage blocks)."""
    calls, descents = [], []

    def logged(evaluate, *args):
        def logging(trials):
            calls.append(np.array(trials))
            return evaluate(trials)
        blocks = descend(logging, *args)
        descents.append((evaluate, args, blocks))
        return blocks

    with monkeypatch.context() as m:
        m.setattr(oracle_module, "_coordinate_descent", logged)
        return search(), calls, descents


def _assert_same_search(got, want):
    assert _bits(got.best_cost) == _bits(want.best_cost)
    assert len(got.records.stages) == len(want.records.stages)
    for g, w in zip(got.records.stages, want.records.stages):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def _golden_search(problem, out, monkeypatch):
    """The OracleResult of solve --oracle on a golden problem, and the bytes
    of its oracle.csv."""
    results = []
    search = oracle_module.grid_search_oracle

    def keeping(*args, **kw):
        results.append(search(*args, **kw))
        return results[-1]

    with monkeypatch.context() as m:
        m.setattr(oracle_module, "grid_search_oracle", keeping)
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["solve", str(Path(__file__).parent / "golden" / problem / "problem.json"),
                         "--out", str(out), "--grid", "21", "--oracle"]) == 0
    result, = results
    return result, (out / "oracle.csv").read_bytes()


# (evaluate calls, rows) of the descent on each golden search, and of the
# per-coordinate reference
_DESCENT_TRAFFIC = {
    "var_tight": ((3, 321), (16, 656)),
    "es_tight_unequal": ((3, 321), (16, 656)),
    "var_loose": ((13, 1001), (24, 984)),
    "es_loose": ((13, 1001), (24, 984)),
    "var_loose_below_half": ((10, 761), (16, 656)),
    "unconstrained_equal": ((13, 1001), (24, 984)),
}


@pytest.mark.parametrize("problem", list(_DESCENT_TRAFFIC))
def test_descent_matches_reference_on_golden_searches(problem, monkeypatch, tmp_path):
    """On the golden searches of solve --oracle the batched descent gives the
    records, best cost and oracle.csv of the per-coordinate reference, and
    evaluates no trial twice.  Its (evaluate calls, rows) against the
    reference's: a tight search moves at coordinate 0 alone, so coordinate 0
    goes alone, the rest of the pass in one call, and the second pass is all
    memo hits; a loose or unconstrained one moves at most coordinates of its
    first pass, so most calls take one coordinate, and a move inside a
    stacked call drops blocks it evaluated."""
    (got, got_csv), calls, _ = _run_logged(
        monkeypatch, oracle_module._coordinate_descent,
        partial(_golden_search, problem, tmp_path / "batched", monkeypatch))
    (want, want_csv), ref_calls, _ = _run_logged(
        monkeypatch, coordinate_descent_per_coordinate,
        partial(_golden_search, problem, tmp_path / "reference", monkeypatch))
    _assert_same_search(got, want)
    assert got_csv == want_csv
    rows = [row.tobytes() for trials in calls for row in trials]
    assert len(rows) == len(set(rows))
    assert ((len(calls), len(rows)), (len(ref_calls), sum(map(len, ref_calls)))) \
        == _DESCENT_TRAFFIC[problem]


def _moves_per_pass(blocks, v_pieces, cost):
    """The number of coordinates each pass of a descent from cost moved at,
    by the acceptance rule replayed over its recorded trials."""
    moves = []
    for k, block in enumerate(blocks):
        if k % v_pieces == 0:
            moves.append(0)
        moved = False
        for ok, trial_cost in zip(block.feasible.tolist(), block.cost.tolist()):
            if ok and trial_cost > cost + 1e-15:
                cost, moved = trial_cost, True
        moves[-1] += moved
    return moves


def test_descent_matches_reference_on_random_searches(monkeypatch):
    """On seeded random searches with 2, 4 and 8 pieces the batched descent
    gives the records and best cost of the per-coordinate reference, in no
    more evaluate calls, and at most (v_pieces + 1) / 2 times its rows.  The
    cases include a pass that moves at two coordinates or more, which drops
    evaluated blocks, and a second pass that evaluates rows the first did
    not."""
    multi_move = fresh_second_pass = False
    for v_pieces in (2, 4, 8):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            model = random_market(rng, d=2, max_pieces=3)
            utility = UtilityParams(*rng.uniform(0.2, 0.9, size=2))
            kind = (None, MeasureKind.VAR, MeasureKind.ES)[seed % 3]
            spec = None if kind is None else RiskSpec(
                alpha=0.025, zeta=float(rng.uniform(0.05, 0.5)), kind=kind)
            search = partial(grid_search_oracle, model, utility, spec, 1.0,
                             np.arange(0.0, 0.4, 0.02),
                             v_levels=np.linspace(0.0, rng.uniform(0.2, 1.0), 21),
                             v_pieces=v_pieces)
            got, calls, descents = _run_logged(
                monkeypatch, oracle_module._coordinate_descent, search)
            want, ref_calls, _ = _run_logged(
                monkeypatch, coordinate_descent_per_coordinate, search)
            _assert_same_search(got, want)
            assert len(calls) <= len(ref_calls)
            rows, ref_rows = (sum(map(len, c)) for c in (calls, ref_calls))
            assert rows <= (v_pieces + 1) / 2 * ref_rows, (v_pieces, seed)
            (evaluate, args, blocks), = descents
            multi_move |= max(_moves_per_pass(blocks, v_pieces, args[-1])) >= 2

            def rows_within(passes):
                counted = []
                with monkeypatch.context() as m:
                    m.setattr(oracle_module, "COORDINATE_PASSES", passes)
                    oracle_module._coordinate_descent(
                        lambda trials: counted.append(len(trials)) or evaluate(trials),
                        *args)
                return sum(counted)

            fresh_second_pass |= rows_within(2) > rows_within(1)
    assert multi_move and fresh_second_pass


@pytest.mark.parametrize("kind", [MeasureKind.VAR, MeasureKind.ES, None])
def test_evaluate_screen_at_T_matches_full_grid(kind):
    """Screening at T first and then the survivors on the whole grid gives
    the one-pass flags and costs bit for bit, shared factors included, in
    one batch and across the batch bound."""
    rng = np.random.default_rng(37)
    spec = None if kind is None else RiskSpec(alpha=0.025, zeta=0.15, kind=kind)
    random_case = random_market(rng, d=2, max_pieces=3)
    theta_case = _large_theta_market()
    inner_breaks = 0
    # 70 crosses two _CHUNK boundaries, the other size a _BATCH_ROWS one
    for n in (70, _BATCH_ROWS + 70):
        assert 2 * _CHUNK < 70 < _BATCH_ROWS
        for model in (random_case, theta_case):
            node_ticks = merge_ticks(model.node_ticks,
                                     to_ticks(np.linspace(0.0, model.horizon, 5)))
            shape = (n, len(node_ticks) - 1)
            if model is theta_case:
                # exposures rho theta / ||theta||_T for rho in (0, 1]
                y = _theta_exposures(EvaluationPlan.build(model, node_ticks, 1.2, None),
                                     np.linspace(0.0, 1.0, n + 1)[1:])
                v = rng.uniform(0.0, 0.1, size=shape)
                v[0] = 0.0       # the shared row consumes nothing
            else:
                y = (rng.uniform(-0.15, 0.15, size=shape + (model.dimension,))
                     * np.linspace(0.1, 1.0, n)[:, None, None])
                v = rng.uniform(0.0, 0.3, size=shape) * (rng.random(shape) < 0.8)
            args = (model, UtilityParams(0.6, 0.4), spec, 1.2, node_ticks)
            for y_b, v_b in ((y, v), (y[:1], v), (y, v[:1]), (y[:1], v[:1])):
                got = evaluate_on_grid(*args, y_b, v_b)
                want = evaluate_full_grid(*args, y_b, v_b)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)
                if spec is not None and model is theta_case:
                    plan = EvaluationPlan.build(model, node_ticks, 1.2, None)
                    at_T = max_ratios_per_call(step_cumulants(plan, y_b, v_b),
                                               spec, 1.2, np.array([model.horizon]))
                    inner_breaks += np.sum((at_T <= 1.0 + SATURATION_TOL) & ~want[0])
    # the second stage rejects what the screen at T let through
    assert inner_breaks > 0 or spec is None


@pytest.mark.parametrize("zeta", [1e-9, 1e-6, 0.15, 0.9])
@pytest.mark.parametrize("kind", [MeasureKind.VAR, MeasureKind.ES])
def test_evaluate_certificate_matches_full_grid(kind, zeta, monkeypatch):
    """Candidates within 1e-12 of the bound, on both sides of where the
    certificate and where the grid verdict flip, get the one-pass flags and
    costs bit for bit, with a shared exposure row or a shared consumption
    row; the certificate clears some of them and the grid decides others."""
    spec = RiskSpec(alpha=0.025, zeta=zeta, kind=kind)
    x = 1.2
    at_T, on_grid = _count_grid_rows(monkeypatch)
    for model in (random_market(np.random.default_rng(41), d=2, max_pieces=3),
                  _large_theta_market()):
        horizon = model.horizon
        node_ticks = merge_ticks(model.node_ticks,
                                 to_ticks(np.linspace(0.0, horizon, 5)))
        args = (model, UtilityParams(0.6, 0.4), spec, x, node_ticks)
        plan = EvaluationPlan.build(model, node_ticks, x, None)
        # consumption at rate c on [0, T/2) only: without exposure, L is
        # flat on [T/2, T], where the grid ratio's rounding error, about
        # eps / zeta, varies from point to point and t = T sees one point
        first_half = from_ticks(node_ticks[:-1]) < 0.5 * horizon

        def verdicts(y, c):
            """(certified, one-pass flag) of exposure y with rate c."""
            v = c * first_half[None, :]
            cum = step_cumulants(plan, y, v)
            return (certified_feasible(cum, spec, x, plan)[0],
                    evaluate_full_grid(*args, y, v)[0][0])

        # exposures spend at most half of the budget at |z_a| ||y||_T
        for rho in zeta / spec.abs_z * np.array([0.0, 0.25, 0.5]):
            y = _theta_exposures(plan, [rho])
            # rates around where each verdict flips: a step of 1e-13 / T
            # moves L on [T/2, T] by 5e-14, so 41 steps span +-1e-12, and
            # 201 finer ones span +-1e-6 zeta (at most 1e-12)
            steps = np.concatenate([1e-13 * np.arange(-20, 21),
                                    min(zeta, 1e-6) * 2e-8 * np.arange(-100, 101)])
            flips = [_flip_point(lambda c: verdicts(y, c)[i], 0.0,
                                 -4.0 * np.log1p(-zeta) / horizon)[0]
                     for i in (0, 1)]
            rates = np.concatenate([flip + steps / horizon for flip in flips])
            v = rates[:, None] * first_half
            got, want = evaluate_on_grid(*args, y, v), evaluate_full_grid(*args, y, v)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            assert 0 < np.sum(want[0]) < len(rates)
            if rho > 0:
                # one consumption row, at the certificate's flip, and
                # exposures within 1e-12 of its flip in rho
                c = flips[0]
                flip, _ = _flip_point(
                    lambda r: verdicts(_theta_exposures(plan, [r]), c)[0],
                    0.5 * rho, 2.0 * rho)
                y = _theta_exposures(plan, flip + 5e-14 * np.arange(-20, 21))
                v = c * first_half[None, :]
                got, want = evaluate_on_grid(*args, y, v), evaluate_full_grid(*args, y, v)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)
    # both branches ran: survivors at T cleared by the certificate, and
    # survivors sent to the profile grid
    assert 0 < sum(on_grid) < sum(at_T)


def _count_grid_rows(monkeypatch):
    """Patch the oracle's _evaluate to note its plan, and its max_ratios to
    log each call's candidate rows: a list of (survivors at T) for the calls
    on the plan's screen, and one of rows sent to the plan's profile grid."""
    at_T, on_grid, plans = [], [], []
    evaluate = oracle_module._evaluate

    def noting(plan, *args):
        plans.append(plan)
        return evaluate(plan, *args)

    def counting(cum, spec, x, points):
        ratios = max_ratios(cum, spec, x, points)
        if points is plans[-1].screen:
            at_T.append(int(np.sum(ratios <= 1.0 + SATURATION_TOL)))
        else:
            assert points is plans[-1].profile
            on_grid.append(len(ratios))
        return ratios

    monkeypatch.setattr(oracle_module, "_evaluate", noting)
    monkeypatch.setattr(oracle_module, "max_ratios", counting)
    return at_T, on_grid


@pytest.mark.parametrize("problem", ["var_tight", "es_tight_unequal"])
def test_certificate_clears_most_survivors(problem, monkeypatch, tmp_path):
    """On the golden oracle searches, the node-interval certificate clears
    at least 90% of the candidates that pass the screen at T, so only the
    rest run on the full profile grid."""
    at_T, on_grid = _count_grid_rows(monkeypatch)
    golden = Path(__file__).parent / "golden" / problem
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["solve", str(golden / "problem.json"), "--out",
                     str(tmp_path), "--grid", "21", "--oracle"]) == 0
    assert sum(at_T) > 0 and sum(on_grid) <= 0.1 * sum(at_T), (at_T, on_grid)


@pytest.mark.parametrize("problem", ["var_tight", "es_tight_unequal"])
def test_cli_oracle_best_is_the_best_csv_line(problem, tmp_path):
    """oracle.json's oracle_best, written as oracle.csv writes costs, is
    the largest feasible cost of oracle.csv."""
    golden = Path(__file__).parent / "golden" / problem
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["solve", str(golden / "problem.json"), "--out",
                     str(tmp_path), "--grid", "21", "--oracle"]) == 0
    best = json.loads((tmp_path / "oracle.json").read_text())["oracle_best"]
    with open(tmp_path / "oracle.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    costs = [row["cost"] for row in rows if row["feasible"] == "1"]
    assert "coordinate_descent" in {row["label"] for row in rows}
    assert "%.12g" % best == max(costs, key=float)


def test_evaluate_memory_bounded_by_batch_rows(monkeypatch):
    """Eight batches of candidates peak within 1.5x of one: the cumulants
    and cost arrays of at most _BATCH_ROWS candidates are alive at once."""
    model = _large_theta_market()
    spec = RiskSpec(alpha=0.025, zeta=0.15, kind=MeasureKind.ES)
    # two half-year intervals: the node-interval certificate is loose on
    # them, so survivors near the bound reach the profile grid
    node_ticks = merge_ticks(model.node_ticks, to_ticks(np.linspace(0.0, 1.0, 3)))
    k = len(node_ticks) - 1
    peaks, grid_calls = [], []
    for n in (_BATCH_ROWS, 8 * _BATCH_ROWS):
        # every batch holds the same rho in [0, 2], of which about a twelfth
        # pass, so every batch runs all three stages
        rhos = np.resize(np.linspace(0.0, 2.0, _BATCH_ROWS), n)
        y = _theta_exposures(EvaluationPlan.build(model, node_ticks, 1.2, None), rhos)
        v = np.full((n, k), 0.01)
        _, on_grid = _count_grid_rows(monkeypatch)
        tracemalloc.start()
        feasible, _ = evaluate_on_grid(model, UtilityParams(0.6, 0.4), spec, 1.2,
                                node_ticks, y, v)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        grid_calls.append(len(on_grid))
        assert 0 < np.sum(feasible) < n
    assert grid_calls[0] > 0 and grid_calls[1] == 8 * grid_calls[0]
    assert peaks[1] <= 1.5 * peaks[0], peaks


def _bits(a):
    """The float64 bits of a, -0.0 and 0.0 apart."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def test_plan_matches_per_call_evaluation():
    """The plan's values of the cumulant curves, R and the bond, at T (its
    screen) and on the profile grid, are the bits of the call-by-call
    evaluation, with shared one-row factors, a zero-exposure row against
    negative theta components (products -0.0) and a consumption row of -0.0
    rates, which passes the check v >= 0 and leaves V's node values -0.0."""
    x = 1.2
    signed_zeros = 0
    for model in (random_market(np.random.default_rng(43), d=2, max_pieces=3),
                  constant_market(0.05, [0.01, 0.02], [[0.2, 0.0], [0.1, 0.25]], 1.0)):
        node_ticks = merge_ticks(model.node_ticks,
                                 to_ticks(np.linspace(0.0, model.horizon, 5)))
        grid = profile_grid(node_ticks, model.horizon, N_PROFILE)
        plan = EvaluationPlan.build(model, node_ticks, x, grid)
        rng = np.random.default_rng(47)
        shape = (6, len(node_ticks) - 1)
        y = rng.uniform(-0.3, 0.3, size=shape + (model.dimension,))
        y[0] = 0.0
        v = rng.uniform(0.0, 0.3, size=shape)
        v[0] = -0.0
        for points, t in ((plan.screen, grid[-1:]), (plan.profile, grid)):
            assert np.array_equal(_bits(points.R), _bits(model.R(t)))
            assert np.array_equal(_bits(points.bond), _bits(x * np.exp(model.R(t))))
            for y_b, v_b in ((y, v), (y[:1], v), (y, v[:1]), (y[:1], v[:1])):
                cum = step_cumulants(plan, y_b, v_b)
                for curve in (cum.ydt, cum.ynn, cum.V_of):
                    got, want = points(curve), curve_at(curve, t)
                    assert got.shape == want.shape == (len(curve.values), len(t))
                    assert np.array_equal(_bits(got), _bits(want))
                    signed_zeros += np.sum((curve.values == 0) & np.signbit(curve.values))
    assert signed_zeros > 0


@pytest.mark.parametrize("v_pieces,partitions", [(1, 1), (4, 2)])
def test_search_builds_one_plan_per_partition(v_pieces, partitions, monkeypatch):
    """A search builds one plan for the market's partition and, with
    v_pieces > 1, one for the coordinate descent's; every evaluation on a
    partition runs on its plan, and no plan outlives the search."""
    built, used = [], []
    build, evaluate = EvaluationPlan.build, oracle_module._evaluate

    def building(*args):
        plan = build(*args)
        built.append(weakref.ref(plan))
        return plan

    def noting(plan, *args):
        used.append(id(plan))
        return evaluate(plan, *args)

    monkeypatch.setattr(EvaluationPlan, "build", building)
    monkeypatch.setattr(oracle_module, "_evaluate", noting)
    model = random_market(np.random.default_rng(23), d=2, max_pieces=3)
    spec = RiskSpec(alpha=0.025, zeta=0.15, kind=MeasureKind.ES)
    res = grid_search_oracle(model, UtilityParams(0.6, 0.4), spec, 1.2,
                             np.arange(0.0, 0.3, 0.02),
                             v_levels=np.linspace(0.0, 0.4, 9), v_pieces=v_pieces)
    assert len(built) == len(set(used)) == partitions
    assert len(used) > partitions
    assert len(res.records) > 0 and all(ref() is None for ref in built)


def test_oracle_csv_export(tmp_path, standard_market):
    spec = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    res = grid_search_oracle(standard_market, UtilityParams(1.0, 1.0), spec,
                             1.0, np.arange(0, 0.06, 5e-3))
    out = tmp_path / "oracle.csv"
    res.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "label,rho,v_levels,feasible,cost"
    assert len(lines) > 5
