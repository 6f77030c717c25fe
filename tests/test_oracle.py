"""Closed-form cost, log risk functional, and the grid-search oracle."""

import numpy as np
import pytest

from merton_risk import (
    DeterministicStrategy,
    EmptyFeasibleSet,
    FamilyConfig,
    MeasureKind,
    RiskSpec,
    SimConfig,
    UtilityParams,
    constant_market,
    constant_strategy,
    constraint_profile,
    cost_closed_form,
    cost_quadrature,
    cumulants,
    estimate_cost,
    grid_search_oracle,
    log_risk_functional,
    simulate_deterministic,
    solve_es_linear,
    solve_var_linear,
    solve_var_tight,
    step_strategy,
    theta_direction_strategy,
)
from merton_risk.es_bound import rho_es
from merton_risk.bounded import tight_strategy
from merton_risk.var_bound import rho_var

from conftest import bond_strategy, random_market, random_strategy


def linear_cost_direct(model, strategy, x):
    """Independent linear-utility cost: x (int e^{R-V+(y,th)} v dt + e^{.}|_T).

    Dense per-interval trapezoid on the exact cumulant curves (the rate v
    jumps at breakpoints, so each interval is integrated separately).
    """
    cum = cumulants(model, strategy)
    integral = 0.0
    for a, b in zip(cum.nodes[:-1], cum.nodes[1:]):
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
    s = tight_strategy(standard_market, u, spec)
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
        ens = simulate_deterministic(m, s, 1.0, SimConfig(
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
    assert np.allclose(log_risk_functional(standard_market, bond, spec_v, ts),
                       0.0)
    assert np.allclose(log_risk_functional(standard_market, bond, spec_e, ts),
                       0.0)
    # the bound saturates at T for both linear optima
    sol_v = solve_var_linear(standard_market, spec_v, 1.0)
    assert log_risk_functional(standard_market, sol_v.strategy, spec_v, 1.0) \
        == pytest.approx(spec_v.log_bound(), abs=1e-12)
    sol_e = solve_es_linear(standard_market, spec_e, 1.0)
    got = log_risk_functional(standard_market, sol_e.strategy, spec_e, 1.0)
    assert abs(got - spec_e.log_bound()) < 1e-10


def test_oracle_dominated_by_solver_on_random_feasible():
    rng = np.random.default_rng(17)
    m = constant_market(0.0, [0.1], [[0.2]], 1.0)
    spec = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    u = UtilityParams(0.5, 0.5)
    j_star = solve_var_tight(m, u, spec, 1.0).value
    checked = 0
    for _ in range(2000):
        # scales matched to the tight budget so the sweep stays feasible often
        s = random_strategy(rng, m, y_scale=0.05, v_scale=0.12)
        prof = constraint_profile(m, s, spec, 1.0, n_refine=301)
        if not prof.satisfied(1e-9):
            continue
        checked += 1
        assert cost_closed_form(m, s, u, 1.0) <= j_star * (1 + 1e-9)
    assert checked > 100  # the sweep actually exercised feasible strategies


def test_oracle_empty_family(standard_market):
    spec = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    with pytest.raises(EmptyFeasibleSet):
        grid_search_oracle(standard_market, UtilityParams(0.5, 0.5), spec,
                           1.0, FamilyConfig(rho_grid=np.array([]),
                                             v_levels=np.array([])))


def test_oracle_tight_instance_structure(standard_market):
    spec = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    u = UtilityParams(0.5, 0.5)
    config = FamilyConfig(rho_grid=np.arange(0.0, 0.08, 4e-3),
                          v_levels=np.linspace(0.0, 0.2, 81), v_pieces=4)
    res = grid_search_oracle(standard_market, u, spec, 1.0, config)
    best = res.best_strategy
    cum = cumulants(standard_market, best)
    assert cum.y_norm_T() == pytest.approx(0.0, abs=1e-12)
    assert cum.V_T() == pytest.approx(-np.log1p(-0.1), abs=5e-3)


def _rebuild_candidate(model, rec, directions):
    """The strategy behind an oracle record, built alone from the public
    constructors."""
    horizon = model.horizon
    if rec.label == "random_direction":
        return constant_strategy(rec.rho * next(directions) / np.sqrt(horizon),
                                 0.0, horizon)
    edges = np.linspace(0.0, horizon, len(rec.v_levels) + 1)[:-1]
    plan = step_strategy([(0.0, np.zeros(model.dimension))],
                         list(zip(edges, rec.v_levels)), horizon)
    if rec.rho == 0.0:
        return plan
    return DeterministicStrategy(
        y_path=theta_direction_strategy(model, rec.rho).y_path,
        consumption=plan.consumption)


@pytest.mark.parametrize("kind", [MeasureKind.VAR, MeasureKind.ES])
@pytest.mark.parametrize("v_pieces,random_directions", [(1, 8), (4, 0)])
def test_oracle_batched_matches_looped(kind, v_pieces, random_directions):
    model = random_market(np.random.default_rng(23), d=2, max_pieces=3)
    spec = RiskSpec(alpha=0.025, zeta=0.15, kind=kind)
    u = UtilityParams(0.6, 0.4)
    # exposures just inside and just outside the bound test the verdict there
    rho_star = (rho_var if kind == MeasureKind.VAR else rho_es)(model, spec)
    edge = rho_star * np.array([1 - 1e-6, 1 + 1e-6])
    config = FamilyConfig(rho_grid=np.concatenate([np.arange(0.0, 0.3, 0.02), edge]),
                          v_levels=np.linspace(0.0, 0.4, 9), v_pieces=v_pieces,
                          random_directions=random_directions, seed=3)
    res = grid_search_oracle(model, u, spec, 1.2, config)
    stage = "random_direction" if random_directions else "coordinate_descent"
    assert stage in {r.label for r in res.records}
    # the oracle draws a direction, then a rho, per random candidate
    rng = np.random.default_rng(config.seed)
    rhos = np.unique(np.concatenate([[0.0], config.rho_grid]))
    directions = []
    for _ in range(random_directions):
        d = rng.standard_normal(model.dimension)
        directions.append(d / np.linalg.norm(d))
        rng.choice(rhos[rhos > 0])
    directions = iter(directions)
    feasible = 0
    for rec in res.records:
        s = _rebuild_candidate(model, rec, directions)
        prof = constraint_profile(model, s, spec, 1.2, n_refine=config.n_profile)
        assert rec.feasible == prof.satisfied()
        if rec.feasible:
            feasible += 1
            cost = cost_closed_form(model, s, u, 1.2)
            assert rec.cost == pytest.approx(cost, rel=1e-12)
        else:
            assert rec.cost == -np.inf
    assert 0 < feasible < len(res.records)
    inside, outside = (next(r for r in res.records
                            if r.rho == rho and r.v_levels == (0.0,))
                       for rho in edge)
    assert inside.feasible and not outside.feasible
    assert res.best_cost == pytest.approx(
        max(r.cost for r in res.records if r.feasible), rel=1e-12)


def test_oracle_random_direction_never_beats_theta(standard_market):
    spec = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    u = UtilityParams(1.0, 1.0)
    config = FamilyConfig(rho_grid=np.arange(0.0, 0.08, 1e-3),
                          random_directions=32, seed=5)
    res = grid_search_oracle(standard_market, u, spec, 1.0, config)
    theta_best = max(r.cost for r in res.records
                     if r.feasible and r.label == "theta_direction")
    rand_best = max((r.cost for r in res.records
                     if r.feasible and r.label == "random_direction"),
                    default=-np.inf)
    assert rand_best <= theta_best + 1e-12


def test_oracle_csv_export(tmp_path, standard_market):
    spec = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    res = grid_search_oracle(standard_market, UtilityParams(1.0, 1.0), spec,
                             1.0, FamilyConfig(rho_grid=np.arange(0, 0.06, 5e-3)))
    out = tmp_path / "oracle.csv"
    res.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "label,rho,v_levels,feasible,cost"
    assert len(lines) > 5
