"""VaR-bounded solvers: exposure budget, linear/loose/tight regimes."""

import numpy as np
import pytest

from merton_risk.bounded import (
    big_g,
    kappa_hat,
    kappa_star,
    loose_bound_check,
    solve_linear,
    solve_tight,
)
from merton_risk.errors import ConditionViolated, NegativeRate, NoClosedFormRegime
from merton_risk.oracle import grid_search_oracle
from merton_risk.risk import MeasureKind, RiskSpec, constraint_profile
from merton_risk.strategies import GrowthFractionConsumption, cumulants
from merton_risk.unconstrained import solve_equal_gamma
from merton_risk.utility import UtilityParams
from merton_risk.var_bound import VAR, l_star, rho_var, solve_var

from conftest import constant_market, theta_market
from cross_checks import budget_after, exposure_growth_factor, log_risk_var, satisfied

# mpmath, 50 digits
RHO_VAR_STD = 0.056805754405110356508     # ||theta||=0.5, alpha=0.01, zeta=0.1
RHO_VAR_FLAT = 0.044857613125969943159    # ||theta||=0,  alpha=0.01, zeta=0.1
J_VAR_LINEAR = 1.0288100850685661801
G_TIGHT = 1.2649110640673517328           # sqrt(0.1) + sqrt(0.9)

VAR01 = dict(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)


def quadratic_residual(m, spec, rho):
    return (m.theta_norm_T * rho - 0.5 * rho ** 2 - spec.abs_z * rho
            - spec.log_bound())


def test_rho_var_frozen_values(standard_market):
    spec = RiskSpec(**VAR01)
    assert rho_var(standard_market, spec) == pytest.approx(RHO_VAR_STD,
                                                           rel=1e-13)
    flat = theta_market(0.0)
    assert rho_var(flat, spec) == pytest.approx(RHO_VAR_FLAT, rel=1e-13)


def test_rho_var_vanishes_with_zeta(standard_market):
    for zeta in (1e-4, 1e-8, 1e-12):
        spec = RiskSpec(alpha=0.01, zeta=zeta, kind=MeasureKind.VAR)
        rho = rho_var(standard_market, spec)
        assert 0 < rho < 2 * zeta
        assert abs(quadratic_residual(standard_market, spec, rho)) < 1e-12


def test_rho_var_quadratic_certificate_random():
    rng = np.random.default_rng(37)
    for _ in range(200):
        alpha = float(rng.uniform(1e-4, 0.45))
        spec = RiskSpec(alpha=alpha, zeta=float(rng.uniform(0.01, 0.99)),
                        kind=MeasureKind.VAR)
        tn = float(rng.uniform(0.0, spec.abs_z / 2))
        m = theta_market(tn)
        rho = rho_var(m, spec)
        assert abs(quadratic_residual(m, spec, rho)) < 1e-10


def test_var_linear_standard_instance(standard_market):
    spec = RiskSpec(**VAR01)
    sol = solve_linear(VAR, standard_market, spec, 1.0)
    assert sol.value == pytest.approx(J_VAR_LINEAR, rel=1e-13)
    assert sol.regime == "var_linear"
    # strategy consumes nothing and has exposure rho* along theta
    assert np.all(sol.strategy.v_at(standard_market, np.linspace(0, 1, 7))
                  == 0.0)
    cum = cumulants(standard_market, sol.strategy)
    assert np.sqrt(cum.ynn.end_value) == pytest.approx(RHO_VAR_STD, rel=1e-12)
    # saturation: inf_t of the log functional is exactly the bound at t = T
    prof = constraint_profile(standard_market, sol.strategy, spec, 1.0,
                              np.linspace(0.0, standard_market.horizon, 10_000))
    log_curve = log_risk_var(cum, spec.abs_z, prof.times)
    assert np.min(log_curve) == pytest.approx(spec.log_bound(), abs=1e-9)


def test_var_linear_value_monotone_in_zeta(standard_market):
    values = [solve_linear(VAR, standard_market,
                           RiskSpec(alpha=0.01, zeta=z, kind=MeasureKind.VAR), 1.0).value
        for z in (0.05, 0.1, 0.3, 0.6, 0.9, 0.99)]
    assert np.all(np.diff(values) > 0)


def test_var_linear_zero_theta():
    spec = RiskSpec(**VAR01)
    m = theta_market(0.0, r=0.03)
    sol = solve_linear(VAR, m, spec, 2.0)
    assert sol.value == pytest.approx(2.0 * np.exp(0.03), rel=1e-13)
    assert sol.regime == "var_linear_bond"


def test_var_linear_zeta_window_violated():
    m = theta_market(1.2)
    spec = RiskSpec(alpha=0.25, zeta=0.3, kind=MeasureKind.VAR)
    with pytest.raises(ConditionViolated) as err:
        solve_linear(VAR, m, spec, 1.0)
    assert err.value.margin < 0
    # a zeta above the floor is accepted
    sol = solve_linear(VAR, m, RiskSpec(alpha=0.25, zeta=0.6, kind=MeasureKind.VAR),
                       1.0)
    prof = constraint_profile(m, sol.strategy, sol.risk, 1.0,
                              np.linspace(0.0, m.horizon, 10_000))
    assert satisfied(prof, 1e-9)


def test_var_linear_negative_rate():
    m = constant_market(-0.02, [0.1], [[0.2]], 1.0)
    with pytest.raises(NegativeRate):
        solve_linear(VAR, m, RiskSpec(**VAR01), 1.0)


def test_var_linear_vs_grid_oracle(standard_market):
    spec = RiskSpec(**VAR01)
    sol = solve_linear(VAR, standard_market, spec, 1.0)
    res = grid_search_oracle(standard_market, UtilityParams(1.0, 1.0), spec, 1.0,
                             np.arange(0.0, 0.12, 1e-3), v_levels=np.array([0.0, 0.05, 0.1]))
    assert res.best_cost <= sol.value * (1 + 1e-9)
    assert res.best_cost == pytest.approx(sol.value, rel=1e-3)


# ---------------------------------------------------------------------------
# split functional G, kappa points
# ---------------------------------------------------------------------------

def test_kappa_hat_flat_market():
    m = theta_market(0.5)  # r = 0, T = 1
    assert kappa_hat(m, 0.5) == pytest.approx(0.5, rel=1e-14)


def test_big_g_value_and_argmax(standard_market):
    u = UtilityParams(0.5, 0.5)
    G, dG = big_g(standard_market, u, 1.0, 0.1)
    assert G == pytest.approx(G_TIGHT, rel=1e-14)
    for x in (0.5, 1.0, 7.0):
        ks = kappa_star(standard_market, u, x)
        assert ks == pytest.approx(0.5, rel=1e-12)
        _, d_at_ks = big_g(standard_market, u, x, ks)
        assert abs(d_at_ks) < 1e-9
    # fine-grid cross-check of the maximizer
    grid = np.linspace(1e-6, 1 - 1e-6, 200001)
    Gs, _ = big_g(standard_market, u, 1.0, grid)
    assert grid[np.argmax(Gs)] == pytest.approx(0.5, abs=1e-4)
    assert dG > 0  # still increasing at kappa = 0.1 < kappa*


def test_kappa_star_general_exponents(standard_market):
    u = UtilityParams(0.3, 0.8)
    ks = kappa_star(standard_market, u, 1.7)
    G_at, d_at = big_g(standard_market, u, 1.7, ks)
    assert 0 < ks < 1
    assert abs(d_at) <= 1e-9 * max(1.0, G_at)
    grid = np.linspace(1e-9, 1 - 1e-9, 100001)
    Gs, _ = big_g(standard_market, u, 1.7, grid)
    assert np.max(Gs) <= G_at * (1 + 1e-10)


def test_kappa_star_root_beyond_double_resolution(standard_market):
    """For gamma2 just below 1 G can still rise at kappa = 1 - 1e-15: the
    split point is 1 to machine precision, and the tight regime applies."""
    u = UtilityParams(0.75, 0.9999)
    assert big_g(standard_market, u, 0.01, 1.0 - 1e-15)[1] > 0.0
    assert kappa_star(standard_market, u, 0.01) == 1.0
    sol = solve_tight(VAR, standard_market, u, RiskSpec(**VAR01), 0.01)
    assert sol.regime == "var_tight"


# ---------------------------------------------------------------------------
# loose bound
# ---------------------------------------------------------------------------

def test_loose_bound_large_zeta(standard_market):
    spec = RiskSpec(alpha=0.01, zeta=0.999, kind=MeasureKind.VAR)
    ok, margin = loose_bound_check(VAR, standard_market, 0.5, spec)
    assert ok and margin > 0
    # post-hoc: the unconstrained optimum indeed satisfies the bound
    sol = solve_equal_gamma(standard_market, 0.5, 1.0)
    prof = constraint_profile(standard_market, sol.strategy, spec, 1.0,
                              np.linspace(0.0, standard_market.horizon, 10_000))
    log_curve = log_risk_var(cumulants(standard_market, sol.strategy),
                             spec.abs_z, prof.times)
    assert satisfied(prof, 1e-9) and np.min(log_curve) >= spec.log_bound() - 1e-9


def test_loose_bound_small_zeta(standard_market):
    spec = RiskSpec(alpha=0.01, zeta=1e-4, kind=MeasureKind.VAR)
    ok, margin = loose_bound_check(VAR, standard_market, 0.5, spec)
    assert not ok and margin < 0


def test_l_star_branch_continuity(standard_market):
    spec = RiskSpec(**VAR01)
    eps = 1e-9
    below = l_star(standard_market, 0.5 - eps, spec)
    above = l_star(standard_market, 0.5 + eps, spec)
    assert below == pytest.approx(above, abs=1e-6)


def test_complementarity_small_grid():
    # threshold of the loose bound always sits above the tight-bound cap
    spec_grid = [(0.001, 0.3), (0.01, 0.5), (0.05, 0.4), (0.01, 1.0)]
    for alpha, tn in spec_grid:
        spec = RiskSpec(alpha=alpha, zeta=0.5, kind=MeasureKind.VAR)
        if spec.abs_z < 2 * tn:
            continue
        m = theta_market(tn)
        for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert 1.0 - np.exp(l_star(m, gamma, spec)) >= \
                kappa_hat(m, gamma) - 1e-12


# ---------------------------------------------------------------------------
# tight regime
# ---------------------------------------------------------------------------

def test_tight_standard_instance(standard_market):
    spec = RiskSpec(**VAR01)
    u = UtilityParams(0.5, 0.5)
    sol = solve_tight(VAR, standard_market, u, spec, 1.0)
    assert sol.value == pytest.approx(G_TIGHT, rel=1e-14)
    ts = np.linspace(0.0, 1.0, 21)
    v = sol.strategy.v_at(standard_market, ts)
    assert np.allclose(v, 0.1 / (1.0 - 0.1 * ts), rtol=1e-13)
    x_star = sol.wealth_mean(ts)
    assert np.allclose(x_star, 1.0 - 0.1 * ts, rtol=1e-13)
    # riskless: zero exposure everywhere
    assert np.all(sol.strategy.y_path.values == 0.0)
    cum = cumulants(standard_market, sol.strategy)
    assert float(cum.V(standard_market.horizon)) == pytest.approx(-np.log1p(-0.1), abs=1e-12)
    assert x_star[-1] == pytest.approx(0.9, rel=1e-12)


def test_tight_wealth_consumption_identities(standard_market):
    # X* v* = x zeta N^q(t) e^{R_t} / ||N||_{q,T}^q, and on a unit-horizon
    # zero-rate market X* = x zeta e^{R_t} / v* exactly
    spec = RiskSpec(**VAR01)
    u = UtilityParams(0.5, 0.5)
    sol = solve_tight(VAR, standard_market, u, spec, 1.0)
    ts = np.linspace(0.0, 1.0, 101)
    v = sol.strategy.v_at(standard_market, ts)
    x_star = sol.wealth_mean(ts)
    assert np.max(np.abs(x_star - 0.1 / v)) < 1e-12
    norm_q = GrowthFractionConsumption(2.0 * 0.5).integral(standard_market)(1.0)
    consumption = v * x_star
    target = 0.1 * np.exp(2.0 * 0.5 * standard_market.R(ts)) / norm_q
    assert np.max(np.abs(consumption - target)) < 1e-12


def test_tight_constant_rate_closed_forms():
    # r = 0.04: consumption matches the constant-rate display; wealth matches
    # the budget-fraction form (x e^{rt} (e^{gqrT} - zeta e^{gqrt} - (1-zeta))
    # / (e^{gqrT} - 1)) and starts at x
    r, gamma, zeta, T, x = 0.04, 0.5, 0.1, 1.0, 1.0
    q = 1.0 / (1.0 - gamma)
    m = constant_market(r, [r], [[0.2]], T)  # theta = 0
    spec = RiskSpec(alpha=0.01, zeta=zeta, kind=MeasureKind.VAR)
    sol = solve_tight(VAR, m, UtilityParams(gamma, gamma), spec, x)
    ts = np.linspace(0.0, T, 41)
    a = gamma * q * r
    v_expected = zeta * a / (np.exp(a * (T - ts)) - zeta
                             - (1 - zeta) * np.exp(-a * ts))
    v = sol.strategy.v_at(m, ts)
    assert np.max(np.abs(v - v_expected) / v_expected) < 1e-12
    x_expected = (x * np.exp(r * ts)
                  * (np.exp(a * T) - zeta * np.exp(a * ts) - (1 - zeta))
                  / (np.exp(a * T) - 1.0))
    x_star = sol.wealth_mean(ts)
    assert np.max(np.abs(x_star - x_expected) / x_expected) < 1e-12
    assert x_star[0] == pytest.approx(x, abs=1e-14)
    assert x_star[-1] == pytest.approx(x * (1 - zeta) * np.exp(r * T),
                                       rel=1e-13)


def test_tight_consumption_monotone_and_admissible():
    for r in (0.0, 0.03, 0.08):
        m = constant_market(r, [r], [[0.2]], 1.0)
        spec = RiskSpec(alpha=0.01, zeta=0.2, kind=MeasureKind.VAR)
        u = UtilityParams(0.4, 0.7)
        sol = solve_tight(VAR, m, u, spec, 1.0)
        ts = np.linspace(0, 1, 101)
        v = sol.strategy.v_at(m, ts)
        assert np.all(np.diff(v) >= -1e-15)
        q = u.q1
        norm_q = GrowthFractionConsumption(q * u.gamma1).integral(m)(1.0)
        v_T = 0.2 * np.exp(q * u.gamma1 * m.R(1.0)) / ((1 - 0.2) * norm_q)
        assert v[-1] == pytest.approx(v_T, rel=1e-12)
        assert v_T < 1.0


def test_tight_budget_condition_violated(standard_market):
    u = UtilityParams(0.5, 0.5)
    spec = RiskSpec(alpha=0.01, zeta=0.7, kind=MeasureKind.VAR)  # > kappa_hat
    with pytest.raises(ConditionViolated) as err:
        solve_tight(VAR, standard_market, u, spec, 1.0)
    assert err.value.condition == "zeta_below_split_point"


def test_tight_quantile_floor_violated():
    m = theta_market(0.45)
    u = UtilityParams(0.5, 0.5)
    spec = RiskSpec(alpha=0.3, zeta=0.1, kind=MeasureKind.VAR)
    with pytest.raises(ConditionViolated) as err:
        solve_tight(VAR, m, u, spec, 1.0)
    assert err.value.condition == "quantile_floor"


def test_tight_feasibility_and_dominance(standard_market):
    spec = RiskSpec(**VAR01)
    u = UtilityParams(0.5, 0.5)
    sol = solve_tight(VAR, standard_market, u, spec, 1.0)
    prof = constraint_profile(standard_market, sol.strategy, spec, 1.0,
                              np.linspace(0.0, standard_market.horizon, 10_000))
    assert satisfied(prof, 1e-9)
    res = grid_search_oracle(standard_market, u, spec, 1.0, np.arange(0.0, 0.1, 2e-3),
                             v_levels=np.linspace(0.0, 0.25, 126), v_pieces=4)
    assert res.best_cost <= sol.value * (1 + 1e-9)
    assert res.best_cost == pytest.approx(sol.value, rel=1e-3)


# ---------------------------------------------------------------------------
# dispatch and auxiliary monotonicity
# ---------------------------------------------------------------------------

def test_dispatch_regimes(standard_market):
    u = UtilityParams(0.5, 0.5)
    tight = solve_var(standard_market, u, RiskSpec(**VAR01), 1.0)
    assert tight.regime == "var_tight"
    loose = solve_var(standard_market, u,
                      RiskSpec(alpha=0.01, zeta=0.999, kind=MeasureKind.VAR),
                      1.0)
    assert loose.regime == "var_loose_unconstrained"
    assert loose.value == pytest.approx(
        solve_equal_gamma(standard_market, 0.5, 1.0).value, rel=1e-14)
    with pytest.raises(NoClosedFormRegime) as err:
        solve_var(standard_market, u,
                  RiskSpec(alpha=0.01, zeta=0.7, kind=MeasureKind.VAR), 1.0)
    assert "loose_bound" in err.value.margins
    linear = solve_var(standard_market, UtilityParams(1.0, 1.0),
                       RiskSpec(**VAR01), 1.0)
    assert linear.regime == "var_linear"


def test_budget_after_consumption_decreasing(standard_market):
    # what consuming kappa < zeta leaves is rho* of the level (zeta-kappa)/(1-kappa)
    spec = RiskSpec(**VAR01)
    ks = np.linspace(0.0, spec.zeta, 50)
    rhos = np.array([budget_after(standard_market, spec, k) for k in ks])
    rest = [rho_var(standard_market, RiskSpec(alpha=spec.alpha, zeta=(spec.zeta - k) / (1.0 - k),
                                              kind=spec.kind)) for k in ks[:-1]]
    assert rhos[:-1] == pytest.approx(rest, rel=1e-12)
    assert rhos[0] == pytest.approx(rho_var(standard_market, spec), rel=1e-13)
    assert np.all(np.diff(rhos) < 0)
    assert rhos[-1] == 0.0


def test_growth_times_split_monotone(standard_market):
    # along the consumption re-allocation the bound-tilted cost never drops
    spec = RiskSpec(**VAR01)
    u = UtilityParams(0.5, 0.5)
    ks = np.linspace(0.0, spec.zeta, 80)
    rhos = np.array([budget_after(standard_market, spec, k) for k in ks])
    for gamma_i in (u.gamma1, u.gamma2):
        M = exposure_growth_factor(standard_market, gamma_i, rhos)
        G = big_g(standard_market, u, 1.0, ks)[0]
        path = M * G
        assert np.all(np.diff(path) >= -1e-12 * np.abs(path[:-1]))
