"""ES-bounded solvers: psi function, exposure budget, three regimes."""

import numpy as np
import pytest

from merton_risk import es_bound
from merton_risk._rootfind import expand_bracket, solve_bracketed
from merton_risk.bounded import kappa_hat, loose_bound_check, solve_linear, solve_tight
from merton_risk.errors import ConditionViolated, HypothesisViolated, NoClosedFormRegime
from merton_risk.es_bound import (
    ES,
    ROOT_RESIDUAL,
    es_loose_threshold,
    rho_es,
    rho_es_upper_bound,
    solve_es,
)
from merton_risk.oracle import grid_search_oracle
from merton_risk.risk import MeasureKind, RiskSpec, constraint_profile
from merton_risk.strategies import cumulants
from merton_risk.unconstrained import solve_equal_gamma
from merton_risk.utility import UtilityParams
from merton_risk.var_bound import VAR, rho_var

from conftest import theta_market
from cross_checks import PsiFunction, budget_after, log_risk_es, max_ratio, satisfied

# mpmath, 50 digits
RHO_ES_STD = 0.048176088255488039142
J_ES_LINEAR = 1.0243805046083640478
RHO3_BOUND_STD = 0.16954904938992420183

ES01 = dict(alpha=0.01, zeta=0.1, kind=MeasureKind.ES)


def test_rho_es_vanishes_with_zeta(standard_market):
    for zeta in (1e-4, 1e-8):
        spec = RiskSpec(alpha=0.01, zeta=zeta, kind=MeasureKind.ES)
        rho = rho_es(standard_market, spec)
        assert 0 < rho < 10 * zeta


def test_rho_es_standard_instance(standard_market):
    spec = RiskSpec(**ES01)
    rho = rho_es(standard_market, spec)
    assert rho == pytest.approx(RHO_ES_STD, rel=1e-10)
    psi = PsiFunction(standard_market.theta_norm_T, spec.abs_z)
    assert abs(float(psi(rho, 1.0)) - spec.log_bound()) < 1e-10
    bound = rho_es_upper_bound(standard_market, spec)
    assert bound == pytest.approx(RHO3_BOUND_STD, rel=1e-12)
    assert rho < bound


def test_rho_es_below_rho_var_random():
    rng = np.random.default_rng(43)
    count = 0
    while count < 100:
        alpha = float(rng.uniform(1e-4, 0.3))
        spec_v = RiskSpec(alpha=alpha, zeta=float(rng.uniform(0.02, 0.95)),
                          kind=MeasureKind.VAR)
        tn = float(rng.uniform(0.0, spec_v.abs_z / 2))
        m = theta_market(tn)
        spec_e = RiskSpec(alpha=alpha, zeta=spec_v.zeta, kind=MeasureKind.ES)
        r_es = rho_es(m, spec_e)
        r_var = rho_var(m, spec_v)
        assert r_es <= r_var + 1e-12
        if spec_v.abs_z > 1.0:
            assert r_es <= rho_es_upper_bound(m, spec_e) + 1e-12
        count += 1


def _rho_es_on_psi(model, spec):
    """rho_es's bracket and safeguarded Newton search, run on the
    PsiFunction reference."""
    psi = PsiFunction(model.theta_norm_T, spec.abs_z)
    target = spec.log_bound()
    f = lambda r: float(psi(r) - target)
    if spec.abs_z > 1.0:
        hi = max(1.0, 2.0 * rho_es_upper_bound(model, spec))
    else:
        hi = expand_bracket(f, 0.0, 1.0)[1]
    return solve_bracketed(f, 0.0, hi, fprime=lambda r: float(psi.d_rho(r)),
                           residual_tol=ROOT_RESIDUAL, scale=max(1.0, abs(target)))


def test_rho_es_bits_match_psi_reference(monkeypatch):
    # |z_alpha| <= 1 (alpha >= 0.16) takes the expand_bracket branch, which
    # no benchmark task reaches
    expanded = []
    monkeypatch.setattr(es_bound, "expand_bracket",
                        lambda *a: expanded.append(1) or expand_bracket(*a))
    rng = np.random.default_rng(47)
    for i in range(200):
        alpha = float(rng.uniform(1e-4, 0.15) if i % 2 else rng.uniform(0.16, 0.45))
        spec = RiskSpec(alpha=alpha, zeta=float(rng.uniform(0.01, 0.95)),
                        kind=MeasureKind.ES)
        m = theta_market(float(rng.uniform(0.0, spec.abs_z / 2)))
        assert rho_es(m, spec) == _rho_es_on_psi(m, spec)
    assert len(expanded) == 100


def test_rho_es_hypothesis_violated():
    m = theta_market(0.5)
    spec = RiskSpec(alpha=0.25, zeta=0.1, kind=MeasureKind.ES)  # |z| = 0.67
    with pytest.raises(HypothesisViolated):
        rho_es(m, spec)


# ---------------------------------------------------------------------------
# psi monotonicity (the structural lemma behind the budget)
# ---------------------------------------------------------------------------

def test_psi_decreasing_in_u(standard_market):
    spec = RiskSpec(**ES01)
    psi = PsiFunction(standard_market.theta_norm_T, spec.abs_z)
    us = np.linspace(0.0, 1.0, 200)
    for rho in (0.05, 0.5, 2.0, 10.0):
        vals = psi(rho, us)
        assert np.all(np.diff(vals) < 0)
    assert float(psi(0.0, 1.0)) == 0.0


def test_psi_decreasing_in_rho(standard_market):
    spec = RiskSpec(**ES01)
    psi = PsiFunction(standard_market.theta_norm_T, spec.abs_z)
    bound = rho_es_upper_bound(standard_market, spec)
    rhos = np.linspace(0.0, 2 * bound, 300)
    vals = psi(rhos, 1.0)
    assert np.all(np.diff(vals) < 0)
    assert np.all(psi.d_rho(rhos) < 0)


def test_psi_monotonicity_needs_hypothesis():
    # with |z_alpha| < 2 ||theta||_T the u-monotonicity genuinely fails
    m = theta_market(1.5)
    spec = RiskSpec(alpha=0.05, zeta=0.1, kind=MeasureKind.ES)
    psi = PsiFunction(m.theta_norm_T, spec.abs_z)
    assert spec.abs_z < 2 * m.theta_norm_T
    us = np.linspace(0.0, 1.0, 400)
    vals = psi(0.3, us)
    assert np.any(np.diff(vals) > 0)


# ---------------------------------------------------------------------------
# linear regime
# ---------------------------------------------------------------------------

def test_es_linear_standard_instance(standard_market):
    spec = RiskSpec(**ES01)
    sol = solve_linear(ES, standard_market, spec, 1.0)
    assert sol.value == pytest.approx(J_ES_LINEAR, rel=1e-11)
    # saturation of the ES log functional, attained at T
    prof = constraint_profile(standard_market, sol.strategy, spec, 1.0,
                              np.linspace(0.0, standard_market.horizon, 10_000))
    log_curve = log_risk_es(cumulants(standard_market, sol.strategy),
                            spec.abs_z, prof.times)
    assert np.min(log_curve) == pytest.approx(spec.log_bound(), abs=1e-9)
    assert prof.times[np.argmax(prof.ratio_curve)] == pytest.approx(1.0, abs=1e-6)
    assert max_ratio(prof) == pytest.approx(1.0, abs=1e-9)


def test_es_linear_below_var_linear(standard_market):
    spec_e = RiskSpec(**ES01)
    spec_v = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    j_es = solve_linear(ES, standard_market, spec_e, 1.0).value
    j_var = solve_linear(VAR, standard_market, spec_v, 1.0).value
    assert j_es <= j_var
    # and the VaR optimum violates the ES bound (the measure is tighter)
    sol_v = solve_linear(VAR, standard_market, spec_v, 1.0)
    prof = constraint_profile(standard_market, sol_v.strategy, spec_e, 1.0,
                              np.linspace(0.0, standard_market.horizon, 10_000))
    assert max_ratio(prof) > 1.0


def test_es_linear_zero_theta():
    m = theta_market(0.0, r=0.02)
    spec = RiskSpec(**ES01)
    sol = solve_linear(ES, m, spec, 1.0)
    assert sol.value == pytest.approx(np.exp(0.02), rel=1e-13)
    assert sol.regime == "es_linear_bond"


def test_es_linear_vs_grid_oracle(standard_market):
    spec = RiskSpec(**ES01)
    sol = solve_linear(ES, standard_market, spec, 1.0)
    res = grid_search_oracle(
        standard_market, UtilityParams(1.0, 1.0), spec, 1.0,
        np.arange(0.0, 0.1, 1e-3))
    assert res.best_cost <= sol.value * (1 + 1e-9)
    assert res.best_cost == pytest.approx(sol.value, rel=1e-3)


def test_es_linear_hypothesis_violated():
    m = theta_market(1.5)
    with pytest.raises(HypothesisViolated):
        solve_linear(ES, m, RiskSpec(**ES01), 1.0)


# ---------------------------------------------------------------------------
# loose regime
# ---------------------------------------------------------------------------

def test_es_loose_large_zeta(standard_market):
    spec = RiskSpec(alpha=0.01, zeta=0.999, kind=MeasureKind.ES)
    ok, margin = loose_bound_check(ES, standard_market, 0.5, spec)
    assert ok and margin > 0
    sol = solve_equal_gamma(standard_market, 0.5, 1.0)
    prof = constraint_profile(standard_market, sol.strategy, spec, 1.0,
                              np.linspace(0.0, standard_market.horizon, 10_000))
    log_curve = log_risk_es(cumulants(standard_market, sol.strategy),
                            spec.abs_z, prof.times)
    assert satisfied(prof, 1e-9) and np.min(log_curve) >= spec.log_bound() - 1e-9


def test_es_loose_small_zeta(standard_market):
    spec = RiskSpec(alpha=0.01, zeta=1e-4, kind=MeasureKind.ES)
    ok, margin = loose_bound_check(ES, standard_market, 0.5, spec)
    assert not ok and margin < 0


def test_es_loose_threshold_complementarity():
    # the loose threshold always sits above the tight-bound cap
    for alpha, tn in [(0.001, 0.3), (0.01, 0.5), (0.05, 0.4), (0.01, 1.0)]:
        spec = RiskSpec(alpha=alpha, zeta=0.5, kind=MeasureKind.ES)
        if spec.abs_z < 2 * tn:
            continue
        m = theta_market(tn)
        for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert es_loose_threshold(m, gamma, spec) >= \
                kappa_hat(m, gamma) - 1e-12


# ---------------------------------------------------------------------------
# tight regime
# ---------------------------------------------------------------------------

def test_es_tight_standard_instance(standard_market):
    u = UtilityParams(0.5, 0.5)
    spec = RiskSpec(alpha=0.001, zeta=0.1, kind=MeasureKind.ES)
    # condition arithmetic: (2 + 0.5/0.9 / (dlnG = 5/6)) * 0.5 = 4/3 <= |z|
    assert spec.abs_z > (2.0 + 0.5 / 0.9 * (6.0 / 5.0)) * 0.5 - 1e-12
    sol = solve_tight(ES, standard_market, u, spec, 1.0)
    assert sol.value == pytest.approx(np.sqrt(0.1) + np.sqrt(0.9), rel=1e-14)
    assert np.all(sol.strategy.y_path.values == 0.0)
    assert sol.regime == "es_tight"
    prof = constraint_profile(standard_market, sol.strategy, spec, 1.0,
                              np.linspace(0.0, standard_market.horizon, 10_000))
    assert satisfied(prof, 1e-9)


def test_es_tight_zero_theta_any_alpha():
    # zero excess return: quantile-floor condition is trivial, any alpha works
    m = theta_market(0.0)
    u = UtilityParams(0.5, 0.5)
    for alpha in (0.45, 0.25, 0.01):
        spec = RiskSpec(alpha=alpha, zeta=0.1, kind=MeasureKind.ES)
        sol = solve_tight(ES, m, u, spec, 1.0)
        assert sol.value == pytest.approx(np.sqrt(0.1) + np.sqrt(0.9),
                                          rel=1e-14)


def test_es_tight_condition_violated(standard_market):
    u = UtilityParams(0.5, 0.5)
    spec = RiskSpec(alpha=0.25, zeta=0.1, kind=MeasureKind.ES)
    with pytest.raises(ConditionViolated) as err:
        solve_tight(ES, standard_market, u, spec, 1.0)
    assert err.value.condition == "quantile_floor"
    spec2 = RiskSpec(alpha=0.001, zeta=0.7, kind=MeasureKind.ES)
    with pytest.raises(ConditionViolated) as err2:
        solve_tight(ES, standard_market, u, spec2, 1.0)
    assert err2.value.condition == "zeta_below_split_point"


def test_es_tight_vs_grid_oracle(standard_market):
    u = UtilityParams(0.5, 0.5)
    spec = RiskSpec(alpha=0.001, zeta=0.1, kind=MeasureKind.ES)
    sol = solve_tight(ES, standard_market, u, spec, 1.0)
    res = grid_search_oracle(standard_market, u, spec, 1.0, np.arange(0.0, 0.1, 2e-3),
                             v_levels=np.linspace(0.0, 0.25, 126), v_pieces=4)
    assert res.best_cost <= sol.value * (1 + 1e-9)
    assert res.best_cost == pytest.approx(sol.value, rel=1e-3)


def test_es_dispatch(standard_market):
    u = UtilityParams(0.5, 0.5)
    tight = solve_es(standard_market, u,
                     RiskSpec(alpha=0.001, zeta=0.1, kind=MeasureKind.ES), 1.0)
    assert tight.regime == "es_tight"
    loose = solve_es(standard_market, u,
                     RiskSpec(alpha=0.01, zeta=0.999, kind=MeasureKind.ES), 1.0)
    assert loose.regime == "es_loose_unconstrained"
    with pytest.raises(NoClosedFormRegime):
        solve_es(standard_market, u,
                 RiskSpec(alpha=0.01, zeta=0.7, kind=MeasureKind.ES), 1.0)
    linear = solve_es(standard_market, UtilityParams(1.0, 1.0),
                      RiskSpec(**ES01), 1.0)
    assert linear.regime == "es_linear"


def test_budget_after_consumption_decreasing_es(standard_market):
    # what consuming kappa < zeta leaves is rho*_ES of the level (zeta-kappa)/(1-kappa)
    spec = RiskSpec(**ES01)
    ks = np.linspace(0.0, spec.zeta, 30)
    rhos = np.array([budget_after(standard_market, spec, k) for k in ks])
    rest = [rho_es(standard_market, RiskSpec(alpha=spec.alpha, zeta=(spec.zeta - k) / (1.0 - k),
                                             kind=spec.kind)) for k in ks[:-1]]
    assert rhos[:-1] == pytest.approx(rest, abs=1e-10)
    assert rhos[0] == pytest.approx(rho_es(standard_market, spec), abs=1e-10)
    assert np.all(np.diff(rhos) < 0)
    assert rhos[-1] == 0.0


def test_log_functional_bound_chain(standard_market):
    # L*_T + V_T <= psi(||y||_T, 1) for any strategy in the class
    rng = np.random.default_rng(53)
    spec = RiskSpec(**ES01)
    psi = PsiFunction(standard_market.theta_norm_T, spec.abs_z)
    from conftest import random_strategy
    for _ in range(50):
        s = random_strategy(rng, standard_market)
        cum = cumulants(standard_market, s)
        T = standard_market.horizon
        lstar_T = float(log_risk_es(cum, spec.abs_z, T))
        assert lstar_T + float(cum.V(T)) <= float(psi(np.sqrt(cum.ynn.end_value), 1.0)) + 1e-12
