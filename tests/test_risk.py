"""Closed-form risk measures of lognormal wealth and the uniform bound."""

import numpy as np
import pytest

from merton_risk.bounded import solve_linear
from merton_risk.mc import SimConfig, empirical_risk_curve, simulate_deterministic
from merton_risk.risk import (
    MeasureKind,
    RiskSpec,
    SATURATION_TOL,
    constraint_profile,
)
from merton_risk.strategies import cumulants, scaled_theta_strategy
from merton_risk.utility import UtilityParams
from merton_risk.var_bound import VAR, rho_var

from conftest import bond_strategy, constant_market, random_market, random_strategy
from cross_checks import (
    constant_strategy,
    empirical_stderr,
    expected_shortfall,
    log_risk_es,
    log_risk_var,
    max_ratio,
    quantile_lambda,
    satisfied,
    value_at_risk,
)

# mpmath, 50 digits, instance x=1, r=0, v=0, y=0.5, T=1, alpha=0.01, t=1
LAMBDA_EX = 0.3541007021257063806
ES_EX = 0.69772692399324337968


def test_quantile_pure_bond(standard_market):
    s = bond_strategy(standard_market)
    for t in (0.0, 0.4, 1.0):
        lam = quantile_lambda(standard_market, s, 0.01, 1.0, t)
        assert lam == pytest.approx(np.exp(standard_market.R(t)), rel=1e-14)


def test_quantile_frozen_instance(standard_market):
    s = constant_strategy([0.5], 0.0, 1.0)
    lam = quantile_lambda(standard_market, s, 0.01, 1.0, 1.0)
    assert lam == pytest.approx(LAMBDA_EX, rel=1e-13)
    assert value_at_risk(standard_market, s, 0.01, 1.0, 1.0) == pytest.approx(
        1.0 - LAMBDA_EX, rel=1e-13)


def test_quantile_median_limit(standard_market):
    # alpha -> 1/2 recovers the median x exp(R - V + (y,theta) - ||y||^2/2)
    s = constant_strategy([0.5], 0.1, 1.0)
    lam = quantile_lambda(standard_market, s, 0.4999999, 1.0, 1.0)
    cum = cumulants(standard_market, s)
    assert lam == pytest.approx(float(np.exp(cum.log_drift(1.0))), rel=1e-5)


def test_var_es_zero_exposure_identity():
    # with y = 0 both measures equal x e^R (1 - e^{-V})
    m = constant_market(0.03, [0.03], [[0.25]], 2.0)
    s = constant_strategy([0.0], 0.4, 2.0)
    for t in (0.5, 2.0):
        expected = np.exp(m.R(t)) * (1.0 - np.exp(-0.4 * t))
        assert value_at_risk(m, s, 0.05, 1.0, t) == pytest.approx(
            expected, rel=1e-12)
        assert expected_shortfall(m, s, 0.05, 1.0, t) == pytest.approx(
            expected, rel=1e-12)


def test_es_frozen_instance(standard_market):
    s = constant_strategy([0.5], 0.0, 1.0)
    es = expected_shortfall(standard_market, s, 0.01, 1.0, 1.0)
    assert es == pytest.approx(ES_EX, rel=1e-12)


def test_small_alpha_limit(standard_market):
    # alpha -> 0 drives both measures to the full bond value; the gap decays
    # like e^{-|z_alpha| ||y||}, so alpha = 1e-6 reaches 1e-3 once the total
    # exposure is a few units
    s = constant_strategy([3.0], 0.2, 1.0)
    bond = 1.0
    var = value_at_risk(standard_market, s, 1e-6, 1.0, 1.0)
    es = expected_shortfall(standard_market, s, 1e-6, 1.0, 1.0)
    assert var == pytest.approx(bond, rel=1e-3)
    assert es == pytest.approx(bond, rel=1e-3)
    assert var <= es <= bond + 1e-12
    # and the gap shrinks monotonically along a decreasing-alpha sweep
    gaps = [bond - value_at_risk(standard_market, s, a, 1.0, 1.0)
            for a in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
    assert np.all(np.diff(gaps) < 0)


def test_es_dominates_var_random_sweep():
    rng = np.random.default_rng(29)
    for _ in range(200):
        m = random_market(rng, d=int(rng.integers(1, 3)))
        s = random_strategy(rng, m)
        t = float(rng.uniform(0.05, m.horizon))
        alpha = float(rng.uniform(0.005, 0.45))
        var = value_at_risk(m, s, alpha, 1.0, t)
        es = expected_shortfall(m, s, alpha, 1.0, t)
        assert es >= var - 1e-12


def test_ratio_and_log_verdicts_agree():
    rng = np.random.default_rng(31)
    for _ in range(40):
        m = random_market(rng)
        s = random_strategy(rng, m)
        for kind, log_form in ((MeasureKind.VAR, log_risk_var),
                               (MeasureKind.ES, log_risk_es)):
            spec = RiskSpec(alpha=float(rng.uniform(0.01, 0.4)),
                            zeta=float(rng.uniform(0.05, 0.9)), kind=kind)
            prof = constraint_profile(m, s, spec, 1.0, np.linspace(0.0, m.horizon, 500))
            log_curve = log_form(cumulants(m, s), spec.abs_z, prof.times)
            assert satisfied(prof, 1e-9) == bool(
                np.min(log_curve) >= spec.log_bound() - 1e-9)


def test_profile_trivial_strategy(standard_market):
    spec = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    prof = constraint_profile(standard_market, bond_strategy(standard_market),
                              spec, 1.0, np.linspace(0.0, standard_market.horizon, 100))
    assert max_ratio(prof) == 0.0
    assert satisfied(prof)


def test_profile_saturates_at_linear_var_optimum(standard_market):
    spec = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    sol = solve_linear(VAR, standard_market, spec, 1.0)
    prof = constraint_profile(standard_market, sol.strategy, spec, 1.0,
                              np.linspace(0.0, standard_market.horizon, 10_000))
    assert max_ratio(prof) == pytest.approx(1.0, abs=1e-9)
    assert prof.times[np.argmax(prof.ratio_curve)] == pytest.approx(1.0, abs=1e-9)


def test_profile_violated_when_exposure_doubled(standard_market):
    spec = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    rho = rho_var(standard_market, spec)
    s = scaled_theta_strategy(standard_market, 2.0 * rho / standard_market.theta_norm_T)
    prof = constraint_profile(standard_market, s, spec, 1.0,
                              np.linspace(0.0, standard_market.horizon, 10_000))
    assert max_ratio(prof) > 1.0 + 1e-6
    log_curve = log_risk_var(cumulants(standard_market, s), spec.abs_z, prof.times)
    assert not np.min(log_curve) >= spec.log_bound() - SATURATION_TOL


def test_log_forms_match_direct_measures(standard_market):
    rng = np.random.default_rng(5)
    s = random_strategy(rng, standard_market)
    spec = RiskSpec(alpha=0.05, zeta=0.3, kind=MeasureKind.VAR)
    cum = cumulants(standard_market, s)
    ts = np.linspace(0.01, 1.0, 13)
    L = log_risk_var(cum, spec.abs_z, ts)
    for t, l in zip(ts, L):
        var = value_at_risk(standard_market, s, 0.05, 1.0, t)
        bond = np.exp(standard_market.R(t))
        # VaR <= zeta * bond  <=>  L >= ln(1-zeta)
        assert (var <= spec.zeta * bond) == (l >= spec.log_bound()) or \
            abs(var - spec.zeta * bond) < 1e-12
    # the shortfall mean lies below the quantile, so the ES log form is the
    # tighter (smaller) of the two
    Lstar = log_risk_es(cum, spec.abs_z, ts)
    assert np.all(Lstar <= L + 1e-12)


def test_closed_forms_match_monte_carlo(standard_market):
    spec = RiskSpec(alpha=0.02, zeta=0.5, kind=MeasureKind.ES)
    s = constant_strategy([0.45], 0.25, 1.0)
    config = SimConfig(n_paths=200_000, seed=99,
                       time_grid=np.array([0.0, 0.6, 1.0]))
    ens = simulate_deterministic(standard_market, s, UtilityParams(0.5, 0.5), 1.0,
                                 config, alpha=spec.alpha)
    prof = empirical_risk_curve(ens, spec, 1.0, standard_market)
    var_se, es_se = empirical_stderr(ens, spec)
    for k, t in enumerate(prof.times):
        if t == 0.0:
            continue
        var_cf = value_at_risk(standard_market, s, 0.02, 1.0, float(t))
        es_cf = expected_shortfall(standard_market, s, 0.02, 1.0, float(t))
        assert abs(prof.var_curve[k] - var_cf) <= 4 * var_se[k]
        assert abs(prof.es_curve[k] - es_cf) <= 4 * es_se[k]


def test_negative_risk_measures_unclamped():
    # strong enough excess return pushes the quantile above the bond account;
    # the negative measure is reported as-is (spare risk budget)
    m = constant_market(0.0, [0.6], [[0.2]], 1.0)  # theta = 3
    s = constant_strategy([3.0], 0.0, 1.0)
    var = value_at_risk(m, s, 0.25, 1.0, 1.0)
    es = expected_shortfall(m, s, 0.25, 1.0, 1.0)
    assert var < 0
    assert var <= es


def test_riskspec_validation():
    with pytest.raises(Exception):
        RiskSpec(alpha=0.7, zeta=0.1, kind=MeasureKind.VAR)
    with pytest.raises(Exception):
        RiskSpec(alpha=0.01, zeta=1.5, kind=MeasureKind.VAR)
