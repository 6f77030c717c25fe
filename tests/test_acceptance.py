"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS line with its headline numbers (visible with
pytest -s); any assertion failure marks the criterion red.
"""

import time

import numpy as np
import pytest

from merton_risk.bounded import big_g, kappa_hat, solve_linear, solve_tight
from merton_risk.es_bound import (
    ES,
    es_loose_threshold,
    rho_es,
    rho_es_upper_bound,
)
from merton_risk.hjb import hjb_residual
from merton_risk.mc import (
    SimConfig,
    empirical_risk_curve,
    estimate_cost,
    simulate_deterministic,
    simulate_hara_feedback,
)
from merton_risk.oracle import grid_search_oracle
from merton_risk.risk import MeasureKind, RiskSpec, constraint_profile
from merton_risk.strategies import GrowthFractionConsumption, cumulants
from merton_risk.utility import UtilityParams
from merton_risk.var_bound import VAR, l_star, rho_var

from conftest import (
    constant_market,
    random_market,
    random_strategy,
    theta_market,
    unit_feedback,
)
from cross_checks import (
    PsiFunction,
    budget_after,
    empirical_stderr,
    expected_shortfall,
    exposure_growth_factor,
    log_risk_es,
    log_risk_var,
    quantile_lambda,
    value_at_risk,
)

STANDARD = dict(r=0.0, mu=0.1, sigma=0.2, T=1.0)  # theta = 0.5


def standard():
    return constant_market(STANDARD["r"], [STANDARD["mu"]],
                           [[STANDARD["sigma"]]], STANDARD["T"])


def report(name, runtime, limit, **numbers):
    detail = " ".join(f"{k}={v:.3g}" for k, v in numbers.items())
    print(f"[{name}] PASS ({runtime:.1f}s < {limit:.0f}s) {detail}")


def test_criterion_1_closed_form_vs_monte_carlo():
    """Equal-exponent optimum sqrt(2) reproduced by 1e6 exact feedback paths."""
    t0 = time.time()
    m = constant_market(0.0, [0.0], [[0.2]], 1.0)
    u = UtilityParams(0.5, 0.5)
    target = np.sqrt(2.0)
    ens = simulate_hara_feedback(m, u, 1.0,
                                 SimConfig(n_paths=1_000_000, seed=101,
                                           n_steps=8))
    est, se = estimate_cost(ens, u)
    # zero-variance instance: the band collapses, keep a float-noise floor
    assert abs(est - target) <= 3 * se + 1e-9
    elapsed = time.time() - t0
    assert elapsed < 30
    report("criterion 1", elapsed, 30, estimate=est, target=target,
           stderr=se)


def test_criterion_2_hjb_residual_random_markets():
    """Dynamic-programming residual < 1e-7 relative, terminal row < 1e-12."""
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst_res, worst_term = 0.0, 0.0
    for _ in range(5):
        m = random_market(rng, d=int(rng.integers(1, 3)), max_pieces=4)
        u = UtilityParams(float(rng.uniform(0.1, 0.9)),
                          float(rng.uniform(0.1, 0.9)))
        rep = hjb_residual(m, u, unit_feedback(m, u), n_t=50, n_x=50)
        worst_res = max(worst_res, rep.max_abs_residual)
        worst_term = max(worst_term, rep.terminal_error)
    assert worst_res < 1e-7
    assert worst_term < 1e-12
    elapsed = time.time() - t0
    assert elapsed < 60
    report("criterion 2", elapsed, 60, max_residual=worst_res,
           terminal=worst_term)


def test_criterion_3_root_certificates():
    """rho* roots satisfy their defining equations to 1e-10 plus the cap."""
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst_var, worst_es = 0.0, 0.0
    for _ in range(200):
        alpha = float(rng.uniform(1e-4, 0.45))
        zeta = float(rng.uniform(0.01, 0.99))
        spec_v = RiskSpec(alpha=alpha, zeta=zeta, kind=MeasureKind.VAR)
        tn = float(rng.uniform(0.0, spec_v.abs_z / 2.0))
        m = theta_market(tn)
        spec_e = RiskSpec(alpha=alpha, zeta=zeta, kind=MeasureKind.ES)

        r_v = rho_var(m, spec_v)
        res_v = abs(tn * r_v - 0.5 * r_v ** 2 - spec_v.abs_z * r_v
                    - spec_v.log_bound())
        worst_var = max(worst_var, res_v)

        r_e = rho_es(m, spec_e)
        psi = PsiFunction(m.theta_norm_T, spec_e.abs_z)
        res_e = abs(float(psi(r_e, 1.0)) - spec_e.log_bound())
        worst_es = max(worst_es, res_e)
        if spec_e.abs_z > 1.0:
            assert r_e <= rho_es_upper_bound(m, spec_e) + 1e-12
    assert worst_var < 1e-10
    assert worst_es < 1e-10
    elapsed = time.time() - t0
    assert elapsed < 5
    report("criterion 3", elapsed, 5, var_residual=worst_var,
           es_residual=worst_es)


def test_criterion_4_constraint_saturation():
    """Linear optima saturate the bound; empirical curves confirm it."""
    t0 = time.time()
    m = standard()
    x = 1.0
    grid = np.linspace(0.0, 1.0, 21)
    saturation = {}
    for kind, rules, log_form in ((MeasureKind.VAR, VAR, log_risk_var),
                                  (MeasureKind.ES, ES, log_risk_es)):
        spec = RiskSpec(alpha=0.01, zeta=0.1, kind=kind)
        sol = solve_linear(rules, m, spec, x)
        prof = constraint_profile(m, sol.strategy, spec, x,
                                  np.linspace(0.0, m.horizon, 10_000))
        log_curve = log_form(cumulants(m, sol.strategy), spec.abs_z, prof.times)
        gap = abs(float(np.min(log_curve)) - spec.log_bound())
        assert gap <= 1e-9
        saturation[kind.value] = gap

        ens = simulate_deterministic(m, sol.strategy, UtilityParams(1.0, 1.0), x,
                                     SimConfig(n_paths=1_000_000,
                                               seed=404, time_grid=grid),
                                     alpha=spec.alpha)
        emp = empirical_risk_curve(ens, spec, x, m)
        var_se, es_se = empirical_stderr(ens, spec)
        stderr = var_se if kind == MeasureKind.VAR else es_se
        sig = stderr / emp.level_curve
        worst = float(np.max((emp.ratio_curve - 1.0)
                             / np.maximum(sig, 1e-12)))
        assert worst <= 4.0
        del ens
    elapsed = time.time() - t0
    assert elapsed < 60
    report("criterion 4", elapsed, 60, var_gap=saturation["var"],
           es_gap=saturation["es"])


def test_criterion_5_oracle_dominance_and_attainment():
    """Grid search never beats the solver and comes within 1e-3 of it."""
    t0 = time.time()
    m = standard()
    x = 1.0
    gaps = {}

    spec_v = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    sol_v = solve_linear(VAR, m, spec_v, x)
    rho_hi = 2.0 * rho_var(m, spec_v)
    res = grid_search_oracle(m, UtilityParams(1.0, 1.0), spec_v, x,
                             np.arange(0, rho_hi, 1e-4))
    assert res.best_cost <= sol_v.value * (1 + 1e-9)
    gaps["var_linear"] = (sol_v.value - res.best_cost) / sol_v.value
    assert gaps["var_linear"] < 1e-3

    spec_e = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.ES)
    sol_e = solve_linear(ES, m, spec_e, x)
    rho_hi = 2.0 * rho_es(m, spec_e)
    res = grid_search_oracle(m, UtilityParams(1.0, 1.0), spec_e, x,
                             np.arange(0, rho_hi, 1e-4))
    assert res.best_cost <= sol_e.value * (1 + 1e-9)
    gaps["es_linear"] = (sol_e.value - res.best_cost) / sol_e.value
    assert gaps["es_linear"] < 1e-3

    u = UtilityParams(0.5, 0.5)
    sol_t = solve_tight(VAR, m, u, spec_v, x)
    res = grid_search_oracle(
        m, u, spec_v, x,
        np.arange(0, 0.12, 1e-4), v_levels=np.linspace(0.0, 0.25, 126), v_pieces=8)
    assert res.best_cost <= sol_t.value * (1 + 1e-9)
    gaps["tight"] = (sol_t.value - res.best_cost) / sol_t.value
    assert gaps["tight"] < 1e-3

    elapsed = time.time() - t0
    assert elapsed < 300
    report("criterion 5", elapsed, 300, **gaps)


def test_criterion_6_regime_complementarity():
    """Loose-bound thresholds dominate the tight-bound cap on a 20x20x5 grid."""
    t0 = time.time()
    alphas = (0.001, 0.01, 0.05, 0.1, 0.25)
    gammas = np.linspace(0.05, 0.95, 20)
    worst_var, worst_es = np.inf, np.inf
    checked = 0
    for alpha in alphas:
        spec = RiskSpec(alpha=alpha, zeta=0.5, kind=MeasureKind.VAR)
        tns = np.linspace(0.0, spec.abs_z / 2.0, 21)[1:]  # 20 strictly > 0
        for tn in tns:
            m = theta_market(float(tn))
            for gamma in gammas:
                kh = kappa_hat(m, float(gamma))
                margin_v = (1.0 - np.exp(l_star(m, float(gamma), spec))) - kh
                margin_e = es_loose_threshold(m, float(gamma), spec) - kh
                worst_var = min(worst_var, margin_v)
                worst_es = min(worst_es, margin_e)
                checked += 1
    assert checked == 20 * 20 * 5
    assert worst_var >= -1e-12
    assert worst_es >= -1e-12
    elapsed = time.time() - t0
    assert elapsed < 10
    report("criterion 6", elapsed, 10, min_var_margin=worst_var,
           min_es_margin=worst_es, points=checked)


def test_criterion_7_tight_regime_identities():
    """Consumed budget, wealth/consumption identities, constant-rate forms."""
    t0 = time.time()
    x, zeta, gamma = 1.0, 0.1, 0.5
    u = UtilityParams(gamma, gamma)

    # unit-horizon zero-rate instance: V*_T and the direct wealth identity
    m0 = standard()
    spec = RiskSpec(alpha=0.01, zeta=zeta, kind=MeasureKind.VAR)
    sol0 = solve_tight(VAR, m0, u, spec, x)
    ts = np.linspace(0.0, 1.0, 101)
    v0 = sol0.strategy.v_at(m0, ts)
    X0 = sol0.wealth_mean(ts)
    V_T = float(sol0.strategy.consumption.V_of(m0, 1.0))
    assert abs(V_T + np.log1p(-zeta)) <= 1e-12
    assert float(np.max(np.abs(X0 - x * zeta / v0 * np.exp(m0.R(ts))))) \
        <= 1e-12

    # constant-rate instance: printed consumption display and the
    # self-consistent wealth normalization (X*_0 = x)
    r, T = 0.05, 1.0
    q = 1.0 / (1.0 - gamma)
    a = gamma * q * r
    mr_ = constant_market(r, [r], [[0.2]], T)
    sol_r = solve_tight(ES, mr_, u,
                        RiskSpec(alpha=0.01, zeta=zeta, kind=MeasureKind.ES), x)
    ts = np.linspace(0.0, T, 101)
    v = sol_r.strategy.v_at(mr_, ts)
    v_expected = zeta * a / (np.exp(a * (T - ts)) - zeta
                             - (1.0 - zeta) * np.exp(-a * ts))
    v_err = float(np.max(np.abs(v - v_expected)))
    assert v_err <= 1e-12
    X = sol_r.wealth_mean(ts)
    X_expected = (x * np.exp(r * ts)
                  * (np.exp(a * T) - zeta * np.exp(a * ts) - (1.0 - zeta))
                  / (np.exp(a * T) - 1.0))
    X_err = float(np.max(np.abs(X - X_expected)))
    assert X_err <= 1e-12
    assert X[0] == pytest.approx(x, abs=1e-14)
    # general consumption identity c* = x zeta N^q(t) e^{R_t} / ||N||_{q,T}^q
    norm_q = GrowthFractionConsumption(q * gamma).integral(mr_)(T)
    c_err = float(np.max(np.abs(
        v * X - x * zeta * np.exp(q * gamma * mr_.R(ts))
        * np.exp(mr_.R(ts)) / norm_q)))
    assert c_err <= 1e-12
    assert sol_r.value == pytest.approx(big_g(mr_, u, x, zeta)[0], rel=1e-14)

    elapsed = time.time() - t0
    assert elapsed < 1
    report("criterion 7", elapsed, 1, v_err=v_err, X_err=X_err, c_err=c_err)


def test_criterion_8_risk_measures_vs_monte_carlo():
    """Closed-form quantile/VaR/ES confirmed by 1e6 exact samples each."""
    t0 = time.time()
    rng = np.random.default_rng(808)
    n = 1_000_000
    worst_z = 0.0
    for k in range(20):
        m = random_market(rng, d=int(rng.integers(1, 3)), max_pieces=3)
        s = random_strategy(rng, m, y_scale=0.6, v_scale=0.5)
        alpha = float(rng.uniform(0.005, 0.25))
        t = float(rng.uniform(0.2, m.horizon))
        x = float(rng.uniform(0.5, 2.0))

        lam_cf = quantile_lambda(m, s, alpha, x, t)
        var_cf = value_at_risk(m, s, alpha, x, t)
        es_cf = expected_shortfall(m, s, alpha, x, t)

        ens = simulate_deterministic(
            m, s, UtilityParams(0.5, 0.5), x, SimConfig(n_paths=n, seed=900 + k,
                               time_grid=np.array([0.0, t, m.horizon])))
        # the simulation grid absorbs strategy/market breakpoints: locate t
        k_t = int(np.argmin(np.abs(ens.times - t)))
        assert abs(ens.times[k_t] - t) < 1e-9
        col = ens.wealth[:, k_t]
        lam_emp = float(np.quantile(col, alpha))
        # asymptotic quantile std error with the exact lognormal density
        cum = cumulants(m, s)
        mu_log = np.log(x) + float(cum.log_drift(t))
        s_log = float(np.sqrt(cum.ynn(t)))
        dens = (np.exp(-0.5 * ((np.log(lam_cf) - mu_log) / s_log) ** 2)
                / (lam_cf * s_log * np.sqrt(2 * np.pi)))
        se_lam = np.sqrt(alpha * (1 - alpha) / n) / dens
        z_lam = abs(lam_emp - lam_cf) / se_lam
        # tail conditional mean with influence-function std error
        tail_mean = float(np.mean(col[col <= lam_emp]))
        uvals = col * (col <= lam_emp) + lam_emp * (alpha - (col <= lam_emp))
        se_m = float(np.std(uvals) / (alpha * np.sqrt(n)))
        bond = x * float(np.exp(m.R(t)))
        z_var = abs((bond - lam_emp) - var_cf) / se_lam
        z_es = abs((bond - tail_mean) - es_cf) / se_m
        worst_z = max(worst_z, z_lam, z_var, z_es)
        assert z_lam <= 4.0 and z_var <= 4.0 and z_es <= 4.0
        # ES dominates VaR along the whole horizon
        ts = np.linspace(0.05, m.horizon, 9)
        assert np.all(expected_shortfall(m, s, alpha, x, ts)
                      >= value_at_risk(m, s, alpha, x, ts) - 1e-12)
        del ens, col, uvals
    elapsed = time.time() - t0
    assert elapsed < 120
    report("criterion 8", elapsed, 120, worst_z=worst_z)


def test_criterion_9_monotonicity_suites():
    """psi monotone under the hypothesis; tilted split objective increasing."""
    t0 = time.time()
    m = standard()
    spec_e = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.ES)
    psi = PsiFunction(m.theta_norm_T, spec_e.abs_z)
    assert spec_e.abs_z >= 2.0 * m.theta_norm_T
    us = np.linspace(0.0, 1.0, 1000)
    for rho in np.geomspace(1e-3, 20.0, 25):
        vals = psi(float(rho), us)
        assert np.all(np.diff(vals) < 0)
    bound = rho_es_upper_bound(m, spec_e)
    rhos = np.linspace(0.0, 2.0 * bound, 2000)
    assert np.all(np.diff(psi(rhos, 1.0)) < 0)

    # tilted split objective M_i(rho(kappa)) G(x, kappa) nondecreasing
    u = UtilityParams(0.5, 0.5)
    spec_v = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    ks = np.linspace(0.0, spec_v.zeta, 200)
    budgets = [np.array([budget_after(m, spec, k) for k in ks])
               for spec in (spec_v, spec_e)]
    for gamma_i in (u.gamma1, u.gamma2):
        for rho_k in budgets:
            path = exposure_growth_factor(m, gamma_i, rho_k) \
                * big_g(m, u, 1.0, ks)[0]
            assert np.all(np.diff(path) >= -1e-12 * np.abs(path[:-1]))

    elapsed = time.time() - t0
    assert elapsed < 5
    report("criterion 9", elapsed, 5, psi_grids=25, split_points=len(ks))
