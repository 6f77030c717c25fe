"""Unconstrained solvers: linear, implicit feedback, equal exponents."""

import mpmath
import numpy as np
import pytest

from merton_risk._piecewise import to_ticks
from merton_risk.errors import ConvergenceFailure, NegativeRate, UnsupportedRegime
from merton_risk.mc import SimConfig, simulate_hara_feedback
from merton_risk.oracle import cost_closed_form
from merton_risk.strategies import cumulants
from merton_risk.unconstrained import (
    HaraFeedback,
    _solve_g,
    equal_gamma_value,
    hara_g,
    kappa_tilde,
    solve_equal_gamma,
    solve_hara_unconstrained,
    solve_linear_unconstrained,
    solve_unconstrained,
)
from merton_risk.utility import UtilityParams

from conftest import constant_market, random_market
from cross_checks import ensemble_consumption


def test_linear_bond_market():
    m = constant_market(0.05, [0.05], [[0.2]], 2.0)
    sol = solve_linear_unconstrained(m, 1.0)
    assert sol.value == pytest.approx(np.exp(0.1), rel=1e-14)
    # cross-check with the closed-form cost of the returned strategy
    cost = cost_closed_form(m, sol.strategy, UtilityParams(1.0, 1.0), 1.0)
    assert cost == pytest.approx(sol.value, rel=1e-14)


def test_linear_unbounded(standard_market):
    sol = solve_linear_unconstrained(standard_market, 1.0)
    assert sol.unbounded
    assert sol.regime == "unconstrained_linear_unbounded"


def test_linear_scales_with_endowment():
    m = constant_market(0.0, [0.1, 0.1], np.diag([0.3, 0.3]), 1.0)
    m0 = constant_market(0.0, [0.0, 0.0], np.diag([0.3, 0.3]), 1.0)
    assert solve_linear_unconstrained(m0, 5.0).value == pytest.approx(5.0)
    assert solve_linear_unconstrained(m, 5.0).unbounded


def test_linear_negative_rate_rejected():
    m = constant_market(-0.01, [-0.01], [[0.2]], 1.0)
    with pytest.raises(NegativeRate):
        solve_linear_unconstrained(m, 1.0)


# ---------------------------------------------------------------------------
# implicit g and the feedback solution
# ---------------------------------------------------------------------------

def test_g_terminal_closed_form():
    m = constant_market(0.02, [0.07], [[0.25]], 1.5)
    u = UtilityParams(0.4, 0.6)
    fb = solve_hara_unconstrained(m, u, 1.0).feedback
    for x in (0.5, 1.0, 3.0):
        expected = (u.gamma2 ** u.q2 / x) ** (1.0 / u.q2)
        assert fb.g(m.horizon, x) == pytest.approx(expected, rel=1e-12)
        # standalone accessor agrees with the feedback handle
        assert hara_g(m, u, m.horizon, x) == pytest.approx(
            fb.g(m.horizon, x), rel=1e-14)


def test_g_grid_matches_row_by_row():
    # a (t, x) grid solves each row of times exactly as its own call does
    rng = np.random.default_rng(71)
    for d in (2, 3, 2, 3):
        m = random_market(rng, d=d, max_pieces=4)
        u = UtilityParams(float(rng.uniform(0.15, 0.45)),
                          float(rng.uniform(0.55, 0.9)))
        fb = solve_hara_unconstrained(m, u, 1.0).feedback
        ts = np.concatenate([np.sort(rng.uniform(0.0, m.horizon, 40)),
                             [0.0, m.horizon]])
        xs = np.linspace(0.05, 8.0, 60)
        grid = fb.g(ts[:, None], xs)
        np.testing.assert_array_equal(grid,
                                      np.array([fb.g(t, xs) for t in ts]))
        # and each element as its own scalar call does, on a seeded sample
        for i, j in zip(rng.integers(0, len(ts), 160), rng.integers(0, len(xs), 160)):
            assert grid[i, j] == fb.g(ts[i], xs[j]), (ts[i], xs[j])


def test_g_grid_row_without_root_raises():
    A1 = np.array([[0.5], [0.5], [0.5]])
    A2 = np.array([[1.0], [np.nan], [2.0]])
    xs = np.linspace(0.5, 3.0, 7)
    # the other rows alone converge; the row without a root fails the grid
    _solve_g(A1[[0, 2]], A2[[0, 2]], 2.0, 3.0, xs)
    with pytest.raises(ConvergenceFailure):
        _solve_g(A1, A2, 2.0, 3.0, xs)


def test_g_converges_when_one_term_swamps_the_other():
    # d = 3 market at T = 1e-3, gamma1 = 0.99, gamma2 = 0.01: above the root
    # the first term dominates, where a Newton step on the linear residual
    # moves u = ln g by only about 1/q1
    A1, A2, q1, q2, x = 8.5e8, 0.0095, 100.0, 1 / 0.99, 1.0
    g = _solve_g(A1, A2, q1, q2, x)
    with mpmath.workdps(50):
        exact = mpmath.exp(mpmath.findroot(
            lambda u: mpmath.log(mpmath.mpf(A1) * mpmath.exp(-q1 * u)
                                 + mpmath.mpf(A2) * mpmath.exp(-q2 * u)) - mpmath.log(x),
            (mpmath.mpf(0), mpmath.mpf(1)), solver="anderson"))
        assert abs(mpmath.mpf(float(g)) / exact - 1) <= 2e-16


def test_g_equal_gamma_reduction():
    m = constant_market(0.03, [0.08], [[0.3]], 1.0)
    gamma, q = 0.5, 2.0
    u = UtilityParams(gamma, gamma)
    fb = solve_hara_unconstrained(m, u, 1.0).feedback
    for t in (0.0, 0.35, 0.9):
        A = fb.A1(t) + fb.A2(t)
        for x in (0.5, 2.0):
            assert fb.g(t, x) == pytest.approx((A / x) ** (1.0 / q),
                                               rel=1e-12)


def test_g_residual_and_monotonicity():
    rng = np.random.default_rng(17)
    m = random_market(rng, d=2, max_pieces=3)
    u = UtilityParams(0.35, 0.75)
    fb = solve_hara_unconstrained(m, u, 1.0).feedback
    xs = np.linspace(0.2, 5.0, 40)
    for t in (0.1, 0.52, 0.97):
        g = fb.g(t, xs)
        A1, A2 = fb.A1(t), fb.A2(t)
        residual = A1 * g ** -u.q1 + A2 * g ** -u.q2 - xs
        assert np.max(np.abs(residual) / xs) < 1e-12
        assert np.all(np.diff(g) < 0)  # g decreasing in wealth


def test_feedback_value_sqrt2():
    m = constant_market(0.0, [0.0], [[0.2]], 1.0)
    u = UtilityParams(0.5, 0.5)
    sol = solve_hara_unconstrained(m, u, 1.0)
    assert sol.value == pytest.approx(np.sqrt(2.0), rel=1e-13)


def test_feedback_terminal_consumption_consistency():
    m = constant_market(0.01, [0.06], [[0.22]], 1.0)
    u = UtilityParams(0.3, 0.8)
    fb = solve_hara_unconstrained(m, u, 1.0).feedback
    for x in (0.7, 1.8):
        g_T = (u.gamma2 ** u.q2 / x) ** (1.0 / u.q2)
        assert fb.c_from_g(fb.g(m.horizon, x)) == pytest.approx(
            (u.gamma1 / g_T) ** u.q1, rel=1e-12)


def test_hara_coefficient_ode_residuals():
    rng = np.random.default_rng(19)
    for _ in range(5):
        m = random_market(rng, max_pieces=4)
        u = UtilityParams(float(rng.uniform(0.15, 0.85)),
                          float(rng.uniform(0.15, 0.85)))
        fb = HaraFeedback.build(m, u, 1.0)
        # interior points away from breakpoints
        ts = []
        for a, b in zip(m.nodes[:-1], m.nodes[1:]):
            ts.extend(np.linspace(a, b, 250)[1:-1])
        ts = np.asarray(ts)
        h = 1e-6
        ok = (ts - h > 0) & (ts + h < m.horizon)
        for a, b in zip(m.nodes[:-1], m.nodes[1:]):
            ok &= ~((ts - h < a) & (ts + h > a)) & ~((ts - h < b) & (ts + h > b))
        ts = ts[ok]
        fd1 = (fb.A1(ts + h) - fb.A1(ts - h)) / (2 * h)
        res1 = fd1 - fb.A1_dot(ts)
        scale1 = np.abs(fb.A1_dot(ts)) + 1.0
        assert np.max(np.abs(res1) / scale1) < 1e-8
        fd2 = (fb.A2(ts + h) - fb.A2(ts - h)) / (2 * h)
        res2 = fd2 - fb.A2_dot(ts)
        scale2 = np.abs(fb.A2_dot(ts)) + 1.0
        assert np.max(np.abs(res2) / scale2) < 1e-8


def test_terminal_conditions():
    m = constant_market(0.02, [0.09], [[0.3]], 2.0)
    u = UtilityParams(0.45, 0.65)
    fb = HaraFeedback.build(m, u, 1.0)
    assert fb.A1(2.0) == 0.0
    assert fb.A2(2.0) == pytest.approx(u.gamma2 ** u.q2, rel=1e-14)
    assert np.all(fb.A1(np.linspace(0, 1.99, 50)) > 0)


# ---------------------------------------------------------------------------
# equal exponents
# ---------------------------------------------------------------------------

def test_equal_gamma_flat_market_controls():
    m = constant_market(0.0, [0.0], [[0.2]], 1.0)
    sol = solve_equal_gamma(m, 0.5, 1.0)
    ts = np.linspace(0.0, 1.0, 11)
    v = sol.strategy.v_at(m, ts)
    assert np.allclose(v, 1.0 / (2.0 - ts), rtol=1e-12)
    cum = cumulants(m, sol.strategy)
    assert float(cum.V(m.horizon)) == pytest.approx(np.log(2.0), rel=1e-12)
    assert kappa_tilde(m, 0.5) == pytest.approx(0.5, rel=1e-13)
    # quadrature oracle for V_T = int v
    ts_fine = np.linspace(0, 1, 20001)
    v_fine = sol.strategy.v_at(m, ts_fine)
    assert np.trapezoid(v_fine, ts_fine) == pytest.approx(np.log(2.0),
                                                          rel=1e-8)


def test_equal_gamma_exposure_scaling(standard_market):
    sol = solve_equal_gamma(standard_market, 0.5, 1.0)
    y = sol.strategy.y_path.value_at(to_ticks(np.array([0.3])))
    assert y[0, 0] == pytest.approx(2.0 * 0.5, rel=1e-14)  # theta/(1-gamma)


def test_equal_gamma_matches_general_feedback():
    rng = np.random.default_rng(23)
    for _ in range(5):
        m = random_market(rng, d=int(rng.integers(1, 3)), max_pieces=3)
        gamma = float(rng.uniform(0.2, 0.8))
        x = float(rng.uniform(0.5, 3.0))
        v1 = solve_equal_gamma(m, gamma, x).value
        v2 = solve_hara_unconstrained(m, UtilityParams(gamma, gamma), x).value
        assert v1 == pytest.approx(v2, rel=1e-10)
        assert v1 == pytest.approx(equal_gamma_value(m, gamma, x), rel=1e-14)


def test_equal_gamma_cost_of_strategy_equals_value():
    rng = np.random.default_rng(27)
    m = random_market(rng, max_pieces=3)
    gamma = 0.4
    sol = solve_equal_gamma(m, gamma, 1.3)
    cost = cost_closed_form(m, sol.strategy, UtilityParams(gamma, gamma), 1.3)
    assert cost == pytest.approx(sol.value, rel=1e-12)


def test_wealth_identity_on_simulated_paths(standard_market):
    # g(t, X*_t) = g(0, x) e^{xi_t} pathwise
    u = UtilityParams(0.5, 0.5)
    fb = solve_hara_unconstrained(standard_market, u, 1.0).feedback
    config = SimConfig(n_paths=64, seed=5, n_steps=16)
    ens = simulate_hara_feedback(standard_market, u, 1.0, config)
    g0 = fb.g(0.0, 1.0)
    q1, q2 = u.q1, u.q2
    consumption = ensemble_consumption(ens)
    for k, t in enumerate(ens.times):
        A1 = fb.A1(float(t))
        A2 = fb.A2(float(t))
        # invert the mixture per path and compare to direct g of wealth
        g_direct = np.array([fb.g(float(t), x) for x in ens.wealth[:, k]])
        # xi from consumption: c = (gamma1 / (g0 e^xi))^{q1}
        xi = np.log(u.gamma1 / consumption[:, k] ** (1.0 / q1)) - np.log(g0)
        g_path = g0 * np.exp(xi)
        assert np.allclose(g_direct, g_path, rtol=1e-8)
        recon = A1 * g_path ** -q1 + A2 * g_path ** -q2
        assert np.allclose(recon, ens.wealth[:, k], rtol=1e-10)


def test_dispatch_and_unsupported_regimes(standard_market):
    sol = solve_unconstrained(standard_market, UtilityParams(0.5, 0.5), 1.0)
    assert sol.regime == "unconstrained_equal_gamma"
    with pytest.raises(UnsupportedRegime):
        solve_unconstrained(standard_market, UtilityParams(0.5, 1.0), 1.0)
    with pytest.raises(UnsupportedRegime):
        solve_unconstrained(standard_market, UtilityParams(1.0, 0.5), 1.0)


def test_unconstrained_dominates_random_strategies():
    rng = np.random.default_rng(41)
    m = random_market(rng, max_pieces=3)
    u = UtilityParams(0.5, 0.5)
    best = solve_equal_gamma(m, 0.5, 1.0).value
    from conftest import random_strategy
    for _ in range(1000):
        s = random_strategy(rng, m, y_scale=1.5, v_scale=1.5)
        assert cost_closed_form(m, s, u, 1.0) <= best * (1 + 1e-9)


def test_feedback_json_surface(tmp_path):
    m = constant_market(0.02, [0.08], [[0.25]], 1.0)
    sol = solve_hara_unconstrained(m, UtilityParams(0.3, 0.6), 1.0)
    sol.write_json(tmp_path / "solution.json")
    sol.write_feedback_grids(tmp_path / "p.csv", tmp_path / "c.csv")
    assert (tmp_path / "p.csv").read_text().startswith("t,x,p")
