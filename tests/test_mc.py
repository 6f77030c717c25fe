"""Exact-law simulation, estimators, and the Euler cross-check."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats

from merton_risk import (
    InsufficientPaths,
    MeasureKind,
    RiskSpec,
    SimConfig,
    UtilityParams,
    constant_market,
    constant_strategy,
    cumulants,
    empirical_risk_curve,
    estimate_cost,
    quantile_lambda,
    simulate_deterministic,
    simulate_hara_feedback,
    solve_hara_unconstrained,
    solve_var_linear,
    step_strategy,
)
from merton_risk.mc import block_normals, simulate_feedback_euler

from conftest import bond_strategy


def test_pure_bond_paths_exact():
    m = constant_market(0.04, [0.04], [[0.2]], 2.0)
    ens = simulate_deterministic(m, bond_strategy(m), 1.5,
                                 SimConfig(n_paths=16, seed=1, n_steps=8))
    expected = 1.5 * np.exp(m.R(ens.times))
    assert np.allclose(ens.wealth, expected[None, :], rtol=1e-14)
    assert np.all(ens.consumption == 0.0)


def test_terminal_mean_within_mc_band(standard_market):
    s = constant_strategy([0.5], 0.0, 1.0)
    cum = cumulants(standard_market, s)
    ens = simulate_deterministic(standard_market, s, 1.0,
                                 SimConfig(n_paths=200_000, seed=11,
                                           n_steps=16))
    target = np.exp(standard_market.R(1.0) - cum.V(1.0) + cum.ydt(1.0))
    se = np.std(ens.terminal) / np.sqrt(ens.n_paths)
    assert abs(np.mean(ens.terminal) - target) <= 4 * se


def test_empirical_quantile_matches_closed_form(standard_market):
    s = constant_strategy([0.5], 0.1, 1.0)
    alpha = 0.01
    n = 400_000
    ens = simulate_deterministic(standard_market, s, 1.0,
                                 SimConfig(n_paths=n, seed=13, n_steps=4))
    lam_cf = quantile_lambda(standard_market, s, alpha, 1.0, 1.0)
    emp = float(np.quantile(ens.terminal, alpha))
    # order-statistic band
    order = np.sort(ens.terminal)
    j = int(4 * np.sqrt(n * alpha * (1 - alpha)))
    lo, hi = order[int(n * alpha) - j], order[int(n * alpha) + j]
    assert lo <= lam_cf <= hi
    assert emp == pytest.approx(lam_cf, rel=5e-2)


def test_seed_determinism(standard_market):
    s = constant_strategy([0.3], 0.2, 1.0)
    cfg = SimConfig(n_paths=1000, seed=77, n_steps=8)
    a = simulate_deterministic(standard_market, s, 1.0, cfg)
    b = simulate_deterministic(standard_market, s, 1.0, cfg)
    assert np.array_equal(a.wealth, b.wealth)
    other = simulate_deterministic(
        standard_market, s, 1.0, SimConfig(n_paths=1000, seed=78, n_steps=8))
    assert not np.array_equal(a.wealth, other.wealth)


def test_block_streams_extend_consistently():
    # growing the ensemble keeps the existing path blocks intact
    z1 = block_normals(5, 70_000, 3)
    z2 = block_normals(5, 80_000, 3)
    assert np.array_equal(z2[:70_000], z1)


def test_antithetic_variance_reduction(standard_market):
    s = constant_strategy([0.5], 0.0, 1.0)
    n = 40_000
    plain = simulate_deterministic(standard_market, s, 1.0,
                                   SimConfig(n_paths=n, seed=3, n_steps=4))
    anti = simulate_deterministic(
        standard_market, s, 1.0,
        SimConfig(n_paths=n, seed=3, n_steps=4, antithetic=True))
    half = n // 2
    pair_means = 0.5 * (anti.terminal[:half] + anti.terminal[half:])
    var_anti = np.var(pair_means) / half
    var_plain = np.var(plain.terminal) / n
    assert var_anti < 0.5 * var_plain
    _, se_anti = estimate_cost(anti, UtilityParams(1.0, 1.0))
    _, se_plain = estimate_cost(plain, UtilityParams(1.0, 1.0))
    assert se_anti < se_plain


def test_feedback_zero_theta_deterministic():
    m = constant_market(0.0, [0.0], [[0.2]], 1.0)
    u = UtilityParams(0.5, 0.5)
    ens = simulate_hara_feedback(m, u, 1.0, SimConfig(n_paths=32, seed=9,
                                                      n_steps=8))
    assert np.allclose(ens.wealth, ens.wealth[0][None, :], rtol=1e-14)
    est, se = estimate_cost(ens, u)
    assert est == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_feedback_cost_matches_value(standard_market):
    u = UtilityParams(0.5, 0.5)
    sol = solve_hara_unconstrained(standard_market, u, 1.0)
    ens = simulate_hara_feedback(standard_market, u, 1.0,
                                 SimConfig(n_paths=100_000, seed=21,
                                           n_steps=64))
    est, se = estimate_cost(ens, u)
    # trapezoid consumption bias is O(dt^2), folded into the tolerance
    assert abs(est - sol.value) <= 4 * se + 1e-3


def test_euler_cross_check_distribution(standard_market):
    u = UtilityParams(0.5, 0.5)
    n = 10_000
    exact = simulate_hara_feedback(standard_market, u, 1.0,
                                   SimConfig(n_paths=n, seed=31, n_steps=8))
    euler = simulate_feedback_euler(standard_market, u, 1.0, n_paths=n,
                                    n_steps=2000, seed=32)
    _, p = stats.ks_2samp(exact.terminal, euler)
    assert p > 0.01


def test_grid_refinement_keeps_the_law(standard_market):
    s = constant_strategy([0.4], 0.3, 1.0)
    coarse = simulate_deterministic(standard_market, s, 1.0,
                                    SimConfig(n_paths=20_000, seed=41,
                                              n_steps=4))
    fine = simulate_deterministic(standard_market, s, 1.0,
                                  SimConfig(n_paths=20_000, seed=42,
                                            n_steps=64))
    _, p = stats.ks_2samp(coarse.terminal, fine.terminal)
    assert p > 0.01


def test_empirical_curve_pure_bond():
    m = constant_market(0.02, [0.02], [[0.2]], 1.0)
    spec = RiskSpec(alpha=0.05, zeta=0.1, kind=MeasureKind.VAR)
    ens = simulate_deterministic(m, bond_strategy(m), 1.0,
                                 SimConfig(n_paths=5000, seed=1, n_steps=4))
    prof = empirical_risk_curve(ens, spec, 1.0, m)
    assert np.allclose(prof.var_curve, 0.0, atol=1e-12)
    assert np.allclose(prof.es_curve, 0.0, atol=1e-12)
    assert prof.max_ratio == 0.0


def test_empirical_curve_insufficient_paths():
    m = constant_market(0.0, [0.1], [[0.2]], 1.0)
    ens = simulate_deterministic(m, bond_strategy(m), 1.0,
                                 SimConfig(n_paths=500, seed=1, n_steps=4))
    spec = RiskSpec(alpha=0.05, zeta=0.1, kind=MeasureKind.VAR)
    with pytest.raises(InsufficientPaths):
        empirical_risk_curve(ens, spec, 1.0, m)


def test_linear_var_optimum_empirical_ratio(standard_market):
    spec = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    sol = solve_var_linear(standard_market, spec, 1.0)
    ens = simulate_deterministic(
        standard_market, sol.strategy, 1.0,
        SimConfig(n_paths=200_000, seed=51,
                  time_grid=np.linspace(0.0, 1.0, 11)))
    prof = empirical_risk_curve(ens, spec, 1.0, standard_market)
    sig = prof.var_stderr / prof.level_curve
    worst = np.max((prof.ratio_curve - 1.0) / np.maximum(sig, 1e-12))
    assert worst <= 3.0


# ---------------------------------------------------------------------------
# Streamed ensembles against the whole-matrix formulas
# ---------------------------------------------------------------------------

# Path counts spanning two 65,536-path Philox blocks (of drawn normals) and
# ending in a partial row chunk; antithetic runs draw (n + 1) // 2 rows.
STREAM_CASES = [
    ("riskless", 70_001, False), ("riskless", 140_001, True),
    ("risky", 70_001, False), ("risky", 140_001, True),
    ("feedback", 70_001, False), ("feedback", 140_001, True),
]
STREAM_UTILITY = UtilityParams(0.5, 0.4)
# (estimate, std_error) of estimate_cost from the whole-matrix implementation
STREAM_COSTS = {
    ("riskless", 70_001, False): (1.4477411501121724, 0.0),
    ("riskless", 140_001, True): (1.4477411501121722, 8.308148362110449e-14),
    ("risky", 70_001, False): (1.4904002119775994, 0.0008122786640743736),
    ("risky", 140_001, True): (1.4905358940368454, 0.0005741326173536923),
    ("feedback", 70_001, False): (1.6688103764122684, 0.0013555114909240087),
    ("feedback", 140_001, True): (1.6687179653222213, 0.0009590649689909397),
}


def _stream_case(kind, n, antithetic):
    m = constant_market(0.03, [0.1], [[0.2]], 1.0)
    cfg = SimConfig(n_paths=n, seed=7, n_steps=12, antithetic=antithetic)
    if kind == "feedback":
        return m, None, simulate_hara_feedback(m, STREAM_UTILITY, 1.2, cfg)
    # dead consumption steps (v = 0) leave gaps in the exact-integral steps
    y = [(0.0, [0.0])] if kind == "riskless" else [(0.0, [0.5]),
                                                   (0.5, [0.2])]
    s = step_strategy(y, [(0.0, 0.3), (0.5, 0.0), (0.75, 0.6)], 1.0)
    return m, s, simulate_deterministic(m, s, 1.2, cfg)


def _whole_matrix_wealth(m, s, ens, n, antithetic):
    """x exp(cumsum(mean + sd z)) over the full normal matrix."""
    grid = ens.times
    if s is None:
        fb = solve_hara_unconstrained(m, STREAM_UTILITY, 1.2).feedback
        R, TS = m.R(grid), m.theta_sq_cum(grid)
        mean, var = -np.diff(R + 0.5 * TS), np.diff(TS)
    else:
        cum = cumulants(m, s)
        mean = np.diff(cum.log_drift(grid))
        var = np.diff(cum.log_var(grid))
    sd = np.sqrt(np.maximum(var, 0.0))
    z = block_normals(7, (n + 1) // 2 if antithetic else n, len(grid) - 1)
    if antithetic:
        z = np.vstack([z, -z])[:n]
    xi = np.hstack([np.zeros((n, 1)), np.cumsum(mean + sd * z, axis=1)])
    if s is not None:
        return 1.2 * np.exp(xi)
    g0 = fb.g(0.0, 1.2)
    q1, q2 = STREAM_UTILITY.q1, STREAM_UTILITY.q2
    return (fb.coeffs.A1(grid) * g0 ** -q1 * np.exp(-q1 * xi)
            + fb.coeffs.A2(grid) * g0 ** -q2 * np.exp(-q2 * xi))


@pytest.mark.parametrize("kind,n,antithetic", STREAM_CASES)
def test_streamed_ensemble_matches_whole_matrix(kind, n, antithetic):
    m, s, ens = _stream_case(kind, n, antithetic)
    assert np.array_equal(ens.wealth,
                          _whole_matrix_wealth(m, s, ens, n, antithetic))
    assert estimate_cost(ens, STREAM_UTILITY) == STREAM_COSTS[
        (kind, n, antithetic)]

    bond = 1.2 * np.exp(m.R(ens.times))
    # type-7 interpolation weights (n - 1) alpha mod 1 near 0, and 3/4 or 1/2
    for alpha in (0.01, 1 / 64):
        spec = RiskSpec(alpha=alpha, zeta=0.1, kind=MeasureKind.ES)
        prof = empirical_risk_curve(ens, spec, 1.2, m)
        j = int(np.sqrt(n * alpha * (1 - alpha)))
        for k in range(len(ens.times)):
            col = ens.wealth[:, k]
            lam = np.quantile(col, alpha)
            below = col <= lam
            order = np.sort(col)
            assert prof.var_curve[k] == bond[k] - lam
            assert prof.es_curve[k] == pytest.approx(
                bond[k] - np.mean(col[below]), rel=1e-12)
            assert prof.var_stderr[k] == max(
                (order[int(n * alpha) + j] - order[int(n * alpha) - j]) / 2,
                1e-300)
            u = col * below + lam * (alpha - below)
            assert prof.es_stderr[k] == np.std(u) / (alpha * np.sqrt(n))


def test_cost_and_sampling_memory_bounded_by_wealth():
    m = constant_market(0.03, [0.1], [[0.2]], 1.0)
    s = constant_strategy([0.5], 0.3, 1.0)
    cfg = SimConfig(n_paths=131_072, seed=3, n_steps=15)
    tracemalloc.start()
    try:
        ens = simulate_deterministic(m, s, 1.0, cfg)
        sample_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        estimate_cost(ens, STREAM_UTILITY)
        cost_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert ens.wealth.shape == (131_072, 16)
    assert sample_peak <= 2 * ens.wealth.nbytes
    assert cost_peak <= 0.5 * ens.wealth.nbytes
