"""Exact-law simulation, estimators, and the Euler cross-check."""

import os
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import stats

from merton_risk import cli, mc
from merton_risk.bounded import solve_linear
from merton_risk.errors import InputError, InsufficientPaths
from merton_risk.mc import (
    SimConfig,
    empirical_risk_curve,
    estimate_cost,
    simulate_deterministic,
    simulate_hara_feedback,
)
from merton_risk.oracle import cost_closed_form
from merton_risk.risk import MeasureKind, RiskSpec, constraint_profile
from merton_risk.strategies import cumulants, step_strategy
from merton_risk.unconstrained import solve_hara_unconstrained
from merton_risk.utility import UtilityParams
from merton_risk.var_bound import VAR
from mc_reference import block_normals, simulate_feedback_euler

from conftest import bond_strategy, constant_market, random_market, random_strategy
from cross_checks import (
    constant_strategy,
    empirical_stderr,
    ensemble_consumption,
    max_ratio,
    quantile_lambda,
)


def test_pure_bond_paths_exact():
    m = constant_market(0.04, [0.04], [[0.2]], 2.0)
    ens = simulate_deterministic(m, bond_strategy(m), STREAM_UTILITY, 1.5,
                                 SimConfig(n_paths=16, seed=1, n_steps=8))
    expected = 1.5 * np.exp(m.R(ens.times))
    assert np.allclose(ens.wealth, expected[None, :], rtol=1e-14)
    assert np.all(ensemble_consumption(ens) == 0.0)


def test_terminal_mean_within_mc_band(standard_market):
    s = constant_strategy([0.5], 0.0, 1.0)
    cum = cumulants(standard_market, s)
    ens = simulate_deterministic(standard_market, s, STREAM_UTILITY, 1.0,
                                 SimConfig(n_paths=200_000, seed=11,
                                           n_steps=16))
    target = np.exp(standard_market.R(1.0) - cum.V(1.0) + cum.ydt(1.0))
    se = np.std(ens.terminal) / np.sqrt(ens.n_paths)
    assert abs(np.mean(ens.terminal) - target) <= 4 * se


def test_empirical_quantile_matches_closed_form(standard_market):
    s = constant_strategy([0.5], 0.1, 1.0)
    alpha = 0.01
    n = 400_000
    ens = simulate_deterministic(standard_market, s, STREAM_UTILITY, 1.0,
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
    a = simulate_deterministic(standard_market, s, STREAM_UTILITY, 1.0, cfg)
    b = simulate_deterministic(standard_market, s, STREAM_UTILITY, 1.0, cfg)
    assert np.array_equal(a.wealth, b.wealth)
    other = simulate_deterministic(
        standard_market, s, STREAM_UTILITY, 1.0,
        SimConfig(n_paths=1000, seed=78, n_steps=8))
    assert not np.array_equal(a.wealth, other.wealth)


def test_block_streams_extend_consistently():
    # growing the ensemble keeps the existing path blocks intact
    z1 = block_normals(5, 70_000, 3)
    z2 = block_normals(5, 80_000, 3)
    assert np.array_equal(z2[:70_000], z1)


def test_antithetic_variance_reduction(standard_market):
    s = constant_strategy([0.5], 0.0, 1.0)
    n = 40_000
    u = UtilityParams(1.0, 1.0)
    plain = simulate_deterministic(standard_market, s, u, 1.0,
                                   SimConfig(n_paths=n, seed=3, n_steps=4))
    anti = simulate_deterministic(
        standard_market, s, u, 1.0,
        SimConfig(n_paths=n, seed=3, n_steps=4, antithetic=True))
    half = n // 2
    pair_means = 0.5 * (anti.terminal[:half] + anti.terminal[half:])
    var_anti = np.var(pair_means) / half
    var_plain = np.var(plain.terminal) / n
    assert var_anti < 0.5 * var_plain
    _, se_anti = estimate_cost(anti, u)
    _, se_plain = estimate_cost(plain, u)
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
    # with r > 0 consumption moves along the one path, and its cost on a
    # coarse grid is the value exactly: a trapezoid misses it by 8.5e-6 and
    # 1.5e-6 relative
    m = constant_market(0.05, [0.05], [[0.2]], 2.0)
    for u in (UtilityParams(0.5, 0.5), UtilityParams(0.3, 0.7)):
        ens = simulate_hara_feedback(m, u, 1.0, SimConfig(n_paths=32, seed=9,
                                                          n_steps=8))
        est, se = estimate_cost(ens, u)
        assert est == pytest.approx(solve_hara_unconstrained(m, u, 1.0).value,
                                    rel=1e-12)
        assert se == 0.0


def test_feedback_cost_matches_value(standard_market):
    u = UtilityParams(0.5, 0.5)
    sol = solve_hara_unconstrained(standard_market, u, 1.0)
    ens = simulate_hara_feedback(standard_market, u, 1.0,
                                 SimConfig(n_paths=100_000, seed=21,
                                           n_steps=64))
    est, se = estimate_cost(ens, u)
    assert abs(est - sol.value) <= 4 * se


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
    coarse = simulate_deterministic(standard_market, s, STREAM_UTILITY, 1.0,
                                    SimConfig(n_paths=20_000, seed=41,
                                              n_steps=4))
    fine = simulate_deterministic(standard_market, s, STREAM_UTILITY, 1.0,
                                  SimConfig(n_paths=20_000, seed=42,
                                            n_steps=64))
    _, p = stats.ks_2samp(coarse.terminal, fine.terminal)
    assert p > 0.01


def test_riskless_ensemble_cost_has_zero_std_error():
    # every path earns the same cost, so the jackknife spread is exactly 0
    # even where the rounded means of the values and of the jackknife differ
    m = constant_market(0.03, [0.1], [[0.2]], 1.0)
    s = constant_strategy([0.0], 0.2, 1.0)
    u = UtilityParams(0.5, 0.5)
    for n, antithetic in ((1001, False), (1002, True), (4096, False)):
        ens = simulate_deterministic(m, s, u, 1.2, SimConfig(
            n_paths=n, seed=3, n_steps=8, antithetic=antithetic))
        assert np.ptp(ens.wealth, axis=0).max() == 0.0
        est, se = estimate_cost(ens, u)
        assert np.isfinite(est) and se == 0.0


def test_profile_on_ensemble_grid_keeps_it():
    # the ensemble grid already holds every market and strategy node, so the
    # closed-form profile that simulate writes beside it keeps it row for row
    rng = np.random.default_rng(61)
    spec = RiskSpec(alpha=0.05, zeta=0.2, kind=MeasureKind.VAR)
    for _ in range(5):
        m = random_market(rng, d=2)
        s = random_strategy(rng, m)
        ens = simulate_deterministic(m, s, STREAM_UTILITY, 1.0,
                                     SimConfig(n_paths=16, seed=2, n_steps=7))
        assert len(m.node_ticks) > 2 or len(cumulants(m, s).node_ticks) > 2
        times = constraint_profile(m, s, spec, 1.0, grid=ens.times).times
        assert times.tobytes() == ens.times.tobytes()


def test_empirical_curve_pure_bond():
    m = constant_market(0.02, [0.02], [[0.2]], 1.0)
    spec = RiskSpec(alpha=0.05, zeta=0.1, kind=MeasureKind.VAR)
    ens = simulate_deterministic(m, bond_strategy(m), STREAM_UTILITY, 1.0,
                                 SimConfig(n_paths=5000, seed=1, n_steps=4),
                                 alpha=spec.alpha)
    prof = empirical_risk_curve(ens, spec, 1.0, m)
    assert np.allclose(prof.var_curve, 0.0, atol=1e-12)
    assert np.allclose(prof.es_curve, 0.0, atol=1e-12)
    assert max_ratio(prof) == 0.0


def test_empirical_curve_insufficient_paths():
    # the tail's size is known before sampling, so the sampler refuses
    m = constant_market(0.0, [0.1], [[0.2]], 1.0)
    with pytest.raises(InsufficientPaths):
        simulate_deterministic(m, bond_strategy(m), STREAM_UTILITY, 1.0,
                               SimConfig(n_paths=500, seed=1, n_steps=4),
                               alpha=0.05)


def test_empirical_curve_refuses_another_alpha():
    m = constant_market(0.03, [0.1], [[0.2]], 1.0)
    spec = RiskSpec(alpha=0.05, zeta=0.1, kind=MeasureKind.VAR)
    for alpha in (None, 0.1):
        ens = simulate_deterministic(m, constant_strategy([0.5], 0.3, 1.0),
                                     STREAM_UTILITY, 1.0,
                                     SimConfig(n_paths=3000, seed=1, n_steps=4),
                                     alpha=alpha)
        with pytest.raises(InputError):
            empirical_risk_curve(ens, spec, 1.0, m)


def test_linear_var_optimum_empirical_ratio(standard_market):
    spec = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    sol = solve_linear(VAR, standard_market, spec, 1.0)
    ens = simulate_deterministic(
        standard_market, sol.strategy, STREAM_UTILITY, 1.0,
        SimConfig(n_paths=200_000, seed=51,
                  time_grid=np.linspace(0.0, 1.0, 11)), alpha=spec.alpha)
    prof = empirical_risk_curve(ens, spec, 1.0, standard_market)
    sig = empirical_stderr(ens, spec)[0] / prof.level_curve
    worst = np.max((prof.ratio_curve - 1.0) / np.maximum(sig, 1e-12))
    assert worst <= 3.0


# ---------------------------------------------------------------------------
# Streamed ensembles against the whole-matrix formulas
# ---------------------------------------------------------------------------

# Path counts spanning two 65,536-path stream blocks (of drawn normals) and
# ending in a partial row chunk; antithetic runs draw (n + 1) // 2 rows.
STREAM_CASES = [
    ("riskless", 70_001, False), ("riskless", 140_001, True),
    ("risky", 70_001, False), ("risky", 140_001, True),
    ("feedback", 70_001, False), ("feedback", 140_001, True),
]
STREAM_UTILITY = UtilityParams(0.5, 0.4)
# (estimate, std_error) of estimate_cost.  The risky and feedback entries
# were computed over the whole matrix of block_normals' per-block SFC64
# streams, each law's exact cost kernel called once on every path and
# summed in time order.  The streamed figures equal them bit for bit.  The
# feedback entries follow the last bits of g0, the g-root at t = 0
STREAM_COSTS = {
    ("riskless", 70_001, False): (1.4477411501121724, 0.0),
    ("riskless", 140_001, True): (1.4477411501121722, 0.0),
    ("risky", 70_001, False): (1.4909465121294059, 0.0008090850948815915),
    ("risky", 140_001, True): (1.4903865209944662, 0.0005712296533064312),
    ("feedback", 70_001, False): (1.6670615491757947, 0.0013479668318807112),
    ("feedback", 140_001, True): (1.6685172584605055, 0.0009563365344000533),
}


def _stream_case(kind, n, antithetic, alpha=None, utility=STREAM_UTILITY,
                 n_steps=12):
    m = constant_market(0.03, [0.1], [[0.2]], 1.0)
    cfg = SimConfig(n_paths=n, seed=7, n_steps=n_steps, antithetic=antithetic)
    if kind == "feedback":
        return m, None, simulate_hara_feedback(m, utility, 1.2, cfg, alpha=alpha)
    # dead consumption steps (v = 0) leave gaps in the exact-integral steps
    y = [(0.0, [0.0])] if kind == "riskless" else [(0.0, [0.5]),
                                                   (0.5, [0.2])]
    s = step_strategy(y, [(0.0, 0.3), (0.5, 0.0), (0.75, 0.6)], 1.0)
    return m, s, simulate_deterministic(m, s, utility, 1.2, cfg, alpha=alpha)


def _whole_matrix_xi(m, s, ens, n, antithetic):
    """cumsum(mean + sd z) over the full normal matrix, from 0 at t = 0."""
    grid = ens.times
    if s is None:
        R, TS = m.R(grid), m.theta_sq_cum(grid)
        mean, var = -np.diff(R + 0.5 * TS), np.diff(TS)
    else:
        cum = cumulants(m, s)
        mean = np.diff(cum.log_drift(grid))
        var = np.diff(cum.ynn(grid))
    sd = np.sqrt(np.maximum(var, 0.0))
    z = block_normals(7, (n + 1) // 2 if antithetic else n, len(grid) - 1)
    if antithetic:
        z = np.vstack([z, -z])[:n]
    return np.hstack([np.zeros((n, 1)), np.cumsum(mean + sd * z, axis=1)])


def _whole_matrix_wealth(m, s, ens, n, antithetic):
    """x exp(xi), or the feedback law's mixture of exp(-q xi)."""
    xi = _whole_matrix_xi(m, s, ens, n, antithetic)
    if s is not None:
        return 1.2 * np.exp(xi)
    fb = solve_hara_unconstrained(m, STREAM_UTILITY, 1.2).feedback
    grid = ens.times
    g0 = fb.g(0.0, 1.2)
    q1, q2 = STREAM_UTILITY.q1, STREAM_UTILITY.q2
    return (fb.A1(grid) * g0 ** -q1 * np.exp(-q1 * xi)
            + fb.A2(grid) * g0 ** -q2 * np.exp(-q2 * xi))


@pytest.mark.parametrize("kind,n,antithetic", STREAM_CASES)
def test_streamed_ensemble_matches_whole_matrix(kind, n, antithetic):
    # type-7 interpolation weights (n - 1) alpha mod 1 near 0, and 3/4 or 1/2;
    # the tails are kept for one alpha, so each alpha samples its ensemble
    for alpha in (0.01, 1 / 64):
        m, s, ens = _stream_case(kind, n, antithetic, alpha)
        if alpha == 0.01:
            assert np.array_equal(ens.wealth,
                                  _whole_matrix_wealth(m, s, ens, n, antithetic))
        assert estimate_cost(ens, STREAM_UTILITY) == STREAM_COSTS[
            (kind, n, antithetic)]

        bond = 1.2 * np.exp(m.R(ens.times))
        spec = RiskSpec(alpha=alpha, zeta=0.1, kind=MeasureKind.ES)
        prof = empirical_risk_curve(ens, spec, 1.2, m)
        var_se, es_se = empirical_stderr(ens, spec)
        j = int(np.sqrt(n * alpha * (1 - alpha)))
        for k in range(len(ens.times)):
            col = ens.wealth[:, k]
            lam = np.quantile(col, alpha)
            below = col <= lam
            order = np.sort(col)
            assert prof.var_curve[k] == bond[k] - lam
            assert prof.es_curve[k] == pytest.approx(
                bond[k] - np.mean(col[below]), rel=1e-12)
            assert var_se[k] == max(
                (order[int(n * alpha) + j] - order[int(n * alpha) - j]) / 2,
                1e-300)
            u = col * below + lam * (alpha - below)
            assert es_se[k] == np.std(u) / (alpha * np.sqrt(n))


def test_cost_and_sampling_memory_bounded_by_wealth():
    m = constant_market(0.03, [0.1], [[0.2]], 1.0)
    s = constant_strategy([0.5], 0.3, 1.0)
    cfg = SimConfig(n_paths=131_072, seed=3, n_steps=15)
    # the wealth matrix is the only path-sized array, for both laws
    for sample in (lambda: simulate_deterministic(m, s, STREAM_UTILITY, 1.0, cfg),
                   lambda: simulate_hara_feedback(m, STREAM_UTILITY, 1.0, cfg)):
        tracemalloc.start()
        try:
            ens = sample()
            sample_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            estimate_cost(ens, STREAM_UTILITY)
            cost_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert ens.wealth.shape == (131_072, 16)
        assert sample_peak <= 1.25 * ens.wealth.nbytes, ens.kind
        assert cost_peak <= 0.5 * ens.wealth.nbytes, ens.kind
        del ens


@pytest.mark.parametrize("kind", ["risky", "feedback"])
def test_wealth_is_time_major(kind):
    _, _, ens = _stream_case(kind, 3000, False)
    assert ens.wealth.shape == (3000, len(ens.times))
    assert all(ens.wealth[:, k].flags.c_contiguous
               for k in range(len(ens.times)))


# chunk edges at multiples of mc._CHUNK rows, the stream block edge at
# 65,536 drawn rows, and (antithetic, n = 140,001) the mirrored half from
# row 70,001, whose chunk edges lie 70,001 rows past those of the first
REPLAY_SLICES = [slice(0, 40), slice(mc._CHUNK - 24, mc._CHUNK + 76),
                 slice(65_500, 65_600), slice(69_990, 70_001)]
MIRROR_SLICES = [slice(69_990, 70_020),
                 slice(70_001 + mc._CHUNK - 24, 70_001 + mc._CHUNK + 76),
                 slice(135_500, 135_600), slice(139_990, 140_001)]


def _replayed_consumption(kind, n, antithetic):
    """The ensemble and rows -> c from the whole-matrix formulas: the feedback
    rate of xi, or X v for the risky strategy."""
    m, s, ens = _stream_case(kind, n, antithetic)
    if s is not None:
        v = s.v_at(m, ens.times)
        return ens, lambda rows: ens.wealth[rows] * v
    xi = _whole_matrix_xi(m, None, ens, n, antithetic)
    g0 = solve_hara_unconstrained(m, STREAM_UTILITY, 1.2).feedback.g(0.0, 1.2)
    gamma1, q1 = STREAM_UTILITY.gamma1, STREAM_UTILITY.q1
    return ens, lambda rows: (gamma1 / (g0 * np.exp(xi[rows]))) ** q1


def _replayed_rows(ens, rows):
    """rows of the consumption chunks replayed for rows 0:rows.stop, which
    must follow one another from row 0."""
    firsts, chunks = zip(*((a, ens.rate(xi)) for a, xi in ens._replay(rows.stop)))
    assert list(firsts) == np.cumsum([0] + [len(c) for c in chunks[:-1]]).tolist()
    return np.concatenate(chunks)[rows]


# both laws rebuild consumption by replaying the stream
@pytest.mark.parametrize("n,antithetic,slices", [
    (70_001, False, REPLAY_SLICES),
    (140_001, True, REPLAY_SLICES + MIRROR_SLICES),
])
def test_feedback_consumption_replays_the_stream(n, antithetic, slices):
    for kind in ("risky", "feedback"):
        ens, want = _replayed_consumption(kind, n, antithetic)
        for rows in slices:
            assert np.array_equal(_replayed_rows(ens, rows), want(rows)), (kind, rows)
        if not antithetic:
            assert np.array_equal(ensemble_consumption(ens), want(slice(None))), kind


def test_feedback_consumption_replay_stops_at_the_last_row(monkeypatch):
    drawn = []
    log_paths = mc._log_paths

    def counting(*args):
        for rows, xi in log_paths(*args):
            drawn.append(rows)
            yield rows, xi

    monkeypatch.setattr(mc, "_log_paths", counting)
    for kind in ("risky", "feedback"):
        _, _, ens = _stream_case(kind, 70_001, False)
        drawn.clear()
        ens.write_csv(os.devnull, max_paths=40)
        assert drawn == [slice(0, mc._CHUNK)], kind


def test_feedback_cost_refuses_another_gamma1():
    _, _, ens = _stream_case("feedback", 3000, False)
    with pytest.raises(InputError):
        estimate_cost(ens, UtilityParams(0.3, STREAM_UTILITY.gamma2))
    # the terminal term is read from the wealth, so gamma2 may differ
    estimate_cost(ens, UtilityParams(STREAM_UTILITY.gamma1, 0.7))


@pytest.mark.parametrize("kind", ["riskless", "risky"])
def test_deterministic_cost_is_exact_for_its_gamma1(kind):
    # the exact integral is summed while sampling, for the sampled gamma1 only
    estimates = []
    for gamma1 in (0.5, 0.3):
        u = UtilityParams(gamma1, STREAM_UTILITY.gamma2)
        m, s, ens = _stream_case(kind, 3000, False, utility=u)
        est, se = estimate_cost(ens, u)
        assert abs(est - cost_closed_form(m, s, u, 1.2)) <= 4 * se + 1e-12
        estimates.append(est)
        with pytest.raises(InputError):
            estimate_cost(ens, UtilityParams(0.8, STREAM_UTILITY.gamma2))
    assert estimates[0] != estimates[1]


# with C = mc._CHUNK, the last row of n = 2C + 1 or 4C + 1, and of an
# antithetic half of C + 1 or 2C + 1 rows, is a stream chunk of one row, while
# n = 2C + 2 or 4C + 2 (plain) and 2C + 4 or 4C + 4 (antithetic) put those
# rows in chunks of two; either way a row's 64 steps are summed in time order
# (numpy would sum a lone row pairwise), and the row's cost is the same at
# every n
@pytest.mark.parametrize("kind,antithetic", [
    ("risky", False), ("risky", True), ("feedback", False), ("feedback", True)],
    ids=["False", "True", "feedback-False", "feedback-True"])
def test_path_cost_does_not_depend_on_n(kind, antithetic):
    costs = {}
    c = mc._CHUNK
    for n in (2 * c, 2 * c + 1, 2 * c + 2, 2 * c + 4, 4 * c + 1, 4 * c + 2, 4 * c + 4):
        _, _, ens = _stream_case(kind, n, antithetic, n_steps=64)
        half = ens.replay[0].drawn_rows
        # each drawn row's plain path, and its mirror
        costs[n] = (ens.consumption_cost[:half], ens.consumption_cost[half:])
    for a, b in zip(costs, list(costs)[1:]):
        for got, want in zip(costs[a], costs[b]):
            k = min(len(got), len(want))
            assert np.array_equal(got[:k], want[:k]), (a, b)


def _reference_curves(ens, spec, x, model):
    """VaR and ES curves from every column of the whole wealth matrix."""
    n = ens.n_paths
    virt = (n - 1) * spec.alpha
    q_lo = int(np.floor(virt))
    q_hi, gamma = min(q_lo + 1, n - 1), virt - q_lo
    bond = x * np.exp(model.R(ens.times))
    var, es = np.zeros_like(bond), np.zeros_like(bond)
    wealth = np.array(ens.wealth, order="F")
    for k in range(len(ens.times)):
        col = wealth[:, k]
        order = np.partition(col, [q_lo, q_hi])
        lo, hi = order[q_lo], order[q_hi]
        lam = float(hi - (hi - lo) * (1 - gamma) if gamma >= 0.5
                    else lo + (hi - lo) * gamma)
        var[k] = bond[k] - lam
        es[k] = bond[k] - float(np.mean(col[col <= lam]))
    return var, es


@pytest.mark.parametrize("n,antithetic", [(70_001, False), (140_001, True)])
def test_riskless_ensemble_is_one_path(n, antithetic):
    # no risky exposure: wealth is one read-only row broadcast to (n, m), and
    # cost and empirical risk read that row, with the bits of the full matrix
    spec = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.ES)
    tracemalloc.start()
    try:
        m, s, ens = _stream_case("riskless", n, antithetic, spec.alpha)
        cost = estimate_cost(ens, STREAM_UTILITY)
        prof = empirical_risk_curve(ens, spec, 1.2, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = 8 * n * len(ens.times)
    assert peak <= 0.25 * size
    assert ens.wealth.shape == (n, len(ens.times))
    assert not ens.wealth.flags.writeable

    assert cost == STREAM_COSTS[("riskless", n, antithetic)]
    want = _reference_curves(ens, spec, 1.2, m)
    for curve, ref in zip(("var_curve", "es_curve"), want):
        assert np.array_equal(getattr(prof, curve), ref), curve


# zero exposure before t = 0.5 leaves every path at the same wealth there, so
# each of those times has one value and its tail is every path; an exposure
# of 1e-15 leaves a few values there, so ties at the running threshold are
# selected as candidates
@pytest.mark.parametrize("exposure", [0.0, 1e-15])
@pytest.mark.parametrize("n,antithetic", [(70_001, False), (140_001, True)])
def test_tail_candidates_keep_ties(exposure, n, antithetic):
    m = constant_market(0.03, [0.1], [[0.2]], 1.0)
    s = step_strategy([(0.0, [exposure]), (0.5, [0.5])], [(0.0, 0.3)], 1.0)
    cfg = SimConfig(n_paths=n, seed=7, n_steps=12, antithetic=antithetic)
    for alpha in (0.01, 1 / 64, 0.3):
        ens = simulate_deterministic(m, s, STREAM_UTILITY, 1.2, cfg, alpha=alpha)
        head = ens.wealth[:, ens.times <= 0.5]
        distinct = max(len(np.unique(col)) for col in head.T)
        assert distinct == 1 if exposure == 0.0 else 1 < distinct < 100
        spec = RiskSpec(alpha=alpha, zeta=0.1, kind=MeasureKind.ES)
        prof = empirical_risk_curve(ens, spec, 1.2, m)
        var, es = _reference_curves(ens, spec, 1.2, m)
        assert np.array_equal(prof.var_curve, var), alpha
        assert np.array_equal(prof.es_curve, es), alpha


# a feedback market with ||theta|| about 1e-15 spreads xi over about a
# thousand ulps, which its wealth, falling in xi, rounds to a few dozen
# values; tails selected on xi must keep every key whose wealth ties at a cut
@pytest.mark.parametrize("n,antithetic", [(70_001, False), (140_001, True)])
def test_feedback_tail_candidates_keep_wealth_ties(n, antithetic):
    m = constant_market(0.03, [0.03 + 2e-16], [[0.2]], 1.0)
    cfg = SimConfig(n_paths=n, seed=7, n_steps=12, antithetic=antithetic)
    for alpha in (0.01, 1 / 64, 0.3):
        ens = simulate_hara_feedback(m, STREAM_UTILITY, 1.2, cfg, alpha=alpha)
        xi = np.concatenate([x for _, x in mc._log_paths(*ens.replay)])
        end = [len(np.unique(col)) for col in (xi[:, -1], ens.wealth[:, -1])]
        assert end[0] > 10 * end[1] > 100, end
        spec = RiskSpec(alpha=alpha, zeta=0.1, kind=MeasureKind.ES)
        prof = empirical_risk_curve(ens, spec, 1.2, m)
        var, es = _reference_curves(ens, spec, 1.2, m)
        assert np.array_equal(prof.var_curve, var), alpha
        assert np.array_equal(prof.es_curve, es), alpha


def test_wealth_evaluated_on_terminal_row_and_tail_keys(monkeypatch):
    # wealth is monotone in xi, so tails are selected on xi: a pass evaluates
    # wealth on each path's terminal value and on about alpha n keys per time,
    # not on all n m path-steps
    evaluated = []
    sample = mc._sample

    def counting(kind, config, alpha, grid, wealth_of, *args, **kwargs):
        def counted(xi, k=slice(None)):
            evaluated.append(np.size(xi))
            return wealth_of(xi, k)
        return sample(kind, config, alpha, grid, counted, *args, **kwargs)

    monkeypatch.setattr(mc, "_sample", counting)
    n, alpha, c = 70_001, 0.01, 1.5
    for kind in ("risky", "feedback"):
        evaluated.clear()
        _, _, ens = _stream_case(kind, n, False, alpha)
        m = len(ens.times)
        assert n < sum(evaluated) <= n + c * alpha * n * m, (kind, sum(evaluated))


def test_sample_cost_and_risk_memory_per_path():
    # a pass keeps a few scalars per path and about alpha n values per time;
    # the whole wealth matrix would hold 8 (m + 1) = 264 B per path
    m = constant_market(0.03, [0.1], [[0.2]], 1.0)
    s = constant_strategy([0.5], 0.3, 1.0)
    spec = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    samplers = {
        "deterministic": lambda cfg: simulate_deterministic(
            m, s, STREAM_UTILITY, 1.0, cfg, alpha=spec.alpha),
        "feedback": lambda cfg: simulate_hara_feedback(
            m, STREAM_UTILITY, 1.0, cfg, alpha=spec.alpha),
    }

    def peak(sample, n):
        tracemalloc.start()
        try:
            ens = sample(SimConfig(n_paths=n, seed=3, n_steps=32))
            assert len(ens.times) == 33
            estimate_cost(ens, STREAM_UTILITY)
            empirical_risk_curve(ens, spec, 1.0, m)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for kind, sample in samplers.items():
        grown = peak(sample, 262_144) - peak(sample, 65_536)
        assert grown <= 64 * (262_144 - 65_536), (kind, grown / (262_144 - 65_536))


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("problem", ["unconstrained_unequal", "var_loose"])
@pytest.mark.parametrize("extra", [[], ["--antithetic", "--dump-paths", "40"]])
def test_simulate_never_builds_the_wealth_matrix(tmp_path, monkeypatch, problem, extra):
    def refuse(self):
        raise AssertionError("simulate built the whole wealth matrix")

    monkeypatch.setattr(mc.PathEnsemble, "wealth", property(refuse))
    assert cli.main(["simulate", str(GOLDEN / problem / "problem.json"),
                     "--out", str(tmp_path), "--paths", "20000", "--steps", "8",
                     *extra]) == 0
    assert (tmp_path / "risk_profile.csv").is_file()


def test_simulate_refuses_too_few_tail_paths_before_drawing(tmp_path, monkeypatch,
                                                             capsys):
    drawn = []
    log_paths = mc._log_paths

    def counting(*args):
        for rows, xi in log_paths(*args):
            drawn.append(rows)
            yield rows, xi

    monkeypatch.setattr(mc, "_log_paths", counting)
    # var_loose bounds the risk at alpha = 0.05; simulate's default is 0.01
    for problem, paths, got in (("var_loose", "1000", "50"),
                                ("unconstrained_unequal", "1000", "10"),
                                ("unconstrained_unequal", "3", "0.03")):
        out = tmp_path / problem / paths
        assert cli.main(["simulate", str(GOLDEN / problem / "problem.json"),
                         "--out", str(out), "--paths", paths]) == 2
        assert capsys.readouterr().err == (
            f"insufficient paths: need n_paths * alpha >= 100, got {got}\n")
        assert list(out.iterdir()) == []
    assert drawn == []


# ---------------------------------------------------------------------------
# The exact cost's per-step integral against quadrature
# ---------------------------------------------------------------------------

# z is the integrand's log-slope across the step (B dt - A dt^2 for the
# integrand exp(B s - A s^2)), a its curvature A dt^2; |z| <= 2 with
# a <= 0.05 is the midpoint series' range, |z| = 2 its edge
KERNEL_Z = (-50.0, -20.0, -8.0, -3.0, -2.05, -2.0, -1.3, -0.5, 0.0, 0.5, 1.3,
            2.0, 2.05, 3.0, 8.0, 20.0, 50.0)
KERNEL_A = (0.0, 1e-12, 1e-8, 1e-3, 0.05, 1.0, 25.0)
# (z, m, a, dt): where the erf pair cancelled worst (B / 2 sqrt(A) = -3.86,
# sqrt(A) dt = 0.036), a deep tail, and peaks far beyond the float range
# under an m that brings the integral back into it
KERNEL_EXTRA = [
    (-0.279216, -0.139284, 0.001296, 0.25),
    (-3.0, -690.0, 0.04, 1e-3),
    (-700.0, -300.0, 1e-3, 0.5),
    (1500.0, -760.0, 2.0, 1.0),
    (0.0, -50.0, 5000.0, 1.0),
    (40.0, 5.0, 30.0, 0.25),
]


def _exp_quadratic_exact(z, m, a, dt):
    """dt int_{-1/2}^{1/2} exp(m + z v - a v^2) dv by 30-digit quadrature."""
    z, m, a, dt = (mpmath.mpf(float(v)) for v in (z, m, a, dt))
    # quad's tolerance is absolute: factor out the integrand's largest value
    top = z * z / (4 * a) if abs(z) < a else abs(z) / 2 - a / 4
    return dt * mpmath.exp(m + top) * mpmath.quad(
        lambda v: mpmath.exp(z * v - a * v * v - top), [-0.5, 0, 0.5])


def test_int_exp_quadratic_against_mpmath():
    z, a = (np.ravel(v) for v in np.meshgrid(KERNEL_Z, KERNEL_A))
    m, dt = np.zeros_like(z), np.ones_like(z)
    z, m, a, dt = (np.concatenate([v, [e[i] for e in KERNEL_EXTRA]])
                   for i, v in enumerate((z, m, a, dt)))
    got = mc._int_exp_quadratic(z[None].copy(), m[None].copy(), a, dt,
                                mc._midpoint_series(a, dt))[0]
    with mpmath.workdps(30):
        err = np.array([float(abs(mpmath.mpf(float(v)) / _exp_quadratic_exact(*e) - 1))
                        for v, e in zip(got, zip(z, m, a, dt))])
    series = (np.abs(z) <= 2.0) & (a <= 0.05)
    assert series.sum() == 36 and (~series).sum() == 89
    assert err[series].max() <= 1e-15
    assert err[~series].max() <= 1e-13


def test_int_exp_quadratic_special_inputs():
    # no RuntimeWarning (an error in this suite) on any input: integrals
    # beyond the float range are inf, e^m = 0 gives 0, and NaN propagates
    z = np.array([1e300, -1e5, 0.5, 3.0, 0.0, np.nan, 1.0, -30.0])
    m = np.array([0.0, 800.0, 1e308, -np.inf, -np.inf, 0.0, np.nan, 0.0])
    a = np.array([1e-3, 1e-3, 0.0, 1e300, 5e3, 0.0, 0.01, np.nan])
    dt = np.ones(len(z))
    got = mc._int_exp_quadratic(z[None].copy(), m[None].copy(), a, dt,
                                mc._midpoint_series(a, dt))[0]
    assert np.array_equal(got[:5], [np.inf, np.inf, np.inf, 0.0, 0.0])
    assert np.all(np.isnan(got[5:]))


def test_int_exp_quadratic_term_cut_within_an_ulp():
    # the series is cut to the terms the call's largest z^2 needs; on either
    # side of each cut-off it stays within an ulp of all nine terms
    rng = np.random.default_rng(31)
    a = np.concatenate([[0.0, 0.05], rng.uniform(0.0, 0.05, 14)])
    dt = rng.uniform(1e-3, 0.5, len(a))
    coeffs = mc._midpoint_series(a, dt)

    def nine_terms(z):
        zz = z * z
        out = zz * coeffs[-1]
        for c in coeffs[-2:0:-1]:
            out = (out + c) * zz
        return out + coeffs[0]

    assert mc._series_terms(0.0, coeffs) == 2
    assert mc._series_terms(4.0, coeffs) == 9
    for terms in range(2, 9):
        lo, hi = 0.0, 4.0      # the largest z^2 that takes at most `terms`
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if mc._series_terms(mid, coeffs) <= terms else (lo, mid)
        for zz_max, more in ((lo * (1 - 1e-9), False), (hi * (1 + 1e-9), True)):
            z = np.sqrt(zz_max) * rng.uniform(-1.0, 1.0, (64, len(a)))
            z[0, 0] = np.sqrt(zz_max)
            assert (mc._series_terms(np.max(z * z), coeffs) > terms) == more
            got = mc._int_exp_quadratic(z.copy(), np.zeros_like(z), a, dt, coeffs)
            want = nine_terms(z)
            assert np.all(np.abs(got - want) <= np.spacing(want)), (terms, more)


def test_int_exp_quadratic_halves_outside_the_series_range(monkeypatch):
    # steps far outside the series range are split into halves, a few
    # levels deep, and stay within 1e-13 of quadrature; the series' twenty
    # terms of c_j(a) for 0.05 < a <= 4 stay within 1e-15
    z, a, dt = (np.ravel(v) for v in np.meshgrid(
        (-150.0, -20.0, -2.5, 0.0, 2.5, 20.0, 150.0), (0.0, 0.06, 1.0, 8.0, 30.0),
        (1e-3, 0.03, 1.0)))
    m = np.zeros_like(z)
    coeffs = mc._midpoint_series(a, dt)
    # each level of halving takes its steps' coefficients once
    levels = []
    midpoint_series = mc._midpoint_series
    monkeypatch.setattr(mc, "_midpoint_series",
                        lambda *args: levels.append(1) or midpoint_series(*args))
    got = mc._int_exp_quadratic(z[None].copy(), m[None].copy(), a, dt, coeffs)[0]
    with mpmath.workdps(30):
        err = np.array([float(abs(mpmath.mpf(float(v)) / _exp_quadratic_exact(*e) - 1))
                        for v, e in zip(got, zip(z, m, a, dt))])
    series = (z * z <= 4.0) & (a <= 4.0)
    assert len(z) == 105 and (~series).sum() == 96
    assert err[series].max() <= 1e-15
    assert err[~series].max() <= 1e-13
    assert 0 < len(levels) <= 8
