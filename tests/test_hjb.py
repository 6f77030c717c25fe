"""Dynamic-programming verification: residuals, derivatives, Hamiltonian."""

import json
import tracemalloc

import numpy as np
import pytest

from merton_risk._piecewise import from_ticks, to_ticks
from merton_risk.cli import main
from merton_risk.errors import InputError
from merton_risk.hjb import (
    _h0,
    _reduced_hamiltonian_terms,
    hamiltonian_argmax_check,
    hjb_residual,
    off_breakpoint_grid,
)
from merton_risk.market import CoefficientPath, build_market
from merton_risk.mc import SimConfig, simulate_hara_feedback
from merton_risk.utility import UtilityParams

from conftest import constant_market, random_market, theta_at, unit_feedback
from cross_checks import hamiltonian_gap_per_node


def test_residual_constant_coefficients():
    m = constant_market(0.03, [0.1], [[0.2]], 1.0)
    u = UtilityParams(0.5, 0.5)
    rep = hjb_residual(m, u, unit_feedback(m, u), n_t=50, n_x=50)
    assert rep.max_abs_residual < 1e-8
    assert rep.terminal_error < 1e-12


def test_residual_random_piecewise_markets():
    rng = np.random.default_rng(61)
    for _ in range(3):
        m = random_market(rng, d=int(rng.integers(1, 3)), max_pieces=4)
        u = UtilityParams(float(rng.uniform(0.15, 0.9)),
                          float(rng.uniform(0.15, 0.9)))
        rep = hjb_residual(m, u, unit_feedback(m, u), n_t=30, n_x=30)
        assert rep.max_abs_residual < 1e-8
        assert rep.terminal_error < 1e-12


def test_residual_grid_equals_per_node_loop():
    rng = np.random.default_rng(73)
    m = random_market(rng, d=2, max_pieces=4)
    u = UtilityParams(0.3, 0.75)
    fb = unit_feedback(m, u)
    rep = hjb_residual(m, u, fb, n_t=30, n_x=30)
    xs = rep.x_nodes
    rows = []
    for t in rep.t_nodes:
        g = fb.g(t, xs)
        p = fb.p_from_g(t, g)
        theta = theta_at(m, t)
        r = m.r_step[np.searchsorted(m.nodes, t, side="right") - 1]
        term_t = fb.z_t_from_g(t, g)
        term_r = r * xs * g
        term_quad = 0.5 * g * p * float(theta @ theta)
        term_cons = (1.0 / u.q1) * (u.gamma1 / g) ** (u.q1 - 1.0)
        scale = (np.abs(term_t) + np.abs(term_r)
                 + np.abs(term_quad) + np.abs(term_cons))
        rows.append((term_t + term_r + term_quad + term_cons)
                    / np.maximum(scale, 1e-300))
    np.testing.assert_array_equal(rep.residuals, np.array(rows))


def test_residual_stable_under_refinement():
    m = constant_market(0.02, [0.09], [[0.25]], 1.0)
    u = UtilityParams(0.4, 0.7)
    coarse = hjb_residual(m, u, unit_feedback(m, u), n_t=10, n_x=10)
    fine = hjb_residual(m, u, unit_feedback(m, u), n_t=80, n_x=80)
    # all-analytic evaluation: refinement stays at the rounding floor
    assert fine.max_abs_residual < 1e-10
    assert fine.max_abs_residual <= 10 * coarse.max_abs_residual + 1e-12


def test_finite_difference_cross_check():
    # central differences of the value surface reproduce the analytic
    # derivatives with observed order >= 1.9 under h-halving
    m = constant_market(0.03, [0.1], [[0.2]], 1.0)
    u = UtilityParams(0.5, 0.6)
    fb = unit_feedback(m, u)
    t0, x0 = 0.4, 1.3

    def errors(h):
        zt_fd = (fb.value_function(t0 + h, x0)
                 - fb.value_function(t0 - h, x0)) / (2 * h)
        zx_fd = (fb.value_function(t0, x0 + h)
                 - fb.value_function(t0, x0 - h)) / (2 * h)
        zxx_fd = (fb.value_function(t0, x0 + h) - 2 * fb.value_function(t0, x0)
                  + fb.value_function(t0, x0 - h)) / h ** 2
        g = fb.g(t0, x0)
        p = fb.p_from_g(t0, g)
        return (abs(zt_fd - fb.z_t_from_g(t0, g)),
                abs(zx_fd - g),
                abs(zxx_fd - (-g / p)))

    e1 = errors(1e-3)
    e2 = errors(5e-4)
    for a, b in zip(e1, e2):
        order = np.log2(a / b) / np.log2(2.0)
        assert order >= 1.9 or a < 1e-12


def test_hamiltonian_probe_structure():
    m = constant_market(0.03, [0.1], [[0.2]], 1.0)
    u = UtilityParams(0.5, 0.5)
    fb = unit_feedback(m, u)
    t, x = 0.3, 1.0
    _, _, _, _, g, p, r, theta = _reduced_hamiltonian_terms(
        m, u, fb, t, np.array([x]))
    z1, z2 = g[0], -g[0] / p[0]
    y_opt = (z1 / (x * abs(z2))) * theta
    c_opt = (u.gamma1 / z1) ** u.q1
    h_opt = _h0(r, theta, x, z1, z2, y_opt[None, :], np.array([c_opt]),
                u.gamma1)[0]
    # the optimizer itself: zero gap
    assert h_opt == pytest.approx(h_opt, abs=0)
    # doubling the exposure strictly hurts (strict concavity in y)
    h_2y = _h0(r, theta, x, z1, z2, 2 * y_opt[None, :], np.array([c_opt]),
               u.gamma1)[0]
    assert h_2y < h_opt - 1e-12
    # dropping consumption loses exactly (1 - gamma1) c*^{gamma1}
    h_c0 = _h0(r, theta, x, z1, z2, y_opt[None, :], np.array([0.0]),
               u.gamma1)[0]
    assert h_opt - h_c0 == pytest.approx((1 - u.gamma1) * c_opt ** u.gamma1,
                                         rel=1e-10)


def test_hamiltonian_argmax_gap():
    m = constant_market(0.03, [0.1], [[0.2]], 1.0)
    u = UtilityParams(0.5, 0.5)
    rep = hamiltonian_argmax_check(m, u, unit_feedback(m, u), n_t=6, n_x=6,
                                   n_probes=128, seed=2)
    assert rep.hamiltonian_gap <= 1e-10


@pytest.mark.parametrize("seed", [9, 13, 17])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_argmax_gap_equals_per_node_loop(seed, d):
    # row-batched evaluation, same draws: the gap agrees to the last bit.
    # These seeds include markets where an array power for c_opt, or einsum
    # for y.theta, moves the gap in its last bits.
    rng = np.random.default_rng(1000 * d + seed)
    m = random_market(rng, d=d, max_pieces=4)
    u = UtilityParams(float(rng.uniform(0.15, 0.9)),
                      float(rng.uniform(0.15, 0.9)))
    fb = unit_feedback(m, u)
    for n_t, n_x, n_probes in ((10, 10, 64), (3, 7, 5), (6, 1, 64),
                               (4, 9, 1), (1, 1, 1)):
        kw = dict(n_t=n_t, n_x=n_x, n_probes=n_probes, seed=seed)
        rep = hamiltonian_argmax_check(m, u, fb, **kw)
        assert rep.hamiltonian_gap == hamiltonian_gap_per_node(m, u, fb, **kw)
        assert rep.hamiltonian_gap <= 1e-10


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_argmax_check_memory_within_residual_check():
    # probes are held one time row at a time, never for the whole grid
    rng = np.random.default_rng(83)
    m = random_market(rng, d=3, max_pieces=4)
    u = UtilityParams(0.3, 0.7)
    fb = unit_feedback(m, u)
    argmax_peak = _traced_peak(
        lambda: hamiltonian_argmax_check(m, u, fb))
    residual_peak = _traced_peak(
        lambda: hjb_residual(m, u, fb, n_t=50, n_x=50))
    assert argmax_peak <= residual_peak


def test_feedback_law_equals_argmax_formula():
    rng = np.random.default_rng(67)
    m = random_market(rng, d=2, max_pieces=3)
    u = UtilityParams(0.35, 0.7)
    fb = unit_feedback(m, u)
    for t in off_breakpoint_grid(m, 7):
        for x in (0.4, 1.0, 2.5):
            g = fb.g(t, x)
            p = fb.p_from_g(t, g)
            z1, z2 = g, -g / p
            y_argmax = (z1 / (x * abs(z2))) * theta_at(m, t)
            y_solver = p / x * theta_at(m, t)
            assert np.allclose(y_solver, y_argmax, rtol=1e-10, atol=1e-14)
            assert fb.c_from_g(g) == pytest.approx(
                (u.gamma1 / z1) ** u.q1, rel=1e-10)


def test_grid_touching_breakpoint_rejected():
    rp = CoefficientPath.from_segments([(0.0, 0.02), (0.5, 0.04)], 1.0)
    mp = CoefficientPath.from_segments([(0.0, [0.08])], 1.0)
    sp = CoefficientPath.from_segments([(0.0, [[0.2]])], 1.0)
    m = build_market(rp, mp, sp)
    u = UtilityParams(0.5, 0.5)
    with pytest.raises(InputError):
        hjb_residual(m, u, unit_feedback(m, u), t_nodes=np.array([0.25, 0.5, 0.75]))
    # the default grid places itself off the breakpoints
    rep = hjb_residual(m, u, unit_feedback(m, u), n_t=20, n_x=10)
    assert rep.max_abs_residual < 1e-8


@pytest.mark.parametrize("t", [1.5, 1.0, -0.2, 0.0, np.nan])
def test_time_nodes_outside_the_horizon_rejected(t):
    # a node past T would read the log of a negative remaining time; one
    # before 0 a residual of no market segment
    m = build_market(CoefficientPath.from_segments([(0.0, 0.02), (0.5, 0.04)], 1.0),
                     CoefficientPath.from_segments([(0.0, [0.08])], 1.0),
                     CoefficientPath.from_segments([(0.0, [[0.2]])], 1.0))
    u = UtilityParams(0.5, 0.3)
    with pytest.raises(InputError, match=r"time nodes must lie in \(0, T\)"):
        hjb_residual(m, u, unit_feedback(m, u), t_nodes=np.array([0.25, t]))


def test_off_breakpoint_grid_matches_node_by_node_shifts():
    # n_t = 7 on [0, 1]: nodes k/8; 1/4 sits on a breakpoint and, shifted
    # once, on another; 1/2 on a third
    n_t = 7
    shift = (1.0 / (n_t + 2)) * 0.37
    again = float(from_ticks(to_ticks(0.25 + shift)))
    m = build_market(
        CoefficientPath.from_segments(
            [(0.0, 0.02), (0.25, 0.03), (again, 0.01), (0.5, 0.04)], 1.0),
        CoefficientPath.from_segments([(0.0, [0.08])], 1.0),
        CoefficientPath.from_segments([(0.0, [[0.2]])], 1.0))
    breakpoints = set(m.node_ticks.tolist())
    want = []
    for t in np.linspace(0.0, 1.0, n_t + 2)[1:-1]:
        while int(to_ticks(t)) in breakpoints:
            t = t + shift
        want.append(t)
    got = off_breakpoint_grid(m, n_t)
    assert got.tobytes() == np.asarray(want).tobytes()
    assert got[1] == 0.25 + shift + shift and got[3] == 0.5 + shift
    with pytest.raises(InputError, match=f"t = {again} coincides"):
        hjb_residual(m, UtilityParams(0.3, 0.6), unit_feedback(m, UtilityParams(0.3, 0.6)),
                     t_nodes=np.array([0.1, again, 0.5]))


def test_off_breakpoint_grid_stays_inside_the_horizon(tmp_path):
    # T = 1 and r breakpoints at 0.5 + k 0.37/3: with n_t = 1 the node 0.5
    # and each of its shifts by 0.37/3 land on a breakpoint until the fifth
    # passes T, so the node goes to the middle of [0.5, 0.5 + 0.37/3)
    shift = 0.37 / 3
    segments = [(0.0, 0.02)] + [(0.5 + k * shift, 0.03 + 0.01 * k) for k in range(5)]
    rates = CoefficientPath.from_segments(segments, 1.0)
    m = build_market(rates, CoefficientPath.from_segments([(0.0, [0.08])], 1.0),
                     CoefficientPath.from_segments([(0.0, [[0.2]])], 1.0))
    breakpoints = set(m.node_ticks.tolist())
    for n_t in range(1, 12):
        got = off_breakpoint_grid(m, n_t)
        assert np.all((got > 0.0) & (got < 1.0)), n_t
        assert not breakpoints & set(to_ticks(got).tolist()), n_t
        # a node whose right shifts stay inside keeps their bits
        want = []
        for t in np.linspace(0.0, 1.0, n_t + 2)[1:-1]:
            walked = t
            while int(to_ticks(walked)) in breakpoints:
                walked = walked + (1.0 / (n_t + 2)) * 0.37
            want.append(walked)
        inside = np.asarray(want) < 1.0
        assert got[inside].tobytes() == np.asarray(want)[inside].tobytes()
        assert inside.all() or n_t == 1
    assert to_ticks(off_breakpoint_grid(m, 1)).tolist() == [
        (to_ticks(0.5) + to_ticks(0.5 + shift)) // 2]
    u = UtilityParams(0.5, 0.3)
    rep = hjb_residual(m, u, unit_feedback(m, u), n_t=1, n_x=5)
    assert rep.max_abs_residual < 1e-8
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"x0": 1.0, "utility": {"gamma1": 0.5, "gamma2": 0.3},
                                   "market": {
        "T": 1.0, "d": 1, "r": [{"t0": t0, "value": r} for t0, r in segments],
        "mu": [{"t0": 0.0, "value": [0.08]}],
        "sigma": [{"t0": 0.0, "value": [[0.2]]}]}}))
    assert main(["verify", str(problem), "--out", str(tmp_path / "out"),
                 "--nt", "1", "--nx", "5"]) == 0


def test_moment_stability_heuristic(standard_market):
    # sample mean of sup_t z(t, X*_t)^1.5 stabilizes as n grows
    u = UtilityParams(0.5, 0.5)
    fb = unit_feedback(standard_market, u)
    delta = 1.5

    def estimate(n, seed):
        ens = simulate_hara_feedback(standard_market, u, 1.0,
                                     SimConfig(n_paths=n, seed=seed,
                                               n_steps=16))
        zs = np.stack([fb.value_function(float(t), ens.wealth[:, k])
                       for k, t in enumerate(ens.times)], axis=1)
        return float(np.mean(np.max(zs, axis=1) ** delta))

    small = estimate(20_000, 3)
    big = estimate(80_000, 4)
    assert np.isfinite(small) and np.isfinite(big)
    assert abs(big - small) / big < 0.2
