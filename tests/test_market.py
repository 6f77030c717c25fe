"""Market construction, exact integrals, and the JSON interface."""

import json

import numpy as np
import pytest

from merton_risk._piecewise import segment_index
from merton_risk.errors import InputError
from merton_risk.market import CoefficientPath, build_market, market_from_dict
from merton_risk.strategies import GrowthFractionConsumption

from conftest import constant_market, random_market, theta_at


def quad_step(f, t_end, step=1e-5):
    """Trapezoid quadrature oracle for step-function integrands."""
    ts = np.arange(0.0, t_end + step, step)
    ts = ts[ts <= t_end + 1e-12]
    vals = f(ts)
    return np.trapezoid(vals, ts)


def test_constant_theta_hand_arithmetic():
    m = constant_market(0.0, [0.1], [[0.2]], 1.0)
    assert m.theta_step[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert m.R(1.0) == 0.0
    assert m.theta_sq_cum(1.0) == pytest.approx(0.25, abs=1e-15)
    # quadrature oracle on the step integrand
    oracle = quad_step(lambda ts: np.full_like(ts, 0.5 ** 2), 1.0)
    assert m.theta_sq_cum(1.0) == pytest.approx(oracle, abs=1e-9)


def test_zero_market_price_of_risk():
    m = constant_market(0.05, [0.05, 0.05], np.diag([0.2, 0.3]), 2.0)
    assert m.theta_norm_T == 0.0
    assert np.allclose(m.theta_step, 0.0)


def test_two_asset_identity_vol():
    m = constant_market(0.0, [0.3, 0.4], np.eye(2), 2.0)
    assert m.theta_sq_cum(2.0) == pytest.approx(0.5, rel=1e-12)
    oracle = quad_step(lambda ts: np.full_like(ts, 0.25), 2.0)
    assert m.theta_sq_cum(2.0) == pytest.approx(oracle, abs=1e-9)


def test_theta_norm_piecewise():
    # |theta|^2 = 1 on [0, 0.5), 4 on [0.5, 1]
    sp = CoefficientPath.from_segments([(0.0, [[0.1]])], 1.0)
    mp = CoefficientPath.from_segments([(0.0, [0.1]), (0.5, [0.2])], 1.0)
    rp = CoefficientPath.from_segments([(0.0, 0.0)], 1.0)
    m = build_market(rp, mp, sp)
    assert np.sqrt(m.theta_sq_cum(1.0)) == pytest.approx(np.sqrt(2.5), rel=1e-12)
    assert np.sqrt(m.theta_sq_cum(0.0)) == 0.0


def test_theta_norm_monotone():
    m = constant_market(0.02, [0.1], [[0.2]], 1.0)
    ts = np.linspace(0, 1, 57)
    vals = [np.sqrt(m.theta_sq_cum(t)) for t in ts]
    assert np.all(np.diff(vals) >= -1e-15)


def test_weighted_g_norm_flat():
    m = constant_market(0.0, [0.0], [[0.2]], 1.0)
    assert GrowthFractionConsumption(3.0 * 0.7).integral(m)(1.0) == pytest.approx(
        1.0, rel=1e-14)
    assert GrowthFractionConsumption(3.0 * 0.7, 0.5 * 3.0 * (3.0 - 1.0)).integral(m)(
        1.0) == pytest.approx(1.0, rel=1e-14)
    assert GrowthFractionConsumption(3.0 * 0.7).integral(m)(0.0) == 0.0


def test_weighted_g_norm_constant_rate():
    m = constant_market(0.05, [0.05], [[0.2]], 1.0)
    # 0.05 exponent slope: q*gamma*r = 2*0.5*0.05
    expected = (np.e ** 0.05 - 1.0) / 0.05
    got = GrowthFractionConsumption(2.0 * 0.5).integral(m)(1.0)
    assert got == pytest.approx(1.025421927520480794, rel=1e-13)
    assert got == pytest.approx(expected, rel=1e-13)
    oracle = quad_step(lambda ts: np.exp(0.05 * ts), 1.0, step=1e-6)
    assert got == pytest.approx(oracle, rel=1e-9)


def adaptive_quad(f_scalar, t_end, breakpoints):
    """QUADPACK oracle with the jump locations declared."""
    from scipy import integrate
    pts = [float(b) for b in breakpoints if 0.0 < b < t_end]
    val, _ = integrate.quad(f_scalar, 0.0, t_end, points=pts or None,
                            limit=200, epsabs=1e-13, epsrel=1e-12)
    return val


def test_exact_integrals_match_quadrature_random_models():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = random_market(rng, d=int(rng.integers(1, 3)))
        t = float(rng.uniform(0.3, m.horizon))
        r_oracle = adaptive_quad(
            lambda u: float(m.r_step[segment_index(m.node_ticks, np.array([round(u / 1e-9)]))][0]),
            t, m.nodes)
        assert m.R(t) == pytest.approx(r_oracle, rel=1e-9, abs=1e-12)
        ts_oracle = adaptive_quad(
            lambda u: float(np.sum(theta_at(m, u) ** 2)), t, m.nodes)
        assert m.theta_sq_cum(t) == pytest.approx(ts_oracle, rel=1e-9,
                                                  abs=1e-12)


def test_theta_reconstruction_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = random_market(rng, d=int(rng.integers(1, 4)))
        lhs = np.einsum("kij,kj->ki", m.sigma_step, m.theta_step)
        rhs = m.mu_step - m.r_step[:, None]
        scale = np.maximum(np.abs(rhs), 1.0)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)


def test_cum_theta_sq_monotone():
    rng = np.random.default_rng(13)
    m = random_market(rng, d=2)
    ts = np.sort(rng.uniform(0, m.horizon, size=64))
    vals = m.theta_sq_cum(ts)
    assert np.all(np.diff(vals) >= -1e-15)


def test_singular_volatility_rejected():
    sigma = np.array([[0.2, 0.2], [0.2, 0.2 + 1e-12]])
    with pytest.raises(InputError):
        constant_market(0.0, [0.1, 0.1], sigma, 1.0)


def test_mismatched_horizons_rejected():
    rp = CoefficientPath.from_segments([(0.0, 0.01)], 1.0)
    mp = CoefficientPath.from_segments([(0.0, [0.1])], 2.0)
    sp = CoefficientPath.from_segments([(0.0, [[0.2]])], 1.0)
    with pytest.raises(InputError):
        build_market(rp, mp, sp)


def test_breakpoints_must_increase():
    with pytest.raises(InputError):
        CoefficientPath.from_segments([(0.0, 0.1), (0.5, 0.2), (0.5, 0.3)],
                                      1.0)
    with pytest.raises(InputError):
        CoefficientPath.from_segments([(0.1, 0.1)], 1.0)


def test_json_round_trip():
    rng = np.random.default_rng(3)

    def segments(draw):
        k = int(rng.integers(1, 4))
        cuts = np.round(np.sort(rng.uniform(0.05, 0.95, k - 1)), 6)
        return [(float(t), draw()) for t in np.concatenate([[0.0], cuts])]

    def vol():
        noise = 0.05 * rng.standard_normal((2, 2))
        return np.diag(rng.uniform(0.15, 0.4, 2)) + noise - np.diag(np.diag(noise))

    paths = {"r": segments(lambda: float(rng.uniform(0.0, 0.06))),
             "mu": segments(lambda: rng.uniform(-0.1, 0.3, 2)),
             "sigma": segments(vol)}
    doc = {"T": 1.0, "d": 2, **{
        key: [{"t0": t, "value": np.asarray(v).tolist()} for t, v in segs]
        for key, segs in paths.items()}}
    m = build_market(*(CoefficientPath.from_segments(paths[key], 1.0)
                       for key in ("r", "mu", "sigma")))
    m2 = market_from_dict(json.loads(json.dumps(doc)))
    assert np.array_equal(m2.node_ticks, m.node_ticks)
    assert np.allclose(m2.theta_step, m.theta_step, rtol=0, atol=0)
    assert m2.R(m.horizon) == m.R(m.horizon)


def test_malformed_market_document():
    with pytest.raises(InputError):
        market_from_dict({"T": 1.0, "d": 1, "r": [{"t0": 0.0}],
                          "mu": [], "sigma": []})


@pytest.mark.parametrize("where", [
    ("T",), ("mu", 1, "t0"), ("r", 0, "value"), ("mu", 1, "value", 0),
    ("sigma", 0, "value", 0, 0)], ids=["T", "t0", "r", "mu", "sigma"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_market_document(where, bad):
    doc = {"T": 1.0, "d": 1, "r": [{"t0": 0.0, "value": 0.02}],
           "mu": [{"t0": 0.0, "value": [0.1]}, {"t0": 0.5, "value": [0.1]}],
           "sigma": [{"t0": 0.0, "value": [[0.2]]}]}
    market_from_dict(doc)
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = bad
    with pytest.raises(InputError):
        market_from_dict(doc)

