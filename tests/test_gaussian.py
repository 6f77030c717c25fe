"""Normal quantile and tail-ratio kernel against high-precision oracles.

Frozen expectations were computed with mpmath at 50 digits (bisection on
the erfc-based CDF for quantiles, direct tail-integral ratios for F).
The error functions are checked against mpmath at 40 digits and against
scipy.special, which the package does not import.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import special

from merton_risk.errors import InputError, NegativeArgument
from merton_risk.gaussian import (
    erfc,
    erfcx,
    gauss_hazard,
    log_gauss_tail,
    log_tail_ratio,
    norm_cdf,
    normal_quantile,
    tail_ratio,
)

from cross_checks import mills_bounds, norm_sf

# every CALERF interval on the kept domains, and the interval ends
# themselves: erfc on x > -0.46875, erfcx on x >= 0
ERFC_GRID = np.concatenate([np.linspace(-0.46875, 26.5, 3201)[1:],
                            [-0.4687, 0.0, 0.46875, 4.0]])
ERFCX_GRID = np.concatenate([np.linspace(0.0, 10.0, 2101),
                             np.geomspace(10.0, 1e6, 1001),
                             [0.46875, 4.0]])

# mpmath, 50 digits
Z_005 = -1.6448536269514727149
Z_001 = -2.3263478740408411009
Z_0001 = -3.0902323061678135415
F_001_PLUS_1 = 0.043996018047378587714


@pytest.mark.parametrize("alpha,expected", [
    (0.05, Z_005), (0.01, Z_001), (0.001, Z_0001),
])
def test_quantile_frozen_values(alpha, expected):
    z = normal_quantile(alpha)
    assert type(z) is float
    assert z == pytest.approx(expected, abs=5e-15)


def test_quantile_near_median():
    z = normal_quantile(0.4999999)
    assert z < 0
    assert z == pytest.approx(0.0, abs=1e-6)


def test_quantile_round_trip_1e12():
    for alpha in np.geomspace(1e-8, 0.4999, 200):
        z = normal_quantile(float(alpha))
        assert abs(float(norm_cdf(z)) - alpha) <= 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.7, -0.1, 1.0])
def test_alpha_out_of_range(alpha):
    with pytest.raises(InputError):
        normal_quantile(alpha)


def test_tail_ratio_at_quantile_is_one():
    abs_z = -normal_quantile(0.01)
    assert tail_ratio(abs_z, abs_z) == 1.0


def test_tail_ratio_frozen_value():
    abs_z = -normal_quantile(0.01)
    assert tail_ratio(abs_z, abs_z + 1.0) == pytest.approx(F_001_PLUS_1,
                                                         rel=1e-12)


def test_tail_ratio_vanishes_far_out():
    # ratio underflows the double range around z ~ 26 for alpha = 0.01;
    # the log form carries the accuracy out to z = 40 (mpmath oracles)
    abs_z = -normal_quantile(0.01)
    assert 0.0 < tail_ratio(abs_z, 20.0) < 1e-80
    assert tail_ratio(abs_z, 20.0) == pytest.approx(2.7536241e-87, rel=1e-7)
    assert log_tail_ratio(abs_z, 40.0) == pytest.approx(-800.0032718277657,
                                                    rel=1e-13)


def test_tail_ratio_monotone_grids():
    for alpha in (0.001, 0.01, 0.05, 0.25):
        abs_z = -normal_quantile(alpha)
        zs = np.linspace(abs_z, 20.0, 1000)
        vals = tail_ratio(abs_z, zs)
        assert vals[0] == 1.0
        assert np.all(np.diff(vals) < 0)
        assert np.all((vals > 0) & (vals <= 1.0))
        # the log form stays strictly decreasing out to z = 40
        logs = log_tail_ratio(abs_z, np.linspace(abs_z, 40.0, 1000))
        assert np.all(np.diff(logs) < 0)


def test_tail_ratio_rejects_negative():
    abs_z = -normal_quantile(0.05)
    with pytest.raises(NegativeArgument):
        tail_ratio(abs_z, -0.5)
    with pytest.raises(NegativeArgument):
        log_tail_ratio(abs_z, np.array([0.5, -1.0]))


def test_mills_bounds_against_tail_oracle():
    for x in (2.0, 10.0):
        lower, upper = mills_bounds(x)
        target = x * np.sqrt(2 * np.pi) * float(norm_sf(x))
        assert lower < target < upper
    lower, upper = mills_bounds(2.0)
    assert lower == pytest.approx(0.75 * np.exp(-2.0), rel=1e-15)
    assert upper == pytest.approx(np.exp(-2.0), rel=1e-15)


def test_mills_bounds_vacuous_at_one():
    lower, upper = mills_bounds(1.0)
    assert lower == 0.0
    assert upper > 0.0


def test_mills_sandwich_log_grid():
    # compared in log space so the e^{-x^2/2} scale cannot underflow
    for x in np.geomspace(1.01, 40.0, 200):
        log_target = np.log(x) + float(log_gauss_tail(x))
        log_lower = np.log1p(-x ** -2) - 0.5 * x * x
        log_upper = -0.5 * x * x
        assert log_lower < log_target < log_upper


def test_mills_sandwich_moderate_grid_direct():
    for x in np.geomspace(1.01, 25.0, 100):
        lower, upper = mills_bounds(float(x))
        target = x * np.exp(float(log_gauss_tail(x)))
        assert lower < target < upper


def test_hazard_consistent_with_log_tail():
    # d/dz (-log tail) equals the hazard; check by central differences, the
    # first from z - h = 0, the end of the tails' domain
    h = 1e-6
    for z in (h, 1.3, 4.0, 12.0):
        fd = -(log_gauss_tail(z + h) - log_gauss_tail(z - h)) / (2 * h)
        assert gauss_hazard(z) == pytest.approx(float(fd), rel=1e-8)


def _relative_error(values, exact):
    return max(abs((mpmath.mpf(float(v)) - e) / e) for v, e in zip(values, exact))


def test_erfc_against_mpmath():
    with mpmath.workdps(40):
        exact = [mpmath.erfc(mpmath.mpf(float(x))) for x in ERFC_GRID]
        values = [erfc(float(x)) for x in ERFC_GRID]
        assert all(type(v) is float for v in values)
        assert _relative_error(values, exact) <= 1e-15


def test_erfcx_against_mpmath_and_scipy():
    with mpmath.workdps(40):
        exact = [mpmath.exp(mpmath.mpf(float(x)) ** 2) * mpmath.erfc(float(x))
                 for x in ERFCX_GRID]
        assert _relative_error(erfcx(ERFCX_GRID), exact) <= 1e-15
    np.testing.assert_allclose(erfcx(ERFCX_GRID), special.erfcx(ERFCX_GRID),
                               rtol=2e-15, atol=0.0)


def test_scalar_and_array_paths_agree_bitwise():
    grid = np.concatenate([ERFCX_GRID, np.linspace(0.0, 40.0, 3200)])
    for fn in (erfcx, log_gauss_tail, gauss_hazard):
        batch = fn(grid.reshape(2, -1)).ravel()
        single = np.array([fn(float(x)) for x in grid])
        assert np.array_equal(batch, single), fn.__name__


def test_error_functions_at_special_arguments():
    # no RuntimeWarning (an error in this suite) where erfc underflows;
    # NaN propagates
    assert erfcx(1e300) == pytest.approx(1.0 / (math.sqrt(math.pi) * 1e300),
                                         rel=1e-15)
    assert erfcx(np.inf) == 0.0
    # -0.0 is no negative argument
    assert erfcx(-0.0) == 1.0 and erfcx(np.array([-0.0, 1.0]))[0] == 1.0
    x = np.array([30.0, 1e300, np.inf, np.nan])
    assert np.array_equal(erfcx(x)[:3], [erfcx(30.0), erfcx(1e300), 0.0])
    assert np.isnan(erfcx(x)[-1]) and math.isnan(erfcx(math.nan))
    assert [erfc(v) for v in (30.0, 1e300, math.inf)] == [0.0, 0.0, 0.0]
    assert math.isnan(erfc(math.nan))
    assert erfcx(np.array([])).shape == (0,)
    assert erfcx(np.zeros((0, 3))).shape == (0, 3)
    assert log_gauss_tail(np.array([])).shape == (0,)
    assert gauss_hazard(np.zeros((0, 3))).shape == (0, 3)


# erfc below -0.46875 reaches erfcx's check
@pytest.mark.parametrize("fn, x", [(erfcx, -1.0), (erfcx, -1e-300), (erfcx, -math.inf),
                                   (erfcx, np.array([0.5, -1.0])),
                                   (erfcx, np.array([[np.nan, 2.0], [5.0, -0.1]])),
                                   (erfc, -0.5)],
                         ids=["scalar", "tiny", "minus_inf", "array", "array_with_nan",
                              "erfc_below_its_domain"])
def test_erfcx_refuses_negative_arguments(fn, x):
    with pytest.raises(NegativeArgument):
        fn(x)


def test_quantile_against_ndtri_start():
    # the quantile as computed from scipy's ndtri start, polished alike
    def reference(alpha):
        z = float(special.ndtri(alpha))
        for _ in range(2):
            cdf = 0.5 * float(special.erfc(-z / math.sqrt(2.0)))
            z -= (cdf - alpha) / (math.exp(-0.5 * z * z)
                                  / math.sqrt(2.0 * math.pi))
        return z

    alphas = np.concatenate([np.geomspace(1e-300, 0.4999, 3001),
                             np.linspace(0.01, 0.4999, 1001)])
    for alpha in alphas:
        z = normal_quantile(float(alpha))
        assert z == pytest.approx(reference(float(alpha)), rel=1e-15, abs=0.0)
