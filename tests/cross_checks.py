"""Cross-check routes and bounds that only the tests use.

Each restates a quantity of the package by another route: the expected
cost by adaptive quadrature, the sup of the cost tilt along theta, the
Gaussian upper tail, and Mills' ratio bounds on it.
"""

from __future__ import annotations

import numpy as np

from merton_risk.gaussian import _SQRT2, _real, erfc
from merton_risk.market import MarketModel
from merton_risk.oracle import _cost_pieces
from merton_risk.strategies import DeterministicStrategy, cumulants
from merton_risk.utility import UtilityParams


def cost_quadrature(model: MarketModel, strategy: DeterministicStrategy,
                    utility: UtilityParams, x: float,
                    rtol: float = 1e-10) -> float:
    """Same cost via adaptive quadrature per interval (cross-check route)."""
    # slow to import, and no command takes this cross-check route
    from scipy import integrate

    dt, offsets, slopes, terminal = _cost_pieces(cumulants(model, strategy), utility)
    consumption = 0.0
    for j in range(len(dt)):
        if not np.isfinite(offsets[j]):
            continue
        val, _ = integrate.quad(
            lambda u, j=j: np.exp(offsets[j] + slopes[j] * u),
            0.0, dt[j], epsrel=rtol, epsabs=0.0, limit=200)
        consumption += val
    g1, g2 = utility.gamma1, utility.gamma2
    return x ** g1 * consumption + x ** g2 * float(terminal)


def exposure_growth_factor(model: MarketModel, gamma: float, rho) -> np.ndarray:
    """sup_t of the cost tilt exp(g (y,theta)_t - g(1-g)/2 ||y||_t^2).

    For exposure norm rho along theta the maximizing norm is capped at
    q ||theta||_T when gamma < 1.
    """
    rho = np.asarray(rho, dtype=np.float64)
    tn = model.theta_norm_T
    if gamma < 1.0:
        rho = np.minimum(rho, tn / (1.0 - gamma))
    return np.exp(gamma * rho * tn - 0.5 * gamma * (1.0 - gamma) * rho ** 2)


def norm_sf(z):
    return 0.5 * erfc(_real(z) / _SQRT2)


def mills_bounds(x: float) -> tuple[float, float]:
    """Sandwich (1-x^{-2}) e^{-x^2/2} < x int_x^inf e^{-t^2/2} dt < e^{-x^2/2}.

    The lower bound is vacuous (<= 0) for x <= 1 and is returned as-is.
    """
    core = float(np.exp(-0.5 * x * x))
    lower = (1.0 - x ** -2) * core if x != 0 else -np.inf
    return lower, core
