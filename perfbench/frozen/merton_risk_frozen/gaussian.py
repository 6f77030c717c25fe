"""Standard-normal quantile and Gaussian tail-ratio kernel.

Everything downstream (risk formulas, root equations for the maximal
exposure) reduces to two primitives:

    z_alpha          the alpha-quantile of N(0,1), alpha in (0, 1/2)
    F_alpha(z)       int_z^inf e^{-t^2/2} dt / int_{|z_alpha|}^inf e^{-t^2/2} dt

Tails are kept in the e^{-t^2/2} normalization and evaluated through the
scaled complementary error function, so F_alpha and its logarithm stay
accurate out to z = 40 where the plain tail underflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import AlphaOutOfRange, NegativeArgument

_SQRT2 = np.sqrt(2.0)
_LOG_SQRT_PI_OVER_2 = 0.5 * np.log(np.pi / 2.0)


def norm_cdf(z):
    return 0.5 * special.erfc(-np.asarray(z, dtype=np.float64) / _SQRT2)


def norm_sf(z):
    return 0.5 * special.erfc(np.asarray(z, dtype=np.float64) / _SQRT2)


def norm_pdf(z):
    z = np.asarray(z, dtype=np.float64)
    return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)


def log_gauss_tail(z):
    """log of int_z^inf e^{-t^2/2} dt, stable for large z >= 0.

    Equals -z^2/2 + log(sqrt(pi/2) * erfcx(z / sqrt(2))).
    """
    z = np.asarray(z, dtype=np.float64)
    return -0.5 * z * z + _LOG_SQRT_PI_OVER_2 + np.log(special.erfcx(z / _SQRT2))


def gauss_hazard(z):
    """e^{-z^2/2} / int_z^inf e^{-t^2/2} dt  (derivative of -log tail)."""
    z = np.asarray(z, dtype=np.float64)
    out = np.sqrt(2.0 / np.pi) / special.erfcx(z / _SQRT2)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Quantile:
    """Standard-normal alpha-quantile with its tail level pinned down."""

    alpha: float
    z_alpha: float

    @property
    def abs_z(self) -> float:
        return -self.z_alpha


def normal_quantile(alpha: float) -> Quantile:
    """alpha-quantile of N(0,1) for alpha in (0, 1/2), |Phi(z)-alpha| <= 1e-12.

    Wichura-style inverse (scipy ndtri) polished by two Newton steps on the
    CDF so the round-trip residual is at the double-precision floor.
    """
    if not 0.0 < alpha < 0.5:
        raise AlphaOutOfRange(f"alpha must lie in (0, 1/2), got {alpha}")
    z = float(special.ndtri(alpha))
    for _ in range(2):
        z -= (float(norm_cdf(z)) - alpha) / float(norm_pdf(z))
    return Quantile(alpha=float(alpha), z_alpha=z)


def tail_ratio(quantile: Quantile, z):
    """F_alpha(z) for z >= 0; F_alpha(|z_alpha|) = 1, decreasing in z."""
    z = np.asarray(z, dtype=np.float64)
    if np.any(z < 0):
        raise NegativeArgument("tail ratio argument must be nonnegative")
    out = np.exp(log_tail_ratio(quantile, z))
    return out if out.ndim else float(out)


def log_tail_ratio(quantile: Quantile, z):
    """log F_alpha(z) as a difference of log tail integrals."""
    z = np.asarray(z, dtype=np.float64)
    if np.any(z < 0):
        raise NegativeArgument("tail ratio argument must be nonnegative")
    out = log_gauss_tail(z) - log_gauss_tail(quantile.abs_z)
    return out if out.ndim else float(out)


def mills_bounds(x: float) -> tuple[float, float]:
    """Sandwich (1-x^{-2}) e^{-x^2/2} < x int_x^inf e^{-t^2/2} dt < e^{-x^2/2}.

    The lower bound is vacuous (<= 0) for x <= 1 and is returned as-is.
    """
    core = float(np.exp(-0.5 * x * x))
    lower = (1.0 - x ** -2) * core if x != 0 else -np.inf
    return lower, core
