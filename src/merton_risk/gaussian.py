"""Standard-normal quantile and Gaussian tail-ratio kernel.

Everything downstream (risk formulas, root equations for the maximal
exposure) reduces to two primitives:

    z_alpha          the alpha-quantile of N(0,1), alpha in (0, 1/2), a float
    F_alpha(z)       int_z^inf e^{-t^2/2} dt / int_{|z_alpha|}^inf e^{-t^2/2} dt

Tails are kept in the e^{-t^2/2} normalization and evaluated through the
scaled complementary error function, so F_alpha and its logarithm stay
accurate out to z = 40 where the plain tail underflows.

erfcx is W. J. Cody's rational Chebyshev approximation (the CALERF
scheme; "Rational Chebyshev approximations for the error function",
Math. Comp. 23 (1969) 631-637) on [0, 0.46875], (0.46875, 4] and beyond
4, on the tails' domain [0, inf) only.  erfc, a scalar for the
quantile's CDF, takes x > -0.46875, where Cody's small-argument erf
covers the negative side.  They need numpy only, so the package imports
no scipy.  A scalar runs the same rationals in the same operation order
on Python floats, so scalar and array calls agree bit for bit.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .errors import InputError, NegativeArgument

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_PI_OVER_2 = 0.5 * math.log(math.pi / 2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_STANDARD = NormalDist()

# Cody's CALERF constants: interval end, 1/sqrt(pi) and the argument past
# which erfc underflows
_THRESH = 0.46875
_SQRPI = 5.6418958354775628695e-1
_XBIG = 26.543
# erf(x) = x P(x^2)/Q(x^2) for |x| <= 0.46875
_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
      3.20937758913846947e03, 1.85777706184603153e-1)
_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
      2.84423683343917062e03)
# erfcx(y) = P(y)/Q(y) for 0.46875 < y <= 4
_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
      2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
      2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
      1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
      3.43936767414372164e03, 1.23033935480374942e03)
# erfcx(y) = (1/sqrt(pi) - y^-2 P(y^-2)/Q(y^-2)) / y for y > 4
_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
      1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
      6.05183413124413191e-2, 2.33520497626869185e-3)


def _rational(u, p, q):
    """Numerator and denominator of Cody's rational in u, by Horner.

    p and q are in Cody's order: the numerator starts from p[-1] u and
    ends on the constant p[-2]; the monic denominator starts from u and
    ends on q[-1].  Both are built in place when u is an array.
    """
    num = p[-1] * u
    den = u + q[0]
    num += p[0]
    num *= u
    den *= u
    for a, b in zip(p[1:-2], q[1:-1]):
        num += a
        num *= u
        den += b
        den *= u
    num += p[-2]
    den += q[-1]
    return num, den


def _erf_small(x):
    """erf(x) for |x| <= 0.46875."""
    num, den = _rational(x * x, _A, _B)
    num *= x
    num /= den
    return num


def _erfcx_mid(y):
    """erfcx(y) for 0.46875 < y <= 4."""
    num, den = _rational(y, _C, _D)
    num /= den
    return num


def _erfcx_large(y):
    """erfcx(y) for y > 4 (y = inf gives 0)."""
    ysq = 1.0 / y
    ysq *= ysq
    num, den = _rational(ysq, _P, _Q)
    num *= ysq
    num /= den
    return (_SQRPI - num) / y


def _erfcx_tail(y):
    """erfcx(y) for y > 0.46875, a float or an array."""
    if not isinstance(y, np.ndarray):
        return _erfcx_mid(y) if y <= 4.0 else _erfcx_large(y)
    if y.max(initial=0.0) <= 4.0:
        return _erfcx_mid(y)
    mid = y <= 4.0
    if not mid.any():
        return _erfcx_large(y)
    out = np.empty_like(y)
    out[mid] = _erfcx_mid(y[mid])
    out[~mid] = _erfcx_large(y[~mid])
    return out


def _exp_square(v):
    """exp(-v^2), with v^2 split so the exponent carries no rounding."""
    head = np.trunc(v * 16.0) / 16.0
    rest = (v - head) * (v + head)
    return np.exp(-head * head) * np.exp(-rest)


def _real(x):
    """A scalar as a Python float, anything else as a float64 array."""
    if isinstance(x, (float, int)):
        return float(x)
    x = np.asarray(x, dtype=np.float64)
    return x if x.ndim else float(x)


def erfc(x: float) -> float:
    """Complementary error function of a float x > -0.46875."""
    if abs(x) <= _THRESH:
        return 1.0 - _erf_small(x)
    return 0.0 if x >= _XBIG else float(_exp_square(x) * erfcx(x))


def erfcx(x):
    """Scaled complementary error function exp(x^2) erfc(x) for x >= 0, a
    float for a scalar argument; NegativeArgument for any x < 0."""
    x = _real(x)
    if not isinstance(x, np.ndarray):
        if x < 0.0:
            raise NegativeArgument(f"erfcx argument must be nonnegative, got {x}")
        if x <= _THRESH:
            return float(np.exp(x * x) * (1.0 - _erf_small(x)))
        return _erfcx_tail(x)
    # the least argument, NaNs aside, so that a NaN hides no negative entry
    least = np.fmin.reduce(x, axis=None, initial=math.inf)
    if least > _THRESH:
        return _erfcx_tail(x)
    if least < 0.0:
        raise NegativeArgument(f"erfcx argument must be nonnegative, got {least}")
    out = np.empty_like(x)
    small = x <= _THRESH
    xs = x[small]
    out[small] = np.exp(xs * xs) * (1.0 - _erf_small(xs))
    tail = ~small
    out[tail] = _erfcx_tail(x[tail])
    return out


def norm_cdf(z: float) -> float:
    return 0.5 * erfc(-z / _SQRT2)


def norm_pdf(z: float) -> float:
    return float(np.exp(-0.5 * z * z)) / _SQRT_2PI


def log_gauss_tail(z):
    """log of int_z^inf e^{-t^2/2} dt, stable for large z >= 0.

    Equals -z^2/2 + log(sqrt(pi/2) * erfcx(z / sqrt(2))).
    """
    z = _real(z)
    return -0.5 * z * z + _LOG_SQRT_PI_OVER_2 + np.log(erfcx(z / _SQRT2))


def gauss_hazard(z):
    """e^{-z^2/2} / int_z^inf e^{-t^2/2} dt  (derivative of -log tail)."""
    return _SQRT_2_OVER_PI / erfcx(_real(z) / _SQRT2)


def normal_quantile(alpha: float) -> float:
    """alpha-quantile z_alpha < 0 of N(0,1) for alpha in (0, 1/2), with
    |Phi(z_alpha) - alpha| <= 1e-12.

    Wichura's AS241 inverse (Appl. Statist. 37 (1988), as
    statistics.NormalDist.inv_cdf) polished by two Newton steps on the CDF
    so the round-trip residual is at the double-precision floor.
    """
    if not 0.0 < alpha < 0.5:
        raise InputError(f"alpha must lie in (0, 1/2), got {alpha}")
    z = _STANDARD.inv_cdf(alpha)
    for _ in range(2):
        z -= (norm_cdf(z) - alpha) / norm_pdf(z)
    return z


def tail_ratio(abs_z: float, z):
    """F_alpha(z) for z >= 0 and abs_z = |z_alpha|; F_alpha(|z_alpha|) = 1,
    decreasing in z."""
    out = np.exp(log_tail_ratio(abs_z, z))
    return out if out.ndim else float(out)


def log_tail_ratio(abs_z: float, z):
    """log F_alpha(z), abs_z = |z_alpha|, as a difference of log tail integrals;
    NegativeArgument for z < 0."""
    out = log_gauss_tail(z) - log_gauss_tail(abs_z)
    return out if np.ndim(out) else float(out)
