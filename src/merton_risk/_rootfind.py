"""Bracketed scalar root solving: bisection-safeguarded Newton."""

from __future__ import annotations

from .errors import ConvergenceFailure

MAX_ITER = 200      # Newton/bisection steps before solve_bracketed gives up
MAX_EXPAND = 200    # doublings of hi before expand_bracket gives up


def solve_bracketed(f, lo, hi, fprime=None, *, residual_tol, scale=1.0):
    """Root of a continuous monotone f on [lo, hi] with f(lo)*f(hi) <= 0.

    Newton steps (when fprime is given) are accepted only inside the
    current bracket; otherwise the step falls back to bisection.  Stops
    once |f(x)| <= residual_tol * scale.

    Raises ConvergenceFailure after MAX_ITER iterations.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ConvergenceFailure(
            f"no sign change on bracket [{lo}, {hi}]: f={flo:.3g},{fhi:.3g}")
    x = 0.5 * (lo + hi)
    for _ in range(MAX_ITER):
        fx = f(x)
        if abs(fx) <= residual_tol * scale:
            return x
        if flo * fx <= 0.0:
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        x_new = None
        if fprime is not None:
            d = fprime(x)
            if d != 0.0:
                cand = x - fx / d
                if lo < cand < hi:
                    x_new = cand
        x = x_new if x_new is not None else 0.5 * (lo + hi)
        if hi - lo <= 4e-16 * max(abs(lo), abs(hi), 1.0):
            # bracket exhausted at double precision; accept midpoint
            return 0.5 * (lo + hi)
    raise ConvergenceFailure(f"no convergence after {MAX_ITER} iterations")


def expand_bracket(f, lo, hi):
    """Double hi until f changes sign on [lo, hi]."""
    flo = f(lo)
    for _ in range(MAX_EXPAND):
        if flo * f(hi) <= 0.0:
            return lo, hi
        hi *= 2.0
    raise ConvergenceFailure("bracket expansion found no sign change")
