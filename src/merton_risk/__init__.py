"""Closed-form consumption-investment under uniform VaR/ES risk bounds.

Solvers for Black-Scholes markets with piecewise-constant deterministic
coefficients, risk measures of lognormal wealth in closed form, an
independent grid-search oracle, exact-law Monte Carlo, and a numerical
dynamic-programming verification of the feedback optimum.
"""

__version__ = "0.1.0"
