"""Property-based checks of the VaR/ES regime ladder on random markets.

Markets come from ``conftest.random_market``; exponents, tail levels and
budgets are drawn across the linear, equal- and unequal-exponent cases.
Runs are derandomized and keep no example database, so the suite stays
deterministic.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from merton_risk import (
    ConditionViolated,
    HypothesisViolated,
    MeasureKind,
    NoClosedFormRegime,
    RiskSpec,
    UtilityParams,
    rho_es,
    rho_var,
    solve_es,
    solve_es_tight,
    solve_var,
    solve_var_tight,
)

from conftest import random_market

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)
SOLVERS = {MeasureKind.VAR: solve_var, MeasureKind.ES: solve_es}
REFUSALS = (ConditionViolated, HypothesisViolated, NoClosedFormRegime)


def log_uniform(lo, hi):
    return st.floats(np.log(lo), np.log(hi)).map(lambda u: float(np.exp(u)))


ALPHAS = log_uniform(1e-6, 0.3)
# small budgets reach the tight regime, large ones the loose regime
ZETAS = st.one_of(log_uniform(1e-4, 0.5),
                  log_uniform(1e-4, 0.5).map(lambda u: 1.0 - u))


@st.composite
def markets(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return random_market(rng, d=draw(st.integers(1, 3)),
                         theta_max=draw(st.floats(0.1, 1.2)))


@st.composite
def problems(draw):
    """(model, utility, alpha, zeta, x0) across the three exponent patterns."""
    shape = draw(st.sampled_from(["linear", "equal", "unequal"]))
    if shape == "linear":
        utility = UtilityParams(1.0, 1.0)
    else:
        g1 = draw(st.floats(0.05, 0.95))
        g2 = g1 if shape == "equal" else draw(st.floats(0.05, 1.0))
        utility = UtilityParams(g1, g2)
    return (draw(markets()), utility, draw(ALPHAS), draw(ZETAS),
            draw(st.floats(0.1, 10.0)))


def outcome(kind, model, utility, alpha, zeta, x0):
    """The solver's Solution, or the refusal it raised."""
    spec = RiskSpec(alpha=alpha, zeta=zeta, kind=kind)
    try:
        return SOLVERS[kind](model, utility, spec, x0)
    except REFUSALS as exc:
        return exc


@PROPERTY
@given(problems(), st.sampled_from(list(MeasureKind)))
def test_regime_margins_match_verdict(problem, kind):
    """A solution meets every condition it reports; a refusal names a
    finite margin that fails."""
    result = outcome(kind, *problem)
    event(type(result).__name__ if isinstance(result, Exception) else result.regime)
    if isinstance(result, NoClosedFormRegime):
        margins = np.array(list(result.margins.values()))
        assert margins.size and np.all(np.isfinite(margins)), result.margins
        assert np.min(margins) < 0.0, result.margins
    elif not isinstance(result, Exception):
        assert result.regime.startswith(kind.value + "_")
        for check in result.conditions:
            assert check.satisfied and check.margin >= 0.0, check


@PROPERTY
@given(markets(), ALPHAS, ZETAS)
def test_es_budget_within_var_budget(model, alpha, zeta):
    """rho*_ES <= rho*_VaR wherever |z_alpha| >= 2 ||theta||_T."""
    var = RiskSpec(alpha=alpha, zeta=zeta, kind=MeasureKind.VAR)
    es = RiskSpec(alpha=alpha, zeta=zeta, kind=MeasureKind.ES)
    if es.abs_z >= 2.0 * model.theta_norm_T:
        assert rho_es(model, es) <= rho_var(model, var) * (1.0 + 1e-12)


@PROPERTY
@given(problems())
def test_es_value_within_var_value(problem):
    """The ES bound is the stricter one: V_ES <= V_VaR at the same (alpha, zeta)."""
    es = outcome(MeasureKind.ES, *problem)
    var = outcome(MeasureKind.VAR, *problem)
    if not isinstance(es, Exception) and not isinstance(var, Exception):
        assert es.value <= var.value + 1e-12 * abs(var.value), (es.regime, var.regime)


def floor_margin(solve_tight, kind, model, utility, alpha, zeta, x0):
    """Margin of the tight regime's quantile floor, or None if not reached."""
    try:
        sol = solve_tight(model, utility, RiskSpec(alpha=alpha, zeta=zeta, kind=kind), x0)
    except ConditionViolated as exc:
        return exc.margin if exc.condition == "quantile_floor" else None
    return next(c.margin for c in sol.conditions if c.name == "quantile_floor")


@PROPERTY
@given(problems())
def test_es_quantile_floor_one_theta_norm_above_var(problem):
    """The ES floor |z_a| >= (2 + ...) ||theta||_T sits ||theta||_T above the
    VaR floor |z_a| >= (1 + ...) ||theta||_T."""
    model, utility = problem[:2]
    if utility.gamma1 < 1.0 and model.theta_norm_T > 0.0:
        var = floor_margin(solve_var_tight, MeasureKind.VAR, *problem)
        es = floor_margin(solve_es_tight, MeasureKind.ES, *problem)
        if var is not None:
            assert var - es == pytest.approx(model.theta_norm_T, rel=1e-9)
