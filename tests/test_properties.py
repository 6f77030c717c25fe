"""Property-based checks of the VaR/ES regime ladder on random markets.

Markets come from ``conftest.random_market``; exponents, tail levels and
budgets are drawn across the linear, equal- and unequal-exponent cases.
Runs are derandomized and keep no example database, so the suite stays
deterministic.
"""

import functools
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from merton_risk._piecewise import ascending_unique, from_ticks, merge_ticks, to_ticks
from merton_risk.bounded import big_g, kappa_star, solve_tight
from merton_risk.errors import (
    ConditionViolated,
    ConvergenceFailure,
    HypothesisViolated,
    NoClosedFormRegime,
    UnsupportedRegime,
)
from merton_risk.es_bound import ES, es_loose_threshold, rho_es, solve_es
from merton_risk.oracle import _CHUNK, _cost, grid_search_oracle
from merton_risk.risk import MeasureKind, RiskSpec
from merton_risk.strategies import EvaluationPlan, cumulants, step_cumulants
from merton_risk.unconstrained import solve_equal_gamma, solve_unconstrained
from merton_risk.utility import UtilityParams
from merton_risk.var_bound import VAR, rho_var, solve_var, var_loose_threshold

from conftest import random_market
from cross_checks import budget_after, curve_at, log_risk_var

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)
SOLVERS = {MeasureKind.VAR: solve_var, MeasureKind.ES: solve_es}
BUDGETS = {MeasureKind.VAR: rho_var, MeasureKind.ES: rho_es}
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
def es_budget_problems(draw):
    """(model, alpha, zeta) inside the ES hypothesis |z_alpha| >= 2 ||theta||_T."""
    alpha, zeta = draw(ALPHAS), draw(ZETAS)
    d = draw(st.integers(1, 3))
    # each of the d components of theta lies in [-theta_max, theta_max] on
    # [0, 1], so ||theta||_T <= sqrt(d) theta_max <= |z_alpha| / 2
    theta_max = (RiskSpec(alpha=alpha, zeta=zeta).abs_z / (2.0 * np.sqrt(d))
                 * draw(st.floats(0.0, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return random_market(rng, d=d, theta_max=theta_max), alpha, zeta


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


def regime(result):
    """The regime a solve landed in, or the refusal it raised."""
    return type(result).__name__ if isinstance(result, Exception) else result.regime


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


@PROPERTY
@given(es_budget_problems(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_budget_after_consumption_is_one_function(problem, fractions):
    """The budget left after consuming kappa <= zeta, an independent root of
    the budget equation, is one function of the remaining level: rho* of
    zeta' = (zeta - kappa) / (1 - kappa), and 0 at kappa = zeta, for VaR and ES."""
    model, alpha, zeta = problem
    for kind, budget in ((MeasureKind.VAR, rho_var), (MeasureKind.ES, rho_es)):
        spec = RiskSpec(alpha=alpha, zeta=zeta, kind=kind)
        for kappa in zeta * np.asarray(fractions):
            left = budget_after(model, spec, kappa)
            if kappa == zeta:
                assert left == 0.0
                continue
            rest = RiskSpec(alpha=alpha, zeta=(zeta - kappa) / (1.0 - kappa), kind=kind)
            assert budget(model, rest) == pytest.approx(left, rel=1e-9, abs=1e-10)


@PROPERTY
@given(markets(), st.floats(0.05, 0.95), ZETAS)
def test_es_budget_refused_outside_hypothesis(model, shrink, zeta):
    """rho_es refuses every zeta once |z_alpha| < 2 ||theta||_T."""
    alpha = NormalDist().cdf(-2.0 * shrink * model.theta_norm_T)
    spec = RiskSpec(alpha=alpha, zeta=zeta, kind=MeasureKind.ES)
    assert spec.abs_z < 2.0 * model.theta_norm_T
    with pytest.raises(HypothesisViolated):
        rho_es(model, spec)


def floor_margin(rules, model, utility, alpha, zeta, x0):
    """Margin of the tight regime's quantile floor, or None if not reached."""
    try:
        sol = solve_tight(rules, model, utility,
                          RiskSpec(alpha=alpha, zeta=zeta, kind=rules.kind), x0)
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
        var = floor_margin(VAR, *problem)
        es = floor_margin(ES, *problem)
        if var is not None:
            assert var - es == pytest.approx(model.theta_norm_T, rel=1e-9)


@PROPERTY
@given(problems())
def test_values_between_bond_only_and_unconstrained(problem):
    """bond-only value <= V_ES(zeta) <= V_VaR(zeta) <= V_unconstrained.

    Riskless wealth loses only what it consumes, so the best split of at
    most zeta of the endowment, G(min(zeta, kappa*)), meets either bound."""
    model, utility, alpha, zeta, x0 = problem
    if utility.is_linear:
        bond = x0 * float(np.exp(model.R(model.horizon)))
    else:
        bond = big_g(model, utility, x0, min(zeta, kappa_star(model, utility, x0)))[0]
    chain = [bond]
    for kind in (MeasureKind.ES, MeasureKind.VAR):
        result = outcome(kind, *problem)
        if not isinstance(result, Exception):
            chain.append(result.value)
    # no closed form for mixed linear/power exponents, and for gamma2 near 1
    # under a large ||theta||_T the unconstrained value overflows a double
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            chain.append(solve_unconstrained(model, utility, x0).value)
        except (UnsupportedRegime, ConvergenceFailure):
            pass
    event(f"{len(chain)} values")
    for lower, upper in zip(chain, chain[1:]):
        assert lower <= upper + 1e-12 * abs(upper), chain


@PROPERTY
@given(markets(), st.floats(0.05, 0.95), ALPHAS, st.none() | st.floats(0.05, 0.95))
def test_var_loose_threshold_is_the_exact_infimum(model, gamma, alpha, below):
    """1 - e^{l*} is the least zeta the unconstrained equal-exponent optimum
    meets, 1 - exp(min_t L_t), wherever |z_a| >= (2 - q) ||theta||_T, and a
    sufficient threshold elsewhere (there `below` places |z_a| under it)."""
    q = 1.0 / (1.0 - gamma)
    edge = (2.0 - q) * model.theta_norm_T
    if below is not None and edge > 1e-3:
        alpha = NormalDist().cdf(-below * edge)
    spec = RiskSpec(alpha=alpha, zeta=0.5, kind=MeasureKind.VAR)
    cum = cumulants(model, solve_equal_gamma(model, gamma, 1.0).strategy)
    ts = np.linspace(0.0, model.horizon, 4001)
    exact = 1.0 - float(np.exp(np.min(log_risk_var(cum, spec.abs_z, ts))))
    threshold = var_loose_threshold(model, gamma, spec)
    if spec.abs_z >= edge:
        event("exact")
        assert threshold == pytest.approx(exact, abs=1e-12)
    else:
        event("sufficient")
        assert threshold >= exact - 1e-12


@PROPERTY
@given(es_budget_problems(), st.floats(0.05, 0.95))
def test_loose_es_implies_loose_var(problem, gamma):
    """Inside the ES hypothesis the VaR loose threshold is at most the ES one."""
    model, alpha, zeta = problem
    spec = RiskSpec(alpha=alpha, zeta=zeta, kind=MeasureKind.VAR)
    assert var_loose_threshold(model, gamma, spec) <= \
        es_loose_threshold(model, gamma, spec) + 1e-12


@PROPERTY
@given(problems(), log_uniform(1e-3, 0.9))
def test_value_strictly_increasing_in_zeta(problem, step):
    """Within the tight regime and within the linear regime a larger budget
    zeta' > zeta gives a strictly larger value, for VaR and ES."""
    model, utility, alpha, zeta, x0 = problem
    zeta2 = zeta + (1.0 - zeta) * step
    for kind in MeasureKind:
        low = outcome(kind, model, utility, alpha, zeta, x0)
        high = outcome(kind, model, utility, alpha, zeta2, x0)
        if regime(low) == regime(high) and regime(low).endswith(("_tight", "_linear")):
            event(low.regime)
            assert low.value < high.value, (low.regime, zeta, zeta2)


@PROPERTY
@given(markets(), st.just(1.0) | st.floats(0.05, 0.95), ALPHAS, ZETAS,
       st.floats(0.1, 10.0), log_uniform(0.01, 100.0))
def test_equal_exponent_value_homogeneous_in_wealth(model, gamma, alpha, zeta, x0,
                                                    scale):
    """With equal exponents the regime does not depend on the endowment and
    V(lambda x) = lambda^gamma V(x): linear, loose and tight alike, for VaR
    and ES."""
    utility = UtilityParams(gamma, gamma)
    for kind in MeasureKind:
        base = outcome(kind, model, utility, alpha, zeta, x0)
        scaled = outcome(kind, model, utility, alpha, zeta, scale * x0)
        event(regime(base))
        assert regime(scaled) == regime(base)
        if not isinstance(base, Exception):
            assert scaled.value == pytest.approx(scale ** gamma * base.value,
                                                 rel=1e-12, abs=0.0)


@settings(PROPERTY, max_examples=60)
@given(problems(), st.sampled_from(list(MeasureKind)))
def test_oracle_never_beats_solver(problem, kind):
    """No candidate of a coarse grid-search family that passes the oracle's
    screen costs more than the tight or linear optimum."""
    result = outcome(kind, *problem)
    assume(regime(result).endswith(("_tight", "_linear")))
    event(result.regime)
    model, utility, alpha, zeta, x0 = problem
    spec = RiskSpec(alpha=alpha, zeta=zeta, kind=kind)
    rho_star = BUDGETS[kind](model, spec)
    # exposures just inside and just outside the budget test the screen there
    rhos = rho_star * np.concatenate([np.linspace(0.0, 2.0, 11), [1 - 1e-4, 1 + 1e-4]])
    # the linear optima consume nothing; their family still tries rates
    v_top = 2.0 * max(float(np.max(result.strategy.v_at(model, model.nodes))), 0.1)
    best = grid_search_oracle(model, utility, spec, x0, rhos,
                              v_levels=np.linspace(0.0, v_top, 11), v_pieces=4).best_cost
    assert best <= result.value + 1e-9 * abs(result.value), result.regime


@st.composite
def step_controls(draw):
    """(model, node_ticks, y, v): K step controls, y (K, k, d) and v (K, k) >= 0
    with some dead consumption steps, on a random refinement of the market's
    partition."""
    model = draw(markets())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cuts = to_ticks(rng.uniform(0.0, model.horizon, size=rng.integers(0, 6)))
    node_ticks = merge_ticks(model.node_ticks, cuts)
    shape = (draw(st.integers(1, 3)), len(node_ticks) - 1)
    y = rng.uniform(-2.0, 2.0, size=shape + (model.dimension,))
    v = rng.uniform(0.0, 3.0, size=shape) * (rng.random(shape) < 0.8)
    return model, node_ticks, y, v


@PROPERTY
@given(step_controls(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_step_cumulants_match_quadrature(control, fractions):
    """(y, theta)_t, ||y||_t^2 and V_t of a batch of step controls are the
    integrals of y'theta, |y|^2 and v over [0, t], by the midpoint rule on
    the pieces where the integrands are constant."""
    model, node_ticks, y, v = control
    cum = step_cumulants(EvaluationPlan.build(model, node_ticks, 1.0, None), y, v)
    nodes = from_ticks(node_ticks)
    for t in model.horizon * np.array(fractions):
        edges = np.concatenate([[0.0], nodes[(nodes > 0.0) & (nodes < t)], [t]])
        width, mid = np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
        # sigma_s theta_s = mu_s - r_s, from the market's own coefficients
        j = np.searchsorted(model.nodes, mid, side="right") - 1
        theta = np.linalg.solve(model.sigma_step[j], (model.mu_step[j]
                                - model.r_step[j, None])[..., None])[..., 0]
        k = np.searchsorted(nodes, mid, side="right") - 1
        yk = y[:, k]
        for curve, integrand in ((cum.ydt, np.sum(yk * theta, axis=-1)),
                                 (cum.ynn, np.sum(yk * yk, axis=-1)),
                                 (cum.V_of, v[:, k])):
            np.testing.assert_allclose(curve_at(curve, t), integrand @ width,
                                       rtol=1e-12, atol=1e-12)


@st.composite
def cost_batches(draw):
    """(model, node_ticks, y, v, utility): a batch of 33-140 step controls on
    a random refinement of the market's partition with up to 40 cuts, either
    factor possibly one shared row."""
    model = draw(markets())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cuts = to_ticks(rng.uniform(0.0, model.horizon, size=rng.integers(0, 41)))
    node_ticks = merge_ticks(model.node_ticks, cuts)
    n, k = draw(st.integers(_CHUNK + 1, 140)), len(node_ticks) - 1
    shared = draw(st.sampled_from(["none", "y", "v"]))
    y = rng.uniform(-2.0, 2.0, size=(1 if shared == "y" else n, k, model.dimension))
    shape = (1 if shared == "v" else n, k)
    v = rng.uniform(0.0, 3.0, size=shape) * (rng.random(shape) < 0.8)
    utility = UtilityParams(draw(st.floats(0.05, 1.0)), draw(st.floats(0.05, 1.0)))
    return model, node_ticks, y, v, utility


@PROPERTY
@given(cost_batches(), st.floats(0.1, 10.0))
def test_batch_cost_equals_chunked_cost(batch, x0):
    """The oracle's cost of a batch is the concatenation of the costs of its
    _CHUNK-row pieces, bit for bit: each candidate's sum runs along its own
    row, whatever the batch's size."""
    model, node_ticks, y, v, utility = batch
    n = max(len(y), len(v))
    plan = EvaluationPlan.build(model, node_ticks, x0, None)
    whole = _cost(step_cumulants(plan, y, v), utility, x0, plan)
    pieces = [_cost(step_cumulants(plan, *(f if len(f) == 1 else f[lo:lo + _CHUNK]
                                           for f in (y, v))), utility, x0, plan)
              for lo in range(0, n, _CHUNK)]
    assert whole.shape == (n,)
    assert np.array_equal(whole, np.concatenate(pieces), equal_nan=True)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# small ticks repeat within and across arrays; the large ones sit near the
# top of the tick grid
TICKS = st.integers(0, 12) | st.integers(2 ** 62 - 3, 2 ** 62)


@PROPERTY
@given(st.lists(st.lists(TICKS, max_size=6), min_size=1, max_size=4), TICKS)
def test_tick_merge_is_the_union(arrays, horizon):
    """merge_ticks gives np.union1d's ticks and dtype, bit for bit, for one
    array or several, with or without the horizon tick appended as
    build_market appends it."""
    ticks = [np.array(a, dtype=np.int64) for a in arrays]
    union = functools.reduce(np.union1d, ticks, np.empty(0, dtype=np.int64))
    assert _same_bits(merge_ticks(*ticks), union)
    assert _same_bits(merge_ticks(*ticks, [horizon]), np.union1d(union, [horizon]))


# repeats, both zeros and both infinities; NaN is outside the helper's domain
LEVELS = (st.sampled_from([0.0, -0.0, 1e-3, 0.5, 0.5 + 2 ** -53, 1.0, np.inf, -np.inf])
          | st.floats(allow_nan=False))


@PROPERTY
@given(st.lists(LEVELS, max_size=12))
def test_oracle_dedupe_is_np_unique(values):
    """The oracle's rhos and levels come out as np.unique gives them, bit for
    bit, including which of 0.0 and -0.0 is kept."""
    a = np.array(values, dtype=np.float64)
    rhos = np.concatenate([[0.0], a])
    assert _same_bits(ascending_unique(rhos), np.unique(rhos))
    assert _same_bits(ascending_unique(a), np.unique(a))
