"""Cross-check routes and bounds that only the tests use.

Each restates a quantity of the package by another route: the expected
cost by adaptive quadrature, the sup of the cost tilt along theta, the
Gaussian upper tail, Mills' ratio bounds on it, the Hamiltonian probe
check node by node, the oracle's feasibility screen on the full profile
grid in one pass with every curve evaluated call by call, the oracle's
coordinate descent with one evaluation per coordinate, a simulated
ensemble's whole consumption table, the standard errors of the empirical
VaR and ES, the output tables written one formatted field at a time
(``fmt`` and ``write_rows``, the package's writers before
``_table.write_table``), the closed-form quantile, VaR and ES of one
strategy with the log form of the uniform bound, the ES budget function
psi(rho, u) whose root at u = 1 ``rho_es`` finds, the verdict of a
constraint profile, and the exposure budget left after consuming part of
the bound, from scipy's normal tail; and a constant control, which the
solvers never need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from merton_risk._piecewise import PiecewiseLinear
from merton_risk.gaussian import gauss_hazard, log_tail_ratio, normal_quantile
from merton_risk.hjb import _grid, _reduced_hamiltonian_terms
from merton_risk.market import MarketModel
from merton_risk.mc import PathEnsemble
from merton_risk.oracle import (
    _CHUNK,
    COORDINATE_PASSES,
    N_PROFILE,
    OracleStage,
    _cost,
    _cost_pieces,
)
from merton_risk.risk import (
    SATURATION_TOL,
    MeasureKind,
    RiskProfile,
    RiskSpec,
    _lambda_from_cumulants,
    _shortfall_mean,
    profile_grid,
)
from merton_risk.strategies import (
    Cumulants,
    DeterministicStrategy,
    EvaluationPlan,
    cumulants,
    step_cumulants,
    step_strategy,
)
from merton_risk.unconstrained import HaraFeedback
from merton_risk.utility import UtilityParams


def constant_strategy(y, v: float, horizon: float) -> DeterministicStrategy:
    """Exposure y and consumption rate v held on [0, horizon]."""
    return step_strategy([(0.0, y)], [(0.0, v)], horizon)


def cost_quadrature(model: MarketModel, strategy: DeterministicStrategy,
                    utility: UtilityParams, x: float,
                    rtol: float = 1e-10) -> float:
    """Same cost via adaptive quadrature per interval (cross-check route)."""
    # slow to import, and no command takes this cross-check route
    from scipy import integrate

    cum = cumulants(model, strategy)
    dt, offsets, slopes, terminal = _cost_pieces(
        cum, utility, EvaluationPlan.build(model, cum.node_ticks, x, None))
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


def norm_sf(z: float) -> float:
    """The standard normal upper tail, from the standard library's erfc."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mills_bounds(x: float) -> tuple[float, float]:
    """Sandwich (1-x^{-2}) e^{-x^2/2} < x int_x^inf e^{-t^2/2} dt < e^{-x^2/2}.

    The lower bound is vacuous (<= 0) for x <= 1 and is returned as-is.
    """
    core = float(np.exp(-0.5 * x * x))
    lower = (1.0 - x ** -2) * core if x != 0 else -np.inf
    return lower, core


def _h0_node(r, theta, x, z1, z2, y, c, gamma1):
    """Pre-maximization Hamiltonian at a single node, vectorized in probes."""
    ydt = y @ theta
    ysq = np.sum(y * y, axis=-1)
    return ((r + ydt) * x * z1 + 0.5 * x * x * ysq * z2
            + c ** gamma1 - c * z1)


def hamiltonian_gap_per_node(model: MarketModel, utility: UtilityParams,
                             feedback: HaraFeedback, n_t: int = 10, n_x: int = 10,
                             n_probes: int = 64, seed: int = 0) -> float:
    """The worst probe advantage, drawn and evaluated one (t, x) node at a time."""
    t_nodes, x_nodes = _grid(model, None, n_t, n_x)
    _, _, _, _, gs, ps, rs, thetas = _reduced_hamiltonian_terms(
        model, utility, feedback, t_nodes[:, None], x_nodes)
    rng = np.random.default_rng(seed)
    d = model.dimension
    gap = -np.inf
    for i in range(len(t_nodes)):
        r, theta = rs[i, 0], thetas[i, 0]
        for j, x in enumerate(x_nodes):
            z1 = gs[i, j]
            z2 = -gs[i, j] / ps[i, j]
            y_opt = (z1 / (x * abs(z2))) * theta
            c_opt = (utility.gamma1 / z1) ** utility.q1
            h_opt = _h0_node(r, theta, x, z1, z2, y_opt[None, :],
                             np.array([c_opt]), utility.gamma1)[0]
            scales = rng.uniform(0.25, 4.0, size=(n_probes, 1))
            y_probe = np.vstack([
                y_opt[None, :] * scales,
                rng.standard_normal((n_probes, d)),
            ])
            c_probe = np.concatenate([
                c_opt * rng.uniform(0.0, 4.0, size=n_probes),
                rng.uniform(0.0, 2.0, size=n_probes),
            ])
            h_probe = _h0_node(r, theta, x, z1, z2, y_probe, c_probe,
                               utility.gamma1)
            node_gap = float(np.max(h_probe) - h_opt)
            gap = max(gap, node_gap)
    return gap


def fmt(values, spec: str = ".12g") -> list:
    """The values, flattened, as text in the given format."""
    return [f"{v:{spec}}" for v in np.ravel(values).tolist()]


def write_rows(path, header, rows) -> None:
    """Write the header and the rows (sequences of text fields) line by line
    from a generator, so a long table is never held whole."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def write_grid_csv_per_row(path, header, ts, xs, values,
                           spec: str = ".12g") -> None:
    """CSV of values[i, j] at (ts[i], xs[j]), one formatted field at a time."""
    cells = product(fmt(ts), fmt(xs))
    write_rows(path, header,
               ((t, x, v) for (t, x), v in zip(cells, fmt(values, spec))))


def curve_at(curve: PiecewiseLinear, t):
    """A batch of curves (values (..., k+1)) at t, computed for this call
    alone: np.interp row by row, as slope times offset from the left node,
    and the node value itself at T (a zero slope past the last node)."""
    t = np.asarray(t, dtype=np.float64)
    nodes = curve.nodes
    j = np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, len(nodes) - 1)
    pad = np.zeros(curve.values.shape[:-1] + (1,))
    slopes = np.concatenate((np.diff(curve.values) / np.diff(nodes), pad), axis=-1)
    if j.ndim == 1 and np.all(j[1:] >= j[:-1]):
        # ascending times: each node's column repeats over a run of times
        runs = np.bincount(j, minlength=len(nodes))
        return (np.repeat(slopes, runs, axis=-1) * (t - nodes[j])
                + np.repeat(curve.values, runs, axis=-1))
    return slopes[..., j] * (t - nodes[j]) + curve.values[..., j]


def per_call(cum: Cumulants, t):
    """at(curve) of risk._lambda_from_cumulants for the times t: a curve of
    one strategy by its own call, of a step_cumulants batch by curve_at."""
    t = np.asarray(t, dtype=np.float64)
    if cum.ydt.values.ndim == 1:
        return lambda curve: curve(t)
    return partial(curve_at, t=t)


def max_ratios_per_call(cum: Cumulants, spec: RiskSpec, x: float, grid) -> np.ndarray:
    """risk.max_ratios on the times of grid, evaluated call by call."""
    at, R = per_call(cum, grid), cum.model.R(grid)
    bond = x * np.exp(R)
    if spec.kind == MeasureKind.VAR:
        measure = bond - _lambda_from_cumulants(cum, at, R, spec.abs_z, x)
    else:
        measure = bond - _shortfall_mean(cum, at, R, spec.abs_z, x)
    return np.max(measure / (spec.zeta * bond), axis=-1)


def evaluate_full_grid(model: MarketModel, utility: UtilityParams, spec: RiskSpec | None,
                       x: float, node_ticks: np.ndarray, y, v):
    """Feasibility flags and costs (-inf when infeasible) of step candidates.

    y : (K or 1, k, d) exposures and v : (K or 1, k) consumption rates on the
    intervals of node_ticks.  A factor with one row is shared by every
    candidate and enters the cumulants, screen and cost once, unbroadcast.
    Candidates go through in chunks of _CHUNK, all screened on one profile
    grid by max_ratios_per_call; the plan gives the cumulants and the cost
    only (it has no grid).
    """
    v = np.asarray(v, dtype=np.float64)
    n, = np.broadcast_shapes(np.shape(y)[:1], v.shape[:1])
    feasible = np.ones(n, dtype=bool)
    costs = np.empty(n)
    plan = EvaluationPlan.build(model, node_ticks, x, None)
    grid = profile_grid(node_ticks, model.horizon, N_PROFILE)
    for lo in range(0, n, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        cum = step_cumulants(plan, *(f if len(f) == 1 else f[rows] for f in (y, v)))
        if spec is not None:
            feasible[rows] = max_ratios_per_call(cum, spec, x, grid) <= 1.0 + SATURATION_TOL
        costs[rows] = _cost(cum, utility, x, plan)
    return feasible, np.where(feasible, costs, -np.inf)


def coordinate_descent_per_coordinate(evaluate, rho: float, levels, current,
                                      current_cost: float) -> list:
    """oracle._coordinate_descent with one evaluate call per coordinate and
    no memo: every level of coordinate i at once, then the sequential
    acceptance rule replayed over the results."""
    blocks = []
    for _ in range(COORDINATE_PASSES):
        improved = False
        for i in range(len(current)):
            trials = np.repeat(current[None, :], len(levels), axis=0)
            trials[:, i] = levels
            feasible, costs = evaluate(trials)
            kept = []
            for j, (level, ok, cost) in enumerate(zip(
                    levels.tolist(), feasible.tolist(), costs.tolist())):
                # trial j differs from current in entry i alone
                if level == current[i]:
                    continue
                kept.append(j)
                if ok and cost > current_cost + 1e-15:
                    current_cost, current, improved = cost, trials[j], True
            blocks.append(OracleStage("coordinate_descent", np.full(len(kept), rho),
                                      trials[kept], feasible[kept], costs[kept]))
        if not improved:
            break
    return blocks


def write_oracle_csv_per_field(path, records) -> None:
    """The oracle table of records, one formatted field at a time."""
    write_rows(path, ["label", "rho", "v_levels", "feasible", "cost"], (
        (rec.label, f"{rec.rho:.12g}",
         " ".join(f"{v:.8g}" for v in rec.v_levels),
         "1" if rec.feasible else "0",
         f"{rec.cost:.12g}" if np.isfinite(rec.cost) else "nan")
        for rec in records))


def ensemble_consumption(ensemble: PathEnsemble) -> np.ndarray:
    """(n, m) consumption rate c_t of every path at the grid times, from a
    replay of the ensemble's stream."""
    return np.concatenate([ensemble.rate(xi) for _, xi in ensemble._replay(ensemble.n_paths)])


def empirical_stderr(ensemble, spec: RiskSpec):
    """Standard errors of mc.empirical_risk_curve's VaR and ES at each time.

    The VaR's is half the width of the order-statistic normal-approximation
    band around the alpha-quantile lam; the ES's is the spread of the tail
    conditional mean's influence function
    X 1{X <= lam} + lam (alpha - 1{X <= lam}), over alpha sqrt(n).
    """
    n = ensemble.n_paths
    alpha = spec.alpha
    # np.quantile's type-7 position and weight, in its own arithmetic
    virt = (n - 1) * alpha
    q_lo = int(np.floor(virt))
    q_hi = min(q_lo + 1, n - 1)
    gamma = virt - q_lo
    j = max(1, int(np.sqrt(n * alpha * (1 - alpha))))
    band_lo = max(0, int(n * alpha) - j)
    band_hi = min(n - 1, int(n * alpha) + j)

    var_se = np.zeros_like(ensemble.times)
    es_se = np.zeros_like(ensemble.times)
    for k in range(len(ensemble.times)):
        col = ensemble.wealth[:, k]
        order = np.partition(col, band_hi)
        order[:band_hi + 1].partition([band_lo, q_lo, q_hi])
        lo, hi, b_lo, b_hi = order[[q_lo, q_hi, band_lo, band_hi]]
        diff = hi - lo
        lam = float(hi - diff * (1 - gamma) if gamma >= 0.5
                    else lo + diff * gamma)
        below = col <= lam
        u = np.full(n, lam * alpha)
        u[below] = col[below] + lam * (alpha - 1.0)
        var_se[k] = max(float(b_hi - b_lo) / 2.0, 1e-300)
        es_se[k] = float(np.std(u) / (alpha * np.sqrt(n)))
    return var_se, es_se


# ---------------------------------------------------------------------------
# Closed-form risk of one strategy
# ---------------------------------------------------------------------------

def quantile_lambda(model: MarketModel, strategy: DeterministicStrategy,
                    alpha: float, x: float, t):
    """Exact alpha-quantile of wealth at time t."""
    cum = cumulants(model, strategy)
    out = _lambda_from_cumulants(cum, per_call(cum, t), cum.model.R(t),
                                 -normal_quantile(alpha), x)
    return float(out) if np.ndim(t) == 0 else out


def value_at_risk(model: MarketModel, strategy: DeterministicStrategy,
                  alpha: float, x: float, t):
    """Excess loss of the alpha-quantile against the pure bond account.

    May be negative; negative values are returned as-is (spare risk budget).
    """
    cum = cumulants(model, strategy)
    lam = _lambda_from_cumulants(cum, per_call(cum, t), cum.model.R(t),
                                 -normal_quantile(alpha), x)
    out = x * np.exp(cum.model.R(np.asarray(t, dtype=np.float64))) - lam
    return float(out) if np.ndim(t) == 0 else out


def expected_shortfall(model: MarketModel, strategy: DeterministicStrategy,
                       alpha: float, x: float, t):
    """Excess loss of the tail conditional mean; always >= value_at_risk."""
    cum = cumulants(model, strategy)
    m = _shortfall_mean(cum, per_call(cum, t), cum.model.R(t), -normal_quantile(alpha), x)
    out = x * np.exp(cum.model.R(np.asarray(t, dtype=np.float64))) - m
    return float(out) if np.ndim(t) == 0 else out


# ---------------------------------------------------------------------------
# Log-form functionals (sup-constraint in additive form)
# ---------------------------------------------------------------------------

def log_risk_var(cum: Cumulants, abs_z: float, t):
    """L_t at |z_alpha| = abs_z; the VaR bound holds at t iff L_t >= ln(1 - zeta)."""
    t = np.asarray(t, dtype=np.float64)
    yn = np.sqrt(cum.ynn(t))
    return cum.ydt(t) - cum.V(t) - 0.5 * cum.ynn(t) - abs_z * yn


def log_risk_es(cum: Cumulants, abs_z: float, t):
    """L*_t at |z_alpha| = abs_z; the ES bound holds at t iff L*_t >= ln(1 - zeta)."""
    t = np.asarray(t, dtype=np.float64)
    yn = np.sqrt(cum.ynn(t))
    return cum.ydt(t) - cum.V(t) + log_tail_ratio(abs_z, abs_z + yn)


@dataclass(frozen=True)
class PsiFunction:
    """psi(rho, u) = ||theta||_T rho u^2 + ln F_a(|z_a| + rho u), the ES
    budget function, for ||theta||_T = theta_norm_T and |z_a| = abs_z;
    rho_es solves psi(rho, 1) = ln(1 - zeta)."""

    theta_norm_T: float
    abs_z: float

    def __call__(self, rho, u=1.0):
        rho = np.asarray(rho, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        return (self.theta_norm_T * rho * u ** 2
                + log_tail_ratio(self.abs_z, self.abs_z + rho * u))

    def d_rho(self, rho):
        """d psi / d rho at u = 1 (negative while |z_a| >= ||theta||_T)."""
        rho = np.asarray(rho, dtype=np.float64)
        return self.theta_norm_T - gauss_hazard(self.abs_z + rho)


# ---------------------------------------------------------------------------
# Verdict of a constraint profile
# ---------------------------------------------------------------------------

def max_ratio(prof: RiskProfile) -> float:
    """Largest measure-to-level ratio along the profile."""
    return float(np.max(prof.ratio_curve))


def satisfied(prof: RiskProfile, tol: float = SATURATION_TOL) -> bool:
    """Does the profile keep the uniform bound, up to tol?"""
    return max_ratio(prof) <= 1.0 + tol


# ---------------------------------------------------------------------------
# Exposure budget after consumption
# ---------------------------------------------------------------------------

def budget_after(model: MarketModel, spec: RiskSpec, kappa: float) -> float:
    """Exposure budget rho(kappa) left once the fraction kappa <= zeta of
    the discounted endowment is consumed.

    The root rho >= 0 of b(rho) = ln(1-zeta) - ln(1-kappa), with
    b(rho) = ||theta||_T rho - rho^2/2 - |z_a| rho for VaR (explicit) and
    b(rho) = ||theta||_T rho + ln F_a(|z_a| + rho) for ES (brentq), where
    F_a(z) = P(N > z) / alpha.  At kappa = zeta nothing is left and
    rho = 0; no RiskSpec stands for that level, since zeta' = 0 is refused.
    """
    # slow to import, and no command takes this cross-check route
    from scipy import optimize, special

    if kappa == spec.zeta:
        return 0.0
    target = np.log1p(-spec.zeta) - np.log1p(-kappa)
    tn = model.theta_norm_T
    abs_z = -float(special.ndtri(spec.alpha))
    if spec.kind == MeasureKind.VAR:
        c, w = abs_z - tn, -2.0 * target
        root = np.sqrt(c * c + w)
        return float(w / (root + c) if c >= 0 else root - c)

    def f(rho):
        return (tn * rho + special.log_ndtr(-(abs_z + rho))
                - special.log_ndtr(-abs_z) - target)

    hi = 1.0
    while f(hi) > 0.0:
        hi *= 2.0
    return optimize.brentq(f, 0.0, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)
