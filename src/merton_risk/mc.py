"""Exact-law Monte Carlo for lognormal wealth and the feedback optimum.

Both simulated laws are exponentials of Gaussian functionals, so path
skeletons are sampled exactly: per grid step the log-increment mean and
variance come from the exact cumulant tables, and refining the grid does
not change the law at fixed monitoring times (no Euler bias).  An Euler
scheme for the feedback wealth SDE is kept only as a distributional
cross-check of the closed-form law.

Streams are counter-based (Philox) and indexed by (seed, path block), so
ensembles are bit-reproducible regardless of how path blocks would be
scheduled.  Sampling and cost estimation stream through fixed row chunks
of the one (n, m) wealth matrix, so memory beyond it (and the feedback
law's consumption matrix) is a few chunk buffers and per-path vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from ._piecewise import merge_ticks, from_ticks, to_ticks
from ._table import fmt, write_rows
from .errors import InsufficientPaths, MismatchedPaths
from .market import MarketModel
from .risk import MeasureKind, RiskProfile, RiskSpec
from .strategies import DeterministicStrategy, cumulants
from .unconstrained import HaraFeedback, solve_hara_unconstrained
from .utility import UtilityParams

_BLOCK = 1 << 16
# rows per streamed chunk; divides _BLOCK, and (chunk, m) temporaries fit L2
_CHUNK = 1 << 10


@dataclass(frozen=True)
class SimConfig:
    """Ensemble size, monitoring grid, stream seed, antithetic pairing."""

    n_paths: int
    seed: int = 0
    time_grid: np.ndarray | None = None
    n_steps: int = 64
    antithetic: bool = False

    def __post_init__(self):
        if self.n_paths < 2:
            raise MismatchedPaths("n_paths must be at least 2")


def block_normals(seed: int, n_paths: int, n_steps: int) -> np.ndarray:
    """(n_paths, n_steps) standard normals from per-block Philox streams."""
    base = np.random.Philox(key=seed)
    return np.vstack([
        np.random.Generator(base.jumped(b0 // _BLOCK)).standard_normal(
            (min(_BLOCK, n_paths - b0), n_steps))
        for b0 in range(0, n_paths, _BLOCK)])


def _row_chunks(n: int):
    return (slice(r0, r0 + _CHUNK) for r0 in range(0, n, _CHUNK))


def _log_paths(config: SimConfig, mean_inc: np.ndarray, sd_inc: np.ndarray):
    """Yield (rows, xi): cumulative log increments of block_normals' rows.

    xi is a buffer reused by each _CHUNK rows; antithetic runs mirror each
    chunk into the second half (increments mean - sd z)."""
    n = config.n_paths
    half = (n + 1) // 2 if config.antithetic else n
    base = np.random.Philox(key=config.seed)
    buf = np.empty((min(_CHUNK, half), len(mean_inc)))
    xi = np.zeros((len(buf), len(mean_inc) + 1))
    for r0 in range(0, half, _CHUNK):
        if r0 % _BLOCK == 0:
            gen = np.random.Generator(base.jumped(r0 // _BLOCK))
        k = min(_CHUNK, half - r0)
        z = gen.standard_normal(out=buf[:k])
        z *= sd_inc
        mirror = min(k, n - half - r0)
        if mirror > 0:
            np.cumsum(mean_inc - z[:mirror], axis=1, out=xi[:mirror, 1:])
            yield slice(half + r0, half + r0 + mirror), xi[:mirror]
        z += mean_inc
        np.cumsum(z, axis=1, out=xi[:k, 1:])
        yield slice(r0, r0 + k), xi[:k]


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated wealth/consumption skeletons plus exact step metadata."""

    times: np.ndarray            # (m,)
    wealth: np.ndarray           # (n, m), all > 0
    terminal: np.ndarray         # (n,)
    kind: str                    # "deterministic" | "feedback"
    antithetic: bool
    seed: int
    # deterministic-strategy metadata for the exact consumption integral
    v_grid: np.ndarray | None = None          # (m,) rate v_t, c = X v
    V_grid: np.ndarray | None = None          # (m,)
    gross_drift: np.ndarray | None = None     # (m-1,) slope of R+(y,th)-ynn/2
    y_sq_rate: np.ndarray | None = None       # (m-1,) |y|^2 per step
    cons_log0: np.ndarray | None = None       # (m-1,) ln(v e^{-V}) at step start
    cons_slope: np.ndarray | None = None      # (m-1,)
    feedback_consumption: np.ndarray | None = None   # (n, m)

    @property
    def n_paths(self) -> int:
        return self.wealth.shape[0]

    @property
    def consumption(self) -> np.ndarray:
        """(n, m) consumption rate c_t at grid times."""
        return self._consumption(slice(None))

    def _consumption(self, rows: slice) -> np.ndarray:
        if self.v_grid is None:
            return self.feedback_consumption[rows]
        return self.wealth[rows] * self.v_grid

    def write_csv(self, path, max_paths: int | None = None) -> None:
        """Columnar spill (path_id, t, X, c); optionally truncated."""
        n = self.n_paths if max_paths is None else min(max_paths,
                                                       self.n_paths)
        consumption = self._consumption(slice(0, n))
        ts = fmt(self.times)
        write_rows(path, ["path_id", "t", "X", "c"], (
            (str(i), t, x, c) for i in range(n)
            for t, x, c in zip(ts, fmt(self.wealth[i]), fmt(consumption[i]))))


def simulation_grid(model: MarketModel, strategy_nodes: np.ndarray,
                    config: SimConfig) -> np.ndarray:
    if config.time_grid is not None:
        base = to_ticks(np.asarray(config.time_grid, dtype=np.float64))
    else:
        base = to_ticks(np.linspace(0.0, model.horizon, config.n_steps + 1))
    ticks = merge_ticks(base, strategy_nodes, model.node_ticks)
    if ticks[0] != 0 or ticks[-1] != model.node_ticks[-1]:
        raise MismatchedPaths("grid must span [0, T]")
    return from_ticks(ticks)


def simulate_deterministic(model: MarketModel,
                           strategy: DeterministicStrategy, x: float,
                           config: SimConfig) -> PathEnsemble:
    """Exact sampling of lognormal wealth under a deterministic strategy."""
    cum = cumulants(model, strategy)
    grid = simulation_grid(model, cum.node_ticks, config)
    mean_inc = np.diff(cum.log_drift(grid))
    sd_inc = np.sqrt(np.maximum(np.diff(cum.log_var(grid)), 0.0))

    wealth = np.empty((config.n_paths, len(grid)))
    for rows, xi in _log_paths(config, mean_inc, sd_inc):
        chunk = np.exp(xi, out=wealth[rows])
        chunk *= x

    v_grid = np.broadcast_to(strategy.v_at(model, grid), grid.shape)

    V_grid = cum.V(grid)
    R_grid = model.R(grid)
    ydt_grid = cum.ydt(grid)
    ynn_grid = cum.ynn(grid)
    dt = np.diff(grid)
    gross_drift = (np.diff(R_grid + ydt_grid - 0.5 * ynn_grid)) / dt
    y_sq_rate = np.diff(ynn_grid) / dt
    # per-step exp-affine form of v e^{-V} straight from the consumption
    # family (cadlag: the left value rules the step, jumps never leak in)
    cons_log0, cons_slope = strategy.consumption.log_affine(
        model, to_ticks(grid))
    cons_slope = np.where(np.isfinite(cons_log0), cons_slope, 0.0)

    return PathEnsemble(
        times=grid, wealth=wealth,
        terminal=wealth[:, -1], kind="deterministic",
        antithetic=config.antithetic, seed=config.seed,
        v_grid=v_grid, V_grid=V_grid, gross_drift=gross_drift,
        y_sq_rate=y_sq_rate, cons_log0=cons_log0, cons_slope=cons_slope,
    )


def simulate_hara_feedback(model: MarketModel, utility: UtilityParams,
                           x: float, config: SimConfig) -> PathEnsemble:
    """Exact sampling of the feedback-optimal wealth mixture."""
    sol = solve_hara_unconstrained(model, utility, x)
    fb: HaraFeedback = sol.feedback
    grid = simulation_grid(model, model.node_ticks, config)
    R = model.R(grid)
    TS = model.theta_sq_cum(grid)
    mean_inc = -np.diff(R + 0.5 * TS)
    sd_inc = np.sqrt(np.maximum(np.diff(TS), 0.0))

    g0 = fb.g(0.0, x)
    q1, q2 = utility.q1, utility.q2
    c1 = fb.coeffs.A1(grid) * g0 ** -q1
    c2 = fb.coeffs.A2(grid) * g0 ** -q2
    wealth = np.empty((config.n_paths, len(grid)))
    consumption = np.empty_like(wealth)
    for rows, xi in _log_paths(config, mean_inc, sd_inc):
        wealth[rows] = c1 * np.exp(-q1 * xi) + c2 * np.exp(-q2 * xi)
        consumption[rows] = (utility.gamma1 / (g0 * np.exp(xi))) ** q1
    return PathEnsemble(
        times=grid, wealth=wealth,
        terminal=wealth[:, -1], kind="feedback",
        antithetic=config.antithetic, seed=config.seed,
        feedback_consumption=consumption,
    )


# ---------------------------------------------------------------------------
# Cost estimation
# ---------------------------------------------------------------------------

def _int_exp_quadratic(B: np.ndarray, A: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """int_0^dt exp(B s - A s^2) ds for B (paths, steps), A >= 0 and dt per step.

    erf closed form on curved steps, with an affine fallback on steps whose
    quadratic term is negligible (A dt^2 <= 1e-8).
    """
    out = np.empty(B.shape)
    flat = A * dt * dt <= 1e-8
    if np.any(flat):
        b = B[:, flat]
        d = dt[flat]
        xbd = b * d
        small = np.abs(xbd) < 1e-12
        safe_b = np.where(small, 1.0, b)
        out[:, flat] = np.where(small, d * (1.0 + 0.5 * xbd),
                                np.expm1(xbd) / safe_b)
    curved = ~flat
    if np.any(curved):
        a = A[curved]
        b = B[:, curved]
        d = dt[curved]
        sa = np.sqrt(a)
        h = b / (2.0 * a)
        peak = a * h * h
        with np.errstate(over="ignore"):
            ssum = special.erf(sa * (d - h)) + special.erf(sa * h)
            core = np.exp(np.where(peak < 700.0, peak, -np.inf)) \
                * np.sqrt(np.pi) / (2.0 * sa)
            val = core * ssum
        # deep-tail elements where the erf pair cancels (or the recentred
        # scale overflows): integrate with peak-factored Gauss-Legendre
        bad = (ssum < 1e-8) | (peak >= 700.0) | ~np.isfinite(val)
        if np.any(bad):
            nodes, weights = np.polynomial.legendre.leggauss(32)
            ab, bb, db = (np.broadcast_to(v, b.shape)[bad] for v in (a, b, d))
            s = 0.5 * db[:, None] * (nodes[None, :] + 1.0)
            expo = bb[:, None] * s - ab[:, None] * s * s
            peak = np.max(expo, axis=1, keepdims=True)
            val[bad] = (0.5 * db * np.exp(peak[:, 0])
                        * np.sum(weights * np.exp(expo - peak), axis=1))
        out[:, curved] = val
    return out


def _consumption_integral_exact(ens: PathEnsemble, g: float) -> np.ndarray:
    """Unbiased per-path value of int_0^T c_t^g dt.

    Conditional on the sampled skeleton, the within-step law of wealth is a
    lognormal bridge, so E[int c^g dt | skeleton] has an erf closed form;
    by the tower property its path average is unbiased for the true cost
    term with strictly smaller variance than any within-step sampling.
    """
    out = np.empty(ens.n_paths)
    idx = np.flatnonzero(np.isfinite(ens.cons_log0))
    dts = np.diff(ens.times)[idx]
    mu = ens.gross_drift[idx]
    a0 = ens.cons_log0[idx]
    # per-step terms, shared by every path
    drift = mu * dts
    B0 = g * (ens.cons_slope[idx] + mu)
    B2 = 0.5 * g * g * ens.y_sq_rate[idx]
    A = B2 / dts
    for rows in _row_chunks(ens.n_paths):
        lnG = np.log(ens.wealth[rows])
        lnG += ens.V_grid
        lnG_a = lnG[:, idx]
        w = lnG[:, idx + 1] - lnG_a - drift
        C = g * (a0 + lnG_a)
        B = B0 + g * w / dts + B2
        # column-major, so that each path sums its steps left to right
        seg = np.multiply(np.exp(C), _int_exp_quadratic(B, A, dts), order="F")
        out[rows] = np.sum(seg, axis=1)
    return out


def _consumption_integral_trapezoid(ens: PathEnsemble,
                                    gamma1: float) -> np.ndarray:
    dt = np.diff(ens.times)
    out = np.empty(ens.n_paths)
    for rows in _row_chunks(ens.n_paths):
        cg = ens.feedback_consumption[rows] ** gamma1
        out[rows] = np.sum(0.5 * (cg[:, :-1] + cg[:, 1:]) * dt, axis=1)
    return out


def estimate_cost(ensemble: PathEnsemble,
                  utility: UtilityParams) -> tuple[float, float]:
    """Monte Carlo estimate of the expected cost with jackknife std error.

    Deterministic ensembles integrate consumption by the exact per-step
    conditional expectation; feedback ensembles use the trapezoid rule on
    the grid (bias O(dt^2)).
    """
    if ensemble.kind == "deterministic":
        cons = _consumption_integral_exact(ensemble, utility.gamma1)
    else:
        cons = _consumption_integral_trapezoid(ensemble, utility.gamma1)
    values = cons + ensemble.terminal ** utility.gamma2
    if ensemble.antithetic:
        half = (len(values) + 1) // 2
        if 2 * half == len(values):
            values = 0.5 * (values[:half] + values[half:])
    n = len(values)
    mean = float(np.mean(values))
    # delete-1 jackknife of the sample mean
    if n > 1:
        jk = (n * mean - values) / (n - 1)
        se = float(np.sqrt((n - 1) / n * np.sum((jk - np.mean(jk)) ** 2)))
    else:
        se = np.inf
    return mean, se


# ---------------------------------------------------------------------------
# Empirical risk curves
# ---------------------------------------------------------------------------

def empirical_risk_curve(ensemble: PathEnsemble, spec: RiskSpec, x: float,
                         model: MarketModel) -> RiskProfile:
    """Empirical quantile / tail-mean risk curves along the ensemble grid."""
    n = ensemble.n_paths
    alpha = spec.alpha
    if n * alpha < 100:
        raise InsufficientPaths(
            f"need n_paths * alpha >= 100, got {n * alpha:.1f}")
    times = ensemble.times
    bond = x * np.exp(model.R(times))
    level = spec.zeta * bond

    # np.quantile's type-7 position and weight, in its own arithmetic
    virt = (n - 1) * alpha
    q_lo = int(np.floor(virt))
    q_hi = min(q_lo + 1, n - 1)
    gamma = virt - q_lo
    # order-statistic normal-approximation band for the quantile
    j = max(1, int(np.sqrt(n * alpha * (1 - alpha))))
    band_lo = max(0, int(n * alpha) - j)
    band_hi = min(n - 1, int(n * alpha) + j)

    var_curve = np.zeros_like(times)
    es_curve = np.zeros_like(times)
    var_se = np.zeros_like(times)
    es_se = np.zeros_like(times)
    for k in range(len(times)):
        col = ensemble.wealth[:, k].copy()
        # select band_hi over the column, the rest within the head below it
        order = np.partition(col, band_hi)
        order[:band_hi + 1].partition([band_lo, q_lo, q_hi])
        lo, hi, b_lo, b_hi = order[[q_lo, q_hi, band_lo, band_hi]]
        del order
        diff = hi - lo
        lam = float(hi - diff * (1 - gamma) if gamma >= 0.5
                    else lo + diff * gamma)
        below = col <= lam
        tail = col[below]
        # influence function of the tail conditional mean,
        # X 1{X <= lam} + lam (alpha - 1{X <= lam}), term by term
        u = np.full(n, lam * alpha)
        u[below] = tail + lam * (alpha - 1.0)
        if tail.size == 0:
            tail = np.array([lam])
        m = float(np.mean(tail))
        var_curve[k] = bond[k] - lam
        es_curve[k] = bond[k] - m
        var_se[k] = max(float(b_hi - b_lo) / 2.0, 1e-300)
        es_se[k] = float(np.std(u) / (alpha * np.sqrt(n)))

    measure = var_curve if spec.kind == MeasureKind.VAR else es_curve
    ratio = measure / level
    kk = int(np.argmax(ratio))
    log_curve = np.log(np.maximum(1.0 - measure / bond, 1e-300))
    return RiskProfile(
        times=times, var_curve=var_curve, es_curve=es_curve,
        level_curve=level, kind=spec.kind,
        max_ratio=float(ratio[kk]), argmax_time=float(times[kk]),
        log_curve=log_curve, log_bound=spec.log_bound(),
        var_stderr=var_se, es_stderr=es_se,
    )


# ---------------------------------------------------------------------------
# Euler cross-check of the feedback wealth SDE
# ---------------------------------------------------------------------------

def simulate_feedback_euler(model: MarketModel, utility: UtilityParams,
                            x: float, n_paths: int, n_steps: int,
                            seed: int = 0) -> np.ndarray:
    """Terminal wealth by Euler stepping of the feedback SDE (cross-check).

    The implicit g-root is Newton-polished per step, warm-started from the
    previous step (the state moves O(sqrt(dt)) between steps).
    """
    sol = solve_hara_unconstrained(model, utility, x)
    fb: HaraFeedback = sol.feedback
    q1, q2 = utility.q1, utility.q2
    ts = np.linspace(0.0, model.horizon, n_steps + 1)
    dt = np.diff(ts)
    X = np.full(n_paths, float(x))
    u = np.full(n_paths, np.log(fb.g(0.0, x)))
    base = np.random.Philox(key=seed)
    gen = np.random.Generator(base)
    for k in range(n_steps):
        t = ts[k]
        theta = model.theta_at(t)
        A1 = float(fb.coeffs.A1(t))
        A2 = float(fb.coeffs.A2(t))
        for _ in range(4):
            e1 = A1 * np.exp(-q1 * u)
            e2 = A2 * np.exp(-q2 * u)
            u -= (e1 + e2 - X) / -(q1 * e1 + q2 * e2)
        g = np.exp(u)
        p = q1 * A1 * g ** -q1 + q2 * A2 * g ** -q2
        c = (utility.gamma1 / g) ** q1
        r = model.r_step[np.searchsorted(model.nodes, t, side="right") - 1]
        drift = r * X + p * float(theta @ theta) - c
        dW = gen.standard_normal((n_paths, len(theta))) * np.sqrt(dt[k])
        X = np.maximum(X + drift * dt[k] + p * (dW @ theta), 1e-12)
    return X
