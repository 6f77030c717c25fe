"""Exact-law Monte Carlo for lognormal wealth and the feedback optimum.

Both simulated laws are exponentials of Gaussian functionals, so path
skeletons are sampled exactly: per grid step the log-increment mean and
variance come from the exact cumulant tables, and refining the grid does
not change the law at fixed monitoring times (no Euler bias).

Each path block draws from its own SFC64 stream, keyed by (seed, block),
so ensembles are bit-reproducible regardless of how path blocks would be
scheduled.  Sampling is one pass over fixed row chunks of the stream that
keeps no wealth matrix.  Each chunk is built time-major, so its sums along
time and its cost read contiguous rows of one time each.  Wealth at each
time is monotone in xi, so each chunk's xi is gathered, as a key along
which wealth never falls, into a column-major block, and reduced to each
path's terminal wealth and cost of consumption, and to each time's tail
candidates for the empirical risk's alpha, selected on the key: wealth is
evaluated on the terminal row and on the kept keys alone.  Memory is a few
chunk buffers, a gathering block, O(n) scalars and O(alpha n) values per
time.
Wealth and consumption are rebuilt from a replay of the stream.  Both
laws go through one sampling loop, and both costs are exact given the
skeleton: under either law ln c^gamma1 is affine in t and in the Gaussian
process xi on each step, so per step the cost is the integral of an
exp-quadratic, summed as a series about the step's midpoint (one exp per
element, no special function) with as many terms as the chunk's largest
step needs, and split into halves where a step is outside the series'
range.
A strategy with no risky exposure has one wealth path, sampled once, and
its per-path results are read-only broadcasts of that path's, so it
needs O(m) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from ._piecewise import merge_ticks, from_ticks, to_ticks
from ._table import _BLOCK_ROWS, grid_axes, write_table
from .errors import InsufficientPaths, MismatchedPaths
from .market import MarketModel
from .risk import RiskProfile, RiskSpec
from .strategies import DeterministicStrategy, cumulants
from .unconstrained import solve_hara_unconstrained
from .utility import UtilityParams

_BLOCK = 1 << 16
# rows per streamed chunk; divides _BLOCK, and a (chunk, m) buffer on 32 steps
# takes about 0.5 MB
_CHUNK = 1 << 11
# rows of keys gathered before each time's tail candidates are selected
_TAIL_BLOCK = 1 << 13


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
        if not 0 <= self.seed < 1 << 128:
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed}")

    @property
    def drawn_rows(self) -> int:
        """Rows of normals drawn: an antithetic run mirrors its first half."""
        return (self.n_paths + 1) // 2 if self.antithetic else self.n_paths


def _log_paths(config: SimConfig, mean_inc: np.ndarray, sd_inc: np.ndarray):
    """Yield (rows, xi): cumulative log increments of each path's rows.

    Row block b draws its standard normals for _BLOCK rows at a time from the
    SFC64 stream keyed by (seed, b), the seed's spawned child b, so a longer
    ensemble keeps the rows of a shorter one.  Each _CHUNK rows are built
    time-major in reused buffers, and xi is their (paths, times) view,
    column-major; antithetic runs mirror each chunk into the second half
    (increments mean - sd z)."""
    n = config.n_paths
    half = config.drawn_rows
    width = min(_CHUNK, half)
    z = np.empty((width, len(mean_inc)))
    scaled = np.empty((len(mean_inc), width))
    xi = np.zeros((len(mean_inc) + 1, width))
    mean, sd = mean_inc[:, None], sd_inc[:, None]
    for r0 in range(0, half, _CHUNK):
        if r0 % _BLOCK == 0:
            gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(
                config.seed, spawn_key=(r0 // _BLOCK,))))
        k = min(_CHUNK, half - r0)
        gen.standard_normal(out=z[:k])
        np.multiply(z[:k].T, sd, out=scaled[:, :k])
        mirror = min(k, n - half - r0)
        if mirror > 0:
            np.subtract(mean, scaled[:, :mirror], out=xi[1:, :mirror])
            yield slice(half + r0, half + r0 + mirror), _cumulate(xi, mirror)
        np.add(scaled[:, :k], mean, out=xi[1:, :k])
        yield slice(r0, r0 + k), _cumulate(xi, k)


def _cumulate(xi: np.ndarray, k: int) -> np.ndarray:
    """Sum the increments in rows 1: of xi's first k columns along time, in
    place, one time at a time (the bits of a row-wise cumsum); return the
    (paths, times) view."""
    xi = xi[:, :k]
    for j in range(2, len(xi)):
        np.add(xi[j], xi[j - 1], out=xi[j])
    return xi.T


def _chunks(config: SimConfig, mean_inc: np.ndarray, sd_inc: np.ndarray):
    """_log_paths' chunks, or, with no variance on any step, one chunk of
    rows that all hold the one path.  That chunk is shaped like a stream's
    first, so the sums, exp and the exact cost give the bits of streamed
    rows."""
    if np.any(sd_inc):
        return _log_paths(config, mean_inc, sd_inc)
    xi = np.zeros((len(mean_inc) + 1, min(_CHUNK, config.drawn_rows)))
    xi[1:] = mean_inc[:, None]
    return [(slice(0, xi.shape[1]), _cumulate(xi, xi.shape[1]))]


def _tail_ranks(n: int, alpha: float) -> tuple[int, int, float]:
    """np.quantile's type-7 ranks q_lo, q_hi and weight of the alpha-quantile
    of n values, in its own arithmetic."""
    if n * alpha < 100:
        raise InsufficientPaths(
            f"need n_paths * alpha >= 100, got {n * alpha:g}")
    virt = (n - 1) * alpha
    q_lo = int(np.floor(virt))
    return q_lo, min(q_lo + 1, n - 1), virt - q_lo


class _WealthPass:
    """One pass over the xi rows of a stream, taken in any row order.

    Wealth at each time is monotone in xi, so each row is gathered as a key,
    key_sign xi, along which wealth never falls.  The pass keeps each path's
    terminal wealth and, given alpha, each time's tail candidates with their
    path indices: the keys strictly below a running threshold.  Rows are
    gathered in a column-major block, and each block is selected column by
    column; a time's candidates are cut once they outgrow by half what the
    last cut kept (at least q_hi + 1).  A cut keeps the keys whose wealth is
    at or below the q_hi-th wealth of those it holds, and lowers the
    threshold to the least key it drops: that order statistic never rises,
    so every later key at or past the threshold has more wealth than the
    time's final q_hi-th, and every path at or below it survives, ties
    included, even where distinct keys round to one wealth.  Wealth is
    evaluated only on the terminal row and on the keys a cut compares or
    keeps.  A time before any step with variance holds one value on every
    path, kept once.
    """

    def __init__(self, config: SimConfig, mean_inc: np.ndarray,
                 sd_inc: np.ndarray, alpha: float | None,
                 wealth_of: Callable, key_sign: float):
        n = config.n_paths
        self.q_hi = None if alpha is None else _tail_ranks(n, alpha)[1]
        self.chunks = _chunks(config, mean_inc, sd_inc)
        # columns of the chunks' time-major buffers
        self.width = min(_CHUNK, config.drawn_rows)
        self.one_path = not np.any(sd_inc)
        # the one path's single chunk holds a stream chunk's rows, not n
        rows = self.chunks[0][0].stop if self.one_path else n
        self.n_paths = n
        self.wealth_of, self.key_sign = wealth_of, key_sign
        self.terminal = np.empty(rows)
        m = len(sd_inc) + 1
        self.block = np.empty((min(_TAIL_BLOCK, rows), m), order="F")
        self.paths = np.empty(len(self.block), dtype=np.min_scalar_type(n))
        self.filled = 0
        varied = np.cumsum(np.concatenate([[0.0], sd_inc])) > 0
        self.columns = [] if alpha is None else np.flatnonzero(varied).tolist()
        self.threshold = [np.inf] * m
        self.limit = [0] * m
        self.kept = {k: ([], []) for k in self.columns}

    def _wealth(self, keys: np.ndarray, k) -> np.ndarray:
        return self.wealth_of(self.key_sign * keys, k)

    def add(self, rows: slice, xi: np.ndarray) -> None:
        """Take the (paths, times) xi of paths rows."""
        k = rows.stop - rows.start
        if self.filled + k > len(self.block):
            self._select()
        np.multiply(xi, self.key_sign, out=self.block[self.filled:self.filled + k])
        self.paths[self.filled:self.filled + k] = np.arange(rows.start, rows.stop)
        self.filled += k
        self.terminal[rows] = self.wealth_of(xi[:, -1], -1)

    def _select(self) -> None:
        f, self.filled = self.filled, 0
        paths = self.paths[:f]
        for k in self.columns:
            col = self.block[:f, k]
            at = np.flatnonzero(col < self.threshold[k])
            keys, ids = self.kept[k]
            keys.append(col[at])
            ids.append(paths[at])
            if sum(map(len, keys)) > self.limit[k]:
                self._cut(k)

    def _cut(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        keys, ids = (np.concatenate(v) for v in self.kept[k])
        q = self.q_hi
        if len(keys) > q + 1:
            part = np.partition(keys, q)
            edge, beyond = part[q], part[q + 1:].min()
            # wealth never falls along the key, so edge holds the q_hi-th
            # wealth; if beyond, the least key past it, holds more, so does
            # every key at or past beyond
            ends = self._wealth(np.array([edge, beyond]), k)
            if ends[0] < ends[1]:
                at = np.flatnonzero(keys <= edge)
            else:
                # keys that tie, or distinct keys that round to one wealth:
                # rank the wealth itself
                values = self._wealth(keys, k)
                top = np.partition(values, q)[q]
                at = np.flatnonzero(values <= top)
                beyond = np.min(keys, where=values > top, initial=np.inf)
            self.threshold[k] = min(self.threshold[k], beyond)
            keys, ids = keys[at], ids[at]
        self.kept[k] = [keys], [ids]
        self.limit[k] = 3 * max(q + 1, len(keys)) // 2
        return keys, ids

    def per_path(self, values: np.ndarray) -> np.ndarray:
        """Per-path values: a read-only broadcast of the one path's value if
        every path is the same."""
        if self.one_path:
            return np.broadcast_to(values[0], (self.n_paths,))
        return values

    def tails(self) -> list[np.ndarray] | None:
        """Each time's tail candidates' wealth in path order; at a time that
        holds one value, a read-only zero-stride view of it over every path."""
        if self.q_hi is None:
            return None
        self._select()
        # any row of the block holds every one-value time's value
        out = [np.broadcast_to(v, (self.n_paths,))
               for v in self._wealth(self.block[0], slice(None))]
        self.block = None
        for k in self.columns:
            keys, ids = self._cut(k)
            del self.kept[k]
            out[k] = self._wealth(keys[np.argsort(ids)], k)
        return out


@dataclass(frozen=True)
class PathEnsemble:
    """What one pass over the simulated wealth skeletons keeps.

    Each path's terminal wealth and its consumption cost
    int_0^T c_t^gamma1 dt for the gamma1 it was sampled for; and, for the
    alpha it was sampled for, each time's tail candidates (_WealthPass).
    Wealth and consumption are rebuilt as X = wealth_of(xi) and
    c = rate(xi) by replaying the xi stream.
    """

    times: np.ndarray            # (m,)
    kind: str                    # "deterministic" | "feedback"
    replay: tuple                # _log_paths' (config, mean, sd)
    wealth_of: Callable[..., np.ndarray]   # (xi, time index or slice)
    rate: Callable[[np.ndarray], np.ndarray]
    gamma1: float
    alpha: float | None          # None: no tails kept
    # (n,) per path, read-only broadcasts if every path is the same
    terminal: np.ndarray         # X_T
    consumption_cost: np.ndarray  # int_0^T c_t^gamma1 dt
    tails: list | None           # per time, candidates in path order

    @property
    def n_paths(self) -> int:
        return self.replay[0].n_paths

    @property
    def antithetic(self) -> bool:
        return self.replay[0].antithetic

    @cached_property
    def wealth(self) -> np.ndarray:
        """The (n, m) wealth, time-major (F order), rebuilt by a replay of
        the stream: one read-only broadcast row if no step has variance.
        No stage of the program reads it."""
        config, mean_inc, sd_inc = self.replay
        shape = (config.n_paths, len(self.times))
        if not np.any(sd_inc):
            (_, xi), = _chunks(*self.replay)
            return np.broadcast_to(self.wealth_of(xi)[0], shape)
        out = np.empty(shape, order="F")
        for rows, xi in _log_paths(*self.replay):
            out[rows] = self.wealth_of(xi)
        return out

    def _replay(self, stop: int):
        """Yield (first row, xi) for consecutive chunks of rows 0:stop, in
        row order.  The stream yields an antithetic run's second half beside
        its first, so rows past the first half come from a second replay."""
        half = self.replay[0].drawn_rows
        for lo, hi in ((0, min(stop, half)), (half, stop)):
            if lo >= hi:
                continue
            for got, xi in _log_paths(*self.replay):
                a, b = max(got.start, lo), min(got.stop, hi)
                if a < b:
                    yield a, xi[a - got.start:b - got.start]
                if got.start < hi <= got.stop:
                    break

    def write_csv(self, path, max_paths: int) -> None:
        """Columnar spill (path_id, t, X, c) of the first max_paths paths,
        built a slice of about _BLOCK_ROWS rows' paths at a time."""
        per = max(1, _BLOCK_ROWS // len(self.times))

        def blocks():
            for first, xi in self._replay(min(max_paths, self.n_paths)):
                for lo in range(0, len(xi), per):
                    part = xi[lo:lo + per]
                    rows = range(first + lo, first + lo + len(part))
                    yield [*grid_axes(rows, self.times),
                           self.wealth_of(part).ravel(), self.rate(part).ravel()]

        write_table(path, ["path_id", "t", "X", "c"], blocks(),
                    ["s", "s", ".12g", ".12g"])


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


def _sample(kind: str, config: SimConfig, alpha: float | None, grid: np.ndarray,
            wealth_of: Callable, rate: Callable, gamma1: float, *,
            key_sign: float, drift: np.ndarray, var: np.ndarray, log_shift,
            factor: float, idx: np.ndarray, log0) -> PathEnsemble:
    """One pass over the stream of a law's Gaussian process xi, whose steps
    have mean drift and variance var: its wealth X = wealth_of(xi), which
    never falls along key_sign xi, and each path's unbiased value of
    int_0^T c_t^gamma1 dt.

    On each consuming step idx[j], gamma1 ln c_t = factor L_t + log0[j] at
    both ends, with L = xi + log_shift.  Given the sampled ends, xi is a
    Brownian bridge across the step, so E[c^gamma1 | skeleton] is an
    exp-quadratic over it with curvature a = factor^2 var / 2, and the step
    contributes _int_exp_quadratic(z, m, a, dt, coeffs) with
    z = factor (L_b - L_a) and m = factor (L_a + L_b) / 2 + log0[j] + a/4.
    By the tower property the path average is unbiased for the cost term,
    with smaller variance than any within-step sampling.
    """
    sd = np.sqrt(np.maximum(var, 0.0))
    run = _WealthPass(config, drift, sd, alpha, wealth_of, key_sign)
    # per-step terms, as columns beside time-major (steps, paths) buffers
    dts = np.diff(grid)[idx]
    a = 0.5 * factor * factor * var[idx]
    m0 = (log0 + 0.25 * a)[:, None]
    coeffs = _midpoint_series(a, dts)[:, :, None]
    a, dts = a[:, None], dts[:, None]
    # the consuming steps come in runs [s, e) of consecutive steps, read as
    # slices of the time-major buffers into rows p:q of the step buffers
    cuts = [0, *(np.flatnonzero(np.diff(idx) != 1) + 1), len(idx)]
    runs = [(idx[p], idx[q - 1] + 1, p, q) for p, q in zip(cuts, cuts[1:]) if p < q]
    # buffers of L, the steps' z and their midpoint terms
    work = np.empty((len(grid), run.width))
    step = np.empty((2, len(idx), run.width))
    cost = np.empty(len(run.terminal))
    for rows, xi in run.chunks:
        k = len(xi)
        run.add(rows, xi)
        L = np.add(xi.T, log_shift, out=work[:, :k])
        zk, mk = step[:, :, :k]
        for s, e, p, q in runs:
            np.add(L[s:e], L[s + 1:e + 1], out=mk[p:q])
            np.subtract(L[s + 1:e + 1], L[s:e], out=zk[p:q])
        mk *= 0.5 * factor
        mk += m0
        zk *= factor
        cost[rows] = _sum_in_time_order(_int_exp_quadratic(zk, mk, a, dts, coeffs))
    return PathEnsemble(
        times=grid, kind=kind, replay=(config, drift, sd),
        wealth_of=wealth_of, rate=rate, gamma1=gamma1, alpha=alpha,
        terminal=run.per_path(run.terminal), consumption_cost=run.per_path(cost),
        tails=run.tails(),
    )


def simulate_deterministic(model: MarketModel, strategy: DeterministicStrategy,
                           utility: UtilityParams, x: float, config: SimConfig,
                           alpha: float | None = None) -> PathEnsemble:
    """Exact sampling of lognormal wealth under a deterministic strategy,
    with each path's exact consumption cost for utility's gamma1 and, given
    alpha, each time's tail candidates."""
    cum = cumulants(model, strategy)
    grid = simulation_grid(model, cum.node_ticks, config)
    g = utility.gamma1
    # per-step exp-affine form of v e^{-V} straight from the consumption
    # family (cadlag: the left value rules the step, jumps never leak in)
    cons_log0, cons_slope = strategy.consumption.log_affine(model, to_ticks(grid))
    idx = np.flatnonzero(np.isfinite(cons_log0))
    # on step j, ln c_t = ln X_t + V_t + a0_j + slope_j (t - t_j).  With S the
    # running integral of the slopes and L = ln X + V + S, ln c = L - S_j + a0_j
    # at both ends of the step; ln X = xi + ln x needs no log of the wealth
    S = np.zeros(len(grid))
    np.cumsum(np.where(np.isfinite(cons_log0), cons_slope, 0.0) * np.diff(grid),
              out=S[1:])

    def wealth_of(xi, k=slice(None)):
        return np.exp(xi) * x

    v_grid = np.broadcast_to(strategy.v_at(model, grid), grid.shape)

    def rate(xi):
        return np.exp(xi) * x * v_grid

    return _sample("deterministic", config, alpha, grid, wealth_of, rate, g,
                   key_sign=1.0, drift=np.diff(cum.log_drift(grid)),
                   var=np.diff(cum.ynn(grid)),
                   log_shift=math.log(x) + (cum.V(grid) + S)[:, None], factor=g,
                   idx=idx, log0=g * (cons_log0[idx] - S[idx]))


def simulate_hara_feedback(model: MarketModel, utility: UtilityParams,
                           x: float, config: SimConfig,
                           alpha: float | None = None) -> PathEnsemble:
    """Exact sampling of the feedback-optimal wealth mixture, with each
    path's exact consumption cost for utility's gamma1 and, given alpha,
    each time's tail candidates."""
    fb = solve_hara_unconstrained(model, utility, x).feedback
    grid = simulation_grid(model, model.node_ticks, config)
    TS = model.theta_sq_cum(grid)
    g0 = fb.g(0.0, x)
    q1, q2 = utility.q1, utility.q2
    c1 = fb.A1(grid) * g0 ** -q1
    c2 = fb.A2(grid) * g0 ** -q2

    # q1, q2 > 1 and A1, A2 >= 0: wealth falls as xi rises
    def wealth_of(xi, k=slice(None)):
        return np.exp(-q1 * xi) * c1[k] + np.exp(-q2 * xi) * c2[k]

    def rate(xi):
        return (utility.gamma1 / (g0 * np.exp(xi))) ** q1

    # c^gamma1 = (gamma1 / g0)^k1 e^{-k1 xi} on every step; the grid holds
    # every market node, so xi's drift and variance are constant on each
    k1 = q1 * utility.gamma1
    return _sample("feedback", config, alpha, grid, wealth_of, rate, utility.gamma1,
                   key_sign=-1.0, drift=-np.diff(model.R(grid) + 0.5 * TS),
                   var=np.diff(TS), log_shift=0.0, factor=-k1,
                   idx=np.arange(len(grid) - 1), log0=k1 * math.log(utility.gamma1 / g0))


# ---------------------------------------------------------------------------
# Cost estimation
# ---------------------------------------------------------------------------

# _int_exp_quadratic's series serves |z| <= 2 and a <= 4: nine powers of
# z^2/4 <= 1 leave a tail below 1e-17 of the sum; eight terms of each c_j(a)
# leave one below 1e-19 where a <= 0.05, and twenty one below 1e-18 where
# a <= 4, where no term (a/4)^k / k! exceeds 1, so the sum does not cancel.
# A call with smaller z takes fewer powers: those it drops sum to at most
# _SERIES_CUT of the leading term.
_SERIES_TERMS = 9
_SERIES_MAX_A = 4.0
_SERIES_CUT = 2.0 ** -56
# _halved's reach: at most 2^16 pieces of one element
_HALVINGS = 16


def _sum_in_time_order(terms: np.ndarray) -> np.ndarray:
    """Each path's sum of its time-major (steps, paths) terms, added in time
    order whatever the number of paths: numpy sums a lone path pairwise."""
    if terms.shape[1] == 1:
        return np.cumsum(terms[:, 0])[-1:]
    return np.sum(terms, axis=0)


def _series_terms(zz_max: float, coeffs: np.ndarray) -> int:
    """The fewest terms, at least two, of _int_exp_quadratic's series whose
    dropped terms sum to at most _SERIES_CUT of the leading term on every
    step at z^2 = zz_max; all terms are positive."""
    terms = (coeffs.reshape(_SERIES_TERMS, -1)
             * zz_max ** np.arange(_SERIES_TERMS)[:, None])
    dropped = np.cumsum(terms[::-1], axis=0)[::-1]
    fits = np.all(dropped <= _SERIES_CUT * terms[0], axis=1)
    return max(2, int(np.argmax(fits))) if fits.any() else _SERIES_TERMS


def _midpoint_series(a: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """(terms, steps) coefficients dt c_j(a) / 4^j of _int_exp_quadratic.

    c_j(a) = 1/(2j)! sum_k (-a/4)^k / (k! (2k + 2j + 1)) > 0, summed from
    its smallest term, k < 8 where a <= 0.05 and k < 20 elsewhere.  Steps
    with a > 4 get the coefficients of 4: the kernel never uses them there.
    """
    q = -0.25 * np.minimum(a, _SERIES_MAX_A)
    j = np.arange(_SERIES_TERMS)[:, None]
    wide = a > 0.05
    c = np.zeros((_SERIES_TERMS, len(a)))
    for k in reversed(range(20)):
        term = q ** k / (math.factorial(k) * (2 * k + 2 * j + 1))
        c += np.where(wide | (k < 8), term, 0.0)
    c /= [[4 ** i * math.factorial(2 * i)] for i in range(_SERIES_TERMS)]
    return c * dt


def _int_exp_quadratic(z: np.ndarray, m: np.ndarray, a: np.ndarray,
                       dt: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """int_0^dt exp(m + z v - a v^2) ds, v = s/dt - 1/2, per element.

    z and m are chunk buffers, and both are overwritten; a >= 0, dt and
    coeffs = _midpoint_series(a, dt) are per step, shaped to broadcast
    against them, as (steps,) beside (paths, steps) or as (steps, 1) beside
    time-major (steps, paths) buffers.  Expanded
    about the step's midpoint v = 0 the integral is

        dt e^m sum_j c_j(a) (z^2/4)^j,

    a sum of positive terms, evaluated by Horner's rule where |z| <= 2 and
    a <= 4, from the highest term that the largest such z^2 of the call
    needs (_series_terms).  Other elements are split into halves (_halved).
    """
    # elements outside the series range may overflow; they are replaced
    with np.errstate(over="ignore", invalid="ignore"):
        zz = np.multiply(z, z)
        zz_max = zz.max(initial=0.0)
        # a nan max is outside the range too
        tail = None
        if not zz_max <= 4.0 or np.any(a > _SERIES_MAX_A):
            series = (zz <= 4.0) & (a <= _SERIES_MAX_A)
            tail = ~series
            # each element's step, as an index into the flat a and dt
            step = np.broadcast_to(np.arange(a.size).reshape(a.shape), z.shape)
            rest = z[tail], m[tail], step[tail], np.ravel(a), np.ravel(dt)
            zz_max = np.max(zz, where=series, initial=0.0)
        out = _series(zz, m, coeffs, _series_terms(zz_max, coeffs), z)
    if tail is not None:
        out[tail] = _halved(*rest)
    return out


def _series(zz, m, coeffs, terms: int, out):
    """e^m sum_j coeffs_j zz^j over the first terms coefficients, by
    Horner's rule into out; m is overwritten."""
    out = np.multiply(zz, coeffs[terms - 1], out=out)
    for c in coeffs[terms - 2:0:-1]:
        out += c
        out *= zz
    out += coeffs[0]
    out *= np.exp(m, out=m)
    return out


def _halved(z, m, step, a, dt):
    """_int_exp_quadratic of 1-d elements outside the series range, whose
    step indexes the per-step a and dt, as a sum over the step's halves.

    The first half is the same integral with dt/2, a/4, z/2 + a/4 and
    m - z/4 - a/16, the second with z/2 - a/4 and m + z/4 - a/16.  Each
    depth halves the pieces still outside the series range, with the
    coefficients of each step at that depth, and adds the others; the
    pieces are positive, so the sum never cancels.  A piece at depth k has
    |z| below (|z| + a) / 2^k, so where |z| + a <= 2^(_HALVINGS + 1) every
    piece is in range within _HALVINGS levels, and elements are halved in
    batches of bounded size.  Beyond that reach, or for
    non-finite input, an element lies between
    dt e^{m + |z|/2 - a/4 - 1} / (|z| + a) and dt e^{m + |z|/2}: it is inf
    where the first overflows, 0 where the second underflows, else nan.
    """
    # pieces of an integral beyond the float range overflow to inf
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.abs(z) + a[step]
        top = m + 0.5 * np.abs(z)
        low = dt[step] * np.exp(top - 0.25 * a[step] - 1.0) / size
        out = np.where((low == np.inf) | (dt[step] * np.exp(top) == 0.0), low, np.nan)
        reach = 2.0 ** (_HALVINGS + 1)
        near = np.flatnonzero(size <= reach)
        out[near] = 0.0
        # an element makes fewer than 2 (|z| + a + 1) pieces in all, so a
        # batch whose sizes sum to about the reach holds a bounded number
        for owner in np.split(near, np.flatnonzero(
                np.diff(np.cumsum(size[near] + 1.0) // reach)) + 1):
            zp, mp, sp, ap, dp = z[owner], m[owner], step[owner], a, dt
            while len(owner):
                ap, dp = 0.25 * ap, 0.5 * dp
                zh, ah = 0.5 * zp, ap[sp]
                mh = mp - 0.25 * ah
                zp = np.concatenate([zh + ah, zh - ah])
                mp = np.concatenate([mh - 0.5 * zh, mh + 0.5 * zh])
                sp, owner = np.tile(sp, 2), np.tile(owner, 2)
                zz = zp * zp
                done = (zz <= 4.0) & (ap[sp] <= _SERIES_MAX_A)
                coeffs = _midpoint_series(ap, dp)
                terms = _series_terms(zz.max(where=done, initial=0.0), coeffs)
                out += np.bincount(owner[done], _series(
                    zz[done], mp[done], coeffs[:terms, sp[done]], terms, None), len(out))
                zp, mp, sp, owner = zp[~done], mp[~done], sp[~done], owner[~done]
    return out


def estimate_cost(ensemble: PathEnsemble,
                  utility: UtilityParams) -> tuple[float, float]:
    """Monte Carlo estimate of the expected cost with its std error.

    The consumption term is the ensemble's own exact one, for the gamma1
    it was sampled for.
    """
    if utility.gamma1 != ensemble.gamma1:
        raise MismatchedPaths(f"paths sampled for gamma1={ensemble.gamma1}")
    values = ensemble.consumption_cost + ensemble.terminal ** utility.gamma2
    if ensemble.antithetic:
        half = (len(values) + 1) // 2
        if 2 * half == len(values):
            values = 0.5 * (values[:half] + values[half:])
    n = len(values)
    # for a mean the delete-1 jackknife is the sample std error; np.std's
    # rounded mean can leave equal values an ulp from it
    if n < 2:
        se = np.inf
    elif np.ptp(values) == 0.0:
        se = 0.0
    else:
        se = float(np.std(values, ddof=1) / np.sqrt(n))
    return float(np.mean(values)), se


# ---------------------------------------------------------------------------
# Empirical risk curves
# ---------------------------------------------------------------------------

def empirical_risk_curve(ensemble: PathEnsemble, spec: RiskSpec, x: float,
                         model: MarketModel) -> RiskProfile:
    """Empirical quantile / tail-mean risk curves along the ensemble grid,
    from the tail candidates kept for spec's alpha."""
    if spec.alpha != ensemble.alpha:
        raise MismatchedPaths(f"tails kept for alpha={ensemble.alpha}")
    q_lo, q_hi, gamma = _tail_ranks(ensemble.n_paths, spec.alpha)
    times = ensemble.times
    bond = x * np.exp(model.R(times))

    var_curve = np.zeros_like(times)
    es_curve = np.zeros_like(times)
    for k, col in enumerate(ensemble.tails):
        one_value = col.strides == (0,)
        if one_value:
            # the column's one value is every order statistic, and every path
            # is in the tail: the zero-stride view gives a full column's bits
            lo = hi = col[0]
        else:
            # select q_hi over the candidates, then q_lo within the head
            # below it: the column's order statistics
            order = np.partition(col, q_hi)
            order[:q_hi + 1].partition(q_lo)
            lo, hi = order[q_lo], order[q_hi]
            del order
        diff = hi - lo
        lam = float(hi - diff * (1 - gamma) if gamma >= 0.5
                    else lo + diff * gamma)
        # every value at or below lam is a candidate, in path order
        tail = col if one_value else col[col <= lam]
        if tail.size == 0:
            tail = np.array([lam])
        var_curve[k] = bond[k] - lam
        es_curve[k] = bond[k] - float(np.mean(tail))

    return RiskProfile(
        times=times, var_curve=var_curve, es_curve=es_curve,
        level_curve=spec.zeta * bond, kind=spec.kind,
    )
