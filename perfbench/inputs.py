"""Seeded problem generator for the three benchmark workloads.

A workload is a sequence of rounds; round k of seed s is drawn from its own
generator keyed by (s, k), so the same seed gives the same rounds however
long a run lasts. Each round holds a fixed mix of task kinds (listed in
README.md), so every run measures whole rounds of the same operations.

Markets are piecewise constant with 1 to 4 pieces per coefficient path and
every breakpoint on the grid T k / 32, so the Monte Carlo grid of 32 steps
never gains extra nodes and all Monte Carlo tasks have the same size.
Risk budgets zeta are placed inside the regime the paper's conditions
predict, with margin; the predictions are recomputed here from the problem
data (see ``Regimes``), never taken from the program.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import optimize

import reference as ref

GRID = 32                      # breakpoints lie on T k / GRID
ALPHAS = (0.01, 0.025, 0.05)
MC_PATHS = 3 * 65536           # three full Philox blocks
MC_STEPS = GRID
# Oracle task sizes. The oracle searches exposures on arange(0, 2 rho, 1e-3)
# for the problem's exposure budget rho, and for step consumption 41 levels
# on [0, 2 max v*]; zeta is set so that rho sits between grid points, and
# tight tasks keep the best constant rate at least 0.3 level steps above a
# grid level, so that every task runs the same number of candidates.
ORACLE_RHO_TIGHT = 0.1004
ORACLE_RHO_LINEAR = 0.4504
ORACLE_LEVELS = 41
ZETA_GRID = np.linspace(0.002, 0.998, 499)

SOLVE_KINDS = ("merton", "equal", "equal", "unequal", "unequal", "linear")
ORACLE_KINDS = ("tight_var", "tight_es", "linear")
MC_KINDS = ("riskless", "risky", "feedback")
KINDS = {"solve_verify": SOLVE_KINDS, "oracle_xcheck": ORACLE_KINDS,
         "mc_simulate": MC_KINDS}


@dataclass
class Step:
    """One CLI call of a task and the outcome the paper's conditions predict."""

    name: str
    argv: list                 # CLI arguments after the document path
    doc: str                   # document file name
    exit_code: int
    regime: str | None = None
    zeta: float | None = None
    measure: str | None = None


@dataclass
class Task:
    workload: str
    kind: str
    index: str
    problem: dict              # the unconstrained problem (market, utility, x0)
    alpha: float
    docs: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Markets
# ---------------------------------------------------------------------------

def _cuts(rng, pieces: int, T: float) -> list:
    inner = sorted(rng.choice(np.arange(1, GRID), size=pieces - 1, replace=False))
    return [0.0] + [T * int(k) / GRID for k in inner]


def draw_market(rng, d: int, constant: bool, tn_max: float) -> dict:
    """Random market document with ||theta||_T in [0.1, tn_max]."""
    while True:
        T = float(rng.choice(np.arange(2, 9)) / 4.0)          # 0.5 .. 2.0
        pieces = [1, 1, 1] if constant else [int(k) for k in rng.integers(1, 5, 3)]
        r_cuts, mu_cuts, s_cuts = (_cuts(rng, k, T) for k in pieces)
        r_vals = rng.uniform(0.0, 0.05, len(r_cuts))
        sigmas = []
        for _ in s_cuts:
            noise = 0.05 * rng.standard_normal((d, d))
            sigmas.append(np.diag(rng.uniform(0.15, 0.4, d))
                          + noise - np.diag(np.diag(noise)))
        scale = rng.uniform(0.1, tn_max) / math.sqrt(T)
        mus = []
        for t0 in mu_cuts:
            r_here = r_vals[np.searchsorted(r_cuts, t0, side="right") - 1]
            s_here = sigmas[np.searchsorted(s_cuts, t0, side="right") - 1]
            direction = rng.uniform(-1.0, 1.0, d)
            theta = scale * rng.uniform(0.7, 1.3) * direction / np.linalg.norm(direction)
            mus.append(r_here + s_here @ theta)
        doc = {
            "T": T, "d": d,
            "r": [{"t0": t, "value": round(float(v), 8)} for t, v in zip(r_cuts, r_vals)],
            "mu": [{"t0": t, "value": [round(float(u), 8) for u in v]}
                   for t, v in zip(mu_cuts, mus)],
            "sigma": [{"t0": t, "value": np.round(s, 8).tolist()}
                      for t, s in zip(s_cuts, sigmas)],
        }
        if 0.1 <= ref.Market(doc).tn <= tn_max:
            return doc


# ---------------------------------------------------------------------------
# Regime predictions from the paper's conditions
# ---------------------------------------------------------------------------

class Regimes:
    """Which closed form applies at each zeta, for one market and utility.

    tight:  zeta < min(kappa*, kappa_hat) and
            |z_a| >= (c + max(gamma)/((1-zeta) d ln G/d zeta)) ||theta||_T,
            c = 1 (VaR) or 2 (ES), G the consumption/terminal split value;
    loose:  equal exponents and zeta above the level the unconstrained
            optimum's worst-case risk needs.
    """

    def __init__(self, market: dict, g1: float, g2: float, alpha: float, x: float):
        m = ref.Market(market)
        self.m, self.g1, self.g2, self.alpha, self.x = m, g1, g2, alpha, x
        self.z = ref.abs_z(alpha)
        q1 = 1.0 / (1.0 - g1)
        RT = float(m.R(m.T))
        total = m.integral(lambda t: math.exp(q1 * g1 * m.R(t)))
        self.n1 = total ** (1.0 / q1)
        self.n2 = math.exp(g2 * RT)
        self.kappa_hat = total / (total + math.exp(q1 * g1 * RT))
        if g1 == g2:
            self.kappa_star = self.kappa_hat
            self.loose = {es: self._loose_level(es) for es in (False, True)}
        else:
            self.kappa_star = optimize.brentq(self.dG, 1e-12, 1.0 - 1e-12, xtol=1e-15)

    def G(self, k):
        return (self.x ** self.g1 * k ** self.g1 * self.n1
                + self.x ** self.g2 * (1.0 - k) ** self.g2 * self.n2)

    def dG(self, k):
        return (self.g1 * self.x ** self.g1 * k ** (self.g1 - 1.0) * self.n1
                - self.g2 * self.x ** self.g2 * (1.0 - k) ** (self.g2 - 1.0) * self.n2)

    def tight(self, zeta: np.ndarray, c: float) -> np.ndarray:
        budget = zeta < min(self.kappa_star, self.kappa_hat)
        dlnG = self.dG(zeta) / self.G(zeta)
        with np.errstate(divide="ignore", invalid="ignore"):
            rhs = (c + max(self.g1, self.g2) / ((1.0 - zeta) * dlnG)) * self.m.tn
        return budget & (dlnG > 0) & (self.z >= rhs)

    def _loose_level(self, es: bool) -> float:
        """Smallest zeta for which the unconstrained optimum is feasible."""
        m, g = self.m, self.g1
        q = 1.0 / (1.0 - g)
        gq = lambda t: math.exp(q * g * m.R(t) + 0.5 * q * (q - 1.0) * m.TS(t))
        norm = m.integral(gq)
        kappa = norm / (norm + gq(m.T))
        tn = m.tn
        if es:
            return 1.0 - ((1.0 - kappa) * math.exp(q * tn * tn)
                          * ref.norm_sf(self.z + q * tn) / self.alpha)
        level = -q * tn * self.z + math.log1p(-kappa)
        if g > 0.5:
            level -= 0.5 * q * (q - 2.0) * tn * tn
        return 1.0 - math.exp(level)

    def classify(self, es: bool, zetas: np.ndarray = ZETA_GRID) -> np.ndarray:
        """0 no closed form, 1 tight, 2 loose, at each zeta."""
        cls = np.where(self.tight(zetas, 2.0 if es else 1.0), 1, 0)
        if self.g1 == self.g2:
            cls = np.where(zetas >= self.loose[es], 2, cls)
        return cls


def _runs(cls: np.ndarray) -> list:
    """[(class, first zeta, last zeta), ...] of the contiguous runs."""
    out = []
    start = 0
    for i in range(1, len(cls) + 1):
        if i == len(cls) or cls[i] != cls[start]:
            out.append((int(cls[start]), ZETA_GRID[start], ZETA_GRID[i - 1]))
            start = i
    return out


def place_zetas(reg: Regimes):
    """Two tight, one in-between and one loose-side zeta, or None.

    The same zetas serve the VaR and the ES problem, so each must fall in
    the same class for both measures. Along zeta the classes must run
    tight, none[, loose] for each measure, and every chosen zeta must keep
    the class of both measures within 0.01 on either side.
    """
    equal = reg.g1 == reg.g2
    classes = [reg.classify(es) for es in (False, True)]
    runs = [_runs(c) for c in classes]
    if any([c for c, _, _ in r] != ([1, 0, 2] if equal else [1, 0]) for r in runs):
        return None
    t_hi = min(r[0][2] for r in runs)
    mid_lo = max(r[1][1] for r in runs)
    mid_hi = min(r[1][2] for r in runs)
    if t_hi < 0.03 or mid_hi - mid_lo < 0.04:
        return None
    zetas = [0.3 * t_hi, 0.7 * t_hi]
    if equal:
        loose_lo = max(r[2][1] for r in runs)
        if 0.998 - loose_lo < 0.03:
            return None
        zetas += [0.5 * (mid_lo + mid_hi), 0.5 * (loose_lo + 0.998)]
        expect = [1, 1, 0, 2]
    else:
        zetas += [mid_lo + 0.3 * (mid_hi - mid_lo), mid_lo + 0.8 * (mid_hi - mid_lo)]
        expect = [1, 1, 0, 0]
    for zeta, cls in zip(zetas, expect):
        near = np.array([zeta - 0.01, zeta, zeta + 0.01])
        if any(np.any(reg.classify(es, near) != cls) for es in (False, True)):
            return None
    return [round(float(z), 6) for z in zetas]


def var_zeta_for_rho(tn: float, z: float, rho: float) -> float:
    """zeta whose VaR exposure budget is rho."""
    return -math.expm1(tn * rho - 0.5 * rho * rho - z * rho)


def es_zeta_for_rho(tn: float, z: float, alpha: float, rho: float) -> float:
    """zeta whose ES exposure budget is rho."""
    return -math.expm1(tn * rho + math.log(ref.norm_sf(z + rho) / alpha))


def linear_var_floor(tn: float, z: float) -> float:
    return max(0.0, -math.expm1(0.5 * z * z - z * tn))


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------

def _problem(market, g1, g2, x0, risk=None) -> dict:
    doc = {"market": market, "utility": {"gamma1": g1, "gamma2": g2}, "x0": x0}
    if risk is not None:
        doc["risk"] = risk
    return doc


def _power(rng, equal: bool):
    g1 = round(float(rng.uniform(0.2, 0.75)), 4)
    if equal:
        return g1, g1
    while True:
        g2 = round(float(rng.uniform(0.2, 0.75)), 4)
        if abs(g2 - g1) >= 0.1:
            return g1, g2


def _solve_task(rng, kind: str, slot: int, index: str) -> Task:
    d = 1 + slot % 3
    while True:
        alpha = float(rng.choice(ALPHAS))
        z = ref.abs_z(alpha)
        market = draw_market(rng, d, kind == "merton", min(0.6, 0.4 * z))
        x0 = round(float(rng.uniform(0.5, 2.0)), 4)
        if kind == "linear":
            g1 = g2 = 1.0
            tn = ref.Market(market).tn
            lo = linear_var_floor(tn, z)
            zetas = [round(lo + (1 - lo) * f, 6) for f in (0.15, 0.35, 0.55, 0.75)]
            verify_utility = _power(rng, False)
            break
        g1, g2 = _power(rng, kind != "unequal")
        zetas = place_zetas(Regimes(market, g1, g2, alpha, x0))
        if zetas:
            verify_utility = (g1, g2)
            break
    task = Task("solve_verify", kind, index, _problem(market, g1, g2, x0), alpha)
    task.docs["unconstrained.json"] = task.problem
    if kind == "linear":
        unc_regime = "unconstrained_linear_unbounded"
    else:
        unc_regime = "unconstrained_equal_gamma" if g1 == g2 else "unconstrained_hara"
    task.steps.append(Step("solve_unconstrained", ["solve"], "unconstrained.json",
                           0, unc_regime))
    for measure in ("var", "es"):
        for i, zeta in enumerate(zetas):
            name = f"{measure}_{i}.json"
            task.docs[name] = _problem(market, g1, g2, x0,
                                       {"kind": measure, "alpha": alpha, "zeta": zeta})
            if kind == "linear":
                code, regime = 0, f"{measure}_linear"
            elif i < 2:
                code, regime = 0, f"{measure}_tight"
            elif i == 3 and g1 == g2:
                code, regime = 0, f"{measure}_loose_unconstrained"
            else:
                code, regime = 2, None
            task.steps.append(Step(f"solve_{measure}_{i}", ["solve"], name, code,
                                   regime, zeta, measure))
    task.docs["verify.json"] = _problem(market, *verify_utility, x0)
    task.steps.append(Step("verify", ["verify"], "verify.json", 0))
    return task


def _oracle_task(rng, kind: str, slot: int, index: str, round_no: int) -> Task:
    d = 1 + slot % 3
    measure = {"tight_var": "var", "tight_es": "es"}.get(
        kind, "var" if round_no % 2 == 0 else "es")
    while True:
        alpha = float(rng.choice(ALPHAS))
        z = ref.abs_z(alpha)
        market = draw_market(rng, d, False, min(0.6, 0.4 * z))
        tn = ref.Market(market).tn
        x0 = round(float(rng.uniform(0.5, 2.0)), 4)
        rho = ORACLE_RHO_LINEAR if kind == "linear" else ORACLE_RHO_TIGHT
        zeta = (var_zeta_for_rho(tn, z, rho) if measure == "var"
                else es_zeta_for_rho(tn, z, alpha, rho))
        if kind == "linear":
            g1 = g2 = 1.0
            lo = linear_var_floor(tn, z) if measure == "var" else 0.0
            if lo + 0.02 < zeta < 0.95:
                regime = f"{measure}_linear"
                break
            continue
        g1, g2 = _power(rng, bool(rng.integers(0, 2)))
        reg = Regimes(market, g1, g2, alpha, x0)
        near = np.array([zeta * 0.9, zeta, zeta * 1.1])
        if not (0.01 < zeta and np.all(reg.classify(measure == "es", near) == 1)):
            continue
        m = reg.m
        step = 2.0 * ref.tight_law(m, g1, zeta).v(m.T) / (ORACLE_LEVELS - 1)
        constant_rate = -math.log1p(-zeta) / m.T
        if (constant_rate / step) % 1.0 >= 0.3:
            regime = f"{measure}_tight"
            break
    risk = {"kind": measure, "alpha": alpha, "zeta": round(zeta, 9)}
    task = Task("oracle_xcheck", kind, index, _problem(market, g1, g2, x0), alpha)
    task.docs["problem.json"] = _problem(market, g1, g2, x0, risk)
    task.steps.append(Step("solve_oracle", ["solve", "--oracle"], "problem.json",
                           0, regime, risk["zeta"], measure))
    return task


def _mc_task(rng, kind: str, slot: int, index: str, round_no: int) -> Task:
    d = 1 + slot % 3
    measure = "var" if round_no % 2 == 0 else "es"
    while True:
        alpha = float(rng.choice(ALPHAS))
        z = ref.abs_z(alpha)
        market = draw_market(rng, d, False, min(0.6, 0.4 * z))
        x0 = round(float(rng.uniform(0.5, 2.0)), 4)
        if kind == "feedback":
            g1, g2 = _power(rng, False)
            risk, regime = None, "unconstrained_hara"
            break
        g1, g2 = _power(rng, kind == "risky" or bool(rng.integers(0, 2)))
        zetas = place_zetas(Regimes(market, g1, g2, alpha, x0))
        if zetas is None:
            continue
        zeta = zetas[0] if kind == "riskless" else zetas[3]
        regime = f"{measure}_tight" if kind == "riskless" else f"{measure}_loose_unconstrained"
        risk = {"kind": measure, "alpha": alpha, "zeta": zeta}
        break
    task = Task("mc_simulate", kind, index, _problem(market, g1, g2, x0), alpha)
    task.docs["problem.json"] = _problem(market, g1, g2, x0, risk)
    mc_seed = int(rng.integers(0, 2 ** 31))
    task.extra.update(paths=MC_PATHS, steps=MC_STEPS, mc_seed=mc_seed)
    task.steps.append(Step(
        "simulate", ["simulate", "--paths", str(MC_PATHS), "--steps", str(MC_STEPS),
                     "--seed", str(mc_seed)],
        "problem.json", 0, regime, risk and risk["zeta"], risk and measure))
    return task


def make_round(workload: str, seed: int, round_no: int) -> list:
    """The tasks of round `round_no` for `seed`, in a fixed kind order."""
    rng = np.random.default_rng([seed, round_no, list(KINDS).index(workload)])
    tasks = []
    for slot, kind in enumerate(KINDS[workload]):
        index = f"r{round_no}t{slot}"
        if workload == "solve_verify":
            tasks.append(_solve_task(rng, kind, slot, index))
        elif workload == "oracle_xcheck":
            tasks.append(_oracle_task(rng, kind, slot, index, round_no))
        else:
            tasks.append(_mc_task(rng, kind, slot, index, round_no))
    return tasks


def write_task(task: Task, root: Path) -> Path:
    """Write the task's documents under root/<index>/ and return that directory."""
    base = root / task.index
    base.mkdir(parents=True, exist_ok=True)
    for name, doc in task.docs.items():
        with open(base / name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    return base
