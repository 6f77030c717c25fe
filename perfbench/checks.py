"""Checks of the program's outputs against ``reference`` and the method's properties.

Each ``check_*`` function tests one property and raises ``CheckFailed``
with a message; ``selftest.py`` shows every one of them rejecting a
perturbed output. ``check_task`` runs all checks that apply to a task.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import reference as ref
from inputs import MC_PATHS, ORACLE_LEVELS, Task

RTOL_VALUE = 1e-9        # quadrature against the program's exact antiderivatives
RTOL_ORDER = 1e-12       # slack of the value orderings
RTOL_CONTROL = 1e-8      # sampled controls against the control law
RTOL_ROUNDING = 1e-12    # printed with 12 significant digits / float rounding
BUDGET_RESIDUAL = 1e-9   # exposure budget equations
FEASIBILITY_SLACK = 1e-9  # the oracle accepts ratios up to 1 + 1e-9
MC_SIGMAS = 6.0          # Monte Carlo estimates and bands, in standard errors
HJB_GATES = {"max_abs_residual": 1e-7, "terminal_error": 1e-12,
             "hamiltonian_gap": 1e-10}
CONTROL_ROWS = 10        # sampled rows of controls.csv per solution
RHO_STEP = 1e-3          # the oracle's default exposure grid step


class CheckFailed(Exception):
    """A program output disagrees with its reference or a required property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, rtol: float, what: str) -> None:
    require(a is not None and abs(a - b) <= rtol * abs(b),
            f"{what}: {a!r} against reference {b!r} (rtol {rtol:g})")


def read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path: Path) -> tuple[list, list]:
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# Single properties
# ---------------------------------------------------------------------------

def check_exit(step, code: int) -> None:
    require(code == step.exit_code,
            f"{step.name}: exit {code}, expected {step.exit_code}")


def check_regime(step, sol: dict) -> None:
    require(sol.get("regime") == step.regime,
            f"{step.name}: regime {sol.get('regime')!r}, expected {step.regime!r}")


def check_failure_report(sol: dict) -> None:
    """Exit 2 reports name the failed regimes with finite margins, one negative."""
    margins = sol.get("margins") or {}
    require(sol.get("status") == "failed" and sol.get("error") == "NoClosedFormRegime",
            f"exit-2 report is not a no-closed-form report: {sol}")
    values = list(margins.values())
    require(values and all(isinstance(v, (int, float)) and math.isfinite(v)
                           for v in values),
            f"exit-2 report carries non-finite or no margins: {margins}")
    require(min(values) < 0.0, f"exit-2 report with no violated margin: {margins}")


def check_value(value, reference: float, what: str) -> None:
    close(value, reference, RTOL_VALUE, what)


def check_merton(value, m: ref.Market, gamma: float, x: float) -> None:
    close(value, ref.merton_constant_value(m, gamma, x), RTOL_VALUE,
          "unconstrained value against the classical Merton value")


def check_controls(header: list, rows: list, m: ref.Market, law: ref.Law) -> None:
    """Sampled (t, pi, v) rows follow the control law of the regime."""
    d = m.d
    require(header == ["t"] + [f"pi_{j + 1}" for j in range(d)] + ["v"],
            f"controls.csv header {header}")
    require(len(rows) > 2, "controls.csv has no samples")
    stride = max(1, len(rows) // CONTROL_ROWS)
    for row in rows[::stride] + [rows[-1]]:
        t = float(row[0])
        pi = [float(v) for v in row[1:1 + d]]
        want_pi = ref.pi_of(m, t, law.y(t))
        scale = max(1.0, max(abs(p) for p in want_pi))
        require(all(abs(a - b) <= RTOL_CONTROL * scale for a, b in zip(pi, want_pi)),
                f"pi at t={t}: {pi} against {list(want_pi)}")
        got_v, want_v = float(row[1 + d]), law.v(t)
        require(abs(got_v - want_v) <= RTOL_CONTROL * abs(want_v),
                f"v at t={t}: {got_v} against {want_v}")


def check_budget(measure: str, m: ref.Market, alpha: float, zeta: float,
                 rho: float) -> None:
    """The linear regime's exposure solves the paper's budget equation."""
    residual = (ref.var_budget_residual if measure == "var"
                else ref.es_budget_residual)(m, alpha, zeta, rho)
    require(abs(residual) <= BUDGET_RESIDUAL,
            f"{measure} exposure budget rho={rho} leaves residual {residual:.3g}")


def check_order(bond: float, es_values: list, var_values: list, unconstrained) -> None:
    """bond-only <= V_ES(zeta) <= V_VaR(zeta) <= V_unconstrained at each zeta."""
    top = math.inf if unconstrained is None else unconstrained
    slack = 1.0 + RTOL_ORDER
    for i, (v_es, v_var) in enumerate(zip(es_values, var_values)):
        chain = [bond] + [v for v in (v_es, v_var) if v is not None] + [top]
        require(all(a <= b * slack for a, b in zip(chain[:-1], chain[1:])),
                f"zeta #{i}: bond {bond}, ES {v_es}, VaR {v_var}, "
                f"unconstrained {unconstrained} out of order")


def check_increasing(values: list) -> None:
    """Tight-regime (and linear-regime) values increase strictly in zeta."""
    require(all(a < b for a, b in zip(values[:-1], values[1:])),
            f"tight-regime values do not increase in zeta: {values}")


def check_hjb(report: dict, rows: list) -> None:
    for key, gate in HJB_GATES.items():
        value = report.get(key)
        require(value is not None and math.isfinite(value) and value <= gate,
                f"verify: {key} = {value} above its gate {gate:g}")
    require(len(rows) == report["n_t"] * report["n_x"],
            "verify: hjb_residuals.csv row count disagrees with the report")
    worst = max(abs(float(r[2])) for r in rows)
    require(worst <= HJB_GATES["max_abs_residual"]
            and abs(worst - report["max_abs_residual"]) <= 1e-5 * report["max_abs_residual"] + 1e-300,
            f"verify: residual table max {worst} disagrees with the report")


def check_oracle(doc: dict, records: list, value: float, tolerance: float) -> None:
    """The solver is at least the oracle's best, and within the attainment tolerance."""
    best, solver = doc["oracle_best"], doc["solver_value"]
    close(solver, value, RTOL_ROUNDING, "oracle.json solver_value")
    require(solver >= best * (1.0 - FEASIBILITY_SLACK),
            f"oracle best {best} beats the solver value {solver}")
    gap = (solver - best) / abs(solver)
    require(gap <= tolerance + FEASIBILITY_SLACK,
            f"oracle gap {gap:.3g} above its attainment tolerance {tolerance:.3g}")
    feasible = [float(r[4]) for r in records if r[3] == "1"]
    require(feasible and abs(max(feasible) - best) <= 1e-11 * abs(best),
            "oracle.csv best feasible record disagrees with oracle.json")


def linear_attainment(m: ref.Market) -> float:
    """Loss of the best exposure on the oracle's grid: rho* - rho <= step."""
    return -math.expm1(-m.tn * RHO_STEP)


def tight_attainment(m: ref.Market, law: ref.Law, g1: float, g2: float,
                     x: float, zeta: float, value: float) -> float:
    """Loss of the best constant rate on the oracle's level grid.

    The oracle's family holds every constant rate on its level grid, and a
    riskless rate w is feasible iff w T <= -ln(1-zeta); its best is at least
    the cost of the largest such grid rate.
    """
    step = 2.0 * law.v(m.T) / (ORACLE_LEVELS - 1)
    w = math.floor(-math.log1p(-zeta) / m.T / step) * step
    const = ref.Law(m, cons=lambda t: w * math.exp(-w * t), V=lambda t: w * t,
                    ydt=lambda t: 0.0, ynn=lambda t: 0.0, y=None, v=None)
    return 1.0 - const.cost(g1, g2, x) / value


def check_mc_estimate(summary: dict, reference: float, riskless: bool) -> None:
    est, se, cf = summary["cost_estimate"], summary["cost_std_error"], summary["cost_closed_form"]
    close(cf, reference, RTOL_VALUE, "simulate closed-form cost")
    if riskless:
        close(est, cf, RTOL_ROUNDING, "riskless Monte Carlo estimate")
        require(se <= RTOL_ROUNDING * abs(cf), f"riskless standard error {se}")
    else:
        require(se > 0.0 and abs(est - reference) <= MC_SIGMAS * se,
                f"Monte Carlo estimate {est} is {abs(est - reference) / se:.2f} "
                f"standard errors from {reference}")


def check_risk_bands(header: list, rows: list, laws, m: ref.Market, x: float,
                     alpha: float, n: int, closed_form: bool) -> None:
    """Empirical VaR / ES within MC_SIGMAS standard errors of the exact law.

    laws(t) gives the wealth law at t; with closed_form the program's
    closed-form columns must equal the reference to rounding.
    """
    require(header[:3] == ["t", "var", "es"] and header[5:7] == ["empirical_var", "empirical_es"],
            f"risk_profile.csv header {header}")
    for row in rows:
        t = float(row[0])
        bond = x * math.exp(m.R(t))
        lam, tail, se_q, se_m = laws(t).risk(alpha, n)
        var_ref, es_ref = bond - lam, bond - tail
        eps = 1e-10 * bond
        if closed_form:
            require(abs(float(row[1]) - var_ref) <= 1e-9 * bond
                    and abs(float(row[2]) - es_ref) <= 1e-9 * bond,
                    f"closed-form VaR/ES at t={t}: {row[1]}, {row[2]} "
                    f"against {var_ref}, {es_ref}")
        else:
            require(row[1] == "nan" and row[2] == "nan",
                    "feedback profile carries closed-form columns")
        emp_var, emp_es = float(row[5]), float(row[6])
        require(abs(emp_var - var_ref) <= MC_SIGMAS * se_q + eps,
                f"empirical VaR {emp_var} at t={t} outside {var_ref} +- "
                f"{MC_SIGMAS:g} x {se_q:.3g}")
        require(abs(emp_es - es_ref) <= MC_SIGMAS * se_m + eps,
                f"empirical ES {emp_es} at t={t} outside {es_ref} +- "
                f"{MC_SIGMAS:g} x {se_m:.3g}")


# ---------------------------------------------------------------------------
# Whole tasks
# ---------------------------------------------------------------------------

class References:
    """Reference laws of one task's market, built once per task."""

    def __init__(self, task: Task):
        p = task.problem
        self.m = ref.Market(p["market"])
        self.x = p["x0"]
        self.g1, self.g2 = p["utility"]["gamma1"], p["utility"]["gamma2"]
        self._equal = None

    def equal(self) -> ref.Law:
        if self._equal is None:
            self._equal = ref.equal_gamma_law(self.m, self.g1)
        return self._equal

    def law(self, regime: str, step, sol: dict, alpha: float) -> ref.Law:
        if regime.endswith("_tight"):
            return ref.tight_law(self.m, self.g1, step.zeta)
        if regime.endswith("_linear"):
            rho = sol["wealth_law"]["rho"]
            check_budget(step.measure, self.m, alpha, step.zeta, rho)
            return ref.linear_law(self.m, rho)
        return self.equal()


def _check_solution(task: Task, refs: References, step, out: Path) -> float | None:
    """Checks of one solve output with exit 0; returns its value."""
    sol = read_json(out / "solution.json")
    check_regime(step, sol)
    value = sol["value"]
    if step.regime == "unconstrained_linear_unbounded":
        require(value is None and sol["unbounded"], "linear optimum should be unbounded")
        return None
    if step.regime == "unconstrained_hara":
        fb = ref.Feedback(refs.m, refs.g1, refs.g2, refs.x)
        check_value(value, fb.cost(), "feedback optimum against the cost of its law")
        close(sol["wealth_law"]["g0"], fb.g0, RTOL_VALUE, "g0")
        require(read_csv(out / "p_grid.csv")[1], "p_grid.csv is empty")
        return value
    law = refs.law(step.regime, step, sol, task.alpha)
    gamma = (refs.g1, refs.g2)
    check_value(value, law.cost(*gamma, refs.x), f"{step.name} value against its strategy's cost")
    check_controls(*read_csv(out / "controls.csv"), refs.m, law)
    if task.kind == "merton" and step.regime == "unconstrained_equal_gamma":
        check_merton(value, refs.m, refs.g1, refs.x)
    return value


def check_solve_verify(task: Task, outs: dict, codes: dict) -> None:
    refs = References(task)
    values = {}
    for step in task.steps:
        check_exit(step, codes[step.name])
        out = outs[step.name]
        if step.name == "verify":
            check_hjb(read_json(out / "hjb_report.json"),
                      read_csv(out / "hjb_residuals.csv")[1])
        elif step.exit_code == 2:
            check_failure_report(read_json(out / "solution.json"))
            values[step.name] = None
        else:
            values[step.name] = _check_solution(task, refs, step, out)
    m = refs.m
    bond = refs.x ** refs.g2 * math.exp(refs.g2 * m.R(m.T))
    n = sum(1 for s in task.steps if s.measure == "var")
    es = [values[f"solve_es_{i}"] for i in range(n)]
    var = [values[f"solve_var_{i}"] for i in range(n)]
    check_order(bond, es, var, values["solve_unconstrained"])
    for measure in ("var", "es"):
        steps = [s for s in task.steps if s.measure == measure and (
            task.kind == "linear" or s.regime and s.regime.endswith("_tight"))]
        check_increasing([values[s.name] for s in steps])


def check_oracle_xcheck(task: Task, outs: dict, codes: dict) -> None:
    refs = References(task)
    step = task.steps[0]
    check_exit(step, codes[step.name])
    out = outs[step.name]
    value = _check_solution(task, refs, step, out)
    m = refs.m
    if step.regime.endswith("_linear"):
        tolerance = linear_attainment(m)
    else:
        law = ref.tight_law(m, refs.g1, step.zeta)
        tolerance = tight_attainment(m, law, refs.g1, refs.g2, refs.x, step.zeta, value)
    check_oracle(read_json(out / "oracle.json"), read_csv(out / "oracle.csv")[1],
                 value, tolerance)


def check_mc_simulate(task: Task, outs: dict, codes: dict) -> None:
    refs = References(task)
    step = task.steps[0]
    check_exit(step, codes[step.name])
    out = outs[step.name]
    summary = read_json(out / "summary.json")
    feedback = task.kind == "feedback"
    require(summary["n_paths"] == MC_PATHS and summary["seed"] == task.extra["mc_seed"]
            and summary["kind"] == ("feedback" if feedback else "deterministic"),
            f"summary.json provenance {summary}")
    m, x = refs.m, refs.x
    if feedback:
        fb = ref.Feedback(m, refs.g1, refs.g2, x)
        reference, laws, alpha = fb.cost(), fb.wealth_law, 0.01
    else:
        law = (ref.tight_law(m, refs.g1, step.zeta) if task.kind == "riskless"
               else refs.equal())
        reference, alpha = law.cost(refs.g1, refs.g2, x), task.alpha
        laws = lambda t: law.wealth_law(x, t)
    check_mc_estimate(summary, reference, task.kind == "riskless")
    check_risk_bands(*read_csv(out / "risk_profile.csv"), laws, m, x, alpha,
                     MC_PATHS, not feedback)


CHECKS = {"solve_verify": check_solve_verify, "oracle_xcheck": check_oracle_xcheck,
          "mc_simulate": check_mc_simulate}


def check_task(task: Task, outs: dict, codes: dict) -> None:
    CHECKS[task.workload](task, outs, codes)
