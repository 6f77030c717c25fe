"""Show that every output check rejects a perturbed output.

    python3 perfbench/selftest.py

Runs round 0 of seed 0 of each workload through the CLI, confirms that
the real outputs pass, then perturbs one output at a time and confirms
that the check named in the case rejects it. Prints one line per case
and exits 1 if any perturbation is accepted.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from merton_risk import cli  # noqa: E402


def edit_json(path: Path, change) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    change(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def edit_csv(path: Path, change) -> None:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    change(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def scale_cell(row: int, col: int, factor: float):
    def change(rows):
        rows[row][col] = repr(float(rows[row][col]) * factor)
    return change


def set_key(key, value):
    def change(doc):
        doc[key] = value(doc) if callable(value) else value
    return change


def values_of(task, outs, names):
    return [checks.read_json(outs[n] / "solution.json").get("value") for n in names]


# (label, workload, task slot, step, file, editor, message fragment)
FILE_CASES = [
    ("regime label", "solve_verify", 1, "solve_var_0", "solution.json",
     set_key("regime", "var_loose_unconstrained"), "regime"),
    ("tight value vs quadrature of its cost", "solve_verify", 1, "solve_es_1",
     "solution.json", set_key("value", lambda d: d["value"] * (1 + 1e-7)),
     "against its strategy's cost"),
    ("loose value vs quadrature of its cost", "solve_verify", 2, "solve_var_3",
     "solution.json", set_key("value", lambda d: d["value"] * (1 - 1e-7)),
     "against its strategy's cost"),
    ("feedback value vs cost of its law", "solve_verify", 3, "solve_unconstrained",
     "solution.json", set_key("value", lambda d: d["value"] * (1 + 1e-7)),
     "feedback optimum"),
    ("consumption rate samples", "solve_verify", 1, "solve_var_1", "controls.csv",
     scale_cell(1, -1, 1 + 1e-6), "v at t="),
    ("portfolio samples", "solve_verify", 2, "solve_es_3", "controls.csv",
     scale_cell(1, 1, 1 + 1e-6), "pi at t="),
    ("linear exposure budget", "solve_verify", 5, "solve_es_2", "solution.json",
     lambda d: d["wealth_law"].update(rho=d["wealth_law"]["rho"] * (1 + 1e-6)),
     "exposure budget"),
    ("exit-2 margins finite", "solve_verify", 1, "solve_var_2", "solution.json",
     lambda d: d["margins"].update({k: math.nan for k in d["margins"]}), "non-finite"),
    ("exit-2 margin violated", "solve_verify", 3, "solve_es_3", "solution.json",
     lambda d: d["margins"].update({k: abs(v) for k, v in d["margins"].items()}),
     "no violated margin"),
    ("HJB residual gate", "solve_verify", 4, "verify", "hjb_report.json",
     set_key("max_abs_residual", 2e-7), "above its gate"),
    ("HJB terminal gate", "solve_verify", 0, "verify", "hjb_report.json",
     set_key("terminal_error", 1e-11), "above its gate"),
    ("Hamiltonian gap gate", "solve_verify", 5, "verify", "hjb_report.json",
     set_key("hamiltonian_gap", 1e-9), "above its gate"),
    ("HJB residual table", "solve_verify", 1, "verify", "hjb_residuals.csv",
     lambda rows: rows.pop(), "row count"),
    ("oracle dominance", "oracle_xcheck", 0, "solve_oracle", "oracle.json",
     set_key("oracle_best", lambda d: d["solver_value"] * (1 + 1e-6)), "beats the solver"),
    ("oracle attainment (tight)", "oracle_xcheck", 1, "solve_oracle", "oracle.json",
     set_key("oracle_best", lambda d: d["oracle_best"] * 0.98), "attainment tolerance"),
    ("oracle attainment (linear)", "oracle_xcheck", 2, "solve_oracle", "oracle.json",
     set_key("oracle_best", lambda d: d["solver_value"] * (1 - 2e-3)), "attainment tolerance"),
    ("oracle table agrees", "oracle_xcheck", 2, "solve_oracle", "oracle.csv",
     lambda rows: [r.__setitem__(4, repr(float(r[4]) * 0.9)) for r in rows[1:]],
     "best feasible record"),
    ("MC estimate within standard errors", "mc_simulate", 1, "simulate", "summary.json",
     set_key("cost_estimate", lambda d: d["cost_estimate"] + 7 * d["cost_std_error"]),
     "standard errors from"),
    ("MC feedback estimate", "mc_simulate", 2, "simulate", "summary.json",
     set_key("cost_estimate", lambda d: d["cost_estimate"] - 7 * d["cost_std_error"]),
     "standard errors from"),
    ("riskless MC to rounding", "mc_simulate", 0, "simulate", "summary.json",
     set_key("cost_estimate", lambda d: d["cost_estimate"] * (1 + 1e-9)),
     "riskless Monte Carlo estimate"),
    ("MC closed form vs reference", "mc_simulate", 1, "simulate", "summary.json",
     set_key("cost_closed_form", lambda d: d["cost_closed_form"] * (1 + 1e-7)),
     "closed-form cost"),
    ("empirical VaR band", "mc_simulate", 1, "simulate", "risk_profile.csv",
     scale_cell(-1, 5, 1.5), "empirical VaR"),
    ("empirical ES band", "mc_simulate", 2, "simulate", "risk_profile.csv",
     scale_cell(-1, 6, 1.5), "empirical ES"),
    ("riskless empirical VaR", "mc_simulate", 0, "simulate", "risk_profile.csv",
     scale_cell(-1, 5, 1 + 1e-8), "empirical VaR"),
    ("closed-form risk columns", "mc_simulate", 1, "simulate", "risk_profile.csv",
     scale_cell(-1, 2, 1 + 1e-7), "closed-form VaR/ES"),
]


def direct_cases(results):
    """Checks on values across outputs, fed perturbed values directly."""
    task, outs, _ = results["solve_verify"][1]
    var = values_of(task, outs, [f"solve_var_{i}" for i in range(4)])
    es = values_of(task, outs, [f"solve_es_{i}" for i in range(4)])
    unc = values_of(task, outs, ["solve_unconstrained"])[0]
    refs = checks.References(task)
    m = refs.m
    bond = refs.x ** refs.g2 * math.exp(refs.g2 * m.R(m.T))
    merton_task, merton_outs, _ = results["solve_verify"][0]
    merton_refs = checks.References(merton_task)
    merton_value = values_of(merton_task, merton_outs, ["solve_unconstrained"])[0]
    return [
        ("exit code", lambda: checks.check_exit(task.steps[1], 2), "expected 0"),
        ("ES <= VaR", lambda: checks.check_order(bond, [var[0] * (1 + 1e-6)] + es[1:], var, unc),
         "out of order"),
        ("VaR <= unconstrained", lambda: checks.check_order(bond, es, var, var[0] * 0.999),
         "out of order"),
        ("bond-only <= ES", lambda: checks.check_order(es[0] * 1.001, es, var, unc),
         "out of order"),
        ("tight values increase in zeta", lambda: checks.check_increasing(var[1::-1]),
         "do not increase"),
        ("classical Merton value",
         lambda: checks.check_merton(merton_value * (1 + 1e-7), merton_refs.m,
                                     merton_refs.g1, merton_refs.x), "classical Merton"),
    ]


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        results = {}
        for workload in inputs.KINDS:
            runner = run.Runner(cli, checks, inputs, work / workload)
            results[workload] = []
            for task in inputs.make_round(workload, 0, 0):
                outs, codes, _, failure = runner.execute(task)
                if failure:
                    print(f"FAIL setup: {task.index} {failure}")
                    return 1
                checks.check_task(task, outs, codes)
                results[workload].append((task, outs, codes))
        print("real outputs pass every check")
        rejected = accepted = 0
        cases = []
        for label, workload, slot, step, name, editor, fragment in FILE_CASES:
            task, outs, codes = results[workload][slot]

            def case(task=task, outs=outs, codes=codes, step=step, name=name, editor=editor):
                spare = work / "spare"
                shutil.copytree(outs[step], spare)
                try:
                    path = outs[step] / name
                    (edit_csv if name.endswith(".csv") else edit_json)(path, editor)
                    checks.check_task(task, outs, codes)
                finally:
                    shutil.rmtree(outs[step])
                    spare.rename(outs[step])
            cases.append((label, case, fragment))
        cases += direct_cases(results)
        for label, case, fragment in cases:
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    case()
            except checks.CheckFailed as exc:
                ok = fragment in str(exc)
                print(f"{'rejected' if ok else 'WRONG CHECK'}: {label}: {exc}"[:200])
                rejected += ok
                accepted += not ok
            else:
                print(f"ACCEPTED: {label}")
                accepted += 1
        print(f"{rejected} perturbations rejected, {accepted} not")
        return 0 if accepted == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
