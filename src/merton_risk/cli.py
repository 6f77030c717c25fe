"""Batch front-end: solve / simulate / verify / oracle on JSON problem specs.

Problem document:

    {
      "market":  {"T": ..., "d": ..., "r": [...], "mu": [...], "sigma": [...]},
      "utility": {"gamma1": ..., "gamma2": ...},
      "risk":    {"kind": "var" | "es", "alpha": ..., "zeta": ...},   # optional
      "x0":      ...
    }

Exit codes: 0 success, 1 input error, 2 regime/tolerance failure; ``main``
maps exceptions to codes through ``EXIT_CODES``.  ``solve`` also writes the
reason for a missing closed form to solution.json.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import es_bound, hjb, mc, oracle, unconstrained, var_bound
from ._table import fmt, write_rows
from .errors import (
    ConditionViolated,
    HypothesisViolated,
    InsufficientPaths,
    MertonRiskError,
    NoClosedFormRegime,
)
from .market import MarketModel, market_from_dict
from .risk import MeasureKind, RiskSpec, constraint_profile
from .solution import Solution
from .strategies import DeterministicStrategy, step_strategy
from .utility import UtilityParams

NO_CLOSED_FORM = (ConditionViolated, NoClosedFormRegime, HypothesisViolated)
# exception class -> (exit code, stderr prefix); the most derived class wins
EXIT_CODES = {
    **{cls: (2, "no closed-form solution") for cls in NO_CLOSED_FORM},
    InsufficientPaths: (2, "insufficient paths"),
    **{cls: (1, "input error") for cls in (ValueError, OSError, MertonRiskError)},
}


class ProblemSpec:
    """Validated problem document."""

    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise ValueError("problem document must be a JSON object")
        try:
            self.model: MarketModel = market_from_dict(doc["market"])
            util = doc["utility"]
            self.utility = UtilityParams(float(util["gamma1"]),
                                         float(util["gamma2"]))
            self.x0 = float(doc["x0"])
        except KeyError as exc:
            raise ValueError(f"missing required field {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"malformed problem document: {exc}") from exc
        if not np.isfinite(self.x0) or self.x0 <= 0:
            raise ValueError(f"x0 must be positive and finite, got {self.x0}")
        self.risk: RiskSpec | None = None
        if doc.get("risk") is not None:
            r = doc["risk"]
            try:
                self.risk = RiskSpec(alpha=float(r["alpha"]),
                                     zeta=float(r["zeta"]),
                                     kind=MeasureKind(r["kind"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"malformed risk block: {exc}") from exc

    @classmethod
    def load(cls, path) -> "ProblemSpec":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"invalid JSON in {path}: {exc}") from exc
        return cls(doc)


def _solve(spec: ProblemSpec) -> Solution:
    if spec.risk is None:
        return unconstrained.solve_unconstrained(spec.model, spec.utility,
                                                 spec.x0)
    if spec.risk.kind == MeasureKind.VAR:
        return var_bound.solve_var(spec.model, spec.utility, spec.risk,
                                   spec.x0)
    return es_bound.solve_es(spec.model, spec.utility, spec.risk, spec.x0)


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_failure(out_dir: Path, exc: MertonRiskError) -> None:
    doc = {"status": "failed", "error": type(exc).__name__,
           "message": str(exc)}
    if isinstance(exc, ConditionViolated):
        doc["condition"] = exc.condition
        doc["margin"] = exc.margin
    if isinstance(exc, NoClosedFormRegime):
        doc["margins"] = exc.margins
    _write_json(out_dir / "solution.json", doc)


def _check_rho_step(rho_step: float) -> None:
    if not (math.isfinite(rho_step) and rho_step > 0.0):
        raise ValueError(f"--rho-step must be positive and finite, got {rho_step}")


def cmd_solve(args) -> int:
    spec = ProblemSpec.load(args.spec)
    _check_rho_step(args.rho_step)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        sol = _solve(spec)
    except NO_CLOSED_FORM as exc:
        _write_failure(out_dir, exc)
        raise
    doc = sol.to_json_dict()
    if args.mc_paths > 0 and not sol.unbounded:
        config = mc.SimConfig(n_paths=args.mc_paths, seed=args.seed)
        ens = _simulate(spec, sol.strategy, config)
        est, se = mc.estimate_cost(ens, spec.utility)
        doc["mc_check"] = {"estimate": est, "std_error": se,
                           "n_paths": args.mc_paths, "seed": args.seed}
    _write_json(out_dir / "solution.json", doc)
    sol.write_controls_csv(out_dir / "controls.csv", n=args.grid)
    sol.write_wealth_csv(out_dir / "wealth.csv", n=args.grid)
    if sol.feedback is not None:
        sol.write_feedback_grids(out_dir / "p_grid.csv", out_dir / "c_grid.csv")
    if args.oracle and sol.strategy is not None and not sol.unbounded:
        _write_oracle(out_dir, spec, sol, args.rho_step)
    return 0


def _simulate(spec: ProblemSpec, strategy, config) -> mc.PathEnsemble:
    """Paths of a deterministic strategy, or of the feedback optimum if None."""
    if strategy is not None:
        return mc.simulate_deterministic(spec.model, strategy, spec.x0, config)
    return mc.simulate_hara_feedback(spec.model, spec.utility, spec.x0, config)


def _write_oracle(out_dir: Path, spec: ProblemSpec, sol: Solution,
                  rho_step: float) -> None:
    """Grid-search cross-check of sol: oracle.csv and oracle.json."""
    model = spec.model
    rho_hint = 1.0
    if spec.risk is not None:
        if spec.risk.kind == MeasureKind.VAR:
            rho_hint = var_bound.rho_var(model, spec.risk)
        else:
            rho_hint = es_bound.rho_es(model, spec.risk)
    rho_grid = np.arange(0.0, max(2.0 * rho_hint, 10 * rho_step), rho_step)
    v_hint = float(np.max(sol.strategy.v_at(model, model.nodes)))
    if v_hint > 0:
        levels = np.linspace(0.0, 2.0 * v_hint, 41)
        pieces = 8
    else:
        levels = np.array([0.0])
        pieces = 1
    config = oracle.FamilyConfig(rho_grid=rho_grid, v_levels=levels,
                                 v_pieces=pieces)
    res = oracle.grid_search_oracle(model, spec.utility, spec.risk,
                                    spec.x0, config)
    res.write_csv(out_dir / "oracle.csv")
    gap = (sol.value - res.best_cost) / abs(sol.value)
    _write_json(out_dir / "oracle.json",
                {"oracle_best": res.best_cost, "solver_value": sol.value,
                 "relative_gap": gap})


def strategy_from_csv(path, model: MarketModel) -> DeterministicStrategy:
    """Rebuild a piecewise-constant strategy from a controls.csv table."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader if row]
    d = sum(1 for name in header if name.startswith("pi_"))
    if d != model.dimension:
        raise ValueError("strategy table dimension disagrees with market")
    y_segments, v_segments = [], []
    seen = set()
    for row in rows:
        t, pis, v = row[0], np.asarray(row[1:1 + d]), row[1 + d]
        if t >= model.horizon or t in seen:
            continue
        seen.add(t)
        idx = np.searchsorted(model.nodes, t, side="right") - 1
        sigma = model.sigma_step[idx]
        y_segments.append((t, sigma.T @ pis))
        v_segments.append((t, max(v, 0.0)))
    return step_strategy(y_segments, v_segments, model.horizon)


def cmd_simulate(args) -> int:
    spec = ProblemSpec.load(args.spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = mc.SimConfig(n_paths=args.paths, seed=args.seed,
                          n_steps=args.steps, antithetic=args.antithetic)
    if args.strategy is not None:
        strategy = strategy_from_csv(args.strategy, spec.model)
        closed_form = oracle.cost_closed_form(spec.model, strategy,
                                              spec.utility, spec.x0)
    else:
        sol = _solve(spec)
        if sol.unbounded:
            print("cannot simulate an unbounded regime", file=sys.stderr)
            return 2
        closed_form = sol.value
        strategy = sol.strategy
    ensemble = _simulate(spec, strategy, config)
    est, se = mc.estimate_cost(ensemble, spec.utility)
    risk = spec.risk if spec.risk is not None else RiskSpec(
        alpha=0.01, zeta=0.5, kind=MeasureKind.VAR)
    empirical = mc.empirical_risk_curve(ensemble, risk, spec.x0, spec.model)

    _write_json(out_dir / "summary.json", {
        "cost_estimate": est, "cost_std_error": se,
        "cost_closed_form": closed_form,
        "n_paths": config.n_paths, "seed": config.seed,
        "antithetic": config.antithetic,
        "kind": ensemble.kind,
    })
    if args.dump_paths > 0:
        ensemble.write_csv(out_dir / "paths.csv", max_paths=args.dump_paths)

    if strategy is not None:
        closed = constraint_profile(spec.model, strategy, risk, spec.x0,
                                    grid=ensemble.times, n_refine=2)
        lookup = {round(t, 12): i for i, t in enumerate(closed.times)}
        rows = [lookup[round(float(t), 12)] for t in empirical.times]
        closed_columns = [fmt(curve[rows]) for curve in (
            closed.var_curve, closed.es_curve, closed.level_curve,
            closed.ratio_curve)]
    else:
        nan = ["nan"] * len(empirical.times)
        closed_columns = [nan, nan, fmt(empirical.level_curve), nan]
    write_rows(out_dir / "risk_profile.csv",
               ["t", "var", "es", "level", "ratio",
                "empirical_var", "empirical_es", "empirical_ratio"],
               zip(fmt(empirical.times), *closed_columns,
                   *map(fmt, (empirical.var_curve, empirical.es_curve,
                              empirical.ratio_curve))))
    return 0


def cmd_verify(args) -> int:
    spec = ProblemSpec.load(args.spec)
    if not spec.utility.is_hara:
        raise ValueError("verification needs gamma1, gamma2 in (0,1)")
    if args.nt < 1 or args.nx < 1:
        raise ValueError("--nt and --nx must be at least 1")
    t_nodes = None
    if args.t_nodes:
        t_nodes = np.asarray([float(v) for v in args.t_nodes.split(",")])
        if not np.all((t_nodes >= 0.0) & (t_nodes < spec.model.horizon)):
            raise ValueError("time nodes must be finite and in [0, T)")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    feedback = unconstrained.solve_hara_unconstrained(
        spec.model, spec.utility, spec.x0).feedback
    report = hjb.hjb_residual(spec.model, spec.utility,
                              t_nodes=t_nodes, n_t=args.nt, n_x=args.nx,
                              feedback=feedback)
    gap_report = hjb.hamiltonian_argmax_check(
        spec.model, spec.utility, n_t=max(4, args.nt // 5),
        n_x=max(4, args.nx // 5), seed=args.seed, feedback=feedback)
    merged = dataclasses.replace(report,
                                 hamiltonian_gap=gap_report.hamiltonian_gap)
    merged.write_json(out_dir / "hjb_report.json")
    merged.write_csv(out_dir / "hjb_residuals.csv")
    ok = (merged.max_abs_residual <= args.residual_tol
          and merged.terminal_error <= args.terminal_tol
          and merged.hamiltonian_gap <= args.gap_tol)
    if not ok:
        print("verification tolerances exceeded: "
              f"residual={merged.max_abs_residual:.3g}, "
              f"terminal={merged.terminal_error:.3g}, "
              f"gap={merged.hamiltonian_gap:.3g}", file=sys.stderr)
        return 2
    return 0


def cmd_oracle(args) -> int:
    spec = ProblemSpec.load(args.spec)
    _check_rho_step(args.rho_step)
    sol = _solve(spec)
    if sol.strategy is None or sol.unbounded:
        print("oracle needs a deterministic-class solution", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_oracle(out_dir, spec, sol, args.rho_step)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="merton-risk",
        description="closed-form consumption-investment solvers under "
                    "uniform VaR/ES bounds, with simulation and "
                    "dynamic-programming verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem spec")
    p_solve.add_argument("spec")
    p_solve.add_argument("--out", required=True)
    p_solve.add_argument("--grid", type=int, default=201)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--oracle", action="store_true",
                         help="cross-check with the grid-search oracle")
    p_solve.add_argument("--rho-step", type=float, default=1e-3)
    p_solve.add_argument("--mc-paths", type=int, default=0)
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="simulate a solved or given strategy")
    p_sim.add_argument("spec")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--paths", type=int, default=100_000)
    p_sim.add_argument("--steps", type=int, default=64)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--antithetic", action="store_true")
    p_sim.add_argument("--strategy", default=None,
                       help="controls.csv table to simulate instead of solving")
    p_sim.add_argument("--dump-paths", type=int, default=0, metavar="N",
                       help="spill the first N paths to paths.csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="dynamic-programming verification")
    p_ver.add_argument("spec")
    p_ver.add_argument("--out", required=True)
    p_ver.add_argument("--nt", type=int, default=50)
    p_ver.add_argument("--nx", type=int, default=50)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--t-nodes", default=None,
                       help="comma-separated explicit time nodes")
    p_ver.add_argument("--residual-tol", type=float, default=1e-7)
    p_ver.add_argument("--terminal-tol", type=float, default=1e-12)
    p_ver.add_argument("--gap-tol", type=float, default=1e-10)
    p_ver.set_defaults(func=cmd_verify)

    p_or = sub.add_parser("oracle", help="grid-search cross-check")
    p_or.add_argument("spec")
    p_or.add_argument("--out", required=True)
    p_or.add_argument("--rho-step", type=float, default=1e-3)
    p_or.set_defaults(func=cmd_oracle)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        code, label = next(EXIT_CODES[cls] for cls in type(exc).__mro__
                           if cls in EXIT_CODES)
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
