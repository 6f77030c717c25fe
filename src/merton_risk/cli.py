"""Batch front-end: solve / simulate / verify on JSON problem specs.

Problem document:

    {
      "market":  {"T": ..., "d": ..., "r": [...], "mu": [...], "sigma": [...]},
      "utility": {"gamma1": ..., "gamma2": ...},
      "risk":    {"kind": "var" | "es", "alpha": ..., "zeta": ...},   # optional
      "x0":      ...
    }

Each check has one route: ``solve --oracle`` runs the grid-search oracle
on the solution it writes, ``simulate`` the exact-law Monte Carlo and
``verify`` the dynamic-programming residual.

``main`` is the one path from argv to a command: parse (each flag checked
by its argparse type), load the document, make ``--out``, run.  A failure
exits with its error's ``exit_code`` and prints its ``label`` (errors.py);
``ValueError`` and ``OSError``, a usage error included, exit 1.  ``solve``
also writes the reason for a missing closed form to solution.json.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import importlib.util
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import es_bound, unconstrained, var_bound
from ._piecewise import check_on_grid, segment_index, to_ticks
from ._table import write_json, write_table
from .errors import (
    ConditionViolated,
    MertonRiskError,
    NoClosedForm,
    NoClosedFormRegime,
    ToleranceExceeded,
    UnsupportedSolution,
)
from .market import MarketModel, json_number, market_from_dict
from .risk import MeasureKind, RiskSpec, constraint_profile
from .solution import Solution, curve_times
from .strategies import DeterministicStrategy, step_strategy
from .utility import UtilityParams

HAMILTONIAN_GAP_TOL = 1e-10    # default gate of `verify --gap-tol`


def _lazy(name: str):
    """Submodule name, run on its first attribute access (LazyLoader); it is
    in sys.modules and on the package at once, as an import leaves it, and
    one already imported is reused, so every caller shares one module."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


# only the commands that use them run these: verify, simulate, solve --oracle
hjb, mc, oracle = _lazy("hjb"), _lazy("mc"), _lazy("oracle")


class ProblemSpec:
    """Validated problem document."""

    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise ValueError("problem document must be a JSON object")
        try:
            self.model: MarketModel = market_from_dict(doc["market"])
            util = doc["utility"]
            self.utility = UtilityParams(json_number(util["gamma1"], "gamma1"),
                                         json_number(util["gamma2"], "gamma2"))
            self.x0 = json_number(doc["x0"], "x0")
        except KeyError as exc:
            raise ValueError(f"missing required field {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"malformed problem document: {exc}") from exc
        if not math.isfinite(self.x0) or self.x0 <= 0:
            raise ValueError(f"x0 must be positive and finite, got {self.x0}")
        self.risk: RiskSpec | None = None
        if doc.get("risk") is not None:
            r = doc["risk"]
            try:
                self.risk = RiskSpec(alpha=json_number(r["alpha"], "alpha"),
                                     zeta=json_number(r["zeta"], "zeta"),
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


def _write_failure(out_dir: Path, exc: NoClosedForm) -> None:
    doc = {"status": "failed", "error": type(exc).__name__,
           "message": str(exc)}
    if isinstance(exc, ConditionViolated):
        doc["condition"] = exc.condition
        doc["margin"] = exc.margin
    if isinstance(exc, NoClosedFormRegime):
        doc["margins"] = exc.margins
    write_json(out_dir / "solution.json", doc)


def cmd_solve(args, spec: ProblemSpec, out_dir: Path) -> int:
    try:
        sol = _solve(spec)
    except NoClosedForm as exc:
        _write_failure(out_dir, exc)
        raise
    sol.write_json(out_dir / "solution.json")
    times = curve_times(spec.model, args.grid)
    sol.write_controls_csv(out_dir / "controls.csv", times)
    sol.write_wealth_csv(out_dir / "wealth.csv", times)
    if sol.feedback is not None:
        sol.write_feedback_grids(out_dir / "p_grid.csv", out_dir / "c_grid.csv")
    if args.oracle:
        if sol.strategy is None or sol.unbounded:
            raise UnsupportedSolution("oracle needs a deterministic-class solution")
        _write_oracle(out_dir, spec, sol, args.rho_step)
    return 0


def _write_oracle(out_dir: Path, spec: ProblemSpec, sol: Solution,
                  rho_step: float) -> None:
    """Grid-search cross-check of sol: oracle.csv and oracle.json."""
    model = spec.model
    rho_hint = 1.0
    if spec.risk is not None:
        rules = var_bound.VAR if spec.risk.kind == MeasureKind.VAR else es_bound.ES
        rho_hint = rules.budget(model, spec.risk)
    rho_grid = np.arange(0.0, max(2.0 * rho_hint, 10 * rho_step), rho_step)
    v_hint = float(np.max(sol.strategy.v_at(model, model.nodes)))
    if v_hint > 0:
        levels = np.linspace(0.0, 2.0 * v_hint, 41)
        pieces = 8
    else:
        levels = np.array([0.0])
        pieces = 1
    res = oracle.grid_search_oracle(model, spec.utility, spec.risk, spec.x0,
                                    rho_grid, v_levels=levels, v_pieces=pieces)
    res.write_csv(out_dir / "oracle.csv")
    gap = (sol.value - res.best_cost) / abs(sol.value)
    write_json(out_dir / "oracle.json",
               {"oracle_best": res.best_cost, "solver_value": sol.value,
                "relative_gap": gap})


def strategy_from_csv(path, model: MarketModel) -> DeterministicStrategy:
    """Rebuild a piecewise-constant strategy from a controls.csv table: each
    row (t, pi, v) before T starts a segment, y = sigma' pi with the sigma
    of t's tick, and the first row of each tick wins."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [[float(v) for v in row] for row in reader if row]
    d = sum(1 for name in header if name.startswith("pi_"))
    if d != model.dimension:
        raise ValueError("strategy table dimension disagrees with market")
    for row in rows:
        if len(row) < 2 + d or not all(map(math.isfinite, row)):
            raise ValueError(f"strategy table rows need {2 + d} finite fields "
                             f"(t, pi_1..pi_d, v), got {row}")
    check_on_grid(("strategy table t", row[0]) for row in rows)
    ticks = to_ticks([row[0] for row in rows])
    segments = segment_index(model.node_ticks, ticks)
    y_segments, v_segments, seen = [], [], set()
    for row, tick, j in zip(rows, ticks.tolist(), segments.tolist()):
        if tick < model.node_ticks[-1] and tick not in seen:
            seen.add(tick)
            y_segments.append((row[0], model.sigma_step[j].T @ np.asarray(row[1:1 + d])))
            v_segments.append((row[0], row[1 + d]))
    return step_strategy(y_segments, v_segments, model.horizon)


def cmd_simulate(args, spec: ProblemSpec, out_dir: Path) -> int:
    config = mc.SimConfig(n_paths=args.paths, seed=args.seed,
                          n_steps=args.steps, antithetic=args.antithetic)
    if args.strategy is not None:
        strategy = strategy_from_csv(args.strategy, spec.model)
        closed_form = oracle.cost_closed_form(spec.model, strategy,
                                              spec.utility, spec.x0)
    else:
        sol = _solve(spec)
        if sol.unbounded:
            raise UnsupportedSolution("cannot simulate an unbounded regime")
        closed_form = sol.value
        strategy = sol.strategy
    risk = spec.risk if spec.risk is not None else RiskSpec(
        alpha=0.01, zeta=0.5, kind=MeasureKind.VAR)
    if strategy is not None:
        ensemble = mc.simulate_deterministic(spec.model, strategy, spec.utility,
                                             spec.x0, config, alpha=risk.alpha)
    else:
        ensemble = mc.simulate_hara_feedback(spec.model, spec.utility, spec.x0,
                                             config, alpha=risk.alpha)
    est, se = mc.estimate_cost(ensemble, spec.utility)
    empirical = mc.empirical_risk_curve(ensemble, risk, spec.x0, spec.model)

    write_json(out_dir / "summary.json", {
        "cost_estimate": est, "cost_std_error": se,
        "cost_closed_form": closed_form,
        "n_paths": config.n_paths, "seed": config.seed,
        "antithetic": config.antithetic,
        "kind": ensemble.kind,
    })
    if args.dump_paths > 0:
        ensemble.write_csv(out_dir / "paths.csv", max_paths=args.dump_paths)

    if strategy is not None:
        # the ensemble grid holds every node, so the profile keeps it row for row
        closed = constraint_profile(spec.model, strategy, risk, spec.x0,
                                    grid=ensemble.times)
        closed_columns = [closed.var_curve, closed.es_curve, closed.level_curve,
                          closed.ratio_curve]
    else:
        nan = np.full(len(empirical.times), np.nan)
        closed_columns = [nan, nan, empirical.level_curve, nan]
    write_table(out_dir / "risk_profile.csv",
                ["t", "var", "es", "level", "ratio",
                 "empirical_var", "empirical_es", "empirical_ratio"],
                [empirical.times, *closed_columns, empirical.var_curve,
                 empirical.es_curve, empirical.ratio_curve], [".12g"] * 8)
    return 0


def cmd_verify(args, spec: ProblemSpec, out_dir: Path) -> int:
    feedback = unconstrained.solve_hara_unconstrained(
        spec.model, spec.utility, spec.x0).feedback
    report = hjb.hjb_residual(spec.model, spec.utility, feedback,
                              t_nodes=args.t_nodes, n_t=args.nt, n_x=args.nx)
    gap_report = hjb.hamiltonian_argmax_check(
        spec.model, spec.utility, feedback, n_t=max(4, args.nt // 5),
        n_x=max(4, args.nx // 5), seed=args.seed)
    merged = dataclasses.replace(report,
                                 hamiltonian_gap=gap_report.hamiltonian_gap)
    merged.write_json(out_dir / "hjb_report.json")
    merged.write_csv(out_dir / "hjb_residuals.csv")
    ok = (merged.max_abs_residual <= args.residual_tol
          and merged.terminal_error <= args.terminal_tol
          and merged.hamiltonian_gap <= args.gap_tol)
    if not ok:
        raise ToleranceExceeded(f"residual={merged.max_abs_residual:.3g}, "
                                f"terminal={merged.terminal_error:.3g}, "
                                f"gap={merged.hamiltonian_gap:.3g}")
    return 0


def _usage_error(prog: str, message: str):
    """argparse's error hook: a usage error raises ValueError, an input error
    (exit 1), where argparse would exit 2, the code of a missing closed form."""
    raise ValueError(f"{prog}: {message}")


def _checked(convert, ok, what: str):
    """An argparse type: convert the text, then refuse a value that fails ok.
    Text convert cannot take is reported by argparse under convert's name."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    parse.__name__ = convert.__name__
    return parse


def _times(text: str) -> np.ndarray:
    try:
        return np.asarray([float(v) for v in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated numbers, got {text}") from None


_COUNT = _checked(int, lambda n: n >= 0, "non-negative")
_NODES = _checked(int, lambda n: n >= 1, "at least 1")
_STEP = _checked(float, lambda v: math.isfinite(v) and v > 0.0,
                 "positive and finite")
_TOL = _checked(float, lambda v: math.isfinite(v) and v >= 0.0,
                "non-negative and finite")
_TIMES = _checked(_times, lambda t: np.all(np.isfinite(t) & (t > 0.0)),
                  "finite positive times")


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
    p_solve.add_argument("--grid", type=_COUNT, default=201)
    p_solve.add_argument("--oracle", action="store_true",
                         help="cross-check with the grid-search oracle")
    p_solve.add_argument("--rho-step", type=_STEP, default=1e-3)
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="simulate a solved or given strategy")
    p_sim.add_argument("spec")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--paths", type=int, default=100_000)
    p_sim.add_argument("--steps", type=_COUNT, default=64)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--antithetic", action="store_true")
    p_sim.add_argument("--strategy", default=None,
                       help="controls.csv table to simulate instead of solving")
    p_sim.add_argument("--dump-paths", type=_COUNT, default=0, metavar="N",
                       help="spill the first N paths to paths.csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="dynamic-programming verification")
    p_ver.add_argument("spec")
    p_ver.add_argument("--out", required=True)
    p_ver.add_argument("--nt", type=_NODES, default=50)
    p_ver.add_argument("--nx", type=_NODES, default=50)
    p_ver.add_argument("--seed", type=_COUNT, default=0)
    p_ver.add_argument("--t-nodes", type=_TIMES, default=None,
                       help="comma-separated time nodes of the residual grid; "
                            "the probe check keeps its own grid of "
                            "max(4, nt/5) x max(4, nx/5) nodes")
    p_ver.add_argument("--residual-tol", type=_TOL, default=1e-7)
    p_ver.add_argument("--terminal-tol", type=_TOL, default=1e-12)
    p_ver.add_argument("--gap-tol", type=_TOL, default=HAMILTONIAN_GAP_TOL)
    p_ver.set_defaults(func=cmd_verify)
    for p in (parser, *sub.choices.values()):
        p.error = partial(_usage_error, p.prog)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        spec = ProblemSpec.load(args.spec)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return args.func(args, spec, out_dir)
    except (MertonRiskError, ValueError, OSError) as exc:
        print(f"{getattr(exc, 'label', 'input error')}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


if __name__ == "__main__":
    sys.exit(main())
