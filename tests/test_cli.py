"""Batch front-end: exit codes, output files, round trips."""

import argparse
import csv
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import merton_risk
from merton_risk import cli, errors, unconstrained
from merton_risk.cli import build_parser, main, strategy_from_csv
from merton_risk.market import market_from_dict
from merton_risk.oracle import cost_closed_form
from merton_risk.risk import MeasureKind, RiskSpec, constraint_profile
from merton_risk.utility import UtilityParams

from conftest import strict_json
from cross_checks import max_ratio, satisfied


def market_doc(r=0.0, mu=0.1, sigma=0.2, T=1.0):
    return {
        "T": T, "d": 1,
        "r": [{"t0": 0.0, "value": r}],
        "mu": [{"t0": 0.0, "value": [mu]}],
        "sigma": [{"t0": 0.0, "value": [[sigma]]}],
    }


def write_spec(path, *, utility, risk=None, x0=1.0, market=None):
    doc = {"market": market or market_doc(), "utility": utility, "x0": x0}
    if risk is not None:
        doc["risk"] = risk
    path.write_text(json.dumps(doc))
    return path


def test_solve_unconstrained_sqrt2(tmp_path):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 0.5, "gamma2": 0.5},
                      market=market_doc(mu=0.0))
    out = tmp_path / "out"
    assert main(["solve", str(spec), "--out", str(out)]) == 0
    doc = json.loads((out / "solution.json").read_text())
    assert doc["value"] == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert doc["regime"] == "unconstrained_equal_gamma"
    assert (out / "controls.csv").exists()
    assert (out / "wealth.csv").exists()


def test_solve_var_tight_outputs(tmp_path):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 0.5, "gamma2": 0.5},
                      risk={"kind": "var", "alpha": 0.01, "zeta": 0.1})
    out = tmp_path / "out"
    assert main(["solve", str(spec), "--out", str(out)]) == 0
    doc = json.loads((out / "solution.json").read_text())
    assert doc["regime"] == "var_tight"
    assert doc["value"] == pytest.approx(np.sqrt(0.1) + np.sqrt(0.9),
                                         rel=1e-12)
    names = [c["name"] for c in doc["conditions_report"]]
    assert "zeta_below_split_point" in names and "quantile_floor" in names
    with open(out / "controls.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(row["pi_1"]) == 0.0 for row in rows)
    assert float(rows[0]["v"]) == pytest.approx(0.1, rel=1e-12)


@pytest.mark.parametrize("regime", ["var_tight", "es_tight", "unconstrained_linear_bond",
                                    "var_linear_bond", "es_linear_bond"])
def test_zero_exposures_print_as_zero(tmp_path, regime):
    # theta = (-0.2, 1/6) on the tight regimes' market, where 0.0 * theta_1
    # is -0.0, and 0 on the bond regimes'; no value comparison tells -0 from
    # 0, so the written fields are compared
    kind, tight = regime.split("_")[0], regime.endswith("_tight")
    market = {"T": 1.0, "d": 2, "r": [{"t0": 0.0, "value": 0.05}],
              "mu": [{"t0": 0.0, "value": [0.01, 0.09] if tight else [0.05, 0.05]}],
              "sigma": [{"t0": 0.0, "value": [[0.2, 0.0], [0.05, 0.3]]}]}
    gamma = 0.5 if tight else 1.0
    risk = None if kind == "unconstrained" else {"kind": kind, "alpha": 0.01, "zeta": 0.1}
    spec = write_spec(tmp_path / "p.json", utility={"gamma1": gamma, "gamma2": gamma},
                      risk=risk, market=market)
    out = tmp_path / "out"
    assert main(["solve", str(spec), "--out", str(out)]) == 0
    assert json.loads((out / "solution.json").read_text())["regime"] == regime
    with open(out / "controls.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {row[name] for row in rows for name in ("pi_1", "pi_2")} == {"0"}


@pytest.mark.parametrize("kind", ["var", "es"])
def test_solve_tight_zero_excess_return_writes_valid_json(tmp_path, kind):
    # theta = 0: the quantile floor holds with margin |z_alpha|, a finite number
    risk = {"kind": kind, "alpha": 0.05, "zeta": 0.1}
    spec = write_spec(tmp_path / "p.json", utility={"gamma1": 0.5, "gamma2": 0.3},
                      risk=risk, market=market_doc(r=0.03, mu=0.03))
    out = tmp_path / "out"
    assert main(["solve", str(spec), "--out", str(out)]) == 0
    doc = strict_json((out / "solution.json").read_text())
    assert doc["regime"] == f"{kind}_tight"
    floor, = (c for c in doc["conditions_report"] if c["name"] == "quantile_floor")
    assert floor["satisfied"]
    assert floor["margin"] == RiskSpec(**risk).abs_z


def test_solve_unequal_exponents_feedback_outputs(tmp_path):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 0.3, "gamma2": 0.7},
                      market=market_doc(r=0.03), x0=2.0)
    out = tmp_path / "out"
    assert main(["solve", str(spec), "--out", str(out), "--grid", "11"]) == 0
    assert json.loads((out / "solution.json").read_text())["regime"] == \
        "unconstrained_hara"
    with open(out / "wealth.csv") as fh:
        wealth = list(csv.DictReader(fh))
    assert float(wealth[0]["t"]) == 0.0
    assert float(wealth[0]["wealth_mean"]) == pytest.approx(2.0, rel=1e-12)
    feedback = unconstrained.solve_hara_unconstrained(
        market_from_dict(market_doc(r=0.03)),
        UtilityParams(0.3, 0.7), 2.0).feedback
    with open(out / "c_grid.csv") as fh:
        c_grid = np.array([[float(v) for v in row.values()]
                           for row in csv.DictReader(fh)])
    assert len(c_grid) == 51 * 51
    c_star = feedback.c_from_g(feedback.g(c_grid[:, 0], c_grid[:, 1]))
    assert np.allclose(c_grid[:, 2], c_star, rtol=1e-11, atol=0.0)
    with open(out / "p_grid.csv") as fh:
        assert next(csv.reader(fh)) == ["t", "x", "p"]


def test_solve_feedback_with_gamma1_near_one(tmp_path):
    # (0.99, 0.5) on r = 0.03, mu = 0.08, sigma = 0.2: with q1 = 100 the first
    # term swamps the second above the root, where a Newton step on the
    # linear residual moves u = ln g by only about 1/q1
    spec = write_spec(tmp_path / "p.json", utility={"gamma1": 0.99, "gamma2": 0.5},
                      market=market_doc(r=0.03, mu=0.08))
    out = tmp_path / "out"
    assert main(["solve", str(spec), "--out", str(out)]) == 0
    law = json.loads((out / "solution.json").read_text())["wealth_law"]
    with mpmath.workdps(50):
        r, theta_sq, T = mpmath.mpf("0.03"), (mpmath.mpf("0.05") / mpmath.mpf("0.2")) ** 2, 1
        q1, q2 = 1 / (1 - mpmath.mpf("0.99")), mpmath.mpf(2)
        beta1, beta2 = ((q - 1) * (r + q * theta_sq / 2) for q in (q1, q2))
        A1 = mpmath.mpf("0.99") ** q1 * mpmath.expm1(beta1 * T) / beta1
        A2 = mpmath.mpf("0.5") ** q2 * mpmath.exp(beta2 * T)
        g0 = mpmath.exp(mpmath.findroot(
            lambda u: mpmath.log(A1 * mpmath.exp(-q1 * u) + A2 * mpmath.exp(-q2 * u)),
            (mpmath.mpf(0), mpmath.mpf(5)), solver="anderson"))
        # the rounding of the float inputs, amplified by q1 = 100, moves
        # A1 = 5.2e132 by about 5e-13 and g0 by about 3e-15
        assert abs(mpmath.mpf(law["g0"]) / g0 - 1) <= 1e-13
    assert law["q1"] == pytest.approx(100.0, rel=1e-12)


def test_solve_linear_below_var_window_floor(tmp_path):
    # theta = 2.5 puts the floor 1 - e^{z^2/2 - |z| theta} of alpha = 0.05 near 0.94
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 1.0, "gamma2": 1.0},
                      risk={"kind": "var", "alpha": 0.05, "zeta": 0.5},
                      market=market_doc(mu=0.5))
    out = tmp_path / "out"
    assert main(["solve", str(spec), "--out", str(out)]) == 2
    doc = json.loads((out / "solution.json").read_text())
    assert doc["status"] == "failed" and doc["error"] == "ConditionViolated"
    assert doc["condition"] == "var_linear_zeta_window"
    z = RiskSpec(alpha=0.05, zeta=0.5, kind=MeasureKind.VAR).abs_z
    floor = 1.0 - np.exp(0.5 * z * z - 2.5 * z)
    assert doc["margin"] == pytest.approx(0.5 - floor, rel=1e-12)


def test_solve_unbounded_linear(tmp_path):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 1.0, "gamma2": 1.0})
    out = tmp_path / "out"
    assert main(["solve", str(spec), "--out", str(out)]) == 0
    doc = json.loads((out / "solution.json").read_text())
    assert doc["unbounded"] is True and doc["value"] is None


def test_solve_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["solve", str(bad), "--out", str(tmp_path / "o")]) == 1


def test_solve_missing_field(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"market": market_doc()}))
    assert main(["solve", str(bad), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("x0", [float("nan"), float("inf")])
def test_solve_non_finite_x0_is_input_error(tmp_path, x0):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 0.5, "gamma2": 0.5},
                      risk={"kind": "var", "alpha": 0.01, "zeta": 0.1}, x0=x0)
    out = tmp_path / "out"
    assert main(["solve", str(spec), "--out", str(out)]) == 1
    assert not (out / "solution.json").exists()


@pytest.mark.parametrize("market", [market_doc(mu=float("nan")),
                                    market_doc(r=float("inf"))],
                         ids=["nan_mu", "inf_r"])
def test_solve_non_finite_market_is_input_error(tmp_path, market):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 0.5, "gamma2": 0.5},
                      risk={"kind": "var", "alpha": 0.01, "zeta": 0.1},
                      market=market)
    out = tmp_path / "out"
    assert main(["solve", str(spec), "--out", str(out)]) == 1
    assert not any("NaN" in p.read_text() for p in out.glob("*.json"))


TIGHT_VAR = {"utility": {"gamma1": 0.5, "gamma2": 0.5},
             "risk": {"kind": "var", "alpha": 0.01, "zeta": 0.1}}
# malformed controls.csv tables for simulate --strategy (d = 1)
BAD_TABLES = {"nan_pi.csv": "t,pi_1,v\n0.0,nan,0.1\n0.5,0.2,0.1\n",
              "no_v.csv": "t,pi_1,v\n0.0,0.2,0.1\n0.5,0.2\n",
              "empty.csv": "",
              "huge_t.csv": "t,pi_1,v\n-1e300,0.1,0.5\n0.0,0.1,0.5\n",
              "negative_v.csv": "t,pi_1,v\n0.0,0.1,0.1\n0.5,0.2,-0.5\n"}


@pytest.mark.parametrize("patch, command", [
    ({"utility": 5}, ["solve"]),
    ({"x0": None}, ["solve"]),
    ({"x0": [1]}, ["solve"]),
    ({"risk": 3}, ["solve"]),
    ({"utility": {"gamma1": None, "gamma2": 0.5}}, ["solve"]),
    ({}, ["solve", "--oracle", "--rho-step", "0"]),
    ({}, ["solve", "--oracle", "--rho-step", "nan"]),
    ({}, ["solve", "--oracle", "--rho-step", "-0.001"]),
    ({}, ["simulate", "--strategy", "missing.csv"]),
    ({}, ["simulate", "--paths", "0"]),
    ({}, ["solve", "--grid", "-1"]),
    ({}, ["simulate", "--steps", "-3"]),
    ({}, ["simulate", "--dump-paths", "-5"]),
    ({}, ["simulate", "--seed", "-1"]),
    ({}, ["simulate", "--seed", str(2 ** 128)]),
    ({}, ["simulate", "--strategy", "nan_pi.csv"]),
    ({}, ["simulate", "--strategy", "no_v.csv"]),
    ({}, ["simulate", "--strategy", "empty.csv"]),
    ({}, ["simulate", "--strategy", "huge_t.csv"]),
    ({}, ["simulate", "--strategy", "negative_v.csv"]),
    # a number field takes a JSON number only, d a JSON integer only
    ({"x0": "1.5"}, ["solve"]),
    ({"x0": True}, ["solve"]),
    ({"x0": 10 ** 400}, ["solve"]),
    ({"utility": {"gamma1": "0.5", "gamma2": 0.5}}, ["solve"]),
    ({"risk": {"kind": "var", "alpha": "0.05", "zeta": 0.1}}, ["solve"]),
    ({"market": {**market_doc(), "T": "1.0"}}, ["solve"]),
    ({"market": {**market_doc(), "d": 2.5}}, ["solve"]),
    ({"market": {**market_doc(), "d": True}}, ["solve"]),
    ({"market": {**market_doc(), "r": [{"t0": "0", "value": 0.0}]}}, ["solve"]),
    ({"market": {**market_doc(), "r": [{"t0": 0.0, "value": "0.0"}]}}, ["solve"]),
    ({"market": {**market_doc(), "mu": [{"t0": 0.0, "value": ["0.1"]}]}}, ["solve"]),
    ({"market": {**market_doc(), "sigma": [{"t0": 0.0, "value": [[True]]}]}}, ["solve"]),
    # a mu value is a list of d numbers, never a bare number
    ({"market": {**market_doc(), "mu": [{"t0": 0.0, "value": 0.08}]}}, ["solve"]),
    # breakpoints start at 0, increase and stay before T; d matches mu and
    # sigma is d x d
    ({"market": {**market_doc(), "r": [{"t0": 0.5, "value": 0.0}]}}, ["solve"]),
    ({"market": {**market_doc(), "r": [{"t0": 0.0, "value": 0.0}, {"t0": 0.5, "value": 0.01},
                                       {"t0": 0.5, "value": 0.02}]}}, ["solve"]),
    ({"market": {**market_doc(), "r": [{"t0": 0.0, "value": 0.0},
                                       {"t0": 1.0, "value": 0.01}]}}, ["solve"]),
    ({"market": {**market_doc(), "d": 2}}, ["solve"]),
    ({"market": {**market_doc(), "sigma": [{"t0": 0.0, "value": [[0.2, 0.0]]}]}}, ["solve"]),
    # every time fits the tick grid; every coefficient has a segment
    ({"market": {**market_doc(), "T": 1e300}}, ["solve"]),
    ({"market": {**market_doc(), "r": [{"t0": 0.0, "value": 0.0},
                                       {"t0": 1e300, "value": 0.01}]}}, ["solve"]),
    ({"market": {**market_doc(), "r": []}}, ["solve"]),
    ({"market": {**market_doc(), "mu": []}}, ["solve"]),
    ({"market": {**market_doc(), "sigma": []}}, ["solve"]),
], ids=["utility_number", "x0_null", "x0_list", "risk_number", "gamma1_null",
        "rho_step_zero", "rho_step_nan", "rho_step_negative",
        "missing_strategy_file", "zero_paths", "negative_grid", "negative_steps",
        "negative_dump_paths", "negative_seed", "seed_past_128_bits",
        "nan_strategy_field", "short_strategy_row",
        "empty_strategy_table", "strategy_t_beyond_tick_grid",
        "negative_strategy_v", "x0_string", "x0_bool", "x0_beyond_float",
        "gamma1_string", "alpha_string", "T_string", "d_fraction", "d_bool",
        "t0_string", "r_string", "mu_string", "sigma_bool", "mu_number",
        "first_breakpoint_after_0", "breakpoints_not_increasing",
        "breakpoint_at_T", "d_disagrees_with_mu", "sigma_not_square",
        "T_beyond_tick_grid", "t0_beyond_tick_grid", "r_empty", "mu_empty",
        "sigma_empty"])
def test_malformed_input_is_input_error(tmp_path, capsys, patch, command):
    for name, text in BAD_TABLES.items():
        (tmp_path / name).write_text(text)
    spec = tmp_path / "p.json"
    spec.write_text(json.dumps({"market": market_doc(), "x0": 1.0,
                                **TIGHT_VAR, **patch}))
    options = [str(tmp_path / a) if a.endswith(".csv") else a
               for a in command[1:]]
    argv = [command[0], str(spec), "--out", str(tmp_path / "out")] + options
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("input error: ")
    assert not (tmp_path / "out" / "solution.json").exists()
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("market, field", [
    ({"T": 1e300}, "T = 1e+300"),
    ({"T": float("nan")}, "T = nan"),
    ({"mu": [{"t0": 0.0, "value": [0.1]}, {"t0": 1e300, "value": [0.2]}]}, "mu t0 = 1e+300"),
    ({"sigma": [{"t0": 0.0, "value": [[0.2]]}, {"t0": -1e300, "value": [[0.3]]}]},
     "sigma t0 = -1e+300"),
    ({"r": []}, "r needs at least one segment"),
    ({"mu": []}, "mu needs at least one segment"),
    ({"sigma": []}, "sigma needs at least one segment"),
], ids=["T_huge", "T_nan", "mu_t0_huge", "sigma_t0_huge", "r_empty", "mu_empty",
        "sigma_empty"])
def test_market_refusal_names_the_field(tmp_path, capsys, market, field):
    # a time the int64 tick grid cannot hold would overflow it, with numpy
    # warnings and a reason about the breakpoints' order
    spec = tmp_path / "p.json"
    spec.write_text(json.dumps({"market": {**market_doc(), **market}, "x0": 1.0,
                                **TIGHT_VAR}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", str(spec), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("input error: ")
    assert field in err


def test_strategy_table_refusal_names_the_time(tmp_path, capsys):
    # the table's times take the document's tick-grid check before any
    # to_ticks, which would overflow with numpy warnings
    (tmp_path / "huge_t.csv").write_text(BAD_TABLES["huge_t.csv"])
    spec = write_spec(tmp_path / "p.json", **TIGHT_VAR)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", str(spec), "--out", str(tmp_path / "out"),
                     "--strategy", str(tmp_path / "huge_t.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("input error: strategy table t = -1e+300 is off the tick grid")


# sigma goes from 0.2 to 0.4 at t = 0.5
TWO_SIGMAS = {**market_doc(), "sigma": [{"t0": 0.0, "value": [[0.2]]},
                                        {"t0": 0.5, "value": [[0.4]]}]}


@pytest.mark.parametrize("rows, want_y, want_v", [
    # 0.4999999999 snaps to the tick of 0.5, so its row starts [0.5, 1)
    ("0.0,0.1,0.1\n0.4999999999,0.3,0.2\n", [0.2 * 0.1, 0.4 * 0.3], [0.1, 0.2]),
    # 0.5000000001 snaps to the same tick as 0.5: the first row wins
    ("0.0,0.1,0.1\n0.5,0.3,0.2\n0.5000000001,0.9,0.7\n", [0.2 * 0.1, 0.4 * 0.3],
     [0.1, 0.2]),
], ids=["just_below_breakpoint", "two_rows_one_tick"])
def test_strategy_table_reads_sigma_on_ticks(tmp_path, rows, want_y, want_v):
    table = tmp_path / "controls.csv"
    table.write_text("t,pi_1,v\n" + rows)
    strategy = strategy_from_csv(table, market_from_dict(TWO_SIGMAS))
    assert strategy.y_path.breakpoint_ticks.tolist() == [0, 500_000_000]
    assert strategy.y_path.values[:, 0].tolist() == want_y
    assert strategy.consumption.v_path.values.tolist() == want_v


@pytest.mark.parametrize("text", ["[]", "3"], ids=["list", "number"])
def test_non_object_document_is_input_error(tmp_path, capsys, text):
    spec = tmp_path / "p.json"
    spec.write_text(text)
    assert main(["solve", str(spec), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("input error: ")
    assert not (tmp_path / "out" / "solution.json").exists()


@pytest.mark.parametrize("options", [["--out", "OUT", "--grid", "abc"], [],
                                     ["--out", "OUT", "--bogus"]],
                         ids=["grid_not_int", "missing_out", "unknown_flag"])
def test_usage_error_is_input_error(tmp_path, capsys, options):
    # argparse would exit 2, the code of a missing closed form
    spec = write_spec(tmp_path / "p.json", **TIGHT_VAR)
    argv = ["solve", str(spec)] + [str(tmp_path / "out") if a == "OUT" else a
                                   for a in options]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("input error: merton-risk")
    assert not (tmp_path / "out").exists()
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("flag", ["--steps", "--dump-paths"])
def test_simulate_negative_count_names_the_flag(tmp_path, capsys, flag):
    spec = write_spec(tmp_path / "p.json", **TIGHT_VAR)
    assert main(["simulate", str(spec), "--out", str(tmp_path / "out"),
                 flag, "-1"]) == 1
    assert capsys.readouterr().err == (
        f"input error: merton-risk simulate: argument {flag}: "
        "must be non-negative, got -1\n")


def test_simulate_zero_steps_monitors_the_breakpoints(tmp_path):
    market = {"T": 1.0, "d": 1,
              "r": [{"t0": 0.0, "value": 0.02}, {"t0": 0.5, "value": 0.04}],
              "mu": [{"t0": 0.0, "value": [0.1]}],
              "sigma": [{"t0": 0.0, "value": [[0.2]]},
                        {"t0": 0.25, "value": [[0.3]]}]}
    spec = write_spec(tmp_path / "p.json", market=market, **TIGHT_VAR)
    out = tmp_path / "out"
    assert main(["simulate", str(spec), "--out", str(out), "--steps", "0",
                 "--paths", "20000"]) == 0
    with open(out / "risk_profile.csv", encoding="utf-8") as fh:
        times = [float(row["t"]) for row in csv.DictReader(fh)]
    assert times == [0.0, 0.25, 0.5, 1.0]


def test_solve_no_closed_form_exit2(tmp_path):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 0.5, "gamma2": 0.5},
                      risk={"kind": "var", "alpha": 0.01, "zeta": 0.7})
    out = tmp_path / "out"
    assert main(["solve", str(spec), "--out", str(out)]) == 2
    doc = json.loads((out / "solution.json").read_text())
    assert doc["status"] == "failed"
    assert doc["error"] == "NoClosedFormRegime"
    assert "margins" in doc


def test_solve_with_oracle_flag(tmp_path):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 1.0, "gamma2": 1.0},
                      risk={"kind": "var", "alpha": 0.01, "zeta": 0.1})
    out = tmp_path / "out"
    assert main(["solve", str(spec), "--out", str(out), "--oracle",
                 "--rho-step", "5e-3"]) == 0
    gap = json.loads((out / "oracle.json").read_text())["relative_gap"]
    assert -1e-9 <= gap < 1e-2


def test_simulate_pure_bond(tmp_path):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 1.0, "gamma2": 1.0},
                      market=market_doc(r=0.02, mu=0.02))
    out = tmp_path / "out"
    assert main(["simulate", str(spec), "--out", str(out),
                 "--paths", "20000", "--steps", "8"]) == 0
    with open(out / "risk_profile.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(row["empirical_var"]) == pytest.approx(0.0, abs=1e-12)
               for row in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cost_estimate"] == pytest.approx(
        summary["cost_closed_form"], rel=1e-12)


def test_simulate_var_linear_ratio_peaks_near_one(tmp_path):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 1.0, "gamma2": 1.0},
                      risk={"kind": "var", "alpha": 0.01, "zeta": 0.1})
    out = tmp_path / "out"
    assert main(["simulate", str(spec), "--out", str(out),
                 "--paths", "100000", "--steps", "10", "--seed", "3"]) == 0
    with open(out / "risk_profile.csv") as fh:
        rows = list(csv.DictReader(fh))
    emp = [float(row["empirical_ratio"]) for row in rows]
    closed = [float(row["ratio"]) for row in rows]
    assert max(closed) == pytest.approx(1.0, abs=1e-9)
    assert max(emp) == pytest.approx(1.0, abs=0.05)
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["cost_estimate"] - summary["cost_closed_form"]) <= \
        4 * summary["cost_std_error"]


def test_simulate_insufficient_paths_exit2(tmp_path):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 1.0, "gamma2": 1.0},
                      risk={"kind": "var", "alpha": 0.01, "zeta": 0.1})
    assert main(["simulate", str(spec), "--out", str(tmp_path / "o"),
                 "--paths", "500"]) == 2


def test_simulate_feedback_strategy(tmp_path):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 0.3, "gamma2": 0.7})
    out = tmp_path / "out"
    assert main(["simulate", str(spec), "--out", str(out),
                 "--paths", "20000", "--steps", "16"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kind"] == "feedback"
    assert abs(summary["cost_estimate"] - summary["cost_closed_form"]) <= \
        4 * summary["cost_std_error"] + 1e-3


def test_simulate_strategy_table_round_trip(tmp_path):
    spec = write_spec(tmp_path / "p.json", **TIGHT_VAR)
    solved = tmp_path / "solved"
    assert main(["solve", str(spec), "--out", str(solved)]) == 0
    out = tmp_path / "out"
    assert main(["simulate", str(spec), "--out", str(out), "--paths", "20000",
                 "--steps", "8", "--strategy", str(solved / "controls.csv")]) == 0
    summary = json.loads((out / "summary.json").read_text())
    strategy = strategy_from_csv(solved / "controls.csv",
                                 market_from_dict(market_doc()))
    utility = UtilityParams(0.5, 0.5)
    assert summary["cost_closed_form"] == pytest.approx(
        cost_closed_form(market_from_dict(market_doc()), strategy,
                         utility, 1.0), rel=1e-12)
    # the table samples the solver's rate on 201 points; the control is riskless
    value = json.loads((solved / "solution.json").read_text())["value"]
    assert summary["cost_closed_form"] == pytest.approx(value, rel=1e-4)
    assert summary["cost_estimate"] == pytest.approx(
        summary["cost_closed_form"], rel=1e-12)


def test_simulate_unbounded_regime_exit2(tmp_path):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 1.0, "gamma2": 1.0})
    out = tmp_path / "out"
    assert main(["simulate", str(spec), "--out", str(out),
                 "--paths", "20000"]) == 2
    assert not (out / "summary.json").exists()


SOLVE_FILES = {"solution.json", "controls.csv", "wealth.csv"}
FEEDBACK_FILES = SOLVE_FILES | {"p_grid.csv", "c_grid.csv"}


@pytest.mark.parametrize("utility, files", [
    ({"gamma1": 1.0, "gamma2": 1.0}, SOLVE_FILES),
    ({"gamma1": 0.3, "gamma2": 0.7}, FEEDBACK_FILES),
], ids=["unbounded", "feedback"])
def test_oracle_without_deterministic_solution_exit2(tmp_path, capsys, utility, files):
    # the solution files are written; the check that cannot run is not a pass
    spec = write_spec(tmp_path / "p.json", utility=utility)
    out = tmp_path / "out"
    assert main(["solve", str(spec), "--out", str(out), "--oracle"]) == 2
    assert "deterministic-class solution" in capsys.readouterr().err
    assert {p.name for p in out.glob("*")} == files


EXIT2_PATHS = {
    "verify_tolerance": (
        {"gamma1": 0.5, "gamma2": 0.5},
        ["verify", "--nt", "5", "--nx", "5", "--residual-tol", "0",
         "--terminal-tol", "0", "--gap-tol", "0"],
        "verification tolerances exceeded: residual=",
        {"hjb_report.json", "hjb_residuals.csv"}),
    "simulate_unbounded": (
        {"gamma1": 1.0, "gamma2": 1.0}, ["simulate", "--paths", "20000"],
        "unsupported solution: cannot simulate an unbounded regime\n", set()),
    "oracle_feedback": (
        {"gamma1": 0.3, "gamma2": 0.7}, ["solve", "--oracle"],
        "unsupported solution: oracle needs a deterministic-class solution\n",
        FEEDBACK_FILES),
}


@pytest.mark.parametrize("path", EXIT2_PATHS)
def test_exit2_paths_go_through_exit_codes(tmp_path, capsys, path):
    # each exit-2 path raises a typed error that main maps to one stderr line
    utility, argv, stderr, files = EXIT2_PATHS[path]
    spec = write_spec(tmp_path / "p.json", utility=utility,
                      market=market_doc(r=0.03))
    out = tmp_path / "out"
    assert main([argv[0], str(spec), "--out", str(out), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(stderr)
    assert {p.name for p in out.glob("*")} == files


# exception class -> (exit code, stderr label) with which main reports it
EXIT_CONTRACT = {
    "MertonRiskError": (1, "input error"),
    "InputError": (1, "input error"),
    "NegativeArgument": (1, "input error"),
    "ConvergenceFailure": (1, "input error"),
    "NegativeRate": (1, "input error"),
    "UnsupportedRegime": (1, "input error"),
    "EmptyFeasibleSet": (1, "input error"),
    "NoClosedForm": (2, "no closed-form solution"),
    "HypothesisViolated": (2, "no closed-form solution"),
    "ConditionViolated": (2, "no closed-form solution"),
    "NoClosedFormRegime": (2, "no closed-form solution"),
    "InsufficientPaths": (2, "insufficient paths"),
    "UnsupportedSolution": (2, "unsupported solution"),
    "ToleranceExceeded": (2, "verification tolerances exceeded"),
    "ValueError": (1, "input error"),
    "OSError": (1, "input error"),
}
ERROR_ARGS = {"ConditionViolated": ("cond", -1.0), "NoClosedFormRegime": ({"m": -1.0},)}
# every class errors.py defines: a new one fails here until its code is decided
ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if cls.__module__ == errors.__name__] + [ValueError, OSError]
# refusals that once had a class each and are now InputError, by their old
# name and one message each raised; the message reaches stderr word for word
FOLDED_REFUSALS = {
    "MismatchedPaths": "first breakpoint must be t = 0",
    "SingularVolatility": "sigma block starting at t=0 has relative condition "
                          "0 < 1e-10",
    "AlphaOutOfRange": "alpha must lie in (0, 1/2), got 0.7",
    "GridTouchesBreakpoint": "t = 0.5 coincides with a coefficient breakpoint",
}
EXIT_CASES = ([pytest.param(cls, None, id=cls.__name__) for cls in ERROR_CLASSES]
              + [pytest.param(errors.InputError, message, id=name)
                 for name, message in FOLDED_REFUSALS.items()])


@pytest.mark.parametrize("cls, message", EXIT_CASES)
def test_exit_code_and_label_per_exception_class(tmp_path, capsys, monkeypatch,
                                                 cls, message):
    code, label = EXIT_CONTRACT[cls.__name__]
    if message is None:
        exc = cls(*ERROR_ARGS.get(cls.__name__, ("injected",)))
    else:
        exc = cls(message)

    def fail(spec):
        raise exc

    monkeypatch.setattr(cli, "_solve", fail)
    spec = write_spec(tmp_path / "p.json", **TIGHT_VAR)
    assert main(["solve", str(spec), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(label + ": ")
    if message is not None:
        assert err == f"{label}: {message}\n"


def test_module_entry_point_exit_codes(tmp_path):
    # python -m merton_risk.cli goes through sys.exit(main()), which the
    # in-process tests never reach
    golden = Path(__file__).resolve().parent / "golden"
    src = str(Path(merton_risk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    cases = [(["--help"], 0, ""),
             (["solve", str(golden / "var_tight" / "problem.json"), "--out",
               str(tmp_path / "bad"), "--grid", "-1"], 1, "input error: "),
             (["solve", str(golden / "var_refused" / "problem.json"), "--out",
               str(tmp_path / "refused")], 2, "no closed-form solution: ")]
    for argv, code, prefix in cases:
        run = subprocess.run([sys.executable, "-m", "merton_risk.cli", *argv],
                             env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == code, run.stderr
        if code == 0:
            assert run.stdout.startswith("usage: merton-risk") and run.stderr == ""
        else:
            assert run.stderr.count("\n") == 1 and run.stderr.startswith(prefix)
    assert (tmp_path / "refused" / "solution.json").exists()
    assert not (tmp_path / "bad").exists()


class ScaledTerminalFeedback(unconstrained.HaraFeedback):
    """The feedback law with A2 (and so its derivative) scaled by 1.01."""

    def A2(self, t):
        return 1.01 * super().A2(t)


def test_verify_ok_and_corrupted(tmp_path, monkeypatch):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 0.5, "gamma2": 0.5},
                      market=market_doc(r=0.03))
    out = tmp_path / "out"
    assert main(["verify", str(spec), "--out", str(out),
                 "--nt", "20", "--nx", "20"]) == 0
    rep = json.loads((out / "hjb_report.json").read_text())
    assert rep["max_abs_residual"] < 1e-7
    assert rep["terminal_error"] < 1e-12
    # fault injection: scaled terminal growth coefficient must trip the gate
    solve = unconstrained.solve_hara_unconstrained

    def corrupted(model, utility, x):
        sol = solve(model, utility, x)
        feedback = ScaledTerminalFeedback.build(model, utility, x)
        return dataclasses.replace(sol, feedback=feedback)

    monkeypatch.setattr(unconstrained, "solve_hara_unconstrained", corrupted)
    out2 = tmp_path / "out2"
    assert main(["verify", str(spec), "--out", str(out2),
                 "--nt", "20", "--nx", "20"]) == 2
    rep2 = json.loads((out2 / "hjb_report.json").read_text())
    assert rep2["terminal_error"] > 1e-12


def test_verify_grid_touches_breakpoint_exit1(tmp_path):
    market = {
        "T": 1.0, "d": 1,
        "r": [{"t0": 0.0, "value": 0.02}, {"t0": 0.5, "value": 0.04}],
        "mu": [{"t0": 0.0, "value": [0.08]}],
        "sigma": [{"t0": 0.0, "value": [[0.2]]}],
    }
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 0.5, "gamma2": 0.5}, market=market)
    assert main(["verify", str(spec), "--out", str(tmp_path / "o"),
                 "--t-nodes", "0.25,0.5,0.75"]) == 1


def test_verify_reports_excluded_breakpoints(tmp_path):
    market = {
        "T": 1.0, "d": 1,
        "r": [{"t0": 0.0, "value": 0.02}, {"t0": 0.5, "value": 0.04}],
        "mu": [{"t0": 0.0, "value": [0.08]}],
        "sigma": [{"t0": 0.0, "value": [[0.2]]}],
    }
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 0.5, "gamma2": 0.3}, market=market)
    out = tmp_path / "out"
    assert main(["verify", str(spec), "--out", str(out),
                 "--nt", "20", "--nx", "20"]) == 0
    rep = json.loads((out / "hjb_report.json").read_text())
    assert rep["excluded_times"] == [0.5]


def test_verify_rejects_linear_utility(tmp_path):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 1.0, "gamma2": 1.0})
    assert main(["verify", str(spec), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("grid", [
    ["--nx", "0"], ["--nt", "0"], ["--t-nodes", "abc"],
    ["--t-nodes", "0.3,nan"], ["--t-nodes", "5.0"], ["--t-nodes", "-0.5"],
    ["--residual-tol", "nan"], ["--terminal-tol", "-1"], ["--gap-tol", "inf"],
    ["--t-nodes", ""], ["--t-nodes", "0,0.5"], ["--seed", "-1"],
], ids=["nx0", "nt0", "abc", "nan", "beyond_T", "negative", "nan_residual_tol",
        "negative_terminal_tol", "inf_gap_tol", "empty", "zero", "negative_seed"])
def test_verify_bad_grid_is_input_error(tmp_path, capsys, grid):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 0.5, "gamma2": 0.3},
                      market=market_doc(r=0.03))
    assert main(["verify", str(spec), "--out", str(tmp_path / "o")]
                + grid) == 1
    assert not (tmp_path / "o" / "hjb_report.json").exists()
    # a value refused for its own sake names its flag; T is known only later
    err = capsys.readouterr().err
    if grid != ["--t-nodes", "5.0"]:
        assert f"argument {grid[0]}: " in err
    if grid[1] in ("abc", ""):
        assert f"argument --t-nodes: must be comma-separated numbers, got {grid[1]}\n" \
            in err


def test_round_trip_strategy_reproduces_profile(tmp_path):
    spec_path = write_spec(tmp_path / "p.json",
                           utility={"gamma1": 1.0, "gamma2": 1.0},
                           risk={"kind": "var", "alpha": 0.01, "zeta": 0.1})
    out = tmp_path / "out"
    assert main(["solve", str(spec_path), "--out", str(out)]) == 0
    model = market_from_dict(market_doc())
    strategy = strategy_from_csv(out / "controls.csv", model)
    spec = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    prof = constraint_profile(model, strategy, spec, 1.0,
                              np.linspace(0.0, model.horizon, 10_000))
    assert max_ratio(prof) == pytest.approx(1.0, abs=1e-9)
    assert satisfied(prof, 1e-9)


@pytest.mark.parametrize("risk", [{"kind": "var", "alpha": 0.01, "zeta": 0.1},
                                  {"kind": "es", "alpha": 0.01, "zeta": 0.999}],
                         ids=["riskless", "risky"])
def test_simulate_estimate_within_std_errors(tmp_path, risk):
    # the tight law is riskless (a zero standard error); the loose one is not
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 0.5, "gamma2": 0.5}, risk=risk)
    out = tmp_path / "out"
    assert main(["simulate", str(spec), "--out", str(out),
                 "--paths", "20000", "--seed", "7"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["cost_estimate"] - summary["cost_closed_form"]) <= \
        4 * summary["cost_std_error"] + 1e-9


def test_simulate_dump_paths(tmp_path):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 1.0, "gamma2": 1.0},
                      risk={"kind": "var", "alpha": 0.01, "zeta": 0.1})
    out = tmp_path / "out"
    assert main(["simulate", str(spec), "--out", str(out),
                 "--paths", "20000", "--steps", "4",
                 "--dump-paths", "3"]) == 0
    with open(out / "paths.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["path_id"] for row in rows} == {"0", "1", "2"}
    assert all(float(row["X"]) > 0 for row in rows)


def test_outputs_deterministic_given_seed(tmp_path):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 1.0, "gamma2": 1.0},
                      risk={"kind": "var", "alpha": 0.01, "zeta": 0.1})
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", str(spec), "--out", str(out),
                     "--paths", "20000", "--steps", "6", "--seed", "5"]) == 0
        outs.append(((out / "summary.json").read_text(),
                     (out / "risk_profile.csv").read_text()))
    assert outs[0] == outs[1]


def test_simulate_takes_the_largest_seed(tmp_path):
    # seeds are pinned to [0, 2**128): -1 and 2**128 are input errors
    spec = write_spec(tmp_path / "p.json", **TIGHT_VAR)
    out = tmp_path / "out"
    assert main(["simulate", str(spec), "--out", str(out), "--paths", "20000",
                 "--steps", "4", "--seed", str(2 ** 128 - 1)]) == 0
    assert json.loads((out / "summary.json").read_text())["seed"] == 2 ** 128 - 1


def test_oracle_command(tmp_path):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 1.0, "gamma2": 1.0},
                      risk={"kind": "es", "alpha": 0.01, "zeta": 0.1})
    out = tmp_path / "out"
    assert main(["solve", str(spec), "--out", str(out), "--oracle",
                 "--rho-step", "2e-3"]) == 0
    doc = json.loads((out / "oracle.json").read_text())
    assert -1e-9 <= doc["relative_gap"] < 5e-3
    assert (out / "oracle.csv").exists()


def test_readme_cli_block_matches_the_parser():
    # README's usage block shows every subcommand and every option of each,
    # and no other; a flag that takes a value and has a default shows it,
    # and a switch shows none
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    shown = {text.split()[0]: dict(re.findall(r"(--[a-z][a-z-]*)(?: ([^\s\[\]]+))?", text))
             for text in re.split(r"^merton-risk ", block, flags=re.M)[1:]}
    sub, = (action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
    assert set(shown) == set(sub.choices)
    for command, flags in shown.items():
        actions = {action.option_strings[-1]: action
                   for action in sub.choices[command]._actions
                   if action.option_strings and action.dest != "help"}
        assert set(flags) == set(actions), command
        for flag, action in actions.items():
            if action.nargs == 0:
                assert flags[flag] == "", flag
            elif action.default is not None:
                assert action.type(flags[flag]) == action.default, flag
            elif action.type is not None:
                # a shown value with no default must be one the flag takes
                action.type(flags[flag])


STARTUP_SCRIPT = """
import json, sys, types
from merton_risk.cli import main
spec, out, command = sys.argv[1:]
argv = {"solve": ["solve"], "solve --oracle": ["solve", "--oracle", "--rho-step", "5e-3"],
        "verify": ["verify"], "simulate": ["simulate", "--paths", "2000"]}[command]
assert main([argv[0], spec, "--out", out, *argv[1:]]) == 0
# a lazily loaded module sits in sys.modules before it runs, as an instance
# of a ModuleType subclass, and becomes a plain module when it runs
ran = [name for name in ("mc", "oracle", "hjb")
       if type(sys.modules["merton_risk." + name]) is types.ModuleType]
print(json.dumps({"scipy": sorted(name for name in sys.modules
                                  if name.split(".")[0] == "scipy"),
                  "numpy.ma": "numpy.ma" in sys.modules, "ran": ran}))
"""


def test_solve_and_verify_import_no_scipy(tmp_path):
    # each command in a fresh interpreter: this test process has scipy,
    # numpy.ma and every module loaded already.  No command loads scipy or
    # numpy.ma, and each runs only the verification module it uses.
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 0.5, "gamma2": 0.5},
                      risk={"kind": "es", "alpha": 0.05, "zeta": 0.1})
    src = str(Path(merton_risk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    modules = {"solve": [], "solve --oracle": ["oracle"], "verify": ["hjb"],
               "simulate": ["mc"]}
    for command, ran in modules.items():
        out = tmp_path / command.replace(" --", "_")
        run = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, str(spec),
                              str(out), command],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout) == {"scipy": [], "numpy.ma": False,
                                          "ran": ran}, command
    assert (tmp_path / "simulate" / "summary.json").exists()
    assert (tmp_path / "solve_oracle" / "oracle.json").exists()


def test_package_import_loads_no_submodule(tmp_path):
    # the package holds only its version; each name lives in its own module
    src = str(Path(merton_risk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    script = ("import sys, merton_risk; print(merton_risk.__version__); "
              "print(sorted(m for m in sys.modules if m.startswith('merton_risk.')))")
    run = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[:2] == [merton_risk.__version__, "[]"]


def test_benchmark_tracer_installs_on_every_target():
    # perfbench/tracing.py wraps its layers' functions and methods by name;
    # a renamed or removed target must fail here, not in a traced benchmark run
    root = Path(__file__).resolve().parents[1]
    src = str(Path(merton_risk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    script = ("import sys, merton_risk.cli; "
              f"sys.path.insert(0, {str(root / 'perfbench')!r}); "
              "from tracing import Tracer; Tracer().install(); "
              "from merton_risk.solution import Solution; "
              "cli = merton_risk.cli; "
              "print(*(hasattr(f, '__wrapped__') for f in (Solution.write_json, "
              "cli.mc.simulate_deterministic, cli.oracle.grid_search_oracle, "
              "cli.hjb.hjb_residual)))")
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    # the verification modules load lazily: the functions the commands call
    # through cli's bindings must be the traced ones
    assert run.stdout.split() == ["True"] * 4


def test_benchmark_tracer_counts_the_oracle_csv_rows(tmp_path):
    # the tracer counts the oracle's candidates by len(records) and its
    # feasible ones by each record's .feasible; both must be oracle.csv's rows
    root = Path(__file__).resolve().parents[1]
    src = str(Path(merton_risk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    problem = root / "tests" / "golden" / "var_tight" / "problem.json"
    script = ("import json, sys, merton_risk.cli; "
              f"sys.path.insert(0, {str(root / 'perfbench')!r}); "
              "from tracing import Tracer; tracer = Tracer(); tracer.install(); "
              "code = merton_risk.cli.main(['solve', sys.argv[1], '--out', sys.argv[2], "
              "'--grid', '21', '--oracle']); "
              "print(json.dumps([code, tracer.counts['oracle.candidates'], "
              "tracer.counts['oracle.feasible']]))")
    run = subprocess.run([sys.executable, "-c", script, str(problem), str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    code, candidates, feasible = json.loads(run.stdout)
    with open(tmp_path / "oracle.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert code == 0 and candidates > 0
    assert candidates == len(rows)
    assert feasible == sum(row["feasible"] == "1" for row in rows)
    assert 0 < feasible < candidates
