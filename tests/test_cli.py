"""Batch front-end: exit codes, output files, round trips."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from merton_risk import MeasureKind, RiskSpec, constraint_profile, unconstrained
from merton_risk.cli import main, strategy_from_csv
from merton_risk.market import market_from_dict


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


@pytest.mark.parametrize("patch, command", [
    ({"utility": 5}, ["solve"]),
    ({"x0": None}, ["solve"]),
    ({"x0": [1]}, ["solve"]),
    ({"risk": 3}, ["solve"]),
    ({"utility": {"gamma1": None, "gamma2": 0.5}}, ["solve"]),
    ({}, ["solve", "--oracle", "--rho-step", "0"]),
    ({}, ["solve", "--oracle", "--rho-step", "nan"]),
    ({}, ["solve", "--oracle", "--rho-step", "-0.001"]),
    ({}, ["oracle", "--rho-step", "0"]),
    ({}, ["simulate", "--strategy", "missing.csv"]),
    ({}, ["simulate", "--paths", "0"]),
    ({}, ["solve", "--mc-paths", "1"]),
    ({}, ["solve", "--grid", "-1"]),
], ids=["utility_number", "x0_null", "x0_list", "risk_number", "gamma1_null",
        "rho_step_zero", "rho_step_nan", "rho_step_negative",
        "oracle_rho_step_zero", "missing_strategy_file", "zero_paths",
        "one_mc_path", "negative_grid"])
def test_malformed_input_is_input_error(tmp_path, capsys, patch, command):
    spec = tmp_path / "p.json"
    spec.write_text(json.dumps({"market": market_doc(), "x0": 1.0,
                                **TIGHT_VAR, **patch}))
    options = [str(tmp_path / a) if a.endswith(".csv") else a
               for a in command[1:]]
    argv = [command[0], str(spec), "--out", str(tmp_path / "out")] + options
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("input error: ")


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


class ScaledTerminalCoeffs:
    """Growth coefficients with A2 (and its derivative) scaled by a factor."""

    def __init__(self, inner, factor: float):
        self._inner = inner
        self._factor = factor

    def A1(self, t):
        return self._inner.A1(t)

    def A2(self, t):
        return self._factor * self._inner.A2(t)

    def A1_dot(self, t):
        return self._inner.A1_dot(t)

    def A2_dot(self, t):
        return self._factor * self._inner.A2_dot(t)

    def beta_at(self, t, which):
        return self._inner.beta_at(t, which)


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
        feedback = unconstrained.HaraFeedback(
            model=model, utility=utility,
            coeffs=ScaledTerminalCoeffs(sol.feedback.coeffs, 1.01), x0=x)
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
], ids=["nx0", "nt0", "abc", "nan", "beyond_T", "negative"])
def test_verify_bad_grid_is_input_error(tmp_path, grid):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 0.5, "gamma2": 0.3},
                      market=market_doc(r=0.03))
    assert main(["verify", str(spec), "--out", str(tmp_path / "o")]
                + grid) == 1


def test_round_trip_strategy_reproduces_profile(tmp_path):
    spec_path = write_spec(tmp_path / "p.json",
                           utility={"gamma1": 1.0, "gamma2": 1.0},
                           risk={"kind": "var", "alpha": 0.01, "zeta": 0.1})
    out = tmp_path / "out"
    assert main(["solve", str(spec_path), "--out", str(out)]) == 0
    model = market_from_dict(market_doc())
    strategy = strategy_from_csv(out / "controls.csv", model)
    spec = RiskSpec(alpha=0.01, zeta=0.1, kind=MeasureKind.VAR)
    prof = constraint_profile(model, strategy, spec, 1.0)
    assert prof.max_ratio == pytest.approx(1.0, abs=1e-9)
    assert prof.satisfied(1e-9)


def test_solve_with_mc_check(tmp_path):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 0.5, "gamma2": 0.5},
                      risk={"kind": "var", "alpha": 0.01, "zeta": 0.1})
    out = tmp_path / "out"
    assert main(["solve", str(spec), "--out", str(out),
                 "--mc-paths", "5000", "--seed", "7"]) == 0
    doc = json.loads((out / "solution.json").read_text())
    chk = doc["mc_check"]
    assert abs(chk["estimate"] - doc["value"]) <= \
        4 * chk["std_error"] + 1e-9


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


def test_oracle_command(tmp_path):
    spec = write_spec(tmp_path / "p.json",
                      utility={"gamma1": 1.0, "gamma2": 1.0},
                      risk={"kind": "es", "alpha": 0.01, "zeta": 0.1})
    out = tmp_path / "out"
    assert main(["oracle", str(spec), "--out", str(out),
                 "--rho-step", "2e-3"]) == 0
    doc = json.loads((out / "oracle.json").read_text())
    assert -1e-9 <= doc["relative_gap"] < 5e-3
    assert (out / "oracle.csv").exists()
