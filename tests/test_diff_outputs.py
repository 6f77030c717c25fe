"""Tree comparison of tools/diff_outputs.py on small hand-written trees,
and the steps of its ``golden`` mix entry.

Only the comparison, report and mix functions are called: no command is run.
"""

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("diff_outputs", ROOT / "tools" / "diff_outputs.py")
diff_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_outputs)


def _write(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_relative_difference():
    assert diff_outputs.relative(2.0, 2.0) == 0.0
    assert diff_outputs.relative(math.nan, math.nan) == 0.0
    assert diff_outputs.relative(math.inf, math.inf) == 0.0
    assert diff_outputs.relative(1.0, math.nan) == math.inf
    assert diff_outputs.relative(-math.inf, 1.0) == math.inf
    assert diff_outputs.relative(4.0, 5.0) == 0.2
    assert diff_outputs.field_difference("1 2", "1 2.5") == 0.2
    assert diff_outputs.field_difference("1 2", "1") == math.inf
    assert diff_outputs.field_difference("a", "b") == math.inf


def test_compare_trees_per_key_and_column(tmp_path):
    same = {"t0/out/solution.json": '{"value": 1.5, "regime": "var_tight"}\n',
            "t0/out/wealth.csv": "t,mean\n0,1\n1,1.1\n"}
    parent = _write(tmp_path / "parent", {
        **same,
        "t1/out/oracle.json": '{"oracle_best": 2.0, "relative_gap": 1e-3, '
                              '"curve": [1.0, 4.0], "note": "a"}\n',
        "t1/out/oracle.csv": "label,rho,v_levels,cost\nx,0.5,1 2,3\ny,0.25,1 4,nan\n",
        "t1/out/notes.txt": "one\n",
        "t2/out/gone.json": "{}\n",
    })
    change = _write(tmp_path / "change", {
        **same,
        "t1/out/oracle.json": '{"oracle_best": 2.0, "relative_gap": 1.001e-3, '
                              '"curve": [1.0, 5.0], "note": "b"}\n',
        "t1/out/oracle.csv": "label,rho,v_levels,cost\nx,0.5,1 2.5,3\ny,0.25,1 4,nan\n",
        "t1/out/notes.txt": "two\n",
        "t3/out/new.json": "{}\n",
    })
    diffs = diff_outputs.compare_trees(parent, change)
    assert set(diffs) == {"t1/out/oracle.json", "t1/out/oracle.csv", "t1/out/notes.txt",
                          "t2/out/gone.json", "t3/out/new.json"}
    json_diff = diffs["t1/out/oracle.json"]
    assert set(json_diff) == {"relative_gap", "curve", "note"}
    assert json_diff["relative_gap"] == pytest.approx(1e-3 / 1.001)
    assert json_diff["curve"] == pytest.approx(0.2)
    assert json_diff["note"] == math.inf
    assert diffs["t1/out/oracle.csv"] == {"v_levels": 0.2}
    assert diffs["t1/out/notes.txt"] == {"(bytes)": math.inf}
    assert diffs["t2/out/gone.json"] == {"(only in parent)": math.inf}
    assert diffs["t3/out/new.json"] == {"(only in change)": math.inf}


def test_csv_row_count_and_report_status(tmp_path, capsys):
    parent = _write(tmp_path / "parent", {"a.csv": "t,v\n0,1\n1,2\n"})
    change = _write(tmp_path / "change", {"a.csv": "t,v\n0,1\n"})
    diffs = diff_outputs.compare_trees(parent, change)
    assert diffs == {"a.csv": {"(header or row count)": math.inf}}
    assert diff_outputs.report({"x.json": {"value": 1e-15}}, 1e-12, 3) == 0
    assert diff_outputs.report({"x.json": {"value": 1e-15}}, 0.0, 3) == 1
    assert diff_outputs.report({}, 0.0, 3) == 0
    out = capsys.readouterr().out
    assert "3 files compared, 1 differ" in out and "3 files compared, 0 differ" in out


def test_signed_zero_differs_in_bytes(tmp_path):
    # -0 and 0 are equal numbers, so only the byte comparison reports them
    parent = _write(tmp_path / "parent", {"controls.csv": "t,pi_1\n0,0\n",
                                          "solution.json": '{"value": 0.0}\n'})
    change = _write(tmp_path / "change", {"controls.csv": "t,pi_1\n0,-0\n",
                                          "solution.json": '{"value": -0.0}\n'})
    assert diff_outputs.compare_trees(parent, change) == {
        "controls.csv": {"(bytes)": math.inf}, "solution.json": {"(bytes)": math.inf}}


def test_report_prints_absolute_beside_relative(tmp_path, capsys):
    # a residual near 3e-16 that moves by 19% relative moves by 6e-17
    parent = _write(tmp_path / "parent", {
        "hjb_report.json": '{"max_abs_residual": 3.1e-16, "n_t": 5, "note": "a"}\n',
        "wealth.csv": "t,wealth_mean\n0,1.5\n1,1000\n"})
    change = _write(tmp_path / "change", {
        "hjb_report.json": '{"max_abs_residual": 2.5e-16, "n_t": 5, "note": "b"}\n',
        "wealth.csv": "t,wealth_mean\n0,1.6\n1,1000.5\n"})
    rel = diff_outputs.compare_trees(parent, change)
    ab = diff_outputs.compare_trees(parent, change, metric=diff_outputs.absolute)
    assert rel["hjb_report.json"]["max_abs_residual"] == pytest.approx(0.06 / 0.31)
    assert ab["hjb_report.json"] == {"max_abs_residual": pytest.approx(6e-17),
                                     "note": math.inf}
    # the largest absolute and relative differences may come from different rows
    assert rel["wealth.csv"] == {"wealth_mean": pytest.approx(0.1 / 1.6)}
    assert ab["wealth.csv"] == {"wealth_mean": pytest.approx(0.5)}
    assert diff_outputs.absolute(1.0, math.nan) == math.inf
    assert diff_outputs.absolute(math.nan, math.nan) == 0.0
    assert diff_outputs.report(rel, 0.0, 2, ab) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["max_abs_residual", "0.194", "(abs", "6e-17)"]
    assert lines[2].split() == ["note", "inf", "(abs", "inf)"]
    assert lines[4].split() == ["wealth_mean", "0.0625", "(abs", "0.5)"]


def test_golden_mix_runs_every_golden_case(tmp_path):
    # the commands of tests/test_golden.py, flags the benchmark's mix never
    # passes included, on the committed problem files
    steps = diff_outputs.write_mix(["golden"], tmp_path / "docs")
    golden = ROOT / "tests" / "golden"
    problems = sorted(p.parent.name for p in golden.glob("*/problem.json"))
    by_step = {(str(task_dir), name): head + tail for task_dir, name, head, tail in steps}
    assert len(by_step) == len(steps) == 2 * len(problems) + 3 * 2 + 7 + 1
    for name in problems:
        assert by_step[(f"golden/{name}", "solve")] == [
            "solve", str(golden / name / "problem.json"), "--grid", "21"]
        assert by_step[(f"golden/{name}", "verify")][0] == "verify"
    assert "--antithetic" in by_step[("golden/var_loose/simulate", "antithetic")]
    for name in ("es_linear", "var_loose", "es_loose", "unconstrained_equal"):
        assert "--oracle" in by_step[(f"golden/{name}/oracle", "oracle")]
    strategy = by_step[("golden/var_tight/strategy", "plain")]
    assert strategy[:2] == ["simulate", str(golden / "var_tight" / "problem.json")]
    assert strategy[-2:] == ["--strategy",
                             str(golden / "var_tight" / "expected" / "solve" / "controls.csv")]
    assert not (tmp_path / "docs").exists()
