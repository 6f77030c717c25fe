"""Golden outputs: every file the CLI writes for a fixed set of problems.

The cases, which commands run on which problem under ``tests/golden/``, are
listed in ``golden_cases.py``. The files written, the exit codes and the
stderr labels must match the committed expected outputs:

- labels, regimes, exit codes and other text exactly;
- JSON numbers within 1e-12 relative;
- CSV fields within one unit in their 12th significant digit;
- error measures (HJB residuals, terminal error, Hamiltonian gap), whose
  values are rounding noise, within 1e-12 absolute, the gate they meet.

After a deliberate change of output, rewrite the expected files with
``PYTHONPATH=src python tests/test_golden.py --regenerate``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from decimal import Decimal, InvalidOperation
from pathlib import Path

import pytest

from merton_risk.cli import main

from conftest import strict_json
from golden_cases import (COMMANDS, GOLDEN, ORACLE, ORACLE_PROBLEMS, PROBLEMS, SIMULATE,
                          SIMULATE_PROBLEMS, STRATEGY, cases)

JSON_RTOL = 1e-12
ERROR_ATOL = 1e-12
ERROR_FIELDS = {"max_abs_residual", "terminal_error", "hamiltonian_gap", "residual"}


def run_problem(name: str, out: Path, commands: dict) -> dict:
    """Run each command on one problem into out/<run>; returns {run: [exit code, label]}."""
    codes = {}
    for run, (command, *options) in commands.items():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, str(GOLDEN / name / "problem.json"),
                         "--out", str(out / run)] + options)
        codes[run] = [code, err.getvalue().split(":")[0]]
    return codes


def _close(a: float, b: float, rtol: float) -> bool:
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def compare_json(got, want, key: str = "") -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), key
        for k in want:
            compare_json(got[k], want[k], k)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), key
        for g, w in zip(got, want):
            compare_json(g, w, key)
    elif isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), key
        if key in ERROR_FIELDS:
            assert abs(got - want) <= ERROR_ATOL, (key, got, want)
        else:
            assert _close(got, want, JSON_RTOL), (key, got, want)
    else:
        assert type(got) is type(want) and got == want, (key, got, want)


def _csv_field_matches(got: str, want: str, column: str) -> bool:
    if got == want:
        return True
    try:                      # exact decimal values of the printed fields
        a, b = Decimal(got), Decimal(want)
    except InvalidOperation:
        return False
    if not (a.is_finite() and b.is_finite()):
        return False
    if column in ERROR_FIELDS:
        return abs(a - b) <= Decimal(ERROR_ATOL)
    unit = Decimal(1).scaleb(max(abs(a), abs(b)).adjusted() - 11)
    return abs(a - b) <= unit


def compare_csv(got: str, want: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert got_lines[:1] == want_lines[:1] and len(got_lines) == len(want_lines)
    header = want_lines[0].split(",")
    for n, (g, w) in enumerate(zip(got_lines[1:], want_lines[1:]), start=2):
        g_fields, w_fields = g.split(","), w.split(",")
        assert len(g_fields) == len(w_fields), f"line {n}"
        for column, gf, wf in zip(header, g_fields, w_fields):
            assert _csv_field_matches(gf, wf, column), (f"line {n}", column, gf, wf)


def compare_outputs(got_dir: Path, want_dir: Path) -> None:
    got_files = sorted(p.relative_to(got_dir) for p in got_dir.rglob("*") if p.is_file())
    want_files = sorted(p.relative_to(want_dir) for p in want_dir.rglob("*") if p.is_file())
    assert got_files == want_files
    for rel in want_files:
        got, want = (got_dir / rel).read_text(), (want_dir / rel).read_text()
        if rel.suffix == ".json":
            compare_json(strict_json(got), strict_json(want))
        else:
            compare_csv(got, want)


def check_case(base: Path, name: str, commands: dict, out: Path) -> None:
    codes = run_problem(name, out, commands)
    assert codes == json.loads((base / "exit_codes.json").read_text())
    compare_outputs(out, base / "expected")


@pytest.mark.parametrize("name", PROBLEMS)
def test_golden_outputs(tmp_path, name):
    check_case(GOLDEN / name, name, COMMANDS, tmp_path)


@pytest.mark.parametrize("name", SIMULATE_PROBLEMS)
def test_golden_simulate_outputs(tmp_path, name):
    check_case(GOLDEN / name / "simulate", name, SIMULATE, tmp_path)


@pytest.mark.parametrize("name", ORACLE_PROBLEMS)
def test_golden_oracle_outputs(tmp_path, name):
    check_case(GOLDEN / name / "oracle", name, ORACLE, tmp_path)


def test_golden_strategy_outputs(tmp_path):
    check_case(GOLDEN / "var_tight" / "strategy", "var_tight", STRATEGY, tmp_path)


def regenerate() -> None:
    for base, name, commands in cases():
        shutil.rmtree(base / "expected", ignore_errors=True)
        codes = run_problem(name, base / "expected", commands)
        with open(base / "exit_codes.json", "w", encoding="utf-8") as fh:
            json.dump(codes, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__" and sys.argv[1:] == ["--regenerate"]:
    regenerate()
