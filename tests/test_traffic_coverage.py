"""tools/traffic_coverage.py on the smallest mix it takes: one round of
oracle_xcheck, three ``solve --oracle`` tasks."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLI = ROOT / "src" / "merton_risk" / "cli.py"


def _statement_lines(name: str) -> list:
    """First line of each statement in the body of cli.py's function name,
    its docstring left out."""
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    func, = (node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == name)
    return sorted(node.lineno for stmt in func.body for node in ast.walk(stmt)
                  if isinstance(node, ast.stmt) and not (
                      isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)))


def test_one_round_runs_cmd_solve_and_not_strategy_from_csv():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "traffic_coverage.py"),
                          "--mix", "oracle_xcheck:0:0", "--show", "cli"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stderr == "3 commands\n"
    table, listing = run.stdout.split("\nnever run in cli.py:\n")
    counts = {row.split()[0]: (int(row.split()[1]), int(row.split()[3]))
              for row in table.splitlines()}
    assert {path.stem for path in CLI.parent.glob("*.py")} | {"total"} == set(counts)
    assert 0 < counts["cli"][0] < counts["cli"][1]
    assert counts["total"] == tuple(map(sum, zip(*(v for k, v in counts.items()
                                                    if k != "total"))))
    never = {int(row.split()[0]) for row in listing.splitlines()}
    # solve --oracle writes a solution and its oracle files; nothing reads a
    # strategy table
    assert never.isdisjoint(_statement_lines("_write_oracle"))
    assert _statement_lines("cmd_solve")[0] not in never
    assert set(_statement_lines("strategy_from_csv")) <= never
