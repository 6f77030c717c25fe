"""The golden cases: which commands run on which problem under ``tests/golden/``.

Every problem runs through COMMANDS; three of them (riskless tight, risky
loose and the feedback optimum) also through SIMULATE, plain and antithetic,
with results under ``<problem>/simulate/``; seven problems (VaR and ES,
tight, linear and loose, and the unconstrained equal-gamma optimum) through
ORACLE, under ``<problem>/oracle/``; and
``var_tight`` through STRATEGY, which simulates its committed ``solve``
controls.csv with the plain SIMULATE flags, under ``var_tight/strategy/``.

``tests/test_golden.py`` checks the cases against their expected outputs,
and ``tools/diff_outputs.py`` runs them on two trees (its ``golden`` mix
entry). This module imports nothing of the package.
"""

from __future__ import annotations

from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = {"solve": ["solve", "--grid", "21"],
            "verify": ["verify", "--nt", "5", "--nx", "5"]}
# 70,001 paths cross a 65,536-path block of the SFC64 stream keyed by
# (seed, block), and end in a partial chunk
_SIMULATE = ["simulate", "--paths", "70001", "--steps", "8", "--seed", "5",
             "--dump-paths", "40"]
SIMULATE = {"plain": _SIMULATE, "antithetic": _SIMULATE + ["--antithetic"]}
SIMULATE_PROBLEMS = ["var_tight", "var_loose", "unconstrained_unequal"]
ORACLE = {"oracle": COMMANDS["solve"] + ["--oracle"]}
ORACLE_PROBLEMS = ["var_tight", "es_tight_unequal", "var_linear", "es_linear",
                   "var_loose", "es_loose", "unconstrained_equal"]
STRATEGY = {"plain": _SIMULATE + [
    "--strategy", str(GOLDEN / "var_tight" / "expected" / "solve" / "controls.csv")]}
PROBLEMS = sorted(p.name for p in GOLDEN.iterdir() if (p / "problem.json").is_file())


def cases() -> list:
    """(case directory, problem name, {run: argv without the document and
    --out}) of every case, each problem's own case before the cases that
    read its expected outputs.  A case directory holds exit_codes.json and
    the expected outputs of each run under expected/<run>/."""
    return ([(GOLDEN / name, name, COMMANDS) for name in PROBLEMS]
            + [(GOLDEN / name / "simulate", name, SIMULATE) for name in SIMULATE_PROBLEMS]
            + [(GOLDEN / name / "oracle", name, ORACLE) for name in ORACLE_PROBLEMS]
            + [(GOLDEN / "var_tight" / "strategy", "var_tight", STRATEGY)])
