"""Diff every output of the benchmark's task mix between a parent commit and this checkout.

    python3 tools/diff_outputs.py --parent HEAD~1
    python3 tools/diff_outputs.py --parent HEAD~1 --mix oracle_xcheck:0-7:0-5 --rtol 1e-12

The tasks are generated with this checkout's perfbench/inputs.py
(``make_round``, ``write_task``): a ``--mix`` entry WORKLOAD:SEEDS:ROUNDS
takes every task of those rounds of those seeds, with SEEDS and ROUNDS
written as in bench_pairs ("0-3" or "0,2"). Without ``--mix`` the mix is
DEFAULT_MIX: seeds 0-1, rounds 0-1 of solve_verify; seeds 0-3, rounds 0-3
of mc_simulate, which cover every Monte Carlo kind under both measures; and
seeds 0-3, rounds 0-5 of oracle_xcheck (72 ``solve --oracle`` tasks), the
oracle tasks that a change to the oracle's search must leave byte-identical.
The parent commit is extracted with ``git archive`` into a temporary
directory. Each side then runs every command of the mix in one fresh
interpreter that imports ``merton_risk`` from its own ``src/`` and calls
``cli.main`` in process, as the benchmark does; each task's exit codes and
standard error go to ``commands.json`` beside its outputs.

The two output trees are compared file by file. JSON files are compared
key by key and CSV files column by column, number by number (a field of
space-separated numbers counts each); for each file that differs the
largest relative difference |a - b| / max(|a|, |b|) is printed per key or
column, and inf where a text field, a row count, a key or a whole file
differs. Beside each relative difference the largest absolute difference
|a - b| of the same key or column is printed: a relative move of an error
measure near 1e-16 means nothing without it. Exit 1 when any relative
difference is above --rtol (default 0, so any difference at all), else 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, extract, parse_seeds  # noqa: E402

DEFAULT_MIX = ("solve_verify:0-1:0-1", "mc_simulate:0-3:0-3", "oracle_xcheck:0-3:0-5")

# Runs in each side's interpreter: argv lists on stdin, [exit code, stderr] per
# command on stdout; a crash is recorded as its exception, not raised.
_RUNNER = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from merton_risk import cli
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:
        code = f"crash: {type(exc).__name__}: {exc}"
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


def absolute(a: float, b: float) -> float:
    """|a - b|; 0 for equal values (NaN equals NaN), inf where only one is
    NaN or either is infinite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b)


def relative(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|), with absolute's 0 and inf."""
    diff = absolute(a, b)
    return diff if diff in (0.0, math.inf) else diff / max(abs(a), abs(b))


def _numbers(text: str):
    """The space-separated numbers of a field, or None when one is not a number."""
    try:
        return [float(tok) for tok in text.split()]
    except ValueError:
        return None


def field_difference(a: str, b: str, metric=relative) -> float:
    """Largest difference (relative, or the given metric) between two text fields."""
    if a == b:
        return 0.0
    xs, ys = _numbers(a), _numbers(b)
    if xs is None or ys is None or len(xs) != len(ys):
        return math.inf
    return max(map(metric, xs, ys), default=0.0)


def _flatten(value, key: str, out: dict) -> None:
    """JSON leaves by key path ("a.b[2]"); numbers as floats, others as text."""
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(v, f"{key}.{k}" if key else k, out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(v, f"{key}[{i}]", out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out[key] = float(value)
    else:
        out[key] = json.dumps(value)


def _group(key: str) -> str:
    """A key path without its list indices: list items share one line."""
    return "".join(part.split("]")[-1] for part in key.split("["))


def json_differences(a: str, b: str, metric=relative) -> dict:
    """Largest difference per key of two JSON documents."""
    flat_a, flat_b = {}, {}
    _flatten(json.loads(a), "", flat_a)
    _flatten(json.loads(b), "", flat_b)
    worst = defaultdict(float)
    for key in flat_a.keys() | flat_b.keys():
        x, y = flat_a.get(key), flat_b.get(key)
        if isinstance(x, float) and isinstance(y, float):
            diff = metric(x, y)
        else:
            diff = 0.0 if x == y else math.inf
        worst[_group(key)] = max(worst[_group(key)], diff)
    return dict(worst)


def csv_differences(a: str, b: str, metric=relative) -> dict:
    """Largest difference per column of two CSV tables."""
    rows_a, rows_b = list(csv.reader(a.splitlines())), list(csv.reader(b.splitlines()))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        return {"(header or row count)": math.inf}
    worst = dict.fromkeys(rows_a[0], 0.0)
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        if len(ra) != len(rb):
            return {"(row length)": math.inf}
        for name, x, y in zip(rows_a[0], ra, rb):
            worst[name] = max(worst[name], field_difference(x, y, metric))
    return worst


def compare_trees(a: Path, b: Path, metric=relative) -> dict:
    """{relative path: {key or column: largest difference}} for every file
    that differs between the trees or exists in one only; keys and columns
    that agree are left out.  The difference is relative, or the given
    metric of two numbers."""
    names = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    out = {}
    for name in sorted(names):
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            side = "parent" if pa.is_file() else "change"
            out[str(name)] = {f"(only in {side})": math.inf}
            continue
        ta, tb = pa.read_bytes(), pb.read_bytes()
        if ta == tb:
            continue
        if name.suffix == ".json":
            diffs = json_differences(ta.decode(), tb.decode(), metric)
        elif name.suffix == ".csv":
            diffs = csv_differences(ta.decode(), tb.decode(), metric)
        else:
            diffs = {"(bytes)": math.inf}
        out[str(name)] = {k: v for k, v in diffs.items() if v != 0.0} or {"(bytes)": math.inf}
    return out


def run_side(src: Path, commands: list) -> list:
    """[exit code, stderr] of each argv list, run in one fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _RUNNER, str(src)],
                          input=json.dumps(commands), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: the runner exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def write_mix(mix, docs: Path) -> list:
    """Write the documents of the mix's tasks under docs; (task directory,
    step name, argv before --out, argv after it) of each step, in order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    steps = []
    for entry in mix:
        workload, seeds, rounds = entry.split(":")
        for seed in parse_seeds(seeds):
            for round_no in parse_seeds(rounds):
                for task in inputs.make_round(workload, seed, round_no):
                    task_dir = Path(workload, f"s{seed}", task.index)
                    base = inputs.write_task(task, docs / task_dir.parent)
                    steps.extend((task_dir, step.name, [step.argv[0], str(base / step.doc)],
                                  step.argv[1:]) for step in task.steps)
    return steps


def produce(work: Path, parent_src: Path, mix) -> None:
    """Write the mix's documents under work/docs and each side's outputs
    under work/parent and work/change, in the same relative places."""
    steps = write_mix(mix, work / "docs")
    for side, src in (("parent", parent_src), ("change", ROOT / "src")):
        argvs = [head + ["--out", str(work / side / task_dir / f"out_{name}")] + tail
                 for task_dir, name, head, tail in steps]
        records = defaultdict(dict)
        for (task_dir, name, _, _), (code, err) in zip(steps, run_side(src, argvs)):
            records[task_dir][name] = {"exit_code": code, "stderr": err}
        for task_dir, record in records.items():
            (work / side / task_dir).mkdir(parents=True, exist_ok=True)
            (work / side / task_dir / "commands.json").write_text(
                json.dumps(record, indent=1) + "\n")


def report(diffs: dict, rtol: float, n_files: int, absolute_diffs=None) -> int:
    """Print each differing file with its keys or columns, each with its
    relative difference and, from absolute_diffs (compare_trees with the
    absolute metric), its absolute one; the exit status."""
    worst = 0.0
    for name, keys in diffs.items():
        print(name)
        for key, diff in sorted(keys.items()):
            line = f"  {key:<32} {diff:.3g}"
            if absolute_diffs is not None:
                line += f"  (abs {absolute_diffs[name].get(key, math.nan):.3g})"
            print(line)
            worst = max(worst, diff)
    print(f"{n_files} files compared, {len(diffs)} differ, "
          f"largest relative difference {worst:.3g} (rtol {rtol:g})")
    return 1 if worst > rtol else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--mix", action="append",
                        help="WORKLOAD:SEEDS:ROUNDS, repeatable (default: "
                             + " ".join(DEFAULT_MIX) + ")")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative difference allowed (default 0)")
    parser.add_argument("--work", type=Path,
                        help="keep the documents and both output trees in this new "
                             "or empty directory (default: a temporary directory)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="diff_outputs_") as tmp:
        parent_root = Path(tmp) / "parent_tree"
        parent_root.mkdir()
        commit = extract(args.parent, parent_root)
        print(f"parent {commit}", file=sys.stderr)
        work = args.work or Path(tmp) / "work"
        produce(work, parent_root / "src", args.mix or DEFAULT_MIX)
        n_files = sum(1 for p in (work / "change").rglob("*") if p.is_file())
        trees = work / "parent", work / "change"
        return report(compare_trees(*trees), args.rtol, n_files,
                      compare_trees(*trees, metric=absolute))


if __name__ == "__main__":
    sys.exit(main())
