"""Paired benchmark runs of this checkout against a parent commit, as BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --seeds 101-110 --out BENCH_17.json \\
        --change "what the change does" --claimed oracle_xcheck:tasks_per_s

The parent commit is extracted with ``git archive`` into a temporary
directory, and the change side is copied beside it from this checkout's
working tree: every file ``git ls-files -co --exclude-standard`` lists,
tracked files with their working-tree content, untracked files included
and ignored ones left out. So both sides run alike from fresh copies,
with no ``__pycache__`` that an earlier run left. For every
workload of BENCHMARK.json and every seed, both sides run

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

with N the benchmark's run_seconds (23), from their own root, one run at
a time; the side that runs first
alternates from pair to pair. Each run's last line of output is its JSON
result. The summary keeps, per workload and end-to-end metric, every run,
the median and quartiles (linear interpolation) of each side, and the
number of pairs in which the change did better; the output file is
rewritten after every pair, so an interrupted run leaves the pairs it
finished. Run it from any directory; it takes about 2 x (N + 25 s) per
pair.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0"


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")

    def at(p):
        pos = p * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])
    return at(0.25), at(0.5), at(0.75)


def side_summary(runs) -> dict:
    q1, median, q3 = quartiles(runs)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4), "runs": [round(v, 4) for v in runs]}


def metric_summary(parent, change, better: str) -> dict:
    """Both sides of one metric; pairs are (parent[i], change[i])."""
    if len(parent) != len(change):
        raise ValueError("parent and change need one run per pair")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {"better": better, "change_wins": wins,
            "parent": side_summary(parent), "change": side_summary(change)}


def parse_result(stdout: str) -> dict:
    """The JSON object on the last non-blank line of a run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def workload_summary(seeds, parent_results, change_results, metrics) -> dict:
    """Summary of the pairs run so far; metrics maps a name to "higher"/"lower"."""
    out = {"pairs": len(parent_results), "seeds": list(seeds[:len(parent_results)]),
           "failed_parent": sum(r["failed"] for r in parent_results),
           "failed_change": sum(r["failed"] for r in change_results),
           "correct": all(r["correct"] for r in parent_results + change_results)}
    for name, better in metrics.items():
        out[name] = metric_summary(
            [r["metrics"][name]["value"] for r in parent_results],
            [r["metrics"][name]["value"] for r in change_results], better)
    return out


def parse_seeds(text: str) -> list[int]:
    """"101-110" or "1,5,9" (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(argv[1:])} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return parse_result(proc.stdout)


def extract(rev: str, dest: Path) -> str:
    """Write the tree of rev to dest with git archive; return its full hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    tree = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                          check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tree, check=True)
    return commit


def snapshot(root: Path, dest: Path) -> None:
    """Copy the working tree of the git checkout at root to dest: tracked
    files as they are on disk (one deleted there is left out) and untracked
    files that .gitignore does not exclude."""
    names = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"],
                           cwd=root, check=True, capture_output=True).stdout
    for name in filter(None, os.fsdecode(names).split("\0")):
        source = root / name
        if source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--seeds", required=True, help='e.g. "101-110"')
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write")
    parser.add_argument("--change", required=True, help="one-line description of the change")
    parser.add_argument("--claimed", help="WORKLOAD:METRIC a gain is claimed on")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    doc = {
        "change": args.change,
        "parent_commit": None,
        "command": COMMAND.format(seconds=seconds),
        "method": (f"{len(seeds)} pairs per workload, seeds {args.seeds} (one seed per "
                   "pair, both sides alike), the side that runs first alternating; "
                   "the parent runs from a git archive of its commit and the change "
                   "from a copy of the working tree's files (git ls-files -co "
                   "--exclude-standard), each in its own temporary directory; figures "
                   "on the benchmark's speed scale; "
                   "quartiles by linear interpolation"),
        "machine": (f"{os.cpu_count()}-CPU machine, {platform.system()}, "
                    f"Python {platform.python_version()}"),
        "claimed": None,
        "workloads": {},
    }
    if args.claimed:
        workload, metric = args.claimed.split(":")
        doc["claimed"] = {"metric": metric, "workload": workload}

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for root in sides.values():
            root.mkdir()
        doc["parent_commit"] = extract(args.parent, sides["parent"])
        snapshot(ROOT, sides["change"])
        for workload in workloads:
            results = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    results[side].append(run_side(sides[side], workload, seed, seconds))
                    value = results[side][-1]["metrics"]["tasks_per_s"]["value"]
                    print(f"{workload} seed {seed} {side}: tasks_per_s {value}",
                          file=sys.stderr, flush=True)
                doc["workloads"][workload] = workload_summary(
                    seeds, results["parent"], results["change"], metrics)
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
