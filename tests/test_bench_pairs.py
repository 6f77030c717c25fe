"""Summary arithmetic of tools/bench_pairs.py on canned run outputs, and
the copy of the working tree that its change side runs from.

No benchmark run is started.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run_output(tasks_per_s, p50, failed=0, correct=True):
    """What perfbench/run.py prints: log lines, then one JSON object."""
    result = {"correct": correct, "attempted": 40, "failed": failed, "metrics": {
        "setup_s": {"value": 0.28, "unit": "s"},
        "tasks_per_s": {"value": tasks_per_s, "unit": "1/s"},
        "task_p50_ms": {"value": p50, "unit": "ms"},
        "peak_rss_mb": {"value": 89.2, "unit": "MB"}}}
    return "warming up\n\n" + json.dumps(result) + "\n"


def test_quartiles_interpolate_linearly():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles(range(1, 11)) == (3.25, 5.5, 7.75)
    with pytest.raises(ValueError):
        bench_pairs.quartiles([])


def test_parse_seeds():
    assert bench_pairs.parse_seeds("101-104") == [101, 102, 103, 104]
    assert bench_pairs.parse_seeds("7,9-10,3") == [7, 9, 10, 3]


def test_workload_summary_on_canned_runs():
    parent = [bench_pairs.parse_result(_run_output(v, 150.0 - v))
              for v in (7.0, 6.0, 8.0, 7.5)]
    change = [bench_pairs.parse_result(_run_output(v, 150.0 - v, failed=f, correct=c))
              for v, f, c in ((10.0, 0, True), (5.0, 2, True),
                              (8.0, 0, True), (11.0, 1, False))]
    metrics = {"tasks_per_s": "higher", "task_p50_ms": "lower", "peak_rss_mb": "lower"}
    doc = bench_pairs.workload_summary([41, 42, 43, 44, 45], parent, change, metrics)
    assert doc["pairs"] == 4 and doc["seeds"] == [41, 42, 43, 44]
    assert (doc["failed_parent"], doc["failed_change"], doc["correct"]) == (0, 3, False)
    tps = doc["tasks_per_s"]
    # pairs (7, 10), (6, 5), (8, 8), (7.5, 11): a tie is no win
    assert tps["better"] == "higher" and tps["change_wins"] == 2
    assert tps["parent"] == {"median": 7.25, "q1": 6.75, "q3": 7.625,
                             "iqr": 0.875, "runs": [7.0, 6.0, 8.0, 7.5]}
    assert tps["change"]["median"] == 9.0 and tps["change"]["iqr"] == 3.0
    # lower is better: the same pairs, mirrored
    assert doc["task_p50_ms"]["change_wins"] == 2
    assert doc["peak_rss_mb"]["change_wins"] == 0
    assert doc["peak_rss_mb"]["parent"]["iqr"] == 0.0


def test_summary_reproduces_committed_bench_file():
    """Summarising BENCH_16.json's recorded runs gives back its figures (its
    runs are rounded to 4 decimals, so the quartiles agree to about 1e-4)."""
    doc = json.loads((ROOT / "BENCH_16.json").read_text())
    for workload in doc["workloads"].values():
        for name in ("setup_s", "tasks_per_s", "task_p50_ms", "peak_rss_mb"):
            want = workload[name]
            got = bench_pairs.metric_summary(want["parent"]["runs"],
                                             want["change"]["runs"], want["better"])
            assert got["change_wins"] == want["change_wins"]
            for side in ("parent", "change"):
                for key in ("median", "q1", "q3", "iqr"):
                    assert got[side][key] == pytest.approx(want[side][key], abs=2e-4)


def test_parse_result_rejects_silent_run():
    with pytest.raises(ValueError):
        bench_pairs.parse_result("\n  \n")
    with pytest.raises(ValueError):
        bench_pairs.metric_summary([1.0, 2.0], [1.0], "higher")


def test_snapshot_copies_the_working_tree(tmp_path):
    """The change side's copy holds a tracked file's working-tree edit and
    an untracked file, but no ignored file, no deleted file and no .git."""
    repo, dest = tmp_path / "repo", tmp_path / "snapshot"
    (repo / "pkg").mkdir(parents=True)
    dest.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "pkg" / "edited.py").write_text("committed\n")
    (repo / "deleted.txt").write_text("committed\n")
    git("add", "-A")
    git("commit", "-q", "-m", "start")
    (repo / "pkg" / "edited.py").write_text("edited\n")
    (repo / "deleted.txt").unlink()
    (repo / "pkg" / "untracked.py").write_text("new\n")
    (repo / "run.log").write_text("ignored\n")
    bench_pairs.snapshot(repo, dest)
    files = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert files == [".gitignore", "pkg/edited.py", "pkg/untracked.py"]
    assert (dest / "pkg" / "edited.py").read_text() == "edited\n"
