"""Benchmark of the merton-risk command line, one workload per run.

    python3 perfbench/run.py --workload solve_verify --seed 1 --seconds 23 --trace 0

Run from the root of a checkout; the program is imported from ./src. The
command generates problem documents from --seed (see inputs.py), drives
``merton_risk.cli.main`` in process, one task at a time in a closed loop
from a single process, checks every output (checks.py) outside the timed
region, and prints one JSON object as its last line of output. Every task
and every untraced set-up probe is also run through a frozen copy of the
program (frozen/), alternating with the program, and the program's times
are reported on the speed scale that copy gives (README.md, "Speed
scale"). With ``--trace 0`` the JSON object holds the end-to-end metrics;
with ``--trace 1`` the per-layer metrics of tracing.py. A record of the run, with the versions
and the machine, is written under perfbench/out/runs/.
"""

import os

# One thread for every numerical library, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
# The program runs with its defaults: no option of its own is set.
os.environ.pop("MERTON_RISK_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
FROZEN = HERE / "frozen"
# Fresh interpreters per run for setup_s; untraced runs start the program
# and the frozen copy in pairs.
SETUP_STARTS = 3
# The frozen copy's own figures on the reference machine (README.md, "Speed
# scale"): medians over 25-second runs at the commit that froze it. They
# set the scale of the reported times.
REFERENCE = {
    "solve_verify": {"setup_s": 0.80, "tasks_per_s": 5.7, "task_p50_ms": 166.0},
    "oracle_xcheck": {"setup_s": 0.83, "tasks_per_s": 0.61, "task_p50_ms": 1640.0},
    "mc_simulate": {"setup_s": 0.83, "tasks_per_s": 0.60, "task_p50_ms": 1640.0},
}
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["solve_verify", "oracle_xcheck", "mc_simulate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


class SetupProbe:
    """Times fresh interpreters from launch until the CLI is imported and the
    documents under docs_dir are parsed (setup_probe.py prints ``ready``).

    With ``frozen`` every start of the program is paired with a start of the
    frozen copy, the two in alternating order.
    """

    def __init__(self, docs_dir: Path, importtime: bool, frozen: bool):
        self.cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
            str(HERE / "setup_probe.py"), str(docs_dir)]
        self.frozen = frozen
        self.times, self.frozen_times, self.logs = [], [], []

    @staticmethod
    def _launch(cmd: list) -> tuple:
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err[-2000:]}")
        return elapsed, err

    def start(self) -> None:
        frozen_first = len(self.times) % 2 == 1
        if self.frozen and frozen_first:
            frozen_s, _ = self._launch(self.cmd + ["frozen"])
        elapsed, err = self._launch(self.cmd)
        if self.frozen and not frozen_first:
            frozen_s, _ = self._launch(self.cmd + ["frozen"])
        self.times.append(elapsed)
        self.logs.append(err)
        if self.frozen:
            self.frozen_times.append(frozen_s)


def percentile(values: list, p: float) -> float:
    ordered = sorted(values)
    k = (len(ordered) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def tail(values: list) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"p50": percentile(values, 50)}
    if len(values) >= 40:
        p = max(p for p in PERCENTILES if len(values) * (1 - p / 100.0) >= 10)
        out[f"p{p:g}"] = percentile(values, p)
    return out


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "merton_risk").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def time_figures(setup_times: list, task_ns: list) -> dict:
    """Median set-up time, tasks per second of command time, median task time."""
    return {"setup_s": statistics.median(setup_times),
            "tasks_per_s": len(task_ns) / (sum(task_ns) * 1e-9),
            "task_p50_ms": statistics.median(task_ns) * 1e-6}


def median_ratio(program: list, frozen: list) -> float:
    """Median over pairs of the program's time over the frozen copy's."""
    return statistics.median(p / f for p, f in zip(program, frozen, strict=True))


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def command_lines(task, base: Path) -> list:
    """(step, output dir, argv) of every command of the task, documents in base."""
    return [(step, base / f"out_{step.name}",
             [step.argv[0], str(base / step.doc), "--out", str(base / f"out_{step.name}")]
             + step.argv[1:]) for step in task.steps]


class Frozen:
    """Runs tasks through the frozen copy of the CLI in a worker process
    (frozen/worker.py) and returns the nanoseconds its commands took."""

    def __init__(self, inputs, work: Path):
        self.inputs, self.work = inputs, work
        self.proc = subprocess.Popen([sys.executable, str(FROZEN / "worker.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run_task(self, task) -> int:
        base = self.inputs.write_task(task, self.work)
        lines = command_lines(task, base)
        self.proc.stdin.write(json.dumps([argv for _, _, argv in lines]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        shutil.rmtree(base, ignore_errors=True)
        if not reply:
            raise RuntimeError("the frozen-copy worker ended early")
        reply = json.loads(reply)
        want = [step.exit_code for step, _, _ in lines]
        if reply["codes"] != want:
            raise RuntimeError(f"frozen copy on {task.index} {task.kind}: exit codes "
                               f"{reply['codes']}, expected {want}")
        return reply["ns"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Runs tasks through the CLI and checks them."""

    def __init__(self, cli, checks, inputs, work: Path):
        self.cli, self.checks, self.inputs, self.work = cli, checks, inputs, work
        self.attempted = self.failed = 0
        self.correct = True
        self.problems = []
        self.bytes_written = 0

    def execute(self, task):
        """Run every command of the task until one fails.

        Returns (output dirs, exit codes, nanoseconds in the CLI, failure or None).
        """
        base = self.inputs.write_task(task, self.work)
        outs, codes, elapsed = {}, {}, 0
        for step, out, argv in command_lines(task, base):
            outs[step.name] = out
            failure = None
            start = time.perf_counter_ns()
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    codes[step.name] = self.cli.main(argv)
            except (Exception, SystemExit):    # a crash is a failed operation
                failure = traceback.format_exc(limit=-3)
            elapsed += time.perf_counter_ns() - start
            if failure is None and codes[step.name] != step.exit_code:
                failure = f"{step.name}: exit {codes[step.name]}, expected {step.exit_code}"
            if failure:
                return outs, codes, elapsed, failure
            if out.is_dir():
                self.bytes_written += output_bytes(out)
        return outs, codes, elapsed, None

    def run_task(self, task) -> int:
        """Run and check one task; returns the nanoseconds its commands took."""
        outs, codes, elapsed, failure = self.execute(task)
        self.attempted += 1
        if failure:
            self.failed += 1
            self.problems.append(f"{task.index} {task.kind}: failed: {failure}")
        else:
            try:
                self.checks.check_task(task, outs, codes)
            except self.checks.CheckFailed as exc:
                self.correct = False
                self.problems.append(f"{task.index} {task.kind}: wrong output: {exc}")
        shutil.rmtree(self.work / task.index, ignore_errors=True)
        return elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for this process and, by inheritance, the frozen copy's worker
    # and the set-up probes, so that the program and the frozen copy share
    # whatever else runs on it.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    if not (SRC / "merton_risk" / "cli.py").is_file():
        print(f"no program source at {SRC}/merton_risk; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import checks
    import inputs
    import tracing

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = OUT / "work" / run_id
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    frozen = None
    try:
        first_round = inputs.make_round(args.workload, args.seed, 0)
        probe_dir = work / "setup"
        for task in first_round:
            inputs.write_task(task, probe_dir)
        frozen = Frozen(inputs, work / "frozen")
        frozen.run_task(first_round[0])               # warm-up, not counted

        from merton_risk import cli
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        runner = Runner(cli, checks, inputs, work / "tasks")
        runner.run_task(first_round[0])               # warm-up, not counted
        runner.attempted = runner.failed = runner.bytes_written = 0
        if tracer:
            tracer.reset()

        times_ns, frozen_ns = [], []
        kinds = {}
        loop_start = time.perf_counter()
        round_no = 0
        while True:
            tasks = first_round if round_no == 0 else inputs.make_round(
                args.workload, args.seed, round_no)
            for task in tasks:
                # The program and the frozen copy take turns going first.
                if len(times_ns) % 2 == 1:
                    frozen_ns.append(frozen.run_task(task))
                times_ns.append(runner.run_task(task))
                if len(times_ns) % 2 == 1:
                    frozen_ns.append(frozen.run_task(task))
                kinds[task.kind] = kinds.get(task.kind, 0) + 1
            round_no += 1
            loop_s = time.perf_counter() - loop_start
            if loop_s >= args.seconds:                # whole rounds only
                break
        # After the loop, whose imports have filled the file cache: a fresh
        # interpreter evicts caches, which would slow whichever copy ran next.
        probe = SetupProbe(probe_dir, importtime=bool(args.trace), frozen=not args.trace)
        while len(probe.times) < SETUP_STARTS:
            probe.start()
    finally:
        if frozen:
            frozen.close()
        shutil.rmtree(work, ignore_errors=True)

    task_ms = [t * 1e-6 for t in times_ns]
    busy_s = sum(times_ns) * 1e-9
    measured = time_figures(probe.times, times_ns)
    # On the speed scale of the reference machine: the frozen copy ran the
    # same tasks and, untraced, the same starts, each paired with the
    # program's run. Traced runs time their starts with -X importtime and
    # report no set-up time.
    ref = REFERENCE[args.workload]
    end_to_end = {
        "setup_s": (ref["setup_s"] * median_ratio(probe.times, probe.frozen_times)
                    if probe.frozen_times else None, "s"),
        "tasks_per_s": (ref["tasks_per_s"] * sum(frozen_ns) / sum(times_ns), "1/s"),
        "task_p50_ms": (ref["task_p50_ms"] * median_ratio(times_ns, frozen_ns), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    per_layer = {}
    if tracer:
        layers = tracer.metrics(len(times_ns), sum(times_ns))
        layers["solution.bytes_written"] = runner.bytes_written / len(times_ns)
        imports = [tracing.parse_importtime(log) for log in probe.logs]
        for key in imports[0]:
            layers[key] = statistics.median(d[key] for d in imports)
        layers["trace.task_p50_ms"] = end_to_end["task_p50_ms"][0]
        layers["trace.tasks_per_s"] = end_to_end["tasks_per_s"][0]
        units = {"_ms": "ms", "_mb": "MB", "bytes_written": "B", "ratio": "ratio",
                 "tasks_per_s": "1/s"}
        for name, value in layers.items():
            unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
            per_layer[name] = (value, unit)
    reported = per_layer if args.trace else end_to_end

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(cpus),
        "cpu": min(cpus),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        **source_identity(),
        "rounds": round_no, "tasks": len(times_ns), "tasks_by_kind": kinds,
        "loop_s": loop_s, "busy_s": busy_s, "task_ms": tail(task_ms),
        "setup_samples_s": probe.times,
        "frozen_setup_samples_s": probe.frozen_times,
        "all_task_ms": task_ms,
        "frozen_task_ms": [t * 1e-6 for t in frozen_ns],
        "measured": measured,
        "attempted": runner.attempted, "failed": runner.failed,
        "correct": runner.correct, "problems": runner.problems[:20],
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "per_layer": {k: v for k, (v, _) in per_layer.items()},
    }
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    with open(runs / f"{run_id}-{int(time.time())}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in runner.problems[:20]:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": runner.correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
