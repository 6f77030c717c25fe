"""Count the statements of src/merton_risk that the benchmark's task mix runs.

    python3 tools/traffic_coverage.py
    python3 tools/traffic_coverage.py --mix oracle_xcheck:0:0 --show oracle

The mix is written as in diff_outputs.py (WORKLOAD:SEEDS:ROUNDS, repeatable;
its DEFAULT_MIX when omitted) and generated with perfbench/inputs.py. Every
command runs through ``cli.main`` in this interpreter under the stdlib
``trace`` module, started before ``merton_risk`` is imported, so that the
statements run at import (imports, definitions, constants) count too. One
line per module of src/merton_risk gives the statements that ran and the
statements there are; ``--show MODULE`` lists the statements of that module
that never ran, by line.

A statement is an ``ast`` statement other than a bare string, which compiles
to no code (a docstring). It ran when a line it owns gave a line event: a
simple statement owns all its lines, a compound one (def, class, if, for,
while, with, try) the lines of its decorators and its header.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
import tempfile
import trace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from diff_outputs import DEFAULT_MIX, ROOT, write_mix  # noqa: E402

PACKAGE = ROOT / "src" / "merton_risk"


def statements(source: str) -> list:
    """(first line, lines it owns) of each statement of a module's source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        out.append((node.lineno, range(first, last + 1)))
    return sorted(out)


def _run(argvs: list) -> None:
    from merton_risk import cli
    for argv in argvs:
        with contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)


def run_traced(argvs: list) -> dict:
    """{file: lines with a line event} of running each argv through cli.main."""
    if any(name.split(".")[0] == "merton_risk" for name in sys.modules):
        raise SystemExit("merton_risk is imported already: its import-time "
                         "statements would go uncounted")
    sys.path.insert(0, str(ROOT / "src"))
    # no ignoredirs: trace caches its verdict per bare module name, so once
    # numpy's __init__ were ignored, merton_risk's __init__ would be too
    tracer = trace.Trace(count=1, trace=0)
    tracer.runfunc(_run, argvs)
    ran = {}
    for filename, line in tracer.results().counts:
        ran.setdefault(Path(filename).resolve(), set()).add(line)
    return ran


def report(ran: dict, show: str | None) -> None:
    """Print statements run / statements per module, a total, and the
    statements of the module `show` that never ran."""
    n_ran = n_all = 0
    missed = []
    for path in sorted(PACKAGE.resolve().glob("*.py")):
        lines = ran.get(path, set())
        found = statements(path.read_text(encoding="utf-8"))
        hit = [line for line, owned in found if lines.intersection(owned)]
        print(f"{path.stem:<16} {len(hit):5d} / {len(found):5d}")
        n_ran, n_all = n_ran + len(hit), n_all + len(found)
        if path.stem == show:
            source = path.read_text(encoding="utf-8").splitlines()
            missed = [(line, source[line - 1].strip()) for line, owned in found
                      if not lines.intersection(owned)]
    print(f"{'total':<16} {n_ran:5d} / {n_all:5d}")
    if show is not None:
        print(f"\nnever run in {show}.py:")
        for line, text in missed:
            print(f"{line:6d}  {text}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mix", action="append",
                        help="WORKLOAD:SEEDS:ROUNDS, repeatable (default: "
                             + " ".join(DEFAULT_MIX) + ")")
    parser.add_argument("--show", metavar="MODULE",
                        help="list the statements of src/merton_risk/MODULE.py that never ran")
    args = parser.parse_args(argv)
    if args.show is not None and not (PACKAGE / f"{args.show}.py").is_file():
        parser.error(f"no module {args.show} in src/merton_risk")
    with tempfile.TemporaryDirectory(prefix="traffic_coverage_") as tmp:
        steps = write_mix(args.mix or DEFAULT_MIX, Path(tmp) / "docs")
        argvs = [head + ["--out", str(Path(tmp, "out", task_dir, f"out_{name}"))] + tail
                 for task_dir, name, head, tail in steps]
        print(f"{len(argvs)} commands", file=sys.stderr)
        ran = run_traced(argvs)
    report(ran, args.show)
    return 0


if __name__ == "__main__":
    sys.exit(main())
