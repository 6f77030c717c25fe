"""Runs commands through the frozen copy of the CLI, one request at a time.

    python3 perfbench/frozen/worker.py

Each line on standard input is a JSON list of argument lists, the commands
of one task. The worker runs them in order through
``merton_risk_frozen.cli.main``, timed the way run.py times the program,
and answers with one JSON line: {"ns": <nanoseconds in the CLI>, "codes":
[<exit code of each command>]}. It ends at the end of its input.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from merton_risk_frozen import cli  # noqa: E402


def main() -> int:
    channel = sys.stdout
    for line in sys.stdin:
        elapsed, codes = 0, []
        for argv in json.loads(line):
            start = time.perf_counter_ns()
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    codes.append(cli.main(argv))
            except (Exception, SystemExit):
                codes.append(None)
            elapsed += time.perf_counter_ns() - start
        channel.write(json.dumps({"ns": elapsed, "codes": codes}) + "\n")
        channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
