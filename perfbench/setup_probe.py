"""Set-up probe: import the CLI, parse problem documents, report ready.

Run as ``python3 perfbench/setup_probe.py <dir> [frozen]``; every ``*.json``
under <dir> is parsed into a ``ProblemSpec``. With ``frozen`` the probe
uses the frozen copy of the program (frozen/) instead of ./src. The caller
times the interval from launching this interpreter until it prints
``ready``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if sys.argv[2:] == ["frozen"]:
    sys.path.insert(0, str(HERE / "frozen"))
    from merton_risk_frozen import cli
else:
    sys.path.insert(0, str(HERE.parent / "src"))
    from merton_risk import cli

for path in sorted(Path(sys.argv[1]).rglob("*.json")):
    cli.ProblemSpec.load(path)
print("ready", flush=True)
