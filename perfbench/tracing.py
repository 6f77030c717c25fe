"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of ``merton_risk`` with
timing wrappers in every loaded module namespace that binds them (and
methods on their classes), so calls through any import path are seen.
A layer's time counts only its outermost span on a thread, so a layer
calling itself is not counted twice. Spans are kept as running sums.
Monte Carlo calls also record their tracemalloc peak, and the import
breakdown comes from ``python -X importtime`` in the set-up probe.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MB = 1024.0 * 1024.0


# layer -> [(module, function or Class.method)]; _count says what each counts
LAYERS = {
    "cli.parse": [("merton_risk.cli", "ProblemSpec.load")],
    "market.from_dict": [("merton_risk.market", "market_from_dict")],
    "solution.write": [("merton_risk.solution", f"Solution.{name}") for name in
                       ("write_json", "write_controls_csv", "write_wealth_csv",
                        "write_feedback_grids")],
    "var_bound.solve": [("merton_risk.var_bound", "solve_var")],
    "es_bound.solve": [("merton_risk.es_bound", "solve_es")],
    "es_bound.rho_es": [("merton_risk.es_bound", "rho_es")],
    "unconstrained.solve": [("merton_risk.unconstrained", name) for name in
                            ("solve_unconstrained", "solve_hara_unconstrained",
                             "solve_equal_gamma", "solve_linear_unconstrained")],
    "unconstrained.g": [("merton_risk.unconstrained", "HaraFeedback.g"),
                        ("merton_risk.unconstrained", "hara_g")],
    "hjb.residual": [("merton_risk.hjb", "hjb_residual")],
    "hjb.argmax": [("merton_risk.hjb", "hamiltonian_argmax_check")],
    "oracle.search": [("merton_risk.oracle", "grid_search_oracle")],
    "oracle.cost": [("merton_risk.oracle", "cost_closed_form")],
    "strategies.cumulants": [("merton_risk.strategies", "cumulants")],
    "risk.profile": [("merton_risk.risk", "constraint_profile")],
    "mc.sample": [("merton_risk.mc", "simulate_deterministic"),
                  ("merton_risk.mc", "simulate_hara_feedback")],
    "mc.cost": [("merton_risk.mc", "estimate_cost")],
    "mc.risk": [("merton_risk.mc", "empirical_risk_curve")],
}
MEMORY_LAYERS = {"mc.sample", "mc.cost", "mc.risk"}


def _count(layer: str, args, result, counts) -> None:
    """Work counts of one outermost call."""
    if layer == "unconstrained.g":
        t, x = args[-2], args[-1]
        counts["unconstrained.g_points"] += np.broadcast(np.asarray(t), np.asarray(x)).size
    elif layer in ("hjb.residual", "hjb.argmax"):
        counts["hjb.nodes"] += len(result.t_nodes) * len(result.x_nodes)
    elif layer == "oracle.search":
        counts["oracle.candidates"] += len(result.records)
        counts["oracle.feasible"] += sum(1 for r in result.records if r.feasible)
    elif layer == "risk.profile":
        counts["risk.profile_points"] += len(result.times)
    elif layer == "mc.sample":
        n, m = result.wealth.shape
        counts["mc.path_steps"] += n * (m - 1)
        counts["mc.wealth_bytes"] += result.wealth.nbytes


class Tracer:
    """Running sums of time, calls, counts and memory peaks per layer."""

    def __init__(self):
        self.local = threading.local()
        self.lock = threading.Lock()
        self.main = threading.main_thread()
        self.reset()

    def reset(self) -> None:
        self.time_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.peaks = defaultdict(list)
        self.top_level_ns = 0

    def _wrap(self, layer: str, func):
        tracer = self

        def traced(*args, **kwargs):
            local = tracer.local
            depth = getattr(local, "depth", None)
            if depth is None:
                depth = local.depth = defaultdict(int)
                local.open = 0
            if depth[layer]:
                return func(*args, **kwargs)
            depth[layer] += 1
            top = local.open == 0 and threading.current_thread() is tracer.main
            local.open += 1
            memory = layer in MEMORY_LAYERS
            if memory:
                tracemalloc.start()
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                peak = tracemalloc.get_traced_memory()[1] if memory else 0
                if memory:
                    tracemalloc.stop()
                depth[layer] -= 1
                local.open -= 1
                with tracer.lock:
                    tracer.time_ns[layer] += elapsed
                    tracer.calls[layer] += 1
                    if top:
                        tracer.top_level_ns += elapsed
                    if memory:
                        tracer.peaks[layer].append(peak)
            with tracer.lock:
                _count(layer, args, result, tracer.counts)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", layer)
        return traced

    def install(self) -> None:
        """Wrap every target in each loaded merton_risk namespace binding it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "merton_risk" or name.startswith("merton_risk.")]
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                owner = sys.modules[module_name]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(self._wrap(layer, raw.__func__)))
                    else:
                        setattr(cls, attr, self._wrap(layer, raw))
                    continue
                func = getattr(owner, path)
                wrapper = self._wrap(layer, func)
                for mod in modules:
                    if getattr(mod, path, None) is func:
                        setattr(mod, path, wrapper)

    def metrics(self, n_tasks: int, cli_ns: int) -> dict:
        """Per-task means of the per-layer metrics; memory peaks are medians per call."""
        per = 1.0 / max(n_tasks, 1)

        def ms(layer):
            return self.time_ns[layer] * 1e-6 * per

        def peak(layer):
            values = self.peaks.get(layer)
            return statistics.median(values) / MB if values else 0.0

        candidates = self.counts["oracle.candidates"]
        return {
            "cli.parse_ms": ms("cli.parse"),
            "market.from_dict_ms": ms("market.from_dict"),
            "cli.self_ms": (cli_ns - self.top_level_ns) * 1e-6 * per,
            "solution.write_ms": ms("solution.write"),
            "var_bound.solve_ms": ms("var_bound.solve"),
            "var_bound.calls": self.calls["var_bound.solve"] * per,
            "es_bound.solve_ms": ms("es_bound.solve"),
            "es_bound.rho_es_ms": ms("es_bound.rho_es"),
            "es_bound.calls": self.calls["es_bound.solve"] * per,
            "unconstrained.solve_ms": ms("unconstrained.solve"),
            "unconstrained.g_ms": ms("unconstrained.g"),
            "unconstrained.g_points": self.counts["unconstrained.g_points"] * per,
            "hjb.residual_ms": ms("hjb.residual"),
            "hjb.argmax_ms": ms("hjb.argmax"),
            "hjb.nodes": self.counts["hjb.nodes"] * per,
            "oracle.search_ms": ms("oracle.search"),
            "oracle.candidates": candidates * per,
            "oracle.feasible_ratio": (self.counts["oracle.feasible"] / candidates
                                      if candidates else 0.0),
            "oracle.cost_ms": ms("oracle.cost"),
            "strategies.cumulants_calls": self.calls["strategies.cumulants"] * per,
            "strategies.cumulants_ms": ms("strategies.cumulants"),
            "risk.profile_calls": self.calls["risk.profile"] * per,
            "risk.profile_points": self.counts["risk.profile_points"] * per,
            "risk.profile_ms": ms("risk.profile"),
            "mc.sample_ms": ms("mc.sample"),
            "mc.cost_ms": ms("mc.cost"),
            "mc.risk_ms": ms("mc.risk"),
            "mc.path_steps": self.counts["mc.path_steps"] * per,
            "mc.sample_peak_mb": peak("mc.sample"),
            "mc.cost_peak_mb": peak("mc.cost"),
            "mc.risk_peak_mb": peak("mc.risk"),
            "mc.wealth_mb": (self.counts["mc.wealth_bytes"] / self.calls["mc.sample"] / MB
                             if self.calls["mc.sample"] else 0.0),
        }


def parse_importtime(stderr: str) -> dict:
    """Import breakdown in ms from the output of ``python -X importtime``.

    scipy loads its subpackages lazily, so the log has no line of its own
    for scipy.special or scipy.integrate. Each import that a merton_risk
    module makes of another package is charged to scipy.special or
    scipy.integrate when its subtree loads a module of that name.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, raw = line[len("import time:"):].split("|")
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        rows.append((int(self_us), int(cum_us), depth, name))

    def own(name):
        return name == "merton_risk" or name.startswith("merton_risk.")

    groups = {"scipy.special": 0, "scipy.integrate": 0}
    ancestors = []                       # (depth, name), walking the log backwards
    for i in range(len(rows) - 1, -1, -1):
        _, cum_us, depth, name = rows[i]
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        parent = ancestors[-1][1] if ancestors and ancestors[-1][0] == depth - 1 else None
        ancestors.append((depth, name))
        if parent is None or not own(parent) or own(name):
            continue
        first = i
        while first > 0 and rows[first - 1][2] > depth:
            first -= 1
        names = [r[3] for r in rows[first:i + 1]]
        for group in groups:
            if any(n == group or n.startswith(group + ".") for n in names):
                groups[group] += cum_us
                break
    return {
        "import.total_ms": sum(r[0] for r in rows) / 1000.0,
        "import.scipy_special_ms": groups["scipy.special"] / 1000.0,
        "import.scipy_integrate_ms": groups["scipy.integrate"] / 1000.0,
        "import.merton_risk_self_ms": sum(r[0] for r in rows if own(r[3])) / 1000.0,
    }
