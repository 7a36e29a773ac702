"""Spans around calls into opiniondyn's public functions.

The traced run rebinds each target function, in every loaded opiniondyn
module that holds it under a global name (the package namespace included,
through which the workloads call), to a wrapper that records a span: name, start, end, parent span and
task id. Spans stay in memory; per-layer figures are computed from them
after the pass. No source file of the package is changed.
"""

from __future__ import annotations

import functools
import sys
import time

# (defining module, function) pairs that get a span of their own. The span
# name is "<module>.<function>"; cli.main is named per subcommand.
TARGETS = (
    ("bounded_confidence", "hk_step"),
    ("bounded_confidence", "simulate_bc"),
    ("analysis", "clusters"),
    ("analysis", "two_r_experiment"),
    ("gossip", "simulate_gossip"),
    ("gossip", "cesaro"),
    ("gossip", "dw_run_exact"),
    ("linear_dynamics", "check_stochastic"),
    ("linear_dynamics", "simulate_discrete"),
    ("linear_dynamics", "flow_simulate"),
    ("linear_dynamics", "verify_convergence_premises"),
    ("linear_dynamics", "predict_bipartite_consensus"),
    ("linear_dynamics", "fj_fixed_point"),
    ("net_graph", "signed_laplacian_matrix"),
    ("net_graph", "persistent_graph"),
    ("net_graph", "structural_balance"),
    ("serialize", "trajectory_csv"),
    ("serialize", "events_csv"),
    ("serialize", "atomic_write_text"),
    ("serialize", "load_matrix"),
    ("presets", "preset_config"),
    ("presets", "confidence_from_params"),
    ("presets", "phi_from_params"),
    ("presets", "gossip_model_from_params"),
    ("presets", "weight_spec_from_params"),
    ("presets", "fj_spec_from_params"),
    ("cli", "main"),
)

CLI_COMMANDS = ("simulate", "experiment", "analyze")

# Span of the benchmark's own bookkeeping: it is excluded from the self time
# of its parent and reported under no layer.
COUNT_SPAN = "perfbench.count"


def span_names() -> list:
    """Every span name a layer metric is reported for, in TARGETS order."""
    names = []
    for module, func in TARGETS:
        if (module, func) == ("cli", "main"):
            names.extend(f"cli.main.{cmd}" for cmd in CLI_COMMANDS)
        elif module != "presets":
            names.append(f"{module}.{func}")
    return names


def _cli_span_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main.{argv[0]}" if argv else "cli.main"


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (children may nest or overlap)."""
    children = [[] for _ in spans]
    for idx, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = _union_length(
            (max(spans[c][1], start), min(spans[c][2], end))
            for c in children[idx]
            if spans[c][2] > start and spans[c][1] < end
        )
        out.append((end - start) - covered)
    return out


def layer_times(spans) -> dict:
    """Per span name: calls, busy_s (union of its spans' intervals, so a
    nested call of the same function is not counted twice) and self_s."""
    selfs = self_times(spans)
    by_name = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        entry = by_name.setdefault(name, {"calls": 0, "intervals": [], "self_s": 0.0})
        entry["calls"] += 1
        entry["intervals"].append((start, end))
        entry["self_s"] += selfs[idx]
    return {
        name: {
            "calls": e["calls"],
            "busy_s": _union_length(e["intervals"]),
            "self_s": e["self_s"],
        }
        for name, e in by_name.items()
    }


class Tracer:
    """Records spans while installed; ``install`` rebinds the targets,
    ``uninstall`` restores every rebound name.

    A span is the list [name, start, end, parent index, task id]. ``counters``
    maps a function's span name to a callable(tracer, args, kwargs, result)
    that adds computed counts to ``tracer.counts``; it runs inside a
    bookkeeping span so its cost is charged to no layer.
    """

    def __init__(self, counters=None):
        self.spans = []
        self.counts = {}
        self.task = None
        self._stack = []
        self._counters = counters or {}
        self._rebound = []

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.task]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, func, name):
        counter = self._counters.get(name) if isinstance(name, str) else None
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            rec = tracer.open(label)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(rec)
            if counter is not None:
                bookkeeping = tracer.open(COUNT_SPAN)
                try:
                    counter(tracer, args, kwargs, result)
                finally:
                    tracer.close(bookkeeping)
            return result

        return traced

    def install(self) -> None:
        holders = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "opiniondyn" or key.startswith("opiniondyn."))
        ]
        for module, func in TARGETS:
            original = getattr(sys.modules[f"opiniondyn.{module}"], func)
            name = _cli_span_name if (module, func) == ("cli", "main") else f"{module}.{func}"
            wrapper = self.wrap(original, name)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self._rebound.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._rebound):
            setattr(holder, attr, original)
        self._rebound = []
