"""One workload in one process: set-up, timed passes, checks and digests.

Started by run.py, which sets the thread pins and PYTHONPATH; prints one
JSON object as the last line of its standard output.

A pass runs the workload's task list once, back to back. Passes repeat
while another one fits into ``--seconds`` (at least one; at least two in the
traced run, which alternates untraced and traced passes). The first pass also runs each
task's invariant check. Every pass digests each task's outputs and compares
the digest with the recorded one (default seed) or with the first pass's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing

DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 0

# Median time of calibrate() on the machine the benchmark was defined on
# (2 vCPUs shared with other tenants, Python 3.11.7, numpy 2.4.6 with
# single-threaded OpenBLAS). Times are reported at that speed.
CAL_REFERENCE_S = 0.045


def calibrate() -> float:
    """Seconds taken by a fixed kernel that does not use opiniondyn.

    The host's speed drifts by tens of percent over minutes (other tenants
    share its cores), and it moves plain timings of identical code as much
    as a real change would. Each task runs between two calls of this
    kernel, and its time is scaled by CAL_REFERENCE_S over their mean: the
    benchmark's times are those at a fixed machine speed. The kernel mixes
    what the workloads spend their time on: interpreted loops, float
    formatting, many small numpy calls, BLAS and sorting.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    vec = rng.random(100_000)
    mat = rng.random((120, 120))
    small = rng.random((6, 6))
    t0 = time.perf_counter()
    total = 0
    for i in range(80_000):
        total += i * i
    ",".join(format(v, ".17g") for v in vec[:30_000].tolist())
    for _ in range(3000):
        np.abs(small).sum(axis=1)
    for _ in range(16):
        mat @ mat
    for _ in range(6):
        np.sort(vec)
    return time.perf_counter() - t0


def speed_scale(samples: int = 3) -> float:
    """CAL_REFERENCE_S over the median of a few calibrate() calls."""
    return CAL_REFERENCE_S / statistics.median(calibrate() for _ in range(samples))


def digest_of(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, dict):
        h.update(b"{%d" % len(obj))
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, bytes):
        h.update(b"b%d:" % len(obj))
        h.update(obj)
    elif hasattr(obj, "tobytes") and hasattr(obj, "shape"):
        h.update(f"a{obj.dtype.str}{obj.shape}:".encode())
        h.update(obj.tobytes())
    else:
        text = repr(obj).encode()
        h.update(b"r%d:" % len(text))
        h.update(text)


# ---------------------------------------------------------------------------
# Computed counters of the traced run: each depends only on the inputs and
# outputs of a call, so it repeats exactly for one seed.
# ---------------------------------------------------------------------------


def _count_hk_step(tracer, args, kwargs, result):
    # the two (n, n, m) float64 temporaries of the masked mean, plus the
    # (n, n, m) difference array of a norm-ball trust test
    x, spec = args[0], args[1] if len(args) > 1 else kwargs["spec"]
    arrays = 3 if spec.variant == "norm_ball" else 2
    tracer.add("bounded_confidence.hk_step.bytes_computed", arrays * 8 * x.n * x.n * x.m)


def _count_clusters(tracer, args, kwargs, result):
    sizes = [len(m) for m in result.members]
    n = sum(sizes)
    tracer.add("analysis.clusters.cross_pairs", (n * n - sum(s * s for s in sizes)) // 2)


def _count_gossip(tracer, args, kwargs, result):
    tracer.add("gossip.simulate_gossip.interactions", int(result.stamps[-1]))
    if result.events is not None:
        tracer.add("gossip.simulate_gossip.events", len(result.events))
        tracer.add("gossip.simulate_gossip.moved", sum(1 for e in result.events if e[2]))


def _count_steps(key):
    def count(tracer, args, kwargs, result):
        tracer.add(key, len(result) - 1)

    return count


COUNTERS = {
    "bounded_confidence.hk_step": _count_hk_step,
    "bounded_confidence.simulate_bc": _count_steps("bounded_confidence.simulate_bc.steps"),
    "analysis.clusters": _count_clusters,
    "gossip.simulate_gossip": _count_gossip,
    "gossip.cesaro": lambda t, a, k, r: t.add("gossip.cesaro.states", r.shape[0]),
    "gossip.dw_run_exact": lambda t, a, k, r: t.add(
        "gossip.dw_run_exact.interactions", int(r.trajectory.stamps[-1])
    ),
    "linear_dynamics.simulate_discrete": _count_steps("linear_dynamics.simulate_discrete.steps"),
    "linear_dynamics.flow_simulate": _count_steps("linear_dynamics.flow_simulate.steps"),
    "serialize.atomic_write_text": lambda t, a, k, r: t.add(
        "serialize.bytes_written", len((a[1] if len(a) > 1 else k["text"]).encode())
    ),
}

COUNT_KEYS = (
    "bounded_confidence.hk_step.bytes_computed",
    "bounded_confidence.simulate_bc.steps",
    "analysis.clusters.cross_pairs",
    "gossip.simulate_gossip.interactions",
    "gossip.simulate_gossip.events",
    "gossip.cesaro.states",
    "gossip.dw_run_exact.interactions",
    "linear_dynamics.simulate_discrete.steps",
    "linear_dynamics.flow_simulate.steps",
    "serialize.bytes_written",
)


def layer_metrics(tracer: tracing.Tracer) -> dict:
    """Per-layer figures of one traced pass."""
    spans = tracer.spans
    times = tracing.layer_times(spans)
    out = {}
    for name in tracing.span_names():
        entry = times.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for key in ("calls", "busy_s", "self_s"):
            out[f"{name}.{key}"] = entry[key]
    # preset functions never call one another, so their busy times add up
    for key in ("calls", "busy_s", "self_s"):
        out[f"presets.{key}"] = sum(v[key] for n, v in times.items() if n.startswith("presets."))
    for key in COUNT_KEYS:
        out[key] = tracer.counts.get(key, 0)
    events = out["gossip.simulate_gossip.events"]
    out["gossip.simulate_gossip.moved_ratio"] = (
        tracer.counts.get("gossip.simulate_gossip.moved", 0) / events if events else 0.0
    )
    discrete = "linear_dynamics.simulate_discrete"
    in_discrete = 0
    for name, _, _, parent, _ in spans:
        if name == "linear_dynamics.check_stochastic":
            while parent >= 0 and spans[parent][0] != discrete:
                parent = spans[parent][3]
            in_discrete += parent >= 0
    steps = out[f"{discrete}.steps"]
    out["linear_dynamics.validations_per_step"] = in_discrete / steps if steps else 0.0
    return out


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def run_task(task, tracer, check: bool):
    """Run one task; returns (wall s, cpu s, digest or None, error or None).
    Only ``task.run`` is timed; collecting, digesting and checking are not."""
    task.prepare()
    if tracer is not None:
        tracer.task = task.name
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result = task.run()
    except Exception:
        return time.perf_counter() - t0, time.process_time() - cpu0, None, traceback.format_exc()
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    try:
        out = task.collect(result)
        digest = digest_of(out)
        if check:
            task.check(out)
    except Exception:
        return wall, cpu, None, traceback.format_exc()
    return wall, cpu, digest, None


def measure(tasks, seconds: float, expected=None, trace: bool = False) -> dict:
    """Timed passes over ``tasks``. ``expected`` maps task name to the
    recorded digest; without it, later passes must match the first.

    Task times are scaled to the reference machine speed by the calibration
    runs on either side of the task; ``wall_raw_s`` keeps the plain sum."""
    reference = {}
    plain = {t.name: [] for t in tasks}
    plain_raw = {t.name: [] for t in tasks}
    pass_walls = []
    cal_samples = []
    plain_cpu = {t.name: [] for t in tasks}
    traced = {t.name: [] for t in tasks}
    layers = []
    failures = []
    attempted = 0
    last_spans = []
    start = time.perf_counter()
    pass_no = 0
    # start another pass only if a pass as long as the median so far still
    # ends within the measuring time
    durations = []
    while pass_no < (2 if trace else 1) or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        pass_start = time.perf_counter()
        tracer = tracing.Tracer(COUNTERS) if trace and pass_no % 2 == 1 else None
        if tracer is not None:
            tracer.install()
        try:
            before = calibrate()
            for task in tasks:
                wall, cpu, digest, error = run_task(task, tracer, check=pass_no == 0)
                after = calibrate()
                scaled = wall * CAL_REFERENCE_S / ((before + after) / 2)
                before = after
                attempted += 1
                if digest is not None:
                    first = reference.setdefault(task.name, digest)
                    want = first if expected is None else expected.get(task.name)
                    if digest != want:
                        error = f"output digest {digest[:12]} != expected {str(want)[:12]}"
                if error is not None:
                    failures.append({"task": task.name, "pass": pass_no, "error": error})
                if tracer is None:
                    cal_samples.append(after)
                    plain[task.name].append(scaled)
                    plain_raw[task.name].append(wall)
                    plain_cpu[task.name].append(cpu)
                else:
                    traced[task.name].append(scaled)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is None:
            pass_walls.append(sum(v[-1] for v in plain_raw.values() if v))
        else:
            layers.append(layer_metrics(tracer))
            last_spans = tracer.spans
        pass_no += 1
        durations.append(time.perf_counter() - pass_start)

    def total(samples):
        return sum(statistics.median(v) for v in samples.values() if v)

    result = {
        "passes": pass_no,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "digests": reference,
        "wall_s": total(plain),
        "wall_raw_s": total(plain_raw),
        "cpu_s": total(plain_cpu),
        "pass_wall_s": pass_walls,
        "task_wall_s": {name: statistics.median(v) for name, v in plain.items() if v},
        "task_wall_raw_samples_s": plain_raw,
        "calibration_samples_s": cal_samples,
    }
    if trace:
        result["layers"] = {
            key: statistics.median(layer[key] for layer in layers) for key in layers[0]
        }
        result["layers"]["process.cpu_s"] = result["cpu_s"]
        result["layers"]["process.trace_overhead_frac"] = total(traced) / result["wall_s"] - 1.0
        result["spans"] = last_spans
    return result


def _versions() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True, help="empty directory for task files")
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import workloads

    tasks = workloads.build(args.workload, args.seed, Path(args.scratch))
    setup_raw_s = time.perf_counter() - t0
    setup_s = setup_raw_s * speed_scale()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    expected = None
    if args.seed == DEFAULT_SEED:
        expected = json.loads(DIGESTS.read_text()).get(args.workload, {})
    result = measure(tasks, args.seconds, expected, bool(args.trace))
    spans = result.pop("spans", None)
    if args.spans and spans is not None:
        with open(args.spans, "w") as fh:
            for name, start, end, parent, task in spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")
    result["setup_s"] = setup_s
    result["setup_raw_s"] = setup_raw_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(_versions())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
