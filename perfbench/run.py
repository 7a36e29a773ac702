"""Benchmark of the opiniondyn package: three workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload montecarlo --seed 0 --seconds 35 --trace 0

for each of the workloads montecarlo, large-n and cli-artefacts. With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics of a traced run. The last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Every metric is also printed by name and unit to standard error.

Load shape: a closed loop in one single-threaded child process per run
(BLAS and OpenMP pinned to one thread), which runs the workload's fixed
task list back to back for ``--seconds``. All inputs come from ``--seed``.
The set-up time is the median over several fresh processes. Wall and set-up
times are scaled to a reference machine speed measured alongside them (see
worker.calibrate); the raw seconds are kept in the run record. A run record
(seed, git commit, versions, nproc, thread pins) and, for traced runs, the
spans of the last traced pass are written under .perfbench_out/.

At seed 0 every task's output digest must equal the one in
perfbench/digests.json. A change that is meant to alter results bit for
bit copies the new digests from the run record's "digests" by hand and
says so.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("montecarlo", "large-n", "cli-artefacts")
SETUP_PROBES = 4
DEADLINE_S = 170.0
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_worker(argv: list, env: dict, deadline: float) -> dict:
    """Run worker.py to completion; returns its JSON result."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the deadline")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "opiniondyn" / "__init__.py").is_file():
        return fail(f"no opiniondyn sources under {ROOT / 'src'}")
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ, **THREAD_PINS, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = OUT / f"tmp-{tag}-{os.getpid()}"
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups, setups_raw = [], []
        if not args.trace:
            for k in range(SETUP_PROBES):
                probe = scratch / f"probe{k}"
                probe.mkdir(parents=True)
                res = run_worker(base + ["--scratch", str(probe), "--setup-only"], env, deadline)
                setups.append(res["setup_s"])
                setups_raw.append(res["setup_raw_s"])
        main_dir = scratch / "main"
        main_dir.mkdir(parents=True)
        extra = ["--spans", str(OUT / f"spans-{tag}.jsonl")] if args.trace else []
        res = run_worker(
            base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--scratch", str(main_dir), *extra],
            env, deadline,
        )
    except (RuntimeError, OSError, ValueError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    setups.append(res["setup_s"])
    setups_raw.append(res["setup_raw_s"])
    values = dict(res.get("layers", {}))
    values.update(
        wall_s=res["wall_s"],
        setup_s=statistics.median(setups),
        peak_rss_mb=res["peak_rss_mb"],
    )
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"no measurement for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_commit": git_commit(),
        "python": res["python"],
        "numpy": res["numpy"],
        "blas": res["blas"],
        "nproc": os.cpu_count(),
        "thread_pins": THREAD_PINS,
        "passes": res["passes"],
        "setup_samples_s": setups,
        "setup_raw_samples_s": setups_raw,
        "wall_raw_s": res["wall_raw_s"],
        "pass_wall_raw_s": res["pass_wall_s"],
        "task_wall_s": res["task_wall_s"],
        "task_wall_raw_samples_s": res["task_wall_raw_samples_s"],
        "calibration_samples_s": res["calibration_samples_s"],
        "failures": res["failures"],
        "digests": res["digests"],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    for failure in res["failures"]:
        print(f"FAILED {failure['task']} (pass {failure['pass']}):\n{failure['error']}",
              file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)

    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
