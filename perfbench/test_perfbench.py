"""Tests of the benchmark itself: python -m pytest perfbench/test_perfbench.py"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_and_overlapping_spans():
    # name, start, end, parent, task
    spans = [
        ["a", 0.0, 10.0, -1, "t"],
        ["b", 1.0, 4.0, 0, "t"],
        ["c", 3.0, 6.0, 0, "t"],  # overlaps its sibling b on [3, 4]
        ["d", 2.0, 3.5, 1, "t"],  # nested in b; does not change a's self time
        ["b", 8.0, 12.0, 0, "t"],  # runs past its parent's end
    ]
    assert tracing.self_times(spans) == [10.0 - 7.0, 3.0 - 1.5, 3.0, 1.5, 4.0]
    layers = tracing.layer_times(spans)
    assert layers["b"] == {"calls": 2, "busy_s": 7.0, "self_s": 5.5}
    assert layers["a"]["self_s"] == 3.0


def test_busy_time_counts_recursive_calls_once():
    spans = [["f", 0.0, 5.0, -1, "t"], ["f", 1.0, 2.0, 0, "t"]]
    assert tracing.layer_times(spans)["f"] == {"calls": 2, "busy_s": 5.0, "self_s": 5.0}


def test_wrong_digest_fails_one_task_and_the_run_goes_on():
    tasks = [
        workloads.Task(name, lambda v=v: {"value": v}, lambda out: None)
        for name, v in (("a", 1), ("b", 2), ("c", 3))
    ]
    expected = {"a": worker.digest_of({"value": 1}), "b": "0" * 64,
                "c": worker.digest_of({"value": 3})}
    result = worker.measure(tasks, seconds=0.0, expected=expected)
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert [f["task"] for f in result["failures"]] == ["b"]
    assert result["digests"]["c"] == expected["c"]


def test_traced_and_untraced_passes_give_identical_outputs(tmp_path):
    picks = {
        "montecarlo": {"dw_run_exact_0", "balanced_flows"},
        "cli-artefacts": {"altafini3", "tetrahedron_merge", "hk_termination_sweep",
                          "degroot_n50", "analyze_degroot"},
    }
    tasks = [
        task
        for name, keep in picks.items()
        for task in workloads.build(name, 3, tmp_path / name)
        if task.name in keep
    ]
    original = workloads.od.hk_step
    result = worker.measure(tasks, seconds=0.0, trace=True)
    assert workloads.od.hk_step is original
    assert result["passes"] == 2
    assert result["failed"] == 0, result["failures"]
    layers = result["layers"]
    assert layers["cli.main.simulate.calls"] == 3
    assert layers["cli.main.experiment.calls"] == 1
    assert layers["cli.main.analyze.calls"] == 1
    assert layers["serialize.load_matrix.calls"] == 1
    assert layers["gossip.dw_run_exact.interactions"] == 100_000
    assert layers["serialize.bytes_written"] > 0
    assert layers["linear_dynamics.validations_per_step"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    argv = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *argv[1:], "--workload", "montecarlo", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
