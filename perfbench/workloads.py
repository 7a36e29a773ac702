"""The benchmark's three workloads, built from a workload seed.

Each builder generates every input from the seed (numpy's PCG64, not the
package's own generator, so the inputs do not depend on the code under
test) and returns a list of tasks. A task's ``run`` is the timed call into
opiniondyn; ``collect`` (untimed) turns its result into named artefacts;
``check`` (untimed) raises CheckFailed when a seed-independent invariant
from the acceptance criteria does not hold.

- montecarlo: many small independent trials, where per-call overhead and
  Python loops dominate (criteria 7, 9, 10, 12 and 13 at reduced size).
- large-n: a few big runs, where the n x n (x m) vectorised kernels and
  memory dominate.
- cli-artefacts: ``cli.main`` in-process writing files, where row
  formatting, atomic writes, the analyze parser and dispatch dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import opiniondyn as od
from opiniondyn import cli, presets

class CheckFailed(Exception):
    """A task's output breaks one of its invariants."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[dict], None]
    collect: Callable[[object], dict] = lambda result: result
    prepare: Callable[[], None] = lambda: None


def build(workload: str, seed: int, scratch: Path) -> list:
    """Inputs and tasks of one workload; ``scratch`` is an empty directory
    the cli-artefacts workload writes its configs and outputs into."""
    if workload == "montecarlo":
        return _montecarlo(seed)
    if workload == "large-n":
        return _large_n(seed)
    if workload == "cli-artefacts":
        return _cli_artefacts(seed, scratch)
    raise ValueError(f"unknown workload {workload!r}")


def _rng(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng((seed, *tag))


def _in_hull(values, lo, hi, slack=1e-9) -> bool:
    values = np.asarray(values)
    return bool(np.all(values >= lo - slack) and np.all(values <= hi + slack))


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

TABLE1_BOUNDS = (0.05, 0.06, 0.11, 0.12, 0.2, 0.25)


def _two_r_task(seed: int) -> Task:
    def run():
        rows = od.two_r_experiment(n=100, d_list=list(TABLE1_BOUNDS), trials=20, seed=seed)
        return {"counts": [(row.d, row.counts) for row in rows]}

    def check(out):
        # criterion 13: every count lies in [1, floor(1/d) + 1]
        for d, counts in out["counts"]:
            require(all(1 <= c <= math.floor(1.0 / d) + 1 for c in counts), f"d={d}: {counts}")

    return Task("two_r_experiment", run, check)


def _fj_instance(rng: np.random.Generator, n: int = 4):
    w = rng.uniform(0.05, 1.0, size=(n, n))
    w /= w.sum(axis=1, keepdims=True)
    lam = rng.uniform(0.5, 0.95, size=n)
    u = rng.uniform(0.0, 100.0, size=n)
    return lam, w, u


def _fj_gossip_task(seed: int, k: int) -> Task:
    lam, w, u = _fj_instance(_rng(seed, 7, k))
    model = od.GossipFJ.from_fj(lam, w, u)
    spec = od.FJSpec(lam=lam, w=w, u=u)
    x0 = od.OpinionState(u)
    run_seed = (seed, 700 + k)

    def run():
        traj = od.simulate_gossip(model, x0, steps=100_000, seed=run_seed, record_events=False)
        averages = od.cesaro(traj)
        xbar = od.fj_fixed_point(spec).values
        return {"final": traj.final.values, "cesaro": averages[-1], "xbar": xbar}

    def check(out):
        # every update is a convex combination of opinions and prejudices
        lo, hi = u.min(), u.max()
        require(_in_hull(out["final"], lo, hi), "opinions left the prejudice hull")
        require(_in_hull(out["cesaro"], lo, hi), "running mean left the prejudice hull")
        xbar = out["xbar"][:, 0]
        residual = lam * (w @ xbar) + (1 - lam) * u - xbar
        require(np.max(np.abs(residual)) < 1e-9, "fixed point residual")

    return Task(f"fj_gossip_{k}", run, check)


def _dw_exact_task(seed: int, k: int, d: float) -> Task:
    model = od.DeffuantWeisbuch(d=d, mu=0.5, mode="symmetric")
    x0 = od.OpinionState(_rng(seed, 9, k).uniform(0.0, 1.0, size=50))
    run_seed = (seed, 900 + k)

    def run():
        res = od.dw_run_exact(model, x0, steps=100_000, seed=run_seed)
        return {"initial": res.initial_exact, "final": res.final_exact}

    def check(out):
        # criterion 9: the symmetric pair dynamics conserves the sum exactly
        require(sum(out["initial"]) == sum(out["final"]), "opinion sum not conserved")
        require(_in_hull([float(v) for v in out["final"]], x0.flat.min(), x0.flat.max(), 0.0),
                "opinions left the initial hull")

    return Task(f"dw_run_exact_{k}", run, check)


def _premise_pool(rng: np.random.Generator):
    """Criterion 12's construction: a pool of matrices satisfying the
    convergence premises whose persistent graph splits into blocks. The
    couplings are shrunk by one part in 10**12 so that rounding cannot push
    a diagonal below delta (the criterion's test redraws such pools)."""
    n = int(rng.integers(4, 9))
    split = int(rng.integers(0, 3))
    if split and n >= 6:
        cut = int(rng.integers(2, n - 2))
        blocks = [list(range(cut)), list(range(cut, n))]
    else:
        blocks = [list(range(n))]
    delta = 0.1
    pool_size = 3
    edge_sets = [[] for _ in range(pool_size)]
    for block in blocks:
        if len(block) == 1:
            continue
        ring = [(block[k], block[(k + 1) % len(block)]) for k in range(len(block))]
        if len(block) == 2:
            ring = ring[:1]
        for e_idx, edge in enumerate(ring):
            edge_sets[e_idx % pool_size].append(edge)
            extra = int(rng.integers(0, pool_size))
            if extra != e_idx % pool_size:
                edge_sets[extra].append(edge)
    pool = []
    for edges in edge_sets:
        w = np.zeros((n, n))
        degree = np.zeros(n)
        for i, j in edges:
            degree[i] += 1
            degree[j] += 1
        for i, j in set(edges):
            alpha = (1.0 - delta) / max(degree[i], degree[j], 2.0) * (1.0 - 1e-12)
            w[i, j] = alpha
            w[j, i] = alpha
        np.fill_diagonal(w, 1.0 - w.sum(axis=1))
        pool.append(w)
    return n, pool, delta


def _discrete_rule_task(seed: int, k: int) -> Task:
    rng = _rng(seed, 12, k)
    n, pool, delta = _premise_pool(rng)
    spec = od.WeightSpec.from_rule("stochastic", lambda t, x: pool[int(t) % len(pool)], n=n)
    x0 = od.OpinionState(rng.uniform(0.0, 1.0, size=n))
    horizon = 10_000

    def run():
        report = od.verify_convergence_premises(pool, delta=delta)
        graph = od.persistent_graph(
            (pool[t % len(pool)] for t in range(horizon)), threshold=10 * delta
        )
        traj = od.simulate_discrete(spec, x0, steps=horizon)
        return {
            "premises": report.passed,
            "components": graph.connected_components(),
            "final": traj.final.values,
        }

    def check(out):
        # criterion 12: premise-passing schedules agree within persistent components
        require(out["premises"], "construction failed the convergence premises")
        final = out["final"][:, 0]
        for comp in out["components"]:
            vals = final[list(comp)]
            require(vals.max() - vals.min() < 1e-6, f"component {comp} disagrees")

    return Task(f"simulate_discrete_rule_{k}", run, check)


def _random_balanced(rng: np.random.Generator, n: int) -> od.SignedGraph:
    a = np.zeros((n, n))
    for k in range(n):
        a[k, (k + 1) % n] = rng.uniform(1.0, 2.0)
        a[(k + 1) % n, k] = rng.uniform(1.0, 2.0)
    for _ in range(n):
        i, j = rng.integers(n, size=2)
        if i != j:
            a[i, j] = rng.uniform(1.0, 2.0)
    signs = rng.choice([-1.0, 1.0], size=n)
    return od.SignedGraph(signs[:, None] * a * signs[None, :])


def _flow_horizon(lap: np.ndarray, target: float = 20.0):
    eig = np.linalg.eigvals(lap)
    gap = eig.real[eig.real > 1e-9].min()
    return float(target / gap), min(0.05, 1.2 / float(np.abs(eig).max()))


def _balanced_flows_task(seed: int, count: int = 40) -> Task:
    rng = _rng(seed, 10)
    cases = []
    for _ in range(count):
        n = int(rng.integers(3, 7))
        g = _random_balanced(rng, n)
        x0 = od.OpinionState(rng.normal(size=n))
        lap = np.diag(np.abs(g.weights).sum(axis=1)) - np.abs(g.weights)
        t_end, dt = _flow_horizon(lap)
        cases.append((g, x0, od.WeightSpec.constant("signed", g.weights), t_end, dt))

    def run():
        out = []
        for g, x0, spec, t_end, dt in cases:
            pred = od.predict_bipartite_consensus(g, x0)
            traj = od.flow_simulate(spec, x0, t_end=t_end, dt=dt)
            out.append((pred.kind, pred.values, traj.final.values))
        return {"flows": out}

    def check(out):
        # criterion 10: balanced graphs polarize onto the predicted profile
        for kind, predicted, final in out["flows"]:
            require(kind == "polarized", f"prediction {kind!r} on a balanced graph")
            require(np.max(np.abs(final - predicted)) < 1e-6, "flow missed the prediction")

    return Task("balanced_flows", run, check)


def _montecarlo(seed: int) -> list:
    tasks = [_two_r_task(seed)]
    tasks += [_fj_gossip_task(seed, k) for k in range(4)]
    tasks += [_dw_exact_task(seed, k, (0.1, 0.3)[k % 2]) for k in range(6)]
    tasks += [_discrete_rule_task(seed, k) for k in range(4)]
    tasks.append(_balanced_flows_task(seed))
    return tasks


# ---------------------------------------------------------------------------
# large-n
# ---------------------------------------------------------------------------


def _hk_task(name: str, x0: od.OpinionState, spec, d: float, horizon=None) -> Task:
    """Bounded confidence to its exact fixed point, or for ``horizon`` steps."""

    def run():
        try:
            traj = od.simulate_bc(lambda s: od.hk_step(s, spec), x0, max_steps=horizon or 10_000)
        except od.MaxStepsError as exc:
            if horizon is None:
                raise
            traj = exc.trajectory
        profile = od.clusters(traj.final, d)
        return {
            "array": traj.array,
            "terminated_at": traj.terminated_at,
            "members": profile.members,
            "min_separation": profile.min_separation,
        }

    def check(out):
        # every step averages opinions, so no state leaves x0's bounding box
        require(_in_hull(out["array"], x0.values.min(axis=0), x0.values.max(axis=0), 1e-12),
                "opinions left the initial box")
        count = len(out["members"])
        require(count == 1 or out["min_separation"] > d, "clusters closer than d")
        if horizon is not None:
            return
        final = od.OpinionState(out["array"][-1])
        require(out["terminated_at"] is not None, "no exact fixed point")
        require(np.array_equal(od.hk_step(final, spec).values, final.values),
                "final state is not a fixed point bit for bit")
        # criterion 13's bounds on the cluster count
        require(1 <= count <= math.floor(1.0 / d) + 1, f"{count} clusters")

    return Task(name, run, check)


def _gossip_task(name: str, model, x0: od.OpinionState, steps: int, seed) -> Task:
    lo, hi = x0.flat.min(), x0.flat.max()

    def run():
        return od.simulate_gossip(model, x0, steps=steps, seed=seed, thin=10_000)

    def collect(traj):
        # one int array hashes far faster than a list of event tuples
        return {"array": traj.array, "events": np.array(traj.events, dtype=np.int64)}

    def check(out):
        require(len(out["events"]) == steps, "one event per step")
        require(_in_hull(out["array"], lo, hi, 1e-12), "opinions left the initial hull")
        if isinstance(model, od.DeffuantWeisbuch):
            drift = abs(out["array"][-1].sum() - out["array"][0].sum())
            require(drift < 1e-9 * x0.n, "symmetric pair dynamics lost its sum")

    return Task(name, run, check, collect)


def _large_n(seed: int) -> list:
    # Near-regular starts (a jittered lattice) keep the bounded-confidence run
    # lengths almost seed-independent, so a seed changes the inputs, not the
    # amount of work; uniform random starts vary it by up to a factor of five.
    tasks = []
    for k, (n, d) in enumerate(((4000, 0.3), (1000, 0.1))):
        x0 = od.OpinionState((np.arange(n) + _rng(seed, 20, k).uniform(0.25, 0.75, size=n)) / n)
        tasks.append(_hk_task(f"hk_scalar_n{n}", x0, od.ConfidenceSpec.symmetric(d), d))
    grid = np.stack(np.meshgrid(np.arange(20), np.arange(20), indexing="ij"), -1).reshape(-1, 2)
    x0 = od.OpinionState((grid + _rng(seed, 21).uniform(0.25, 0.75, size=(400, 2))) / 20)
    # the final merge of the 2-D run takes 15 to 50 steps, so it runs a fixed horizon
    tasks.append(_hk_task("hk_ball_n400", x0, od.ConfidenceSpec.norm_ball(0.25), 0.25,
                          horizon=12))

    x0 = od.OpinionState(_rng(seed, 22).uniform(0.0, 1.0, size=2000))
    tasks.append(_gossip_task("dw_float_n2000", od.DeffuantWeisbuch(d=0.3, mu=0.5), x0,
                              500_000, (seed, 22)))

    rng = _rng(seed, 23)
    n = 500
    p = np.where(rng.random((n, n)) < 0.05, rng.uniform(0.5, 1.5, size=(n, n)), 0.0)
    np.fill_diagonal(p, 0.0)
    p[np.arange(n), (np.arange(n) + 1) % n] += 1.0  # a ring keeps every row nonempty
    p /= p.sum(axis=1, keepdims=True)
    model = od.DegrootGossip(p, rng.uniform(0.2, 0.8, size=n))
    x0 = od.OpinionState(rng.uniform(0.0, 1.0, size=n))
    tasks.append(_gossip_task("degroot_gossip_n500", model, x0, 300_000, (seed, 23)))

    rng = _rng(seed, 24)
    w = rng.uniform(0.0, 1.0, size=(1000, 1000))
    w /= w.sum(axis=1, keepdims=True)
    # lazy averaging: far from machine-precision consensus after 300 steps, so
    # the run never stops early at an exact fixed point
    spec = od.WeightSpec.constant("stochastic", 0.95 * np.eye(1000) + 0.05 * w)
    x0 = od.OpinionState(rng.uniform(0.0, 1.0, size=(1000, 4)))

    def run_discrete():
        return {"array": od.simulate_discrete(spec, x0, steps=300).array}

    def check_discrete(out):
        arr = out["array"]
        lo, hi = x0.values.min(axis=0), x0.values.max(axis=0)
        require(np.all(arr >= lo - 1e-12) and np.all(arr <= hi + 1e-12),
                "averaging left the initial hull")
        require(np.all(np.ptp(arr[-1], axis=0) <= np.ptp(x0.values, axis=0)),
                "spread grew")

    tasks.append(Task("simulate_discrete_n1000", run_discrete, check_discrete))

    rng = _rng(seed, 25)
    a = np.where(rng.random((200, 200)) < 0.05, rng.uniform(0.5, 1.5, size=(200, 200)), 0.0)
    np.fill_diagonal(a, 0.0)
    a *= 18.0 / a.sum(axis=1).max()  # fixes the default step count at 3800
    flow_spec = od.WeightSpec.constant("nonnegative", a)
    flow_x0 = od.OpinionState(rng.uniform(0.0, 1.0, size=200))

    def run_flow():
        return {"array": od.flow_simulate(flow_spec, flow_x0, t_end=2.0).array}

    def check_flow(out):
        arr = out["array"]
        require(_in_hull(arr, flow_x0.flat.min(), flow_x0.flat.max(), 1e-12),
                "cooperative flow left the initial hull")

    tasks.append(Task("flow_nonnegative_n200", run_flow, check_flow))
    return tasks


# ---------------------------------------------------------------------------
# cli-artefacts
# ---------------------------------------------------------------------------


def _cli_task(name: str, argv: list, out_dir: Path, expected: tuple, check) -> Task:
    def prepare():
        shutil.rmtree(out_dir, ignore_errors=True)

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv + ["--out", str(out_dir)])

    def collect(code):
        files = {}
        if out_dir.is_dir():
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        return {"exit": code, "files": files}

    def full_check(out):
        require(out["exit"] == 0, f"exit code {out['exit']}")
        missing = set(expected) - set(out["files"])
        require(not missing, f"missing outputs {sorted(missing)}")
        check(out["files"])

    return Task(name, run, full_check, collect, prepare)


# The checks read the output bytes without copying whole files into str or
# row lists, so that they use less memory than the program does and
# peak_rss_mb stays the program's.


def _row_count(data: bytes) -> int:
    """Data rows of a CSV file that ends with a newline."""
    return data.count(b"\n") - 1


def _csv_rows(data: bytes) -> list:
    return [line.decode().split(",") for line in data.splitlines()[1:]]


def _column(data: bytes, k: int):
    for line in data.splitlines()[1:]:
        yield line.split(b",")[k].decode()


def _cli_artefacts(seed: int, scratch: Path) -> list:
    rng = _rng(seed, 30)
    cfg_dir = scratch / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    run_seed = int(rng.integers(0, 2**31))

    def write_config(name: str, config: dict) -> str:
        path = cfg_dir / name
        path.write_text(json.dumps(config, indent=2))
        return str(path)

    def out(name: str) -> Path:
        return scratch / "out" / name

    tasks = []

    fj = presets.preset_config("fj-gossip4")
    fj.update(thin=2, outputs=["trajectory", "cesaro", "summary"])
    fj_cfg = write_config("fj.json", fj)
    u = np.asarray(fj["params"]["u"])

    def check_fj(files):
        require(_row_count(files["trajectory.csv"]) == 4 * 100_001, "trajectory rows")
        require(_row_count(files["cesaro.csv"]) == 4 * 100_001, "cesaro rows")
        summary = json.loads(files["summary.json"])
        require(_in_hull(summary["final_state"], u.min(), u.max()), "left the prejudice hull")
        require(_in_hull(summary["cesaro_final"], u.min(), u.max()), "mean left the hull")

    tasks.append(_cli_task("fj_gossip4", ["simulate", "--config", fj_cfg,
                                          "--seed", str(run_seed)],
                           out("fj"), ("trajectory.csv", "cesaro.csv", "summary.json"),
                           check_fj))

    def check_dw(files):
        require(_row_count(files["events.csv"]) == 100_000, "one event row per step")
        require(set(_column(files["events.csv"], 3)) <= {"0", "1"}, "interacted flag is 0/1")
        members = sorted(a for group in json.loads(files["summary.json"])["clusters"]
                         for a in group)
        require(members == list(range(50)), "clusters do not partition the agents")

    tasks.append(_cli_task("dw_basic", ["simulate", "--preset", "dw-basic",
                                        "--seed", str(run_seed + 1)],
                           out("dw"), ("events.csv", "summary.json"), check_dw))

    alt = presets.preset_config("altafini3")
    alt["outputs"] = ["trajectory", "summary", "classification"]
    alt_cfg = write_config("altafini3.json", alt)

    def check_altafini(files):
        require(json.loads(files["summary.json"])["family_check"]["passed"],
                "flow missed the (xi, -xi, xi/3) line")
        require(_row_count(files["trajectory.csv"]) == 3 * 4001, "trajectory rows")

    tasks.append(_cli_task("altafini3", ["simulate", "--config", alt_cfg], out("altafini3"),
                           ("trajectory.csv", "summary.json", "classification.json"),
                           check_altafini))

    def check_tetra(files):
        summary = json.loads(files["summary.json"])
        require(summary["terminated_at"] == 3 and summary["final_diameter"] == 0.0,
                "tetrahedron did not reach consensus at step 3")

    tasks.append(_cli_task("tetrahedron_merge", ["simulate", "--preset", "tetrahedron-merge"],
                           out("tetra"), ("trajectory.csv", "summary.json"), check_tetra))

    def check_heterophily(files):
        members = sorted(a for group in json.loads(files["clusters.json"])["members"]
                         for a in group)
        require(members == list(range(40)), "clusters do not partition the agents")

    tasks.append(_cli_task("heterophily", ["simulate", "--preset", "heterophily",
                                           "--seed", str(run_seed + 2)],
                           out("heterophily"),
                           ("trajectory.csv", "summary.json", "clusters.json"),
                           check_heterophily))

    def check_sweep(files):
        rows = _csv_rows(files["sweep.csv"])
        require(len(rows) == 25, "one row per instance")
        # criterion 1: termination within 2 n^3 - 2 (n-1)^2 steps
        require(all(r[3] != "None" and int(r[3]) <= int(r[4]) for r in rows),
                "a run missed the termination bound")

    tasks.append(_cli_task("hk_termination_sweep", ["experiment", "--preset",
                                                    "hk-termination-sweep",
                                                    "--seed", str(run_seed + 3)],
                           out("sweep"), ("sweep.csv",), check_sweep))

    hk_d = 0.15
    hk_cfg = write_config("hk.json", {
        "model": "hk",
        "params": {"d": hk_d},
        "x0": _rng(seed, 31).uniform(0.0, 1.0, size=300).tolist(),
        "horizon": 10_000,
        "outputs": ["trajectory", "summary", "clusters", "energies"],
    })

    def check_hk(files):
        require(json.loads(files["summary.json"])["terminated_at"] is not None,
                "no exact fixed point")
        energies = [float(v) for v in _column(files["energies.csv"], 1)]
        # criterion 3: the interaction energy never increases
        require(all(b <= a + 1e-9 for a, b in zip(energies, energies[1:])), "energy rose")
        clusters = json.loads(files["clusters.json"])
        reps = sorted(r[0] for r in clusters["representatives"])
        require(clusters["count"] == len(reps), "cluster count")
        require(all(b - a > hk_d for a, b in zip(reps, reps[1:])), "clusters closer than d")

    tasks.append(_cli_task("hk_n300", ["simulate", "--config", hk_cfg], out("hk"),
                           ("trajectory.csv", "summary.json", "clusters.json", "energies.csv"),
                           check_hk))

    w = rng.uniform(0.0, 1.0, size=(50, 50))
    w /= w.sum(axis=1, keepdims=True)
    matrix_path = cfg_dir / "w50.csv"
    matrix_path.write_text("\n".join(",".join(map(repr, row)) for row in w.tolist()) + "\n")
    x0 = rng.uniform(0.0, 1.0, size=50)
    degroot_cfg = write_config("degroot.json", {
        "model": "degroot",
        "params": {"matrix": {"file": str(matrix_path)}},
        "x0": x0.tolist(),
        "horizon": 2000,
        "outputs": ["trajectory", "summary"],
    })

    def check_degroot(files):
        values = [float(v) for v in _column(files["trajectory.csv"], 4)]
        require(_in_hull(values, x0.min(), x0.max(), 1e-12), "averaging left the hull")

    tasks.append(_cli_task("degroot_n50", ["simulate", "--config", degroot_cfg],
                           out("degroot"), ("trajectory.csv", "summary.json"), check_degroot))

    def check_analysis(files):
        payload = json.loads(files["analysis.json"])
        require(payload["classification"]["kind"] in
                ("consensus", "polarization", "clusters", "not_converged"), "classification")

    for source, gap in (("degroot", 1e-3), ("fj", 1.0)):
        tasks.append(_cli_task(
            f"analyze_{source}",
            ["analyze", "--trajectory", str(out(source) / "trajectory.csv"),
             "--gap-tol", repr(gap)],
            out(f"analyze_{source}"), ("analysis.json",), check_analysis,
        ))
    return tasks
