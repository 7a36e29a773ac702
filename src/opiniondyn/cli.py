"""Batch experiment runner.

``opiniondyn simulate`` runs one scenario from a JSON config or a named
preset, ``opiniondyn experiment`` runs the table-producing scenarios,
``opiniondyn analyze`` post-processes a trajectory CSV, and ``opiniondyn
presets`` lists the built-in scenarios. Command-line flags override config
values (flag > config > default). Outputs are deterministic given the seed,
carry no timestamps, and are written atomically.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import analysis, bounded_confidence as bc, gossip as gp
from . import linear_dynamics as ld
from . import presets as pr
from . import serialize as io
from .net_graph import SignedGraph, structural_balance
from .state import MaxStepsError, OpinionState, SimulationError, Trajectory, _array, _count
from .state import _agents, _bound, _real, _stamps

EXPERIMENT_MODELS = ("two-r", "hk-sweep")
# Keys every config may carry, given to a run function that names them.
COMMON = ("model", "params", "seed", "format", "outputs")
HORIZON, TOL, GAP_TOL = 10000, 1e-6, 1e-4  # defaults of settings several models read


class CliError(Exception):
    def __init__(self, stage: str, message: str, hint: str = ""):
        super().__init__(message)
        self.stage = stage
        self.hint = hint

    def payload(self) -> dict:
        return {"stage": self.stage, "message": str(self), "hint": self.hint}


def _initial_state(x0, seed: int) -> OpinionState:
    """x0 as opinions, or ``{"uniform": [lo, hi, n]}`` drawn on stream 1 of the seed.
    CliError with stage config for a dict of any other form."""
    if isinstance(x0, dict):
        hint = 'give x0 as a list of opinions or as {"uniform": [lo, hi, n]}'
        if list(x0) != ["uniform"]:
            raise CliError("config", f"x0 takes the one key 'uniform', got {list(x0)}", hint)
        if not isinstance(x0["uniform"], (list, tuple)) or len(x0["uniform"]) != 3:
            raise CliError("config", f"x0 uniform must be [lo, hi, n], got {x0['uniform']!r}",
                           hint)
        lo, hi, n = x0["uniform"]
        rng = gp.make_rng((seed, 1))
        return OpinionState(rng.uniform(_real("uniform lo", lo), _real("uniform hi", hi),
                                        size=_count("uniform n", n, 1)))
    return OpinionState(_array("x0", x0))


def _split(params: dict, fn) -> tuple:
    """``params`` as the entries ``fn`` takes by name, and the rest."""
    names = inspect.signature(fn).parameters
    return ({key: value for key, value in params.items() if key in names},
            {key: value for key, value in params.items() if key not in names})


def _family_check(n: int, ratios, tol=1e-6) -> tuple:
    """A ``family_check`` as (ratios, tol): how far the final state lies
    from its best multiple of ``ratios``. ValueError when there is no finite
    such multiple, or for a NaN or negative tol."""
    ratios = _array("family_check ratios", ratios, finite=True)
    if ratios.ndim != 1:
        raise ValueError(f"family_check ratios must be a vector, got shape {ratios.shape}")
    if float(ratios @ ratios) == 0.0:
        raise ValueError(f"family_check ratios {ratios.tolist()} are all zero")
    _agents("family_check ratios", len(ratios), n)
    return ratios, _real("family_check tol", tol, "[0, inf]")


def _family_fit(flat: np.ndarray, ratios: np.ndarray) -> tuple:
    """(scale, max deviation): the least-squares multiple of ``ratios`` for
    the opinions ``flat``, and how far they lie from it. Where ``flat @
    ratios`` overflows, both are taken again on flat * 2**-k, with 2**k > n
    times the largest ratio, and scaled back by 2**k, as
    ``bounded_confidence._finite_means`` takes a mean: a state near the float
    limit is checked without a warning, and any other keeps its bits."""
    with np.errstate(over="ignore"):
        dot = flat @ ratios
    k = 0
    if not np.isfinite(dot):
        k = len(flat).bit_length() + max(0, math.frexp(float(np.max(np.abs(ratios))))[1])
        flat = np.ldexp(flat, -k)
        dot = flat @ ratios
    scale = float(dot) / float(ratios @ ratios)
    deviation = float(np.max(np.abs(flat - scale * ratios)))
    with np.errstate(over="ignore"):
        return float(np.ldexp(scale, k)), float(np.ldexp(deviation, k))


def _checked(params: dict, n: int, tol, family_check, gap_tol) -> dict:
    """The settings the writers read, as ``_Run`` takes them, checked before
    the run so that no file is written for a bad one; None marks one the
    model does not read. The clustering scale ``gap`` is the bound d, or
    ``gap_tol`` without one; a per-agent d clusters at its smallest bound:
    two clusters closer than that would still be interacting."""
    tol = None if tol is None else _real("tol", tol, "[0, inf]")
    if gap_tol is not None:
        gap_tol = _real("gap_tol", gap_tol, "(0, inf]")
        gap_tol = float(np.min(_bound("d", params["d"]))) if "d" in params else gap_tol
    if family_check is not None:
        family_check = _family_check(n, **family_check)
    return {"tol": tol, "family_check": family_check, "gap": gap_tol}


@dataclass
class _Run:
    """A simulated scenario and the text of each file it can write; a payload
    several files use is computed once. ``tol``, ``family_check`` and ``gap``
    come checked from ``_checked``; ``every`` thins ``trajectory.csv``."""

    traj: Trajectory
    params: dict
    seed: int
    tol: float | None = None
    family_check: tuple | None = None
    gap: float | None = None
    every: int = 1

    @cached_property
    def summary(self) -> dict:
        traj, final = self.traj, self.traj.final
        label = analysis.classify(traj, tol=self.tol)
        payload = {"steps": len(traj) - 1, "terminated_at": traj.terminated_at,
                   "final": final.values.tolist(), "final_diameter": final.diameter(),
                   "classification": {"kind": label.kind, "count": label.count}}
        if self.family_check is not None:
            ratios, tol = self.family_check
            scale, deviation = _family_fit(final.values[:, 0], ratios)
            payload["family_check"] = {"ratios": ratios.tolist(), "scale": scale,
                                       "max_deviation": deviation, "passed": deviation < tol}
        return payload

    @cached_property
    def averages(self) -> np.ndarray:
        return gp.cesaro(self.traj)

    def trajectory_csv(self) -> str:
        traj, every = self.traj, self.every
        if every > 1:
            idx = _stamps(len(traj) - 1, every)
            traj = Trajectory(traj.array[idx], traj.stamps[idx])
        return io.trajectory_csv(traj)

    def clusters_json(self) -> str:
        profile = analysis.clusters(self.traj.final, self.gap)
        return io.json_text({
            "count": profile.count, "members": [list(m) for m in profile.members],
            "representatives": [list(np.atleast_1d(r)) for r, _ in profile.clusters]})

    def energies_csv(self) -> str:
        d, traj = self.params["d"], self.traj
        rows = (f"{k},{io.fmt_float(bc.hk_energy(traj.state(k), d))}\n" for k in range(len(traj)))
        return "step,energy\n" + "".join(rows)

    def classification_json(self) -> str:
        summary = self.summary
        check = {"family_check": summary["family_check"]} if "family_check" in summary else {}
        return io.json_text({**summary["classification"], **check})

    def gossip_summary_json(self) -> str:
        profile = analysis.clusters(self.traj.final, self.gap)
        return io.json_text({"seed": self.seed, "steps": int(self.traj.stamps[-1]),
                             "final_state": self.traj.final.values[:, 0].tolist(),
                             "cesaro_final": self.averages[-1][:, 0].tolist(),
                             "clusters": [list(m) for m in profile.members]})


def _run_bc(spec_fn, step, params, seed, x0, horizon=HORIZON, stop_tol=0.0, tol=TOL,
            family_check=None, gap_tol=GAP_TOL) -> _Run:
    """Iterates ``bc.<step>(s, spec, **its params)`` to a fixed point, with ``spec =
    spec_fn(other params, x0)``; ``step`` is looked up when the model runs."""
    x0 = _initial_state(x0, seed)
    step_fn = getattr(bc, step)
    step_params, spec_params = _split(params, step_fn)
    spec = spec_fn(spec_params, x0)
    checked = _checked(params, x0.n, tol, family_check, gap_tol)
    try:
        traj = bc.simulate_bc(lambda s: step_fn(s, spec=spec, **step_params), x0,
                              max_steps=_count("horizon", horizon, 0), stop_tol=stop_tol)
    except MaxStepsError as exc:
        traj = exc.trajectory
    return _Run(traj, params, seed, **checked)


def _confidence(params, x0):
    return pr.confidence_from_params(params, x0.m)


def _run_flow(kind, params, seed, x0, record_every=1, tol=TOL, family_check=None) -> _Run:
    x0 = _initial_state(x0, seed)
    every = _count("record_every", record_every, 1)
    flow_params, spec_params = _split(params, ld.flow_simulate)
    spec = pr.weight_spec_from_params(kind, **spec_params)
    checked = _checked(params, x0.n, tol, family_check, None)
    traj = ld.flow_simulate(spec, x0, **flow_params)
    return _Run(traj, params, seed, **checked, every=every)


def _run_degroot(params, seed, x0, horizon=1000, tol=TOL, family_check=None) -> _Run:
    x0 = _initial_state(x0, seed)
    spec = pr.weight_spec_from_params(**params)
    checked = _checked(params, x0.n, tol, family_check, None)
    traj = ld.simulate_discrete(spec, x0, steps=_count("horizon", horizon, 0))
    return _Run(traj, params, seed, **checked)


def _run_gossip(model, params, seed, outputs, x0, horizon=HORIZON, thin=1,
                gap_tol=GAP_TOL) -> _Run:
    x0 = _initial_state(x0, seed)
    gmodel = pr.gossip_model_from_params(model, params)
    checked = _checked(params, x0.n, None, None, gap_tol)
    traj = gp.simulate_gossip(gmodel, x0, steps=_count("horizon", horizon, 0), seed=seed,
                              thin=thin, record_events="events" in outputs)
    return _Run(traj, params, seed, **checked)


def _run_fj(params) -> tuple:
    spec = pr.fj_spec_from_params(params)
    xbar = ld.fj_fixed_point(spec).values
    fixed = spec.lam[:, None] * (spec.w @ xbar) + (1 - spec.lam)[:, None] * spec.u
    residual = float(np.max(np.abs(fixed - xbar)))
    return "report.json", io.json_text({"x_bar": xbar.tolist(), "residual": residual})


def _balance(matrix) -> tuple:
    graph = SignedGraph(io.resolve_matrix(matrix))
    return "balance.json", io.balance_json(structural_balance(graph))


def _run_two_r(params, seed, format) -> tuple:
    rows = analysis.two_r_experiment(**params, seed=seed)
    if format == "json":
        return "table.json", io.two_r_json(rows)
    return "table.csv", io.two_r_csv(rows)


def _hk_sweep(seed, instances=25, n_range=(2, 30), d_range=(0.05, 0.5)) -> tuple:
    rng = gp.make_rng((seed, 2))
    n_lo, n_hi = (_count("n_range", n, 1) for n in n_range)
    d_lo, d_hi = (_real("d_range", d) for d in d_range)
    rows = ["instance,n,d,terminated_at,bound"]
    for idx in range(_count("instances", instances, 0)):
        n = int(rng.integers(n_lo, n_hi + 1))
        d = float(rng.uniform(d_lo, d_hi))
        x0 = OpinionState(rng.uniform(0.0, 1.0, size=n))
        spec = bc.ConfidenceSpec.symmetric(d)
        bound = analysis._hk_step_bound(n)
        traj = bc.simulate_bc(lambda s: bc.hk_step(s, spec), x0, max_steps=bound)
        rows.append(f"{idx},{n},{io.fmt_float(d)},{traj.terminated_at},{bound}")
    return "sweep.csv", "\n".join(rows) + "\n"


TRAJECTORY = ("trajectory.csv", _Run.trajectory_csv)
SUMMARY = ("summary.json", lambda run: io.json_text(run.summary))
PHI_WRITERS = {"trajectory": TRAJECTORY, "summary": SUMMARY,
               "clusters": ("clusters.json", _Run.clusters_json)}
BC_WRITERS = {**PHI_WRITERS, "energies": ("energies.csv", _Run.energies_csv)}
FLOW_WRITERS = {"trajectory": TRAJECTORY, "summary": SUMMARY,
                "classification": ("classification.json", _Run.classification_json)}
GOSSIP_WRITERS = {"trajectory": TRAJECTORY,
                  "events": ("events.csv", lambda run: io.events_csv(run.traj)),
                  "cesaro": ("cesaro.csv", lambda run: io.trajectory_csv(
                      Trajectory(run.averages, run.traj.stamps))),
                  "summary": ("summary.json", _Run.gossip_summary_json)}

# model -> (run_fn, writers). run_fn builds and runs the model from the config's
# settings, taken by keyword. writers maps output names, in writing order, to (file
# name, writer(_Run) -> text); without writers, run_fn returns its one file's (name, text).
MODELS = {
    "hk": (partial(_run_bc, _confidence, "hk_step"), BC_WRITERS),
    "truth": (partial(_run_bc, _confidence, "truth_step"), BC_WRITERS),
    "inertial": (partial(_run_bc, _confidence, "inertial_step"), BC_WRITERS),
    "phi": (partial(_run_bc, lambda p, x0: pr.phi_from_params(**p), "phi_step"), PHI_WRITERS),
    "flow": (partial(_run_flow, ld.KIND_NONNEGATIVE), FLOW_WRITERS),
    "signed-flow": (partial(_run_flow, ld.KIND_SIGNED), FLOW_WRITERS),
    "degroot": (_run_degroot, {"trajectory": TRAJECTORY, "summary": SUMMARY}),
    "fj": (_run_fj, None),
    "balance": (lambda params: _balance(**params), None),
    **{name: (partial(_run_gossip, name), GOSSIP_WRITERS) for name in pr.GOSSIP_MODELS},
    "two-r": (_run_two_r, None),
    "hk-sweep": (lambda params, seed: _hk_sweep(seed, **params), None),
}


def _requested_outputs(config: dict, model: str, params: dict) -> list:
    """The config's ``outputs``, checked against what the model can write."""
    names = tuple(MODELS[model][1] or ())
    if not names:
        return []
    hint = f"model {model!r} writes {', '.join(names)}"
    if "energies" in names and not isinstance(params.get("d"), (int, float)):
        names = tuple(name for name in names if name != "energies")
        hint += "; energies needs one scalar bound 'd'"
    outputs = config.get("outputs", ["summary"])
    if not isinstance(outputs, list):
        raise CliError("config", f"outputs must be a list of names, got {outputs!r}", hint)
    unknown = [name for name in outputs if name not in names]
    if unknown:
        raise CliError("config", f"model {model!r} cannot write {unknown!r}", hint)
    return outputs


def _prepare(config: dict) -> tuple:
    """A scenario config checked before anything runs: (the model's run
    function with the config's arguments bound, its writers, the requested
    outputs). CliError with stage config for a malformed config."""
    model = config.get("model")
    if not model:
        raise CliError("config", "config is missing the 'model' key")
    if not isinstance(model, str):
        raise CliError("config", f"model must be a name, got {model!r}")
    fmt = config.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise CliError("config", f"unknown format {fmt!r}", "use csv or json")
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise CliError("config", f"params must be a JSON object, got {params!r}")
    try:
        seed = _count("seed", config.get("seed", 0), 0)
    except ValueError:
        raise CliError("config", f"seed must be an integer >= 0, got {config['seed']!r}") from None
    if model not in MODELS:
        raise CliError("config", f"unknown model {model!r}")
    run_fn, writers = MODELS[model]
    outputs = _requested_outputs(config, model, params)
    common = {"params": params, "seed": seed, "format": fmt, "outputs": outputs}
    signature = inspect.signature(run_fn)
    try:  # Python's binding rejects a key the model does not read, or a missing one
        call = signature.bind(**{key: common[key] for key in common if key in signature.parameters},
                              **{key: value for key, value in config.items() if key not in COMMON})
    except TypeError as exc:
        settings = ", ".join(name for name in signature.parameters if name not in COMMON)
        raise CliError("config", f"model {model!r}: {exc}", f"model {model!r} takes "
                       f"{settings or 'no settings'} besides {', '.join(COMMON)}") from None
    return partial(run_fn, *call.args, **call.kwargs), writers, outputs


def run(config: dict, out_dir) -> list:
    """Execute one scenario config; returns the list of files written."""
    out = Path(out_dir)
    run_fn, writers, outputs = _prepare(config)
    written = []

    def emit(name: str, text: str):
        path = out / name
        try:
            io.atomic_write_text(path, text)
        except OSError as exc:
            raise CliError("write", str(exc)) from exc
        written.append(str(path))

    try:
        result = run_fn()
        if writers is None:
            emit(*result)
        for key, (name, write) in (writers or {}).items():
            if key in outputs:
                emit(name, write(result))
    except CliError:
        raise
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise CliError("validate", str(exc)) from exc
    except SimulationError as exc:
        raise CliError("run", str(exc)) from exc
    except OSError as exc:  # emit reports its own failures as stage write
        raise CliError("load", f"cannot read an input file: {exc}") from exc
    return written


def _load_config(args) -> dict:
    if args.preset and args.config:
        raise CliError("config", "give either --preset or --config, not both")
    if args.preset:
        try:
            config = pr.preset_config(args.preset)
        except KeyError as exc:
            raise CliError("config", exc.args[0], "run 'opiniondyn presets' for the list")
    elif args.config:
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError("config", f"cannot read config: {exc}")
        if not isinstance(config, dict):
            raise CliError("config", "the config file must hold one JSON object",
                           "see the README for the config keys")
    else:
        raise CliError("config", "one of --preset or --config is required")
    if args.seed is not None:
        config["seed"] = args.seed
    if args.format is not None:
        config["format"] = args.format
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="opiniondyn", description="Opinion-dynamics simulation runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", help="path to a scenario config JSON")
        p.add_argument("--preset", help="name of a built-in scenario")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=["csv", "json"], default=None)

    add_run_flags(sub.add_parser("simulate", help="run one simulation scenario"))
    add_run_flags(sub.add_parser("experiment", help="run a table-producing experiment"))

    pa = sub.add_parser("analyze", help="cluster/classify a trajectory CSV")
    pa.add_argument("--trajectory", required=True)
    pa.add_argument("--gap-tol", type=float, required=True)
    pa.add_argument("--tol", type=float, default=1e-6)
    pa.add_argument("--out", default=".")

    sub.add_parser("presets", help="list built-in scenarios")

    args = parser.parse_args(argv)
    try:
        if args.command == "presets":
            for name, desc in sorted(pr.list_presets().items()):
                print(f"{name}: {desc}")
            return 0
        if args.command == "analyze":
            return _analyze(args)
        config = _load_config(args)
        model = config.get("model")
        if args.command == "experiment" and model not in EXPERIMENT_MODELS:
            raise CliError(
                "config", f"model {model!r} is not an experiment", "use 'simulate' instead"
            )
        written = run(config, out_dir=args.out)
        for path in written:
            print(path)
        return 0
    except CliError as exc:
        print(json.dumps(exc.payload()), file=sys.stderr)
        return 2


def _analyze(args) -> int:
    try:
        traj = io.load_trajectory(args.trajectory)
    except OSError as exc:
        raise CliError("load", f"cannot read the trajectory: {exc}") from exc
    except ValueError as exc:
        raise CliError(
            "validate", str(exc), "give a trajectory CSV as 'opiniondyn simulate' writes it"
        ) from exc
    try:
        label = analysis.classify(traj, tol=args.tol, gap_tol=args.gap_tol)
        profile = analysis.clusters(traj.final, args.gap_tol)
    except ValueError as exc:
        raise CliError("validate", str(exc)) from exc
    payload = {
        "classification": {"kind": label.kind, "count": label.count},
        "clusters": [list(mbrs) for mbrs in profile.members],
        "min_separation": profile.min_separation if profile.count > 1 else None,
    }
    path = Path(args.out) / "analysis.json"
    try:
        io.atomic_write_text(path, io.json_text(payload))
    except OSError as exc:
        raise CliError("write", str(exc)) from exc
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
