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
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, bounded_confidence as bc, gossip as gp
from . import linear_dynamics as ld
from . import presets as pr
from . import serialize as io
from .net_graph import SignedGraph, structural_balance
from .state import MaxStepsError, OpinionState, SimulationError

EXPERIMENT_MODELS = ("two-r", "hk-sweep")
BC_MODELS = ("hk", "truth", "inertial", "phi")
GOSSIP_MODELS = ("gossip-degroot", "gossip-pair", "gossip-fj", "dw", "dw-heterogeneous")

# the files each model can write, by output name; fj, balance and the
# experiments write their one file whatever ``outputs`` says
MODEL_OUTPUTS = {
    **dict.fromkeys(("hk", "truth", "inertial"), ("trajectory", "summary", "clusters", "energies")),
    "phi": ("trajectory", "summary", "clusters"),
    **dict.fromkeys(("flow", "signed-flow"), ("trajectory", "summary", "classification")),
    "degroot": ("trajectory", "summary"),
    **dict.fromkeys(GOSSIP_MODELS, ("trajectory", "events", "cesaro", "summary")),
}


class CliError(Exception):
    def __init__(self, stage: str, message: str, hint: str = ""):
        super().__init__(message)
        self.stage = stage
        self.hint = hint

    def payload(self) -> dict:
        return {"stage": self.stage, "message": str(self), "hint": self.hint}


def _x0_from_config(config: dict) -> OpinionState:
    spec = config.get("x0")
    if spec is None:
        raise CliError("config", "missing x0", "give a list or {'uniform': [lo, hi, n]}")
    if isinstance(spec, dict) and "uniform" in spec:
        lo, hi, n = spec["uniform"]
        rng = gp.make_rng((int(config.get("seed", 0)), 1))
        return OpinionState(rng.uniform(float(lo), float(hi), size=int(n)))
    return OpinionState(np.asarray(spec, dtype=float))


def _resolve_matrix(params: dict, key: str = "matrix") -> None:
    value = params.get(key)
    if isinstance(value, dict) and "file" in value:
        params[key] = io.load_matrix(value["file"]).tolist()


def _gap_tol(params: dict, config: dict) -> float:
    """Clustering scale: the confidence bound d, or ``gap_tol`` without one.
    A per-agent d clusters at its smallest bound: two clusters closer than
    that would still be interacting."""
    return float(np.min(params.get("d", config.get("gap_tol", 1e-4))))


def _summary_payload(traj, config) -> dict:
    final = traj.final
    label = analysis.classify(traj, tol=float(config.get("tol", 1e-6)))
    payload = {
        "steps": len(traj) - 1,
        "terminated_at": traj.terminated_at,
        "final": final.values.tolist(),
        "final_diameter": final.diameter(),
        "classification": {"kind": label.kind, "count": label.count},
    }
    check = config.get("family_check")
    if check:
        ratios = np.asarray(check["ratios"], dtype=float)
        flat = final.values[:, 0]
        scale = float(flat @ ratios) / float(ratios @ ratios)
        deviation = float(np.max(np.abs(flat - scale * ratios)))
        payload["family_check"] = {
            "ratios": ratios.tolist(),
            "scale": scale,
            "max_deviation": deviation,
            "passed": deviation < float(check.get("tol", 1e-6)),
        }
    return payload


def _requested_outputs(config: dict, model: str, params: dict) -> list:
    """The config's ``outputs``, checked against what the model can write."""
    names = MODEL_OUTPUTS.get(model)
    if names is None:
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


def run(config: dict, out_dir, fmt: str | None = None) -> list:
    """Execute one scenario config; returns the list of files written."""
    out = Path(out_dir)
    model = config.get("model")
    if not model:
        raise CliError("config", "config is missing the 'model' key")
    if not isinstance(model, str):
        raise CliError("config", f"model must be a name, got {model!r}")
    fmt = fmt or config.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise CliError("config", f"unknown format {fmt!r}", "use csv or json")
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise CliError("config", f"params must be a JSON object, got {params!r}")
    params = dict(params)
    try:
        seed = int(config.get("seed", 0))
    except (TypeError, ValueError, OverflowError):
        raise CliError("config", f"seed must be an integer, got {config['seed']!r}") from None
    outputs = _requested_outputs(config, model, params)
    written = []

    def emit(name: str, text: str):
        path = out / name
        io.atomic_write_text(path, text)
        written.append(str(path))

    def emit_json(name: str, payload):
        emit(name, json.dumps(payload, indent=2) + "\n")

    try:
        if model in BC_MODELS:
            x0 = _x0_from_config(config)
            horizon = int(config.get("horizon", 10000))
            stop_tol = float(config.get("stop_tol", 0.0))
            if model == "phi":
                phi = pr.phi_from_params(params)
                stepper = lambda s: bc.phi_step(s, phi)
            else:
                spec = pr.confidence_from_params(params, x0.n, x0.m)
                if model == "hk":
                    stepper = lambda s: bc.hk_step(s, spec)
                elif model == "truth":
                    lam = np.asarray(params["lam"], dtype=float)
                    target = np.asarray(params["target"], dtype=float)
                    stepper = lambda s: bc.truth_step(s, lam, target, spec)
                else:
                    lam = np.asarray(params["lam"], dtype=float)
                    stepper = lambda s: bc.inertial_step(s, lam, spec)
            try:
                traj = bc.simulate_bc(stepper, x0, max_steps=horizon, stop_tol=stop_tol)
            except MaxStepsError as exc:
                traj = exc.trajectory
            if "trajectory" in outputs:
                emit("trajectory.csv", io.trajectory_csv(traj))
            if "summary" in outputs:
                emit_json("summary.json", _summary_payload(traj, config))
            if "clusters" in outputs:
                profile = analysis.clusters(traj.final, _gap_tol(params, config))
                emit_json(
                    "clusters.json",
                    {
                        "count": profile.count,
                        "members": [list(m) for m in profile.members],
                        "representatives": [list(np.atleast_1d(r)) for r, _ in profile.clusters],
                    },
                )
            if "energies" in outputs:
                rows = ["step,energy"]
                for k in range(len(traj)):
                    rows.append(f"{k},{io.fmt_float(bc.hk_energy(traj.state(k), params['d']))}")
                emit("energies.csv", "\n".join(rows) + "\n")

        elif model in ("signed-flow", "flow"):
            x0 = _x0_from_config(config)
            kind = ld.KIND_SIGNED if model == "signed-flow" else ld.KIND_NONNEGATIVE
            _resolve_matrix(params)
            spec = pr.weight_spec_from_params(kind, params)
            traj = ld.flow_simulate(
                spec,
                x0,
                t_end=float(params.get("t_end", 30.0)),
                dt=params.get("dt"),
            )
            if "trajectory" in outputs:
                every = int(config.get("record_every", 1))
                thin_traj = traj
                if every > 1:
                    idx = list(range(0, len(traj), every))
                    if idx[-1] != len(traj) - 1:
                        idx.append(len(traj) - 1)
                    thin_traj = type(traj)(traj.array[idx], traj.stamps[idx])
                emit("trajectory.csv", io.trajectory_csv(thin_traj))
            if "summary" in outputs:
                emit_json("summary.json", _summary_payload(traj, config))
            if "classification" in outputs:
                label = analysis.classify(traj, tol=float(config.get("tol", 1e-6)))
                payload = {"kind": label.kind, "count": label.count}
                if config.get("family_check"):
                    payload["family_check"] = _summary_payload(traj, config)["family_check"]
                emit_json("classification.json", payload)

        elif model == "degroot":
            x0 = _x0_from_config(config)
            _resolve_matrix(params)
            kind = params.get("kind", "stochastic")
            spec = pr.weight_spec_from_params(kind, params)
            traj = ld.simulate_discrete(spec, x0, steps=int(config.get("horizon", 1000)))
            if "trajectory" in outputs:
                emit("trajectory.csv", io.trajectory_csv(traj))
            if "summary" in outputs:
                emit_json("summary.json", _summary_payload(traj, config))

        elif model == "fj":
            spec = pr.fj_spec_from_params(params)
            xbar = ld.fj_fixed_point(spec)
            residual = float(
                np.max(
                    np.abs(
                        spec.lam[:, None] * (spec.w @ xbar.values)
                        + (1 - spec.lam)[:, None] * spec.u
                        - xbar.values
                    )
                )
            )
            emit_json("report.json", {"x_bar": xbar.values.tolist(), "residual": residual})

        elif model == "balance":
            _resolve_matrix(params)
            graph = SignedGraph(np.asarray(params["matrix"], dtype=float))
            emit("balance.json", io.balance_json(structural_balance(graph)))

        elif model in GOSSIP_MODELS:
            x0 = _x0_from_config(config)
            gmodel = pr.gossip_model_from_params(model, params)
            steps = int(config.get("horizon", 10000))
            thin = int(config.get("thin", 1))
            traj = gp.simulate_gossip(
                gmodel, x0, steps=steps, seed=seed, thin=thin,
                record_events="events" in outputs,
            )
            if "cesaro" in outputs or "summary" in outputs:
                averages = gp.cesaro(traj)
            if "trajectory" in outputs:
                emit("trajectory.csv", io.trajectory_csv(traj))
            if "events" in outputs:
                emit("events.csv", io.events_csv(traj))
            if "cesaro" in outputs:
                cesaro_traj = type(traj)(averages, traj.stamps)
                emit("cesaro.csv", io.trajectory_csv(cesaro_traj))
            if "summary" in outputs:
                profile = analysis.clusters(traj.final, _gap_tol(params, config))
                emit_json(
                    "summary.json",
                    {
                        "seed": seed,
                        "steps": steps,
                        "final_state": traj.final.values[:, 0].tolist(),
                        "cesaro_final": averages[-1][:, 0].tolist(),
                        "clusters": [list(m) for m in profile.members],
                    },
                )

        elif model == "two-r":
            rows = analysis.two_r_experiment(
                n=int(params["n"]),
                d_list=[float(d) for d in params["d_list"]],
                trials=int(params["trials"]),
                seed=seed,
            )
            if fmt == "json":
                emit("table.json", io.two_r_json(rows))
            else:
                emit("table.csv", io.two_r_csv(rows))

        elif model == "hk-sweep":
            rng = gp.make_rng((seed, 2))
            n_lo, n_hi = params.get("n_range", [2, 30])
            d_lo, d_hi = params.get("d_range", [0.05, 0.5])
            rows = ["instance,n,d,terminated_at,bound"]
            for idx in range(int(params.get("instances", 25))):
                n = int(rng.integers(n_lo, n_hi + 1))
                d = float(rng.uniform(d_lo, d_hi))
                x0 = OpinionState(rng.uniform(0.0, 1.0, size=n))
                spec = bc.ConfidenceSpec.symmetric(d)
                bound = 2 * n**3 - 2 * (n - 1) ** 2
                traj = bc.simulate_bc(lambda s: bc.hk_step(s, spec), x0, max_steps=bound)
                rows.append(f"{idx},{n},{io.fmt_float(d)},{traj.terminated_at},{bound}")
            emit("sweep.csv", "\n".join(rows) + "\n")

        else:
            raise CliError("config", f"unknown model {model!r}")

    except CliError:
        raise
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise CliError("validate", str(exc)) from exc
    except SimulationError as exc:
        raise CliError("run", str(exc)) from exc
    except OSError as exc:
        raise CliError("write", str(exc)) from exc
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
        written = run(config, out_dir=args.out, fmt=args.format)
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
        io.atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
    except OSError as exc:
        raise CliError("write", str(exc)) from exc
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
