import json
import re
from pathlib import Path

import numpy as np
import pytest

from opiniondyn import DeffuantWeisbuch, OpinionState, SignedGraph, simulate_gossip
from opiniondyn import structural_balance, trajectory_from_states
from opiniondyn.cli import main, run
from opiniondyn.presets import list_presets, preset_config
from opiniondyn.serialize import (
    balance_json,
    events_csv,
    fmt_float,
    load_matrix,
    load_schedule,
    trajectory_csv,
)


class TestSerialize:
    def test_float_formatting_round_trips(self):
        for v in (0.1, 1 / 3, 1e-17, 123456.789, -0.0):
            assert float(fmt_float(v)) == v

    def test_matrix_csv_and_json(self, tmp_path):
        mat = np.array([[0.0, 1.5], [-2.0, 0.25]])
        csv_path = tmp_path / "m.csv"
        csv_path.write_text("0,1.5\n-2,0.25\n")
        assert np.array_equal(load_matrix(csv_path), mat)
        json_path = tmp_path / "m.json"
        json_path.write_text(json.dumps(mat.tolist()))
        assert np.array_equal(load_matrix(json_path), mat)

    def test_non_square_matrix_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5,6\n")
        with pytest.raises(ValueError):
            load_matrix(path)

    def test_schedule_json(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps([{"until": 2.0, "matrix": [[0, 1], [1, 0]]}]))
        schedule = load_schedule(path)
        assert schedule[0][0] == 2.0
        assert np.array_equal(schedule[0][1], np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_trajectory_csv_schema(self):
        traj = trajectory_from_states([[0.0, 1.0], [0.5, 0.5]])
        text = trajectory_csv(traj)
        lines = text.strip().splitlines()
        assert lines[0] == "step,time,agent,dim,value"
        assert lines[1] == "0,0,0,0,0"
        assert len(lines) == 1 + 2 * 2

    def test_events_csv_schema(self):
        traj = simulate_gossip(
            DeffuantWeisbuch(d=0.5, mu=0.5), OpinionState([0.0, 1.0, 0.2]), steps=5, seed=0
        )
        lines = events_csv(traj).strip().splitlines()
        assert lines[0] == "step,i,j,interacted"
        assert len(lines) == 6

    def test_balance_report_shape(self):
        g = SignedGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        payload = json.loads(balance_json(structural_balance(g)))
        assert payload["balanced"] is True
        assert payload["camps"] == [[0], [1]]
        assert payload["witness"] is None


class TestPresets:
    def test_required_presets_present(self):
        names = list_presets()
        assert "tetrahedron-merge" in names
        assert "table1" in names
        assert len(names) >= 7

    def test_preset_configs_are_copies(self):
        a = preset_config("dw-basic")
        a["seed"] = 999
        assert preset_config("dw-basic")["seed"] == 0

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset_config("nope")


class TestRun:
    def test_tetrahedron_preset_summary(self, tmp_path):
        files = run(preset_config("tetrahedron-merge"), out_dir=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["terminated_at"] == 3
        assert summary["classification"]["kind"] == "consensus"
        assert str(tmp_path / "trajectory.csv") in files

    def test_altafini3_preset_family_check(self, tmp_path):
        run(preset_config("altafini3"), out_dir=tmp_path)
        payload = json.loads((tmp_path / "classification.json").read_text())
        assert payload["family_check"]["passed"] is True
        assert payload["family_check"]["max_deviation"] < 1e-6

    def test_fj_gossip_preset_cesaro_near_fixed_point(self, tmp_path):
        config = preset_config("fj-gossip4")
        config["horizon"] = 200000
        run(config, out_dir=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        target = np.array([60.0, 60.0, 75.0, 75.0])
        assert np.max(np.abs(np.array(summary["cesaro_final"]) - target)) < 2.5

    def test_table1_preset_csv(self, tmp_path):
        config = preset_config("table1")
        config["params"]["trials"] = 3
        config["params"]["n"] = 30
        files = run(config, out_dir=tmp_path)
        lines = (tmp_path / "table.csv").read_text().strip().splitlines()
        assert lines[0] == "d,trials,mean_clusters,std,conjecture"
        assert len(lines) == 7

    def test_rerun_is_byte_identical(self, tmp_path):
        config = preset_config("dw-basic")
        config["horizon"] = 2000
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(config, out_dir=out1)
        run(config, out_dir=out2)
        for name in ("summary.json", "events.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize(
        "outputs, events, averages",
        [
            (["events", "summary"], True, True),
            (["trajectory"], False, False),
            (["cesaro"], False, True),
            (["events"], True, False),
        ],
    )
    def test_gossip_computes_only_requested_outputs(self, tmp_path, monkeypatch, outputs,
                                                    events, averages):
        from opiniondyn import cli, gossip

        seen = {"events": [], "cesaro": 0}
        simulate, cesaro = gossip.simulate_gossip, gossip.cesaro

        def spy_simulate(*args, **kwargs):
            traj = simulate(*args, **kwargs)
            seen["events"].append(traj.events is not None)
            return traj

        def spy_cesaro(traj):
            seen["cesaro"] += 1
            return cesaro(traj)

        monkeypatch.setattr(cli.gp, "simulate_gossip", spy_simulate)
        monkeypatch.setattr(cli.gp, "cesaro", spy_cesaro)
        config = preset_config("dw-basic")
        config["horizon"] = 300
        config["outputs"] = outputs
        run(config, out_dir=tmp_path / "spied")
        assert seen == {"events": [events], "cesaro": int(averages)}
        # the artefacts do not depend on what else was requested
        config["outputs"] = ["trajectory", "events", "cesaro", "summary"]
        run(config, out_dir=tmp_path / "all")
        for path in (tmp_path / "spied").iterdir():
            assert path.read_bytes() == (tmp_path / "all" / path.name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        config = preset_config("dw-basic")
        config["horizon"] = 2000
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(config, out_dir=out1)
        config["seed"] = 1
        run(config, out_dir=out2)
        assert (out1 / "events.csv").read_bytes() != (out2 / "events.csv").read_bytes()

    def test_unknown_model_raises_cli_error(self, tmp_path):
        from opiniondyn.cli import CliError

        with pytest.raises(CliError) as info:
            run({"model": "martian"}, out_dir=tmp_path)
        assert info.value.stage == "config"

    def test_fj_report(self, tmp_path):
        from opiniondyn.presets import FJ4_LAMBDA, FJ4_U, FJ4_W

        config = {
            "model": "fj",
            "params": {"lam": FJ4_LAMBDA.tolist(), "w": FJ4_W.tolist(), "u": FJ4_U.tolist()},
        }
        run(config, out_dir=tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["residual"] < 1e-10
        xbar = np.array(report["x_bar"])[:, 0]
        assert np.max(np.abs(xbar - np.array([60, 60, 75, 75]))) <= 1.0

    def test_matrix_by_file_reference(self, tmp_path):
        mat = tmp_path / "w.csv"
        mat.write_text("0,1\n1,0\n")
        config = {
            "model": "flow",
            "params": {"matrix": {"file": str(mat)}, "t_end": 10.0, "dt": 0.01},
            "x0": [0.0, 1.0],
            "outputs": ["summary"],
        }
        run(config, out_dir=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["classification"]["kind"] == "consensus"


class TestMainEntry:
    def test_presets_command(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "tetrahedron-merge" in out
        assert "table1" in out

    def test_simulate_with_config_file(self, tmp_path, capsys):
        config = {
            "model": "hk",
            "params": {"d": 0.3},
            "x0": {"uniform": [0.0, 1.0, 12]},
            "horizon": 5000,
            "seed": 4,
            "outputs": ["summary", "clusters"],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "clusters.json").exists()

    def test_error_emits_machine_readable_json(self, tmp_path, capsys):
        code = main(["simulate", "--preset", "does-not-exist", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        payload = json.loads(err)
        assert set(payload) == {"stage", "message", "hint"}

    def test_experiment_rejects_simulation_models(self, tmp_path):
        code = main(["experiment", "--preset", "dw-basic", "--out", str(tmp_path)])
        assert code == 2

    def test_analyze_roundtrip(self, tmp_path, capsys):
        config = preset_config("tetrahedron-merge")
        run(config, out_dir=tmp_path)
        code = main(
            [
                "analyze",
                "--trajectory",
                str(tmp_path / "trajectory.csv"),
                "--gap-tol",
                "1.0",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "analysis.json").read_text())
        assert payload["classification"]["kind"] == "consensus"

    HEADER = "step,time,agent,dim,value"
    GOOD_ROWS = ["0,0,0,0,0.5", "0,0,1,0,1.5", "1,1,0,0,0.75", "1,1,1,0,1.25"]

    @pytest.mark.parametrize(
        "lines, message",
        [
            pytest.param([], "empty trajectory file", id="empty"),
            pytest.param(
                ["step,t,agent,dim,value", *GOOD_ROWS], "unexpected trajectory header", id="header"
            ),
            pytest.param([HEADER], "header but no rows", id="no-rows"),
            pytest.param([HEADER, "0,0,0,0.5"], "line 2 does not hold the five", id="fields"),
            pytest.param(
                [HEADER, "0,0,0,0,0.5", "0,0,1,0,abc"],
                "line 3: value 'abc' does not parse as float",
                id="non-numeric",
            ),
            pytest.param(
                [HEADER, *GOOD_ROWS[:2], GOOD_ROWS[3]],
                "missing row for step 1, agent 0, dim 0",
                id="missing-row",
            ),
            pytest.param(
                [HEADER, *GOOD_ROWS, GOOD_ROWS[1]],
                "duplicate row for step 0, agent 1, dim 0",
                id="duplicate-row",
            ),
            pytest.param(
                [HEADER, "0,0,0,0,0", "1,1,1,0,1", "2,2,0,0,2", "2,2,1,0,2"],
                "missing row for step 0, agent 1, dim 0",
                id="steps-each-short",
            ),
            pytest.param(
                [HEADER, *GOOD_ROWS, "0,0,-1,0,0.5"],
                "line 6: agent -1 is out of range",
                id="agent-range",
            ),
            pytest.param(
                [HEADER, *GOOD_ROWS[:3], "1,2,1,0,1.25"],
                "the rows of step 1 disagree on its time",
                id="step-times",
            ),
            pytest.param(
                [HEADER, *GOOD_ROWS[:2], "1,0,0,0,0.75", "1,0,1,0,1.25"],
                "stamps must be strictly increasing",
                id="stamp-order",
            ),
        ],
    )
    def test_analyze_rejects_malformed_trajectory(self, tmp_path, capsys, lines, message):
        path = tmp_path / "trajectory.csv"
        path.write_text("".join(line + "\n" for line in lines))
        argv = ["analyze", "--trajectory", str(path), "--gap-tol", "0.1", "--out", str(tmp_path)]
        code = main(argv)
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["stage"] == "validate"
        assert message in payload["message"]
        assert not (tmp_path / "analysis.json").exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            pytest.param({"model": "hk", "params": {"d": 0.3}, "x0": [0.0, 0.1], "seed": "abc"},
                         "seed must be an integer", id="seed"),
            pytest.param({"model": "hk", "params": [1, 2], "x0": [0.0, 0.1]},
                         "params must be a JSON object", id="params"),
            pytest.param({"model": "hk", "params": {"d": 0.3}, "x0": [0.0, 0.1],
                          "seed": float("inf")}, "seed must be an integer", id="seed-inf"),
            pytest.param([1, 2], "must hold one JSON object", id="config-list"),
            pytest.param({"model": ["hk"]}, "model must be a name", id="model-list"),
        ],
    )
    def test_malformed_config_emits_payload(self, tmp_path, capsys, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["stage"] == "config"
        assert message in payload["message"]
        assert not (tmp_path / "out").exists()

    def test_infinite_horizon_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": "hk", "params": {"d": 0.3}, "x0": [0.0, 0.1],
                                    "horizon": float("inf")}))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["stage"] == "validate"

    @pytest.mark.parametrize(
        "config, hint",
        [
            pytest.param({"model": "hk", "params": {"d": 0.3}, "outputs": ["sumary"]},
                         "trajectory, summary, clusters, energies", id="misspelt"),
            pytest.param({"model": "hk", "params": {"d": 0.3}, "outputs": "summary"},
                         "trajectory, summary, clusters, energies", id="not-a-list"),
            pytest.param({"model": "hk", "params": {"d": 0.3}, "outputs": ["classification"]},
                         "trajectory, summary, clusters, energies", id="hk-classification"),
            pytest.param({"model": "phi", "params": {"d": 0.3}, "outputs": ["energies"]},
                         "'phi' writes trajectory, summary, clusters", id="phi-energies"),
            pytest.param({"model": "hk", "params": {"d_left": 0.3, "d_right": 0.2},
                          "outputs": ["summary", "energies"]},
                         "energies needs one scalar bound 'd'", id="asymmetric-energies"),
            pytest.param({"model": "degroot", "params": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
                          "outputs": ["cesaro"]}, "'degroot' writes trajectory, summary",
                         id="degroot-cesaro"),
            pytest.param({"model": "flow", "params": {"matrix": [[0.0, 1.0], [1.0, 0.0]]},
                          "outputs": ["events"]}, "summary, classification", id="flow-events"),
            pytest.param({"model": "dw", "params": {"d": 0.3, "mu": 0.5},
                          "outputs": ["clusters"]}, "trajectory, events, cesaro, summary",
                         id="dw-clusters"),
        ],
    )
    def test_unwritable_outputs_are_rejected(self, tmp_path, capsys, config, hint):
        config["x0"] = [0.0, 0.1]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["stage"] == "config"
        assert hint in payload["hint"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("outputs", ["summary", 5, {"summary": True}])
    def test_outputs_must_be_a_list(self, tmp_path, outputs):
        from opiniondyn.cli import CliError

        config = {"model": "hk", "params": {"d": 0.3}, "x0": [0.0, 0.1], "outputs": outputs}
        with pytest.raises(CliError, match="outputs must be a list of names") as info:
            run(config, out_dir=tmp_path)
        assert info.value.stage == "config"

    def test_single_file_models_ignore_outputs(self, tmp_path):
        config = {"model": "balance", "params": {"matrix": [[0, 1], [1, 0]]},
                  "outputs": "anything"}
        assert run(config, out_dir=tmp_path) == [str(tmp_path / "balance.json")]

    def test_unstable_fj_reports_run_stage(self, tmp_path, capsys):
        n = 10
        w = np.zeros((n, n))
        w[0, 0] = 1.0
        w[1:, 0] = 0.001
        w[np.arange(1, n), np.arange(1, n)] = 0.999
        lam = np.full(n, 0.9999)
        lam[0] = 1.0
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": "fj", "params": {
            "lam": lam.tolist(), "w": w.tolist(), "u": np.zeros(n).tolist()}}))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["stage"] == "run"
        assert "spectral radius" in payload["message"]

    @pytest.mark.parametrize("flags, message", [
        pytest.param(["--gap-tol", "nan"], "gap_tol must be positive", id="gap-tol-nan"),
        pytest.param(["--gap-tol", "0.1", "--tol", "nan"], "tol must be nonnegative",
                     id="tol-nan"),
        pytest.param(["--gap-tol", "0.1", "--tol=-1e-6"], "tol must be nonnegative",
                     id="tol-negative"),
    ])
    def test_analyze_rejects_a_nan_or_negative_scale(self, tmp_path, capsys, flags, message):
        path = tmp_path / "trajectory.csv"
        path.write_text(trajectory_csv(trajectory_from_states([[0.0, 1.0], [0.5, 0.5]])))
        code = main(["analyze", "--trajectory", str(path), *flags, "--out", str(tmp_path)])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["stage"] == "validate"
        assert message in payload["message"]
        assert not (tmp_path / "analysis.json").exists()

    def test_nan_classification_tol_in_a_config_is_a_validation_error(self, tmp_path, capsys):
        config = {"model": "hk", "params": {"d": 0.3}, "x0": [0.0, 0.1], "tol": float("nan"),
                  "outputs": ["summary"]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["stage"] == "validate"
        assert "tol must be nonnegative" in payload["message"]
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_analyze_missing_file(self, tmp_path, capsys):
        path = tmp_path / "absent.csv"
        argv = ["analyze", "--trajectory", str(path), "--gap-tol", "0.1", "--out", str(tmp_path)]
        code = main(argv)
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["stage"] == "load"
        assert "absent.csv" in payload["message"]


class TestMoreRunModels:
    def test_balance_model_writes_report(self, tmp_path):
        config = {
            "model": "balance",
            "params": {"matrix": [[0, 1, -1], [1, 0, -1], [-1, -1, 0]]},
        }
        run(config, out_dir=tmp_path)
        payload = json.loads((tmp_path / "balance.json").read_text())
        assert payload["balanced"] is True
        assert payload["camps"] == [[0, 1], [2]]

    def test_degroot_with_schedule_config(self, tmp_path):
        config = {
            "model": "degroot",
            "params": {
                "schedule": [
                    {"until": 5, "matrix": [[0.5, 0.5], [0.5, 0.5]]},
                    {"until": 10, "matrix": [[1.0, 0.0], [0.0, 1.0]]},
                ]
            },
            "x0": [0.0, 1.0],
            "horizon": 10,
            "outputs": ["summary"],
        }
        run(config, out_dir=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["classification"]["kind"] == "consensus"

    def test_schedule_matrices_from_files_write_the_inline_bytes(self, tmp_path):
        matrices = [[[0.5, 0.5], [0.25, 0.75]], [[1.0, 0.0], [0.125, 0.875]]]
        (tmp_path / "w0.csv").write_text("0.5,0.5\n0.25,0.75\n")
        (tmp_path / "w1.json").write_text(json.dumps(matrices[1]))
        files = [{"file": str(tmp_path / "w0.csv")}, {"file": str(tmp_path / "w1.json")}]
        texts = []
        for tag, entries in (("inline", matrices), ("files", files)):
            config = {"model": "degroot", "x0": [0.0, 1.0], "horizon": 9,
                      "params": {"schedule": [{"until": 4, "matrix": entries[0]},
                                              {"until": 9, "matrix": entries[1]}]},
                      "outputs": ["trajectory", "summary"]}
            run(config, out_dir=tmp_path / tag)
            texts.append([(tmp_path / tag / name).read_bytes()
                          for name in ("trajectory.csv", "summary.json")])
        assert texts[0] == texts[1]
        assert config["params"]["schedule"][0]["matrix"] == files[0]

    def test_hk_sweep_preset(self, tmp_path):
        config = preset_config("hk-termination-sweep")
        config["params"]["instances"] = 5
        run(config, out_dir=tmp_path)
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "instance,n,d,terminated_at,bound"
        assert len(lines) == 6
        for line in lines[1:]:
            _, n, _, terminated, bound = line.split(",")
            assert int(terminated) <= int(bound)

    def test_heterophily_preset(self, tmp_path):
        config = preset_config("heterophily")
        config["x0"] = {"uniform": [0.0, 1.0, 15]}
        config["horizon"] = 500
        run(config, out_dir=tmp_path)
        assert json.loads((tmp_path / "clusters.json").read_text())["count"] >= 1

    def test_dw_heterogeneous_writes_every_output(self, tmp_path, monkeypatch):
        from opiniondyn import analysis, cli

        scales = []
        clusters = analysis.clusters
        monkeypatch.setattr(cli.analysis, "clusters",
                            lambda x, gap_tol: scales.append(gap_tol) or clusters(x, gap_tol))
        d = [0.3, 0.1, 0.25, 0.2, 0.15, 0.3, 0.05, 0.2]
        config = {
            "model": "dw-heterogeneous", "params": {"d": d, "mu": 0.5},
            "x0": {"uniform": [0.0, 1.0, 8]}, "horizon": 500, "seed": 2,
            "outputs": ["trajectory", "events", "cesaro", "summary"],
        }
        files = run(config, out_dir=tmp_path)
        assert sorted(files) == sorted(
            str(tmp_path / name)
            for name in ("trajectory.csv", "events.csv", "cesaro.csv", "summary.json")
        )
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert sorted(a for group in summary["clusters"] for a in group) == list(range(8))
        assert scales == [0.05]  # clustered at the smallest bound

    def test_per_agent_ball_d_writes_clusters(self, tmp_path):
        config = {"model": "hk", "params": {"d": [0.3, 0.5, 0.4], "norm": "max"},
                  "x0": [[0.0, 0.0], [0.2, 0.1], [1.0, 1.0]], "outputs": ["clusters"]}
        run(config, out_dir=tmp_path)
        payload = json.loads((tmp_path / "clusters.json").read_text())
        assert payload["members"] == [[0, 1], [2]]

    def test_gossip_clusters_only_for_summary(self, tmp_path, monkeypatch):
        from opiniondyn import cli

        calls = []
        monkeypatch.setattr(cli.analysis, "clusters",
                            lambda *args: calls.append(args) or None)
        config = preset_config("dw-basic")
        config.update(horizon=300, outputs=["trajectory", "events", "cesaro"])
        run(config, out_dir=tmp_path)
        assert calls == []

    def test_gossip_summary_schema(self, tmp_path):
        config = preset_config("dw-basic")
        config["horizon"] = 500
        config["outputs"] = ["summary"]
        run(config, out_dir=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert {"seed", "final_state", "cesaro_final", "clusters"} <= set(summary)


class TestInputErrors:
    @pytest.mark.parametrize("model", ["balance", "flow", "degroot"])
    def test_missing_matrix_file_is_a_load_error(self, tmp_path, capsys, model):
        config = {"model": model, "params": {"matrix": {"file": str(tmp_path / "absent.csv")}},
                  "x0": [0.0, 1.0]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["stage"] == "load"
        assert "absent.csv" in payload["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param({"model": "signed-flow", "x0": [1.0, 0.0],
                          "params": {"matrix": [[0.0, -1.0], [-1.0, 0.0]], "t_end": 1.0},
                          "outputs": ["summary", "classification"]}, id="signed-flow"),
            pytest.param({"model": "hk", "params": {"d": 0.3}, "x0": [0.0, 0.1],
                          "outputs": ["summary"]}, id="hk"),
        ],
    )
    def test_all_zero_family_check_is_a_validation_error(self, tmp_path, capsys, config):
        config["family_check"] = {"ratios": [0, 0]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["stage"] == "validate"
        assert "all zero" in payload["message"]
        assert not (tmp_path / "out" / "summary.json").exists()


    def test_unreadable_schedule_matrix_is_a_load_error(self, tmp_path, capsys):
        config = {"model": "degroot", "x0": [0.0, 1.0],
                  "params": {"schedule": [
                      {"until": 2, "matrix": [[1.0, 0.0], [0.0, 1.0]]},
                      {"until": 4, "matrix": {"file": str(tmp_path / "absent.csv")}}]}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["stage"] == "load"
        assert "absent.csv" in payload["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_family_check_is_a_validation_error(self, tmp_path, capsys, ratio):
        config = {"model": "signed-flow", "x0": [1.0, 0.0],
                  "params": {"matrix": [[0.0, -1.0], [-1.0, 0.0]], "t_end": 1.0},
                  "family_check": {"ratios": [1.0, ratio]}, "outputs": ["summary"]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["stage"] == "validate"
        assert "finite" in payload["message"]
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("model,d", [("dw", float("nan")),
                                         ("dw-heterogeneous", [0.3, float("nan")]),
                                         ("hk", float("nan"))])
    def test_nan_confidence_bound_is_a_validation_error(self, tmp_path, capsys, model, d):
        config = {"model": model, "x0": [0.0, 0.5], "horizon": 10,
                  "params": {"d": d, "mu": 0.5}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["stage"] == "validate"
        assert "positive" in payload["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("params", [{"preset": "reputation", "w": [1.0, 1.0, 1.0], "d": -0.5},
                                        {"preset": "hk", "d": -0.5}])
    def test_negative_phi_bound_is_a_validation_error(self, tmp_path, capsys, params):
        config = {"model": "phi", "x0": [0.0, 0.1, 0.2], "horizon": 10, "params": params}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["stage"] == "validate"
        assert payload["message"] == "confidence bound must be positive"
        assert not (tmp_path / "out").exists()


class TestModelTable:
    def test_every_model_has_a_golden_case(self):
        from opiniondyn import cli
        from test_cli_golden import CONFIGS

        assert {config["model"] for config in CONFIGS.values()} == set(cli.MODELS)
        assert set(cli.EXPERIMENT_MODELS) <= set(cli.MODELS)

    def test_readme_lists_the_writers_of_each_model(self):
        from opiniondyn import cli

        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = text.split("| model | outputs |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
        listed = {}
        for row in rows.splitlines():
            models, outputs = row.strip("|").split("|")
            names = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", outputs))
            listed.update(dict.fromkeys(re.findall(r"`([^`]+)`", models), names))
        writers = {model: list(w) for model, (_, w) in cli.MODELS.items() if w is not None}
        assert listed == writers
        prose = " ".join(text.split())
        one_file = re.search(r"\. ((?:`[^`]+`(?:,| and)? ?)+)write their one file", prose)
        assert set(re.findall(r"`([^`]+)`", one_file.group(1))) == {
            model for model, (_, w) in cli.MODELS.items() if w is None
        }

    def test_flow_summary_and_classification_classify_once(self, tmp_path, monkeypatch):
        from opiniondyn import analysis, cli

        calls = []
        classify = analysis.classify
        monkeypatch.setattr(cli.analysis, "classify",
                            lambda *args, **kwargs: calls.append(args) or classify(*args, **kwargs))
        config = preset_config("altafini3")
        config["params"]["t_end"] = 4.0
        assert config["outputs"] == ["summary", "classification"] and config["family_check"]
        run(config, out_dir=tmp_path)
        assert len(calls) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        classification = json.loads((tmp_path / "classification.json").read_text())
        assert classification == {**summary["classification"],
                                  "family_check": summary["family_check"]}
