import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from opiniondyn import DeffuantWeisbuch, OpinionState, SignedGraph, Trajectory, simulate_gossip
from opiniondyn import structural_balance
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

W2 = [[0.5, 0.5], [0.5, 0.5]]
TOP_MEAN = 1.6666666666666668e308  # the hk consensus of 1.7e308, 1.7e308 and 1.6e308



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

    @pytest.mark.parametrize(
        "name, text, call, message",
        [
            ("m.json", '{"a": 1}', load_matrix, "{path}: expected a square matrix of reals"),
            ("m.csv", "1,2\n3\n", load_matrix, "{path}: expected a square matrix of reals"),
            ("m.csv", "1,x\n3,4\n", load_matrix, "{path}: expected a square matrix of reals"),
            ("m.json", "[[1, 2]", load_matrix, "{path}: expected a square matrix of reals"),
            ("s.json", "[{", load_schedule, "{path}: expected a JSON schedule"),
            ("s.json", '{"until": 1}', load_schedule, "a schedule is a list of"),
            ("s.json", '[{"matrix": [[1.0]]}]', load_schedule,
             "schedule entry 0 needs 'until' and 'matrix'"),
            ("s.json", "[1]", load_schedule, "schedule entry 0 needs 'until' and 'matrix'"),
            ("s.json", '[{"until": 1, "matrix": [[1.0]]}, {"until": "soon", "matrix": [[1.0]]}]',
             load_schedule, "schedule entry 1: until must be a real number, got 'soon'"),
            ("s.json", '[{"until": [1], "matrix": [[1.0]]}]', load_schedule, "schedule entry 0: "),
            ("s.json", '[{"until": 1, "matrix": [[1, 2], [3]]}]', load_schedule,
             "schedule entry 0: "),
            ("s.json", '[{"until": 1, "matrix": {"file": "{dir}/m.json"}}]', load_schedule,
             "schedule entry 0: {dir}/m.json: expected a square matrix of reals"),
        ],
    )
    def test_malformed_matrix_or_schedule_is_a_value_error(self, tmp_path, name, text, call,
                                                           message):
        (tmp_path / "m.json").write_text('{"a": 1}')
        path = tmp_path / name
        path.write_text(text.replace("{dir}", str(tmp_path)))
        expected = message.replace("{path}", str(path)).replace("{dir}", str(tmp_path))
        with pytest.raises(ValueError) as info:
            call(path)
        assert type(info.value) is ValueError
        assert str(info.value).startswith(expected)

    def test_trajectory_csv_schema(self):
        traj = Trajectory(np.array([[[0.0], [1.0]], [[0.5], [0.5]]]), [0, 1])
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

    @pytest.mark.parametrize("ratios, scale, deviation, passed", [
        ([1, 1, 0], TOP_MEAN, TOP_MEAN, False),
        ([1, 1, 1], TOP_MEAN, 0.0, True),
    ], ids=["off-the-line", "on-the-line"])
    def test_family_check_near_the_float_limit(self, tmp_path, capsys, ratios, scale, deviation,
                                               passed):
        # flat @ ratios overflowed: with a zero ratio the deviation was NaN and
        # the run exited 2, and a consensus on the line failed with an
        # infinite scale and deviation, each after numpy warnings
        config = {"model": "hk", "params": {"d": 1e308}, "x0": [1.7e308, 1.7e308, 1.6e308],
                  "family_check": {"ratios": ratios}, "outputs": ["summary"]}
        code, error = _simulate(tmp_path, capsys, config)
        assert (code, error) == (0, None)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text(),
                             parse_constant=_no_constant)
        assert summary["family_check"] == {"ratios": [float(r) for r in ratios], "scale": scale,
                                           "max_deviation": deviation, "passed": passed}

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
            pytest.param(
                [HEADER, "0,0,0,0,1", "0,0,1,0,inf", "1,1,0,0,1", "1,1,1,0,inf"],
                "opinion values must be finite",
                id="infinite-cell",
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

    def test_malformed_matrix_file_is_a_validation_error(self, tmp_path, capsys):
        matrix = tmp_path / "w.json"
        matrix.write_text('{"a": 1}')
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": "flow", "x0": [0.0, 1.0],
                                    "params": {"matrix": {"file": str(matrix)}, "t_end": 1.0}}))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["stage"] == "validate"
        assert payload["message"].startswith(f"{matrix}: expected a square matrix of reals")

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
        pytest.param(["--gap-tol", "nan"], "gap_tol must lie in (0, inf], got nan",
                     id="gap-tol-nan"),
        pytest.param(["--gap-tol", "0.1", "--tol", "nan"], "tol must lie in [0, inf], got nan",
                     id="tol-nan"),
        pytest.param(["--gap-tol", "0.1", "--tol=-1e-6"], "tol must lie in [0, inf], got -1e-06",
                     id="tol-negative"),
    ])
    def test_analyze_rejects_a_nan_or_negative_scale(self, tmp_path, capsys, flags, message):
        path = tmp_path / "trajectory.csv"
        traj = Trajectory(np.array([[[0.0], [1.0]], [[0.5], [0.5]]]), [0, 1])
        path.write_text(trajectory_csv(traj))
        code = main(["analyze", "--trajectory", str(path), *flags, "--out", str(tmp_path)])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["stage"] == "validate"
        assert message in payload["message"]
        assert not (tmp_path / "analysis.json").exists()

    def test_analyze_at_the_float_limits_writes_no_warning(self, tmp_path, capsys):
        # the settle test's difference and the polarization test's BLAS
        # norms overflowed with numpy warnings
        path = tmp_path / "trajectory.csv"
        path.write_text(trajectory_csv(Trajectory(np.array([[[-1e308], [1e308]]] * 2), [0, 1])))
        argv = ["analyze", "--trajectory", str(path), "--gap-tol", "0.1", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        payload = json.loads((tmp_path / "analysis.json").read_text(), parse_constant=_no_constant)
        assert payload["classification"] == {"kind": "polarization", "count": 2}
        # written as Infinity, which is not JSON
        assert payload["min_separation"] == "inf"

    def test_an_infinite_summary_float_is_written_as_a_string(self, tmp_path, capsys):
        # the diameter of [1e308, -1e308] overflows; it was written as Infinity
        config = {"model": "hk", "params": {"d": 0.3}, "x0": [1e308, -1e308],
                  "outputs": ["summary"]}
        assert _simulate(tmp_path, capsys, config) == (0, None)
        text = (tmp_path / "out" / "summary.json").read_text()
        assert json.loads(text, parse_constant=_no_constant)["final_diameter"] == "inf"

    def test_nan_classification_tol_in_a_config_is_a_validation_error(self, tmp_path, capsys):
        config = {"model": "hk", "params": {"d": 0.3}, "x0": [0.0, 0.1], "tol": float("nan"),
                  "outputs": ["summary"]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["stage"] == "validate"
        assert "tol must lie in [0, inf], got nan" in payload["message"]
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

    def test_dw_takes_a_per_agent_d_as_dw_heterogeneous_does(self, tmp_path):
        config = {"params": {"d": [0.3, 0.1, 0.25, 0.2, 0.15], "mu": 0.5},
                  "x0": {"uniform": [0.0, 1.0, 5]}, "horizon": 300, "seed": 4,
                  "outputs": ["trajectory", "events", "summary"]}
        texts = []
        for model in ("dw", "dw-heterogeneous"):
            files = run({**config, "model": model}, out_dir=tmp_path / model)
            texts.append([Path(f).read_text() for f in files])
        assert texts[0] == texts[1]

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
        config = {"model": model, "params": {"matrix": {"file": str(tmp_path / "absent.csv")}}}
        if model != "balance":
            config["x0"] = [0.0, 1.0]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["stage"] == "load"
        assert "absent.csv" in payload["message"]
        assert not (tmp_path / "out").exists()

    def test_flow_horizon_beyond_memory_is_a_validation_error(self, tmp_path, capsys):
        # 10**15 steps of two agents need 14.2 PiB, which numpy refuses
        # before it allocates anything
        config = {"model": "flow", "x0": [0.0, 1.0],
                  "params": {"matrix": [[0.0, 1.0], [1.0, 0.0]], "t_end": 1e12, "dt": 1e-3}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert set(payload) == {"stage", "message", "hint"}
        assert payload["stage"] == "validate"
        assert "t_end=1000000000000.0 with dt=0.001 takes 1000000000000000 steps" in payload["message"]
        assert not (tmp_path / "out").exists()

    def test_diverging_flow_is_one_run_stage_line(self, tmp_path, capsys):
        # dt far beyond the stability limit: the state overflows, and stderr
        # carries the payload alone, with no numpy overflow warning before it
        config = {"model": "flow", "x0": [0.0, 1e12],
                  "params": {"matrix": [[0, 50], [50, 0]], "t_end": 4000, "dt": 1.0}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert set(payload) == {"stage", "message", "hint"}
        assert payload["stage"] == "run"
        assert payload["message"] == "non-finite state at step 45 (t=45); reduce dt"
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
                  "params": {"d": d} if model == "hk" else {"d": d, "mu": 0.5}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["stage"] == "validate"
        assert payload["message"] == "d must lie in (0, inf], got nan"
        assert not (tmp_path / "out").exists()

    def test_empty_eta_is_a_validation_error_that_names_it(self, tmp_path):
        from opiniondyn.cli import CliError

        config = {"model": "hk", "params": {"d": 0.2, "eta": []}, "x0": [0, 1]}
        with pytest.raises(CliError) as info:
            run(config, out_dir=tmp_path)
        assert info.value.stage == "validate"
        assert str(info.value) == "eta must be a nonempty list of real numbers, got []"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("params", [
        pytest.param({"lam": [0.5, 0.5], "w": [[0.5, 0.6], [0.5, 0.5]], "u": [0.0, 1.0]},
                     id="non-stochastic-w"),
        pytest.param({"lam": [0.5, 1.5], "w": W2, "u": [0.0, 1.0]}, id="lam-above-one"),
        pytest.param({"lam": [0.5, -0.5], "w": W2, "u": [0.0, 1.0]}, id="lam-below-zero"),
        pytest.param({"lam": [0.5, 0.5], "w": W2, "u": [0.0, 1.0, 2.0]}, id="u-length"),
        pytest.param({"lam": [0.5, 0.5], "w": W2, "u": [0.0, float("nan")]}, id="u-nan"),
    ])
    def test_fj_and_gossip_fj_reject_bad_params_alike(self, tmp_path, capsys, params):
        code, fj = _simulate(tmp_path, capsys, {"model": "fj", "params": params})
        assert code == 2 and fj["stage"] == "validate"
        code, gossip = _simulate(tmp_path, capsys, {"model": "gossip-fj", "params": params,
                                                    "x0": [0.0, 1.0], "horizon": 10})
        assert code == 2
        assert gossip == fj
        assert not (tmp_path / "out").exists()

    def test_gossip_fj_rejects_vector_prejudices(self, tmp_path, capsys):
        params = {"lam": [0.5, 0.5], "w": W2, "u": [[0.0, 1.0], [1.0, 0.0]]}
        assert _simulate(tmp_path, capsys, {"model": "fj", "params": params}) == (0, None)
        code, payload = _simulate(tmp_path, capsys, {"model": "gossip-fj", "params": params,
                                                     "x0": [0.0, 1.0], "horizon": 10})
        assert code == 2
        assert payload["stage"] == "validate"
        assert payload["message"] == "gossip prejudices must be scalar, got u of shape (2, 2)"
        assert not (tmp_path / "out" / "summary.json").exists()

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
        assert payload["message"] == "confidence bound must lie in (0, inf], got -0.5"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, config, message",
        [
            pytest.param("simulate", {"model": "hk", "x0": [0.0, 0.1, 0.9], "params": {"d": 0.3},
                                      "horizon": 50, "stop_tol": float("nan")},
                         "stop_tol must lie in [0, inf], got nan", id="nan-stop-tol"),
            pytest.param("simulate", {"model": "hk", "x0": [0.0, 0.1, 0.9], "params": {"d": 0.3},
                                      "horizon": 50, "stop_tol": -1.0},
                         "stop_tol must lie in [0, inf], got -1.0", id="negative-stop-tol"),
            pytest.param("simulate", {"model": "hk", "x0": [0.0, 0.1, 0.2], "params": {"d": 0.3},
                                      "family_check": {"ratios": [1, 1, 1], "tol": float("nan")}},
                         "family_check tol must lie in [0, inf], got nan",
                         id="nan-family-check-tol"),
            pytest.param("simulate", {"model": "hk", "x0": [0.0, 0.1, 0.2], "params": {"d": 0.3},
                                      "family_check": {"ratios": [1, 1, 1], "tol": -1e-6}},
                         "family_check tol must lie in [0, inf], got -1e-06",
                         id="negative-family-check-tol"),
            pytest.param("simulate", {"model": "degroot", "x0": [0.0, 1.0], "params": {"schedule": [
                {"until": float("nan"), "matrix": [[0.5, 0.5], [0.5, 0.5]]},
                {"until": 4, "matrix": [[1.0, 0.0], [0.0, 1.0]]}]}},
                         "strictly increasing", id="nan-breakpoint"),
            pytest.param("simulate", {"model": "degroot", "x0": [0.0, 1.0], "params": {"schedule": [
                {"until": "1", "matrix": [[0.5, 0.5], [0.5, 0.5]]}]}},
                         "schedule entry 0: until must be a real number, got '1'",
                         id="str-breakpoint"),
            pytest.param("simulate", {"model": "hk", "x0": {"uniform": ["0", "1", 5]},
                                      "params": {"d": 0.3}},
                         "uniform lo must be a real number, got '0'", id="str-uniform-bounds"),
            pytest.param("simulate", {"model": "hk", "x0": [0.0, 0.1, 0.9], "params": {"d": 0.3},
                                      "stop_tol": "0"},
                         "stop_tol must be a real number, got '0'", id="str-stop-tol"),
            pytest.param("simulate", {"model": "flow", "x0": [0.0, 1.0], "record_every": -1,
                                      "params": {"matrix": [[0.0, 1.0], [1.0, 0.0]], "t_end": 1.0},
                                      "outputs": ["trajectory"]},
                         "record_every must be >= 1", id="negative-record-every"),
            pytest.param("simulate", {"model": "flow", "x0": [0.0, 1.0], "record_every": 0,
                                      "params": {"matrix": [[0.0, 1.0], [1.0, 0.0]], "t_end": 1.0},
                                      "outputs": ["trajectory"]},
                         "record_every must be >= 1", id="zero-record-every"),
            pytest.param("experiment", {"model": "two-r", "format": "json",
                                        "params": {"n": 5, "d_list": [float("inf")], "trials": 1}},
                         "confidence bound d must lie in (0, inf), got inf",
                         id="infinite-two-r-bound"),
        ],
    )
    def test_misread_config_values_are_validation_errors(self, tmp_path, capsys, command, config,
                                                          message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["stage"] == "validate"
        assert message in payload["message"]
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

    def test_readme_lists_the_keys_of_each_model(self):
        from opiniondyn import analysis, cli, gossip as gp, presets as pr
        from opiniondyn import bounded_confidence as bc, linear_dynamics as ld

        cs = bc.ConfidenceSpec
        geometry = [cs.symmetric, cs.asymmetric, cs.per_agent, cs.shifted, cs.norm_ball]
        readers = {  # model -> the functions its params go to by keyword
            "hk": [bc.hk_step, *geometry], "truth": [bc.truth_step, *geometry],
            "inertial": [bc.inertial_step, *geometry],
            "phi": [pr.phi_from_params, *pr.PHI_PRESETS.values()],
            "flow": [pr.weight_spec_from_params, ld.flow_simulate],
            "signed-flow": [pr.weight_spec_from_params, ld.flow_simulate],
            "degroot": [pr.weight_spec_from_params], "fj": [ld.FJSpec],
            "balance": [cli._balance], "gossip-fj": [gp.GossipFJ.from_fj],
            "two-r": [analysis.two_r_experiment], "hk-sweep": [cli._hk_sweep],
            **{model: [pr.GOSSIP_MODELS[model]]
               for model in ("gossip-degroot", "gossip-pair", "dw", "dw-heterogeneous")},
        }

        def keys(functions, skip):
            """name -> default (None for none) of the keyword parameters."""
            out = {}
            for fn in functions:
                for name, p in inspect.signature(fn).parameters.items():
                    if name not in skip and p.kind is not p.VAR_KEYWORD:
                        out[name] = None if p.default in (p.empty, None) else \
                            json.loads(json.dumps(p.default))
            return out

        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = text.split("| model | settings | params |\n|---|---|---|\n", 1)[1]
        pair = re.compile(r"`([^`]+)`(?: \(`([^`]+)`\))?")
        listed = {}
        for row in rows.split("\n\n", 1)[0].splitlines():
            models, *cells = row.strip("|").split("|")
            keyed = [{k: json.loads(v) if v else None for k, v in pair.findall(c)} for c in cells]
            listed.update(dict.fromkeys(re.findall(r"`([^`]+)`", models), keyed))
        # the run function passes the state, the geometry, the seed and a flow's kind itself
        passed = {"x", "spec", "x0", "seed"}
        assert listed == {
            model: [keys([run_fn], cli.COMMON),
                    keys(readers[model], passed | ({"kind"} if "flow" in model else set()))]
            for model, (run_fn, _) in cli.MODELS.items()
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


def _no_constant(name):
    raise ValueError(f"{name} in a JSON output")


def _simulate(tmp_path, capsys, config, command="simulate"):
    """Runs one config through ``main``; returns the exit code and the error
    payload (None on success)."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    return code, json.loads(err) if err else None


class TestConfigContract:
    @pytest.mark.parametrize("config, key, hint", [
        pytest.param({"model": "hk", "params": {"d": 0.3}, "x0": [0.0, 0.1], "horizn": 5},
                     "horizn", "takes x0, horizon, stop_tol, tol, family_check, gap_tol besides",
                     id="hk-misspelt"),
        pytest.param({"model": "dw", "params": {"d": 0.3, "mu": 0.5}, "x0": [0.0, 0.1],
                      "stop_tol": 0.1}, "stop_tol", "takes x0, horizon, thin, gap_tol besides",
                     id="dw-stop-tol"),
        pytest.param({"model": "flow", "params": {"matrix": W2}, "x0": [0.0, 0.1],
                      "horizon": 5}, "horizon", "takes x0, record_every, tol, family_check",
                     id="flow-horizon"),
        pytest.param({"model": "degroot", "params": {"matrix": W2}, "x0": [0.0, 0.1],
                      "thin": 5}, "thin", "takes x0, horizon, tol, family_check",
                     id="degroot-thin"),
        pytest.param({"model": "balance", "params": {"matrix": W2}, "x0": [0.0, 1.0]}, "x0",
                     "takes no settings besides model, params, seed, format, outputs",
                     id="balance-x0"),
        pytest.param({"model": "fj", "params": {"lam": [0.5], "w": [[1.0]], "u": [1.0]},
                      "horizon": 5}, "horizon", "'fj' takes no settings", id="fj-horizon"),
        pytest.param({"model": "hk", "params": {"d": 0.3}}, "x0", "takes x0, horizon",
                     id="hk-missing-x0"),
    ])
    def test_a_setting_the_model_does_not_read_is_a_config_error(self, tmp_path, capsys, config,
                                                                  key, hint):
        code, payload = _simulate(tmp_path, capsys, config)
        assert code == 2
        assert payload["stage"] == "config"
        assert f"'{key}'" in payload["message"]
        assert hint in payload["hint"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, config, key", [
        pytest.param("experiment", {"model": "two-r", "x0": [0.0],
                                    "params": {"n": 5, "d_list": [0.2], "trials": 1}}, "x0",
                     id="two-r-x0"),
        pytest.param("experiment", {"model": "hk-sweep", "params": {"instances": 2},
                                    "horizon": 9}, "horizon", id="hk-sweep-horizon"),
    ])
    def test_experiments_take_no_settings(self, tmp_path, capsys, command, config, key):
        code, payload = _simulate(tmp_path, capsys, config, command)
        assert code == 2
        assert payload["stage"] == "config"
        assert f"'{key}'" in payload["message"]
        assert "takes no settings" in payload["hint"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, message", [
        pytest.param({"model": "hk", "params": {"d": 0.3, "closd": False}}, "'closd'",
                     id="hk-misspelt"),
        pytest.param({"model": "hk", "params": {"d": 0.3, "eta": [0.0, 0.1], "d_left": 0.1}},
                     "'d_left'", id="eta-and-d-left"),
        pytest.param({"model": "hk", "params": {"d_left": 0.1}}, "'d_right'", id="d-left-alone"),
        pytest.param({"model": "hk", "params": {"d_per_agent": [0.1, 0.2], "d": 0.3}}, "'d'",
                     id="per-agent-and-d"),
        pytest.param({"model": "truth", "params": {"d": 0.3, "lam": [1.0, 1.0]}}, "'target'",
                     id="truth-missing-target"),
        pytest.param({"model": "phi", "params": {"preset": "heterophily", "a": 0.5, "b": 1.0,
                                                 "d1": 0.25, "d2": 0.5, "d": 0.3}}, "'d'",
                     id="phi-heterophily-d"),
        pytest.param({"model": "degroot", "params": {"matrix": W2, "schedule": [
            {"until": 2, "matrix": W2}]}}, "exactly one of matrix, schedule",
                     id="matrix-and-schedule"),
        pytest.param({"model": "flow", "params": {"matrix": W2, "kind": "stochastic"}},
                     "'kind'", id="flow-kind"),
        pytest.param({"model": "flow", "params": {"matrix": W2, "t_ned": 2.0}}, "'t_ned'",
                     id="flow-misspelt"),
        pytest.param({"model": "dw", "params": {"d": 0.3, "mu": 0.5, "gains": [0.5, 0.5]}},
                     "'gains'", id="dw-gains"),
        pytest.param({"model": "gossip-fj", "params": {"lam": [0.5, 0.5], "w": W2,
                                                       "u": [0.0, 1.0], "arcs": [[0, 1]]}},
                     "'arcs'", id="gossip-fj-arcs-with-lam"),
        pytest.param({"model": "fj", "params": {"lam": [0.5], "w": [[1.0]], "u": [1.0],
                                                "x0": [1.0]}}, "'x0'", id="fj-x0"),
        pytest.param({"model": "balance", "params": {"weights": W2}}, "'weights'",
                     id="balance-weights"),
    ])
    def test_an_unknown_or_conflicting_param_is_a_validation_error(self, tmp_path, capsys, config,
                                                                    message):
        if config["model"] not in ("fj", "balance"):
            config["x0"] = [0.0, 0.1]
        code, payload = _simulate(tmp_path, capsys, config)
        assert code == 2
        assert payload["stage"] == "validate"
        assert message in payload["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, message", [
        pytest.param({"model": "two-r", "params": {"n": 5, "d_list": [0.2], "trials": 1,
                                                   "seed": 3}}, "'seed'", id="two-r-seed"),
        pytest.param({"model": "hk-sweep", "params": {"instance": 2}}, "'instance'",
                     id="hk-sweep-misspelt"),
    ])
    def test_an_unknown_experiment_param_is_a_validation_error(self, tmp_path, capsys, config,
                                                                message):
        code, payload = _simulate(tmp_path, capsys, config, "experiment")
        assert code == 2
        assert payload["stage"] == "validate"
        assert message in payload["message"]
        assert not (tmp_path / "out").exists()

    def test_every_model_accepts_the_common_keys(self):
        from opiniondyn import cli
        from test_cli_golden import CONFIGS

        for config in CONFIGS.values():
            writers = cli.MODELS[config["model"]][1]
            config = {**config, "seed": 4, "format": "json",
                      "outputs": list(writers or ["anything"])[:1]}
            assert set(config) >= set(cli.COMMON)
            cli._prepare(config)

    @pytest.mark.parametrize("name", sorted(list_presets()))
    def test_every_preset_passes_the_key_check(self, name):
        from opiniondyn import cli

        cli._prepare(preset_config(name))

    @pytest.mark.parametrize("command, config, message", [
        pytest.param("simulate", {"model": "hk", "params": {"d": 0.3}, "x0": [0.0, 0.1],
                                  "horizon": 1.9}, "horizon must be a whole number, got 1.9",
                     id="horizon"),
        pytest.param("simulate", {"model": "hk", "params": {"d": 0.3},
                                  "x0": {"uniform": [0.0, 1.0, 3.9]}},
                     "uniform n must be a whole number, got 3.9", id="uniform-n"),
        pytest.param("simulate", {"model": "dw", "params": {"d": 0.3, "mu": 0.5},
                                  "x0": [0.0, 0.1], "thin": 2.5},
                     "thin must be a whole number, got 2.5", id="thin"),
        pytest.param("simulate", {"model": "flow", "params": {"matrix": W2, "t_end": 1.0},
                                  "x0": [0.0, 0.1], "record_every": 2.5},
                     "record_every must be a whole number, got 2.5", id="record-every"),
        pytest.param("simulate", {"model": "degroot", "params": {"matrix": W2},
                                  "x0": [0.0, 0.1], "horizon": "5"},
                     "horizon must be a whole number, got '5'", id="degroot-horizon-string"),
        pytest.param("experiment", {"model": "two-r",
                                    "params": {"n": 5.5, "d_list": [0.2], "trials": 1}},
                     "n must be a whole number, got 5.5", id="two-r-n"),
        pytest.param("experiment", {"model": "two-r",
                                    "params": {"n": 5, "d_list": [0.2], "trials": 1.5}},
                     "trials must be a whole number, got 1.5", id="two-r-trials"),
        pytest.param("experiment", {"model": "hk-sweep", "params": {"instances": 2.5}},
                     "instances must be a whole number, got 2.5", id="hk-sweep-instances"),
        pytest.param("experiment", {"model": "hk-sweep", "params": {"n_range": [2.5, 4]}},
                     "n_range must be a whole number, got 2.5", id="hk-sweep-n-range"),
    ])
    def test_a_fractional_count_is_a_validation_error(self, tmp_path, capsys, command, config,
                                                       message):
        code, payload = _simulate(tmp_path, capsys, config, command)
        assert code == 2
        assert payload["stage"] == "validate"
        assert payload["message"] == message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [2.5, True, -1])
    def test_a_fractional_seed_is_a_config_error(self, tmp_path, capsys, seed):
        config = {"model": "hk", "params": {"d": 0.3}, "x0": [0.0, 0.1], "seed": seed}
        code, payload = _simulate(tmp_path, capsys, config)
        assert code == 2
        assert payload["stage"] == "config"
        assert payload["message"] == f"seed must be an integer >= 0, got {seed!r}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model, params", [("hk", {"d": 0.3}), ("dw", {"d": 0.3, "mu": 0.5})])
    @pytest.mark.parametrize("x0", [{"uniform": [0, 1, 5], "n": 50}, {"n": 50}, {}],
                             ids=["uniform-and-n", "n", "empty"])
    def test_an_unknown_x0_key_is_a_config_error(self, tmp_path, capsys, model, params, x0):
        config = {"model": model, "params": params, "x0": x0}
        code, payload = _simulate(tmp_path, capsys, config)
        assert code == 2
        assert payload["stage"] == "config"
        assert payload["message"] == f"x0 takes the one key 'uniform', got {list(x0)}"
        assert payload["hint"] == 'give x0 as a list of opinions or as {"uniform": [lo, hi, n]}'
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("uniform", [[0, 1], [0, 1, 5, 7], 5, "0 1 5"])
    def test_a_malformed_uniform_x0_is_a_config_error(self, tmp_path, capsys, uniform):
        config = {"model": "hk", "params": {"d": 0.3}, "x0": {"uniform": uniform}}
        code, payload = _simulate(tmp_path, capsys, config)
        assert code == 2
        assert payload["stage"] == "config"
        assert payload["message"] == f"x0 uniform must be [lo, hi, n], got {uniform!r}"
        assert payload["hint"] == 'give x0 as a list of opinions or as {"uniform": [lo, hi, n]}'
        assert not (tmp_path / "out").exists()

    def test_whole_floats_run_as_their_ints(self, tmp_path):
        config = {"model": "dw", "params": {"d": 0.3, "mu": 0.5}, "x0": {"uniform": [0, 1, 6]},
                  "horizon": 40, "thin": 3, "seed": 2, "outputs": ["trajectory", "events"]}
        floats = {**config, "x0": {"uniform": [0, 1, 6.0]}, "horizon": 40.0, "thin": 3.0,
                  "seed": 2.0}
        run(config, out_dir=tmp_path / "ints")
        run(floats, out_dir=tmp_path / "floats")
        for name in ("trajectory.csv", "events.csv"):
            assert (tmp_path / "ints" / name).read_bytes() == \
                (tmp_path / "floats" / name).read_bytes()

    @pytest.mark.parametrize("config, message", [
        pytest.param({"model": "hk", "params": {"d": 0.3}, "tol": -1.0},
                     "tol must lie in [0, inf], got -1.0", id="negative-tol"),
        pytest.param({"model": "hk", "params": {"d_left": 0.3, "d_right": 0.2},
                      "gap_tol": float("nan")}, "gap_tol must lie in (0, inf], got nan",
                     id="nan-gap-tol"),
        pytest.param({"model": "gossip-pair", "params": {"p": [[0.0, 1.0], [1.0, 0.0]]},
                      "gap_tol": 0}, "gap_tol must lie in (0, inf], got 0.0",
                     id="gossip-zero-gap-tol"),
        pytest.param({"model": "signed-flow", "params": {"matrix": [[0.0, -1.0], [-1.0, 0.0]],
                                                         "t_end": 1.0},
                      "family_check": {"ratios": [1.0, float("nan")]}}, "must be finite",
                     id="nan-ratio"),
        pytest.param({"model": "degroot", "params": {"matrix": W2},
                      "family_check": {"ratios": [1.0, 1.0], "tol": -1.0}},
                     "family_check tol must lie in [0, inf], got -1.0",
                     id="negative-family-check-tol"),
        pytest.param({"model": "hk", "params": {"d": 0.3},
                      "family_check": {"ratios": [1.0, 1.0, 1.0]}},
                     "family_check ratios is for 3 agents, not 2",
                     id="ratio-count"),
        pytest.param({"model": "hk", "params": {"d": 0.3},
                      "family_check": {"ratios": [[1.0, 1.0]]}},
                     "family_check ratios must be a vector, got shape (1, 2)", id="ratio-matrix"),
        pytest.param({"model": "hk", "params": {"d": 0.3},
                      "family_check": {"ratios": [1.0, 1.0], "tolerance": 0.1}}, "'tolerance'",
                     id="family-check-misspelt"),
    ])
    def test_a_bad_writer_setting_leaves_no_file(self, tmp_path, capsys, config, message):
        writers = {"hk": ["trajectory", "summary", "clusters"],
                   "degroot": ["trajectory", "summary"],
                   "signed-flow": ["trajectory", "summary"],
                   "gossip-pair": ["trajectory", "events", "summary"]}
        config.update(x0=[0.0, 0.1], outputs=writers[config["model"]])
        code, payload = _simulate(tmp_path, capsys, config)
        assert code == 2
        assert payload["stage"] == "validate"
        assert message in payload["message"]
        out = tmp_path / "out"
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("model, settings", [("degroot", {"horizon": 0}), ("flow", {})],
                             ids=["degroot", "flow"])
    def test_matrix_size_must_match_the_agent_count(self, tmp_path, capsys, model, settings):
        # the degroot run used to write summary.json, and the flow to fail in numpy
        config = {"model": model, "params": {"matrix": np.full((3, 3), 1 / 3).tolist()},
                  "x0": [0.0, 1.0], "outputs": ["summary"], **settings}
        code, payload = _simulate(tmp_path, capsys, config)
        assert code == 2
        assert payload["stage"] == "validate"
        assert payload["message"] == "spec is for 3 agents, not 2"
        out = tmp_path / "out"
        assert not out.exists() or list(out.iterdir()) == []
