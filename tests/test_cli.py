import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from metastable.cli import config_hash, load_config, main, ConfigError

CONFIG = {
    "potential": {"family": "quartic-double-well-1d", "dimension": 1},
    "gamma": 1.0,
    "epsilon": 0.15,
    "landscape": {"box": [[-2.0, 2.0]], "grid_density": 9, "start_well": [1.0]},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


class TestConfigLoading:
    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**CONFIG, "bogus_key": 1}))
        with pytest.raises(ConfigError, match="bogus_key"):
            load_config(str(path), [])

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.json", [])

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"gamma\": ,\n}")
        with pytest.raises(ConfigError, match=r":2:"):
            load_config(str(path), [])

    def test_set_override_dotted_path(self, config_path):
        cfg = load_config(config_path, ["ensemble.n_traj=64", "gamma=2.0"])
        assert cfg["ensemble"]["n_traj"] == 64
        assert cfg["gamma"] == 2.0

    def test_epsilon_required(self, tmp_path):
        path = tmp_path / "noeps.json"
        block = {k: v for k, v in CONFIG.items() if k != "epsilon"}
        path.write_text(json.dumps(block))
        with pytest.raises(ConfigError, match="epsilon"):
            load_config(str(path), [])

    @pytest.mark.parametrize("field", ["integrator.rng_seed=99", "integrator.stream_id=7"])
    def test_ignored_integrator_fields_rejected(self, config_path, field, capsys):
        # seeds come from ensemble.base_seed and streams from the epsilon index
        with pytest.raises(ConfigError, match="integrator"):
            load_config(config_path, [field])
        assert main(["simulate", config_path, "--set", field]) == 2

    def test_hash_stable_under_key_order(self, config_path):
        a = load_config(config_path, [])
        b = load_config(config_path, [])
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(load_config(config_path, ["gamma=3.0"]))


class TestCommands:
    def test_missing_config_exit_2(self, capsys):
        assert main(["analyze", "/nonexistent.json"]) == 2

    def test_schema_violation_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**CONFIG, "gamma": -1.0}))
        assert main(["analyze", str(path)]) == 2

    def test_analyze_writes_report(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["analyze", config_path, "--out", str(out)]) == 0
        payload = json.loads((out / "landscape.json").read_text())
        land = payload["landscape"]
        assert land["is_valid_double_well"]
        assert land["barrier_from_m"] == pytest.approx(0.25, abs=1e-12)
        assert land["lambda_sigma"] == pytest.approx(1.0, abs=1e-12)
        assert payload["tool_version"]
        assert payload["config_hash"]

    def test_predict_csv_value(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["predict", config_path, "--epsilon", "0.15", "--out", str(out)]) == 0
        with (out / "predictions.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        under = next(r for r in rows if r["regime"] == "underdamped")
        assert float(under["predicted_mean_time"]) == pytest.approx(38.0607, abs=1e-3)
        assert float(under["prefactor"]) == pytest.approx(7.18874, abs=1e-4)

    def test_simulate_writes_stats_and_trajectories(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["simulate", config_path, "--epsilon", "0.3", "--out", str(out),
             "--set", "ensemble.n_traj=32", "--dump-trajectories"]
        )
        assert code == 0
        payload = json.loads((out / "hitting.json").read_text())
        stats = payload["hitting"][0]
        assert stats["n_completed"] + stats["n_timeout"] == 32
        assert stats["mean"] > 0
        with (out / "trajectories.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 32
        assert {r["stop_reason"] for r in rows} <= {"hit_target", "timeout"}

    def test_simulate_dump_runs_each_ensemble_once(self, config_path, tmp_path, monkeypatch, capsys):
        import metastable.dynamics
        import metastable.hitting

        calls = []
        engine = metastable.dynamics.batch_hit_times

        def counted(*args, **kwargs):
            calls.append(args[2])
            return engine(*args, **kwargs)

        monkeypatch.setattr(metastable.dynamics, "batch_hit_times", counted)
        monkeypatch.setattr(metastable.hitting, "batch_hit_times", counted)
        out = tmp_path / "out"
        code = main(
            ["simulate", config_path, "--out", str(out), "--set", "epsilon_grid=[0.3,0.25]",
             "--set", "ensemble.n_traj=24", "--dump-trajectories"]
        )
        assert code == 0
        # one engine call for the whole grid, with one epsilon per row
        assert len(calls) == 1
        assert np.array_equal(calls[0], [0.3] * 24 + [0.25] * 24)
        hitting = json.loads((out / "hitting.json").read_text())["hitting"]
        with (out / "trajectories.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        for stats in hitting:
            mine = [r for r in rows if float(r["epsilon"]) == stats["epsilon"]]
            assert [int(r["trajectory_id"]) for r in mine] == list(range(24))
            done = [float(r["hit_time"]) for r in mine if r["stop_reason"] == "hit_target"]
            assert len(done) == stats["n_completed"]
            # the CSV carries 9 significant digits
            assert math.fsum(done) / len(done) == pytest.approx(stats["mean"], rel=1e-8)

    def test_capacity_rejects_dimension_3_before_analysis(self, tmp_path, monkeypatch, capsys):
        import metastable.cli

        def no_analysis(cfg):
            raise AssertionError("landscape search ran")

        monkeypatch.setattr(metastable.cli, "_analyze", no_analysis)
        path = tmp_path / "d3.json"
        path.write_text(json.dumps({
            **CONFIG,
            "potential": {"family": "separable-double-well-nd", "dimension": 3,
                          "parameters": [4.0, 4.0]},
            "landscape": {"grid_density": 5},
        }))
        assert main(["capacity", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "dimension" in capsys.readouterr().err

    def test_simulate_byte_stable(self, config_path, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["simulate", config_path, "--epsilon", "0.3", "--out", str(out),
                  "--set", "ensemble.n_traj=16"])
            payload = json.loads((out / "hitting.json").read_text())
            payload.pop("metadata")  # timestamps live in their own block
            for row in payload["hitting"]:
                row.pop("wall_time")
            outs.append(json.dumps(payload, sort_keys=True))
        assert outs[0] == outs[1]

    def test_verify_subset(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["verify", config_path, "--out", str(out),
             "--only", "spectral_identities,prefactor_arithmetic"]
        )
        assert code == 0
        payload = json.loads((out / "verify.json").read_text())
        assert payload["all_passed"]
        assert [c["name"] for c in payload["checks"]] == [
            "spectral_identities", "prefactor_arithmetic"
        ]
        captured = capsys.readouterr()
        assert "PASS spectral_identities" in captured.out

    def test_verify_unknown_check(self, config_path, capsys):
        assert main(["verify", config_path, "--only", "not_a_check"]) == 2
