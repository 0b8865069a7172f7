import json
from pathlib import Path

import pytest

from trajconstrain import cli
from trajconstrain.cli import (
    CSV_SCHEMA,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_ORACLE,
    main,
)


def base_config(**overrides):
    cfg = {
        "seed": 7,
        "window": {"alpha": 0, "gamma": 12},
        "motion": {
            "transition": [[1.0, 1.0], [0.0, 1.0]],
            "process_noise": [[0.1, 0.05], [0.05, 0.1]],
            "survival": 0.95,
            "birth_rate": 0.3,
            "birth_mean": [0.0, 1.0],
            "birth_cov": [[4.0, 0.0], [0.0, 1.0]],
        },
        "sensor": {
            "measurement": [[1.0, 0.0]],
            "noise": [[0.25]],
            "detection": 0.9,
            "clutter_rate": 1.0,
            "clutter_low": [-60.0],
            "clutter_high": [60.0],
        },
        "track": {
            "measurements": [
                {"time": 2, "value": [2.0]},
                {"time": 3, "value": [3.1]},
                {"time": 5, "value": [5.2]},
            ],
            "r0": 0.9,
            "slack": 2,
        },
        "constraints": {
            "mode": "conjunct",
            "items": [
                {
                    "time": 3,
                    "boxes": [{"lower": [0.0, None], "upper": [6.0, None]}],
                }
            ],
        },
        "mc_budget": 30000,
        "oracle": {"n": 50000},
    }
    cfg.update(overrides)
    return cfg


def run(tmp_path, cfg, command, extra=(), name="cfg.json", subdir="out"):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / subdir
    return main([command, "--config", str(cfg_path), "--out-dir", str(out), *extra]), out


class TestSimulate:
    def test_outputs_and_schema(self, tmp_path):
        code, out = run(tmp_path, base_config(), "simulate")
        assert code == EXIT_OK
        csv = (out / "trajectories.csv").read_text().splitlines()
        assert csv[0] == f"# schema={CSV_SCHEMA}"
        assert csv[1] == "trajectory,time,x0,x1"
        scenario = json.loads((out / "scenario.json").read_text())
        assert scenario["schema"] == "trajconstrain-scenario-v1"

    def test_deterministic(self, tmp_path):
        _, out1 = run(tmp_path, base_config(), "simulate", subdir="a")
        _, out2 = run(tmp_path, base_config(), "simulate", subdir="b")
        assert (out1 / "scenario.json").read_bytes() == (out2 / "scenario.json").read_bytes()
        assert (out1 / "trajectories.csv").read_bytes() == (out2 / "trajectories.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        _, out1 = run(tmp_path, base_config(), "simulate", subdir="a")
        _, out2 = run(tmp_path, base_config(), "simulate", ("--seed", "8"), subdir="b")
        assert (out1 / "scenario.json").read_text() != (out2 / "scenario.json").read_text()

    def test_empty_truth_still_writes_files(self, tmp_path):
        cfg = base_config()
        cfg["motion"]["birth_rate"] = 0.0
        code, out = run(tmp_path, cfg, "simulate")
        assert code == EXIT_OK
        csv = (out / "trajectories.csv").read_text().splitlines()
        assert len(csv) == 2  # schema + header only
        assert json.loads((out / "scenario.json").read_text())["truth"] == []


class TestConstrain:
    def test_outputs(self, tmp_path):
        code, out = run(tmp_path, base_config(), "constrain")
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["r"] == 0.9
        assert 0.0 < summary["r_constrained"] <= 0.9
        assert summary["degenerate"] is False
        assert summary["report"]["joint"] == pytest.approx(
            summary["report"]["prob_alive"] * summary["report"]["prob_spatial"]
        )
        csv = (out / "constrained.csv").read_text().splitlines()
        assert csv[0] == f"# schema={CSV_SCHEMA}"
        assert "constrained_mean_x0" in csv[1]

    def test_deterministic(self, tmp_path):
        _, out1 = run(tmp_path, base_config(), "constrain", subdir="a")
        _, out2 = run(tmp_path, base_config(), "constrain", subdir="b")
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        assert (out1 / "constrained.csv").read_bytes() == (out2 / "constrained.csv").read_bytes()

    def test_dropped_strata(self, tmp_path):
        _, out = run(tmp_path, base_config(), "constrain", subdir="normal")
        assert json.loads((out / "summary.json").read_text())["dropped_strata"] == 0
        cfg = base_config()
        # x >= 5 at step 0 is ~1e-7 likely for the 3 hypotheses born at 0, so
        # each gets the 2-draw minimum and accepts neither
        cfg["constraints"]["items"] = [
            {"time": 0, "boxes": [{"lower": [5.0, None], "upper": [None, None]}]},
            {"time": 3, "boxes": [{"lower": [0.0, None], "upper": [6.0, None]}]},
        ]
        code, out = run(tmp_path, cfg, "constrain", subdir="tiny")
        assert code == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["dropped_strata"] == 3

    def test_pair_paths(self, tmp_path, monkeypatch):
        cfg = base_config()
        # The hypotheses die at 5, 6 or 7. Death 5 meets only the gate at 3
        # (closed form); death 6 also the gate at 6, correlated with it
        # (Monte Carlo); death 7 also a gate 50 sd away, pinned outside (0).
        cfg["constraints"]["items"] = [
            {"time": 3, "boxes": [{"lower": [2.8, None], "upper": [3.4, None]}]},
            {"time": 6, "boxes": [{"lower": [5.8, None], "upper": [6.6, None]}]},
            {"time": 7, "boxes": [{"lower": [60.0, None], "upper": [70.0, None]}]},
        ]
        seen = []
        inner = cli.constrain_bernoulli

        def spy(*args):
            seen.append(inner(*args))
            return seen[-1]

        monkeypatch.setattr(cli, "constrain_bernoulli", spy)
        code, out = run(tmp_path, cfg, "constrain")
        assert code == EXIT_OK
        infos = list(seen[0].density.pair_info.values())
        paths = json.loads((out / "summary.json").read_text())["pair_paths"]
        assert paths == {"pinned": 3, "closed_form": 3, "mc": 3}
        assert paths == {path: sum(i.path == path for i in infos) for path in paths}
        assert all((i.path == "mc") == (i.spatial_se > 0.0) for i in infos)

    def test_zero_support_is_numeric_error(self, tmp_path):
        cfg = base_config()
        # constraint time outside every plausible (birth, death) hypothesis
        cfg["constraints"]["items"] = [{"time": 12}]
        code, _ = run(tmp_path, cfg, "constrain")
        assert code == EXIT_NUMERIC


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["simulate", "--config", str(p)]) == EXIT_CONFIG

    def test_missing_field(self, tmp_path):
        cfg = base_config()
        del cfg["window"]
        code, _ = run(tmp_path, cfg, "simulate")
        assert code == EXIT_CONFIG

    def test_bad_constraint_mode(self, tmp_path):
        cfg = base_config()
        cfg["constraints"]["mode"] = "neither"
        code, _ = run(tmp_path, cfg, "constrain")
        assert code == EXIT_CONFIG

    def test_measurement_outside_window(self, tmp_path):
        cfg = base_config()
        cfg["track"]["measurements"].append({"time": 99, "value": [0.0]})
        code, _ = run(tmp_path, cfg, "constrain")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, field, value, extra",
        [
            ("constrain", "mc_budget", 0, ()),
            ("constrain", "mc_budget", -5, ()),
            ("constrain", "mc_budget", 1, ()),
            ("constrain", "mc_budget", 2.5, ()),
            ("constrain", "mc_budget", "abc", ()),
            ("oracle", "mc_budget", 0, ()),
            ("simulate", "seed", "abc", ()),
            ("simulate", "seed", -1, ()),
            ("simulate", "seed", 7, ("--seed", "-1")),
            ("simulate", "seed", 7, ("--seed", "abc")),
            ("constrain", "track.slack", "two", ()),
            ("oracle", "oracle.n", 0, ()),
            ("oracle", "oracle.n_runs", 0, ()),
        ],
    )
    def test_bad_integer_exits_with_config_error(self, tmp_path, capsys, command, field, value, extra):
        cfg = base_config()
        cfg["oracle"]["mu"] = 2.0  # oracle.n_runs is read for the PPP check
        *parents, key = field.split(".")
        node = cfg
        for part in parents:
            node = node[part]
        node[key] = value
        code, _ = run(tmp_path, cfg, command, extra)
        assert code == EXIT_CONFIG
        assert f"config error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("oracle.z_threshold", "x"),
            ("oracle.z_threshold", 0),
            ("oracle.mu", "x"),
            ("oracle.mu", -1),
            ("oracle.mu", 0),
            ("oracle.mu", float("inf")),
        ],
    )
    def test_bad_positive_number_exits_with_config_error(self, tmp_path, capsys, field, value):
        cfg = base_config()
        cfg["oracle"][field.split(".")[1]] = value
        code, _ = run(tmp_path, cfg, "oracle")
        assert code == EXIT_CONFIG
        assert f"config error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [("window", "alpha", None), ("window", "gamma", [12]), ("motion", "birth_schedule", [1, None])],
    )
    def test_integer_of_wrong_type_exits_with_config_error(self, tmp_path, capsys, section, key, value):
        cfg = base_config()
        cfg[section][key] = value
        code, _ = run(tmp_path, cfg, "simulate")
        assert code == EXIT_CONFIG
        assert f"config error: {section}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "constrain"])
    def test_non_psd_birth_cov(self, tmp_path, command):
        cfg = base_config()
        cfg["motion"]["birth_cov"] = [[4.0, 0.0], [0.0, -1.0]]
        code, _ = run(tmp_path, cfg, command)
        assert code == EXIT_CONFIG


class TestOracleCommand:
    def test_pass(self, tmp_path):
        code, out = run(tmp_path, base_config(), "oracle")
        assert code == EXIT_OK
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["passed"] is True
        assert report["bernoulli"]["passed"] is True
        txt = (out / "oracle_report.txt").read_text()
        assert "[bernoulli]" in txt and "pass" in txt

    def test_with_ppp_check(self, tmp_path):
        cfg = base_config()
        cfg["oracle"]["mu"] = 2.0
        cfg["oracle"]["n_runs"] = 4000
        code, out = run(tmp_path, cfg, "oracle")
        assert code == EXIT_OK
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["ppp"]["passed"] is True

    def test_corrupted_analytic_fails(self, tmp_path, capsys, monkeypatch):
        inner = cli.constrain_bernoulli

        def corrupted(*args):
            out = inner(*args)
            out.r *= 1.5
            return out

        monkeypatch.setattr(cli, "constrain_bernoulli", corrupted)
        code, out = run(tmp_path, base_config(), "oracle")
        assert code == EXIT_ORACLE
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["passed"] is False
        assert "FAIL" in capsys.readouterr().out
