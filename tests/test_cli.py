import json
import math
import os
import subprocess
import sys
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

    def test_degenerate_constrained_density(self, tmp_path):
        # a gate far from the track pins every pair outside it: no view is
        # drawn, the constrained columns stay empty and the summary says so
        cfg = base_config()
        cfg["constraints"]["items"][0]["boxes"] = [{"lower": [500.0, None], "upper": [501.0, None]}]
        code, out = run(tmp_path, cfg, "constrain")
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["degenerate"] is True and summary["r_constrained"] == 0.0
        assert summary["pair_paths"]["pinned"] == sum(summary["pair_paths"].values()) > 0
        assert set(summary["view_paths"].values()) == {0}
        assert summary["acceptance_rate"] == 0.0 and summary["dropped_strata"] == 0
        header, *rows = [line.split(",") for line in (out / "constrained.csv").read_text().splitlines()[1:]]
        constrained = [k for k, name in enumerate(header) if name.startswith("constrained_")]
        assert len(constrained) == 4 and rows
        assert all(row[k] == "" for row in rows for k in constrained)
        assert all(row[k] != "" for row in rows for k in range(len(header)) if k not in constrained)

    def test_full_survival_dies_at_the_window_end(self, tmp_path, monkeypatch):
        # The last detection is at 5 and slack 2 ends every death candidate
        # before the window's last step, 12. With survival 1 a target alive
        # at its last detection lives to 12, the only death.
        cfg = base_config()
        cfg["motion"]["survival"] = 1.0
        fits = []
        inner = cli.fit_bernoulli_track

        def spy(*args, **kwargs):
            fits.append(inner(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(cli, "fit_bernoulli_track", spy)
        code, out = run(tmp_path, cfg, "constrain")
        assert code == EXIT_OK
        (bern,) = fits
        assert {e for _, e in bern.density.pmf.pairs} == {12}
        assert all(math.isfinite(p) for p in bern.density.pmf.probs)
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 < summary["r_constrained"] <= 0.9

    def test_deterministic(self, tmp_path):
        _, out1 = run(tmp_path, base_config(), "constrain", subdir="a")
        _, out2 = run(tmp_path, base_config(), "constrain", subdir="b")
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        assert (out1 / "constrained.csv").read_bytes() == (out2 / "constrained.csv").read_bytes()

    def test_dropped_strata(self, tmp_path, monkeypatch):
        _, out = run(tmp_path, base_config(), "constrain", subdir="normal")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["dropped_strata"] == 0
        assert summary["view_paths"] == {"exact": 9, "closed_form": 0, "lattice": 0, "mc": 0}  # the wide gate is pinned
        cfg = base_config()
        # two boxes at step 0, ~3 sd from the hypotheses born at 0: their
        # views draw y by Monte Carlo, and at least one accepts no draw
        cfg["constraints"]["items"] = [
            {
                "time": 0,
                "boxes": [{"lower": [4.0, None], "upper": [4.5, None]}, {"lower": [5.0, None], "upper": [5.5, None]}],
            },
            {"time": 3, "boxes": [{"lower": [0.0, None], "upper": [6.0, None]}]},
        ]
        seen = []
        inner = cli.constrained_marginals

        def spy(*args):
            seen.append(inner(*args))
            return seen[-1]

        monkeypatch.setattr(cli, "constrained_marginals", spy)
        code, out = run(tmp_path, cfg, "constrain", subdir="tiny")
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        (views,) = seen
        # every view pair that accepted no draw is counted as dropped
        empty = [pair for pair, path in views.view_paths.items() if path in ("lattice", "mc") and not views.accepted[pair]]
        assert summary["dropped_strata"] == len(empty) >= 1
        assert summary["view_paths"] == {"exact": 6, "closed_form": 0, "lattice": 0, "mc": 2}
        assert 0.0 < summary["acceptance_rate"] <= 1.0

    def test_pair_paths(self, tmp_path, monkeypatch):
        cfg = base_config()
        # The hypotheses die at 5, 6 or 7. Death 5 meets the gates at 3, 4
        # and 5, on correlated positions (closed form); death 6 also the gate
        # at 6 (QMC on four coordinates); death 7 also a gate 50 sd away,
        # pinned outside (0).
        cfg["constraints"]["items"] = [
            {"time": 3, "boxes": [{"lower": [2.8, None], "upper": [3.4, None]}]},
            {"time": 4, "boxes": [{"lower": [3.6, None], "upper": [4.8, None]}]},
            {"time": 5, "boxes": [{"lower": [4.7, None], "upper": [5.7, None]}]},
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
        assert paths == {"pinned": 3, "closed_form": 3, "qmc": 3, "mc": 0}
        assert paths == {path: sum(i.path == path for i in infos) for path in paths}
        assert all((i.path in ("mc", "qmc")) == (i.spatial_se > 0.0) for i in infos)

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
        "lower, upper",
        [(float("nan"), 6.0), (0.0, float("nan")), (float("inf"), None), (None, float("-inf"))],
    )
    def test_nan_or_empty_bound_exits_with_config_error(self, tmp_path, capsys, lower, upper):
        # json writes and reads the NaN, Infinity and -Infinity tokens
        cfg = base_config()
        cfg["constraints"]["items"][0]["boxes"] = [{"lower": [lower, None], "upper": [upper, None]}]
        code, out = run(tmp_path, cfg, "constrain")
        assert code == EXIT_CONFIG
        assert "config error: constraints.items[0].boxes:" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("window", "alpha", None),
            ("window", "gamma", [12]),
            ("motion", "birth_schedule", [1, None]),
            ("sensor", "detection", [0.9]),
        ],
    )
    def test_integer_of_wrong_type_exits_with_config_error(self, tmp_path, capsys, section, key, value):
        cfg = base_config()
        cfg[section][key] = value
        code, _ = run(tmp_path, cfg, "simulate")
        assert code == EXIT_CONFIG
        assert f"config error: {section}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("motion", "survival", True),
            ("motion", "survival", 1.5),
            ("motion", "survival", float("nan")),
            ("motion", "birth_rate", True),
            ("motion", "birth_rate", -1.0),
            ("motion", "birth_rate", float("inf")),
            ("sensor", "detection", True),
            ("sensor", "detection", "high"),
            ("sensor", "clutter_rate", False),
            ("sensor", "clutter_rate", float("nan")),
        ],
    )
    def test_bad_probability_or_rate_exits_with_config_error(self, tmp_path, capsys, section, key, value):
        # JSON true is not read as 1; the error names the section and the field
        cfg = base_config()
        cfg[section][key] = value
        code, out = run(tmp_path, cfg, "constrain")
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {section}: {key}: " in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("track", []),
            ("motion", [1.0]),
            ("sensor", []),
            ("constraints", [{"time": 3}]),
            ("oracle", [{"n": 100}]),
            ("track.r0", [1]),
            ("seed", True),
            ("track.slack", True),
            ("oracle.mu", True),
        ],
    )
    def test_value_of_wrong_json_type_exits_with_config_error(self, tmp_path, field, value):
        """Run as a program: the error is one ``config error:`` line, with no traceback."""
        cfg = base_config()
        *parents, key = field.split(".")
        node = cfg
        for part in parents:
            node = node[part]
        node[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = ["oracle", "--config", str(cfg_path), "--out-dir", str(tmp_path)]
        proc = subprocess.run(
            [sys.executable, "-m", "trajconstrain.cli", *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert f"config error: {field}:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["simulate", "constrain"])
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("motion", "process_noise", [[float("nan"), 0.0], [0.0, 0.1]]),
            ("motion", "transition", [[1.0, float("inf")], [0.0, 1.0]]),
            ("sensor", "noise", [[float("nan")]]),
        ],
    )
    def test_non_finite_matrix_exits_with_config_error(self, tmp_path, capsys, command, section, key, value):
        # the error names the matrix; a NaN would pass every PSD comparison
        cfg = base_config()
        cfg[section][key] = value
        code, _ = run(tmp_path, cfg, command)
        assert code == EXIT_CONFIG
        assert f"config error: {section}: {key} must be finite" in capsys.readouterr().err

    def test_zero_survival_names_the_field(self, tmp_path, capsys):
        # the CI run.json config: measurements at 2, 3 and 5, so no (birth,
        # death) hypothesis survives from one to the next and the fit has no
        # pmf to give
        cfg = base_config(mc_budget=20_000, oracle={"n": 20_000, "n_runs": 2_000, "mu": 2})
        cfg["constraints"] = {"mode": "disjunct", "items": [
            {"time": 3, "boxes": [{"lower": [2.8, None], "upper": [3.4, None]}]},
            {"time": 6, "boxes": [{"lower": [5.8, None], "upper": [6.6, None]}]},
        ]}
        cfg["motion"]["survival"] = 0.0
        code, out = run(tmp_path, cfg, "constrain")
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: track: motion.survival is 0" in err and "nonnegative" not in err
        assert not (out / "summary.json").exists()

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

    def test_qmc_pairs_pass(self, tmp_path):
        self.check_correlated_gates(tmp_path, (3, 4, 5, 6), "qmc")

    def test_two_gate_pairs_settle_in_closed_form_and_pass(self, tmp_path):
        self.check_correlated_gates(tmp_path, (3, 6), "closed_form")

    def test_three_gate_pairs_settle_in_closed_form_and_pass(self, tmp_path):
        self.check_correlated_gates(tmp_path, (3, 4, 6), "closed_form")

    @staticmethod
    def check_correlated_gates(tmp_path, times, path):
        # gates on correlated positions: the pairs alive at two or three of
        # them are settled in closed form, those alive at four by randomized
        # QMC; the oracle then checks them
        cfg = base_config()
        gates = {3: (2.8, 3.4), 4: (3.6, 4.8), 5: (4.7, 5.7), 6: (5.8, 6.6)}
        cfg["constraints"]["items"] = [
            {"time": t, "boxes": [{"lower": [gates[t][0], None], "upper": [gates[t][1], None]}]} for t in times
        ]
        code, out = run(tmp_path, cfg, "constrain")
        assert code == EXIT_OK
        paths = json.loads((out / "summary.json").read_text())["pair_paths"]
        assert paths[path] > 0 and (path == "qmc" or paths["qmc"] == 0), paths
        code, out = run(tmp_path, cfg, "oracle")
        assert code == EXIT_OK
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["passed"] is True and report["bernoulli"]["z_threshold"] == 4.0
        names = [e["name"] for e in report["bernoulli"]["entries"]]
        assert "r_constrained" in names and any(name.startswith("mean[") for name in names)

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
