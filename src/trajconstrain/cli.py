"""Command-line entry point.

Subcommands:
  simulate   sample ground truth (and measurements) from a configured model
  constrain  fit a Bernoulli from an associated track and apply constraints
  oracle     run the Monte Carlo verification suite

All randomness flows from the config seed (overridable with --seed); outputs
are deterministic for a fixed seed. Exit codes: 0 success, 1 config error,
2 numerical/degenerate error, 3 oracle failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import serialize
from .core import Constraint, ConstraintSet, StateRegion, TimeWindow
from .engine import constrain_bernoulli, constrain_ppp, constrained_marginals
from .errors import ConfigError, TrajConstrainError, ZeroSupportError
from .gaussian import CLOSED_FORM, MC, PINNED, step_moments
from .oracle import oracle_bernoulli, oracle_ppp
from .rfs import PppTrajectory
from .scenario import (
    MotionModel,
    Scenario,
    SensorModel,
    fit_bernoulli_track,
    simulate_measurements,
    simulate_truth,
)

CSV_SCHEMA = "trajconstrain-csv-v1"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_ORACLE = 3


def _get(cfg: dict, path: str, required: bool = True, default=None):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"missing config field '{path}'")
            return default
        node = node[part]
    return node


def _parse_int(value, field: str, minimum: int) -> int:
    """``value`` as an integer of at least ``minimum``, else a ConfigError naming ``field``."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{field}: {value!r} is not an integer")
    try:
        n = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: {value!r} is not an integer") from None
    if n < minimum:
        raise ConfigError(f"{field}: must be at least {minimum}, got {n}")
    return n


def _parse_positive(value, field: str) -> float:
    """``value`` as a finite number > 0, else a ConfigError naming ``field``."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: {value!r} is not a number") from None
    if not (math.isfinite(x) and x > 0.0):
        raise ConfigError(f"{field}: must be a finite number > 0, got {value!r}")
    return x


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top-level config must be a JSON object")
    return cfg


def parse_window(cfg: dict) -> TimeWindow:
    try:
        return TimeWindow(int(_get(cfg, "window.alpha")), int(_get(cfg, "window.gamma")))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"window: {exc}") from exc


def parse_motion(cfg: dict) -> MotionModel:
    m = _get(cfg, "motion")
    try:
        schedule = m.get("birth_schedule")
        return MotionModel(
            np.array(m["transition"]),
            np.array(m["process_noise"]),
            float(m["survival"]),
            float(m.get("birth_rate", 0.0)),
            np.array(m["birth_mean"]),
            np.array(m["birth_cov"]),
            tuple(int(t) for t in schedule) if schedule is not None else None,
        )
    except KeyError as exc:
        raise ConfigError(f"motion: missing field {exc}") from exc
    except (TypeError, ValueError, TrajConstrainError) as exc:
        raise ConfigError(f"motion: {exc}") from exc


def parse_sensor(cfg: dict) -> SensorModel:
    s = _get(cfg, "sensor")
    try:
        return SensorModel(
            np.array(s["measurement"]),
            np.array(s["noise"]),
            float(s["detection"]),
            float(s.get("clutter_rate", 0.0)),
            np.array(s.get("clutter_low", [])),
            np.array(s.get("clutter_high", [])),
        )
    except KeyError as exc:
        raise ConfigError(f"sensor: missing field {exc}") from exc
    except (ValueError, TrajConstrainError) as exc:
        raise ConfigError(f"sensor: {exc}") from exc


def parse_constraints(cfg: dict, window: TimeWindow, dim: int) -> ConstraintSet:
    c = _get(cfg, "constraints")
    items = c.get("items")
    if not items:
        raise ConfigError("constraints.items: must be a nonempty list")
    constraints: List[Constraint] = []
    for i, item in enumerate(items):
        try:
            t = int(item["time"])
        except (KeyError, TypeError, ValueError):
            raise ConfigError(f"constraints.items[{i}].time: missing or not an integer")
        boxes = item.get("boxes")
        if boxes:
            try:
                region = StateRegion.boxes(
                    [
                        [
                            (b["lower"][j], b["upper"][j])
                            for j in range(dim)
                        ]
                        for b in boxes
                    ]
                )
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise ConfigError(f"constraints.items[{i}].boxes: {exc}") from exc
        else:
            region = StateRegion.full_space(dim)
        constraints.append(Constraint(t, region))
    mode = c.get("mode", "conjunct")
    try:
        return ConstraintSet(constraints, mode)
    except ValueError as exc:
        raise ConfigError(f"constraints: {exc}") from exc


def _write_csv(path: Path, header: List[str], rows: List[List]) -> None:
    lines = [f"# schema={CSV_SCHEMA}", ",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else (repr(v) if isinstance(v, float) else str(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def cmd_simulate(cfg: dict, seed: int, out_dir: Path, verbose: bool) -> int:
    window = parse_window(cfg)
    mm = parse_motion(cfg)
    truth = simulate_truth(mm, window, seed)
    measurements = {}
    if "sensor" in cfg:
        sm = parse_sensor(cfg)
        measurements = simulate_measurements(truth, sm, window, seed + 1)
    scenario = Scenario(window, truth, measurements)
    (out_dir / "scenario.json").write_text(serialize.scenario_to_json(scenario) + "\n")
    dim = mm.dim
    header = ["trajectory", "time"] + [f"x{j}" for j in range(dim)]
    rows = []
    for i, t in enumerate(truth):
        for k in range(t.birth, t.death + 1):
            rows.append([i, k] + [float(v) for v in t.state_at(k)])
    _write_csv(out_dir / "trajectories.csv", header, rows)
    if verbose:
        print(f"simulated {len(truth)} trajectories over {window.alpha}..{window.gamma}")
    return EXIT_OK


def _fit_track(cfg: dict, window: TimeWindow, mm: MotionModel, sm: SensorModel):
    track = _get(cfg, "track")
    meas = track.get("measurements")
    if not meas:
        raise ConfigError("track.measurements: must be a nonempty list")
    try:
        pairs = [(int(m["time"]), np.array(m["value"], dtype=float)) for m in meas]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"track.measurements: {exc}") from exc
    for t, _ in pairs:
        if t not in window:
            raise ConfigError(f"track.measurements: time {t} outside window")
    slack = _parse_int(track.get("slack", 3), "track.slack", 0)
    try:
        return fit_bernoulli_track(pairs, mm, sm, window, float(track.get("r0", 0.9)), slack)
    except ValueError as exc:
        raise ConfigError(f"track: {exc}") from exc


def _constrain_track(bern, cs: ConstraintSet, budget: int, seed: int):
    """``constrain_bernoulli``, except that a track whose hypotheses meet no
    constraint time is an error here rather than r = 0."""
    constrained = constrain_bernoulli(bern, cs, budget, seed)
    if constrained.report.prob_alive == 0.0:
        raise ZeroSupportError("no (birth, death) hypothesis of the track overlaps any constraint time")
    return constrained


def cmd_constrain(cfg: dict, seed: int, out_dir: Path, verbose: bool) -> int:
    window = parse_window(cfg)
    mm = parse_motion(cfg)
    sm = parse_sensor(cfg)
    bern = _fit_track(cfg, window, mm, sm)
    cs = parse_constraints(cfg, window, mm.dim)
    budget = _parse_int(_get(cfg, "mc_budget", required=False, default=100_000), "mc_budget", 2)
    constrained = _constrain_track(bern, cs, budget, seed)

    u_times, u_means, u_covs, _ = step_moments(bern.density)
    if constrained.density.degenerate:
        c_times, c_means, c_covs = [], None, None
        acceptance = 0.0
        dropped = 0
    else:
        mmarg = constrained_marginals(constrained.density, budget, seed + 1)
        c_times, c_means, c_covs = mmarg.times, mmarg.means, mmarg.covs
        acceptance = mmarg.acceptance_rate
        dropped = sum(n == 0 for n in mmarg.accepted.values())
    c_index = {t: k for k, t in enumerate(c_times)}

    d = mm.dim
    header = ["time"]
    for j in range(d):
        header += [f"unconstrained_mean_x{j}", f"unconstrained_sd_x{j}"]
    for j in range(d):
        header += [f"constrained_mean_x{j}", f"constrained_sd_x{j}"]
    rows = []
    for k, t in enumerate(u_times):
        row: List = [t]
        for j in range(d):
            row += [float(u_means[k, j]), float(np.sqrt(u_covs[k, j, j]))]
        if t in c_index:
            kc = c_index[t]
            for j in range(d):
                row += [float(c_means[kc, j]), float(np.sqrt(c_covs[kc, j, j]))]
        else:
            row += [None] * (2 * d)
        rows.append(row)
    _write_csv(out_dir / "constrained.csv", header, rows)

    paths = [info.path for info in constrained.density.pair_info.values()]
    summary = {
        "r": bern.r,
        "r_constrained": constrained.r,
        "degenerate": constrained.density.degenerate,
        "report": {
            "prob_alive": constrained.report.prob_alive,
            "prob_spatial": constrained.report.prob_spatial,
            "joint": constrained.report.joint,
            "spatial_se": constrained.report.spatial_se,
            "joint_se": constrained.report.joint_se,
        },
        "acceptance_rate": acceptance,
        "dropped_strata": dropped,
        "pair_paths": {path: paths.count(path) for path in (PINNED, CLOSED_FORM, MC)},
        "mc_budget": budget,
        "seed": seed,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if verbose:
        print(f"r={bern.r} -> r_constrained={constrained.r}")
    return EXIT_OK


def cmd_oracle(cfg: dict, seed: int, out_dir: Path, verbose: bool) -> int:
    window = parse_window(cfg)
    mm = parse_motion(cfg)
    sm = parse_sensor(cfg)
    cs = parse_constraints(cfg, window, mm.dim)
    budget = _parse_int(_get(cfg, "mc_budget", required=False, default=100_000), "mc_budget", 2)
    ocfg = _get(cfg, "oracle", required=False, default={}) or {}
    n = _parse_int(ocfg.get("n", 200_000), "oracle.n", 2)
    n_runs = _parse_int(ocfg.get("n_runs", 10_000), "oracle.n_runs", 2)
    z = _parse_positive(ocfg.get("z_threshold", 4.0), "oracle.z_threshold")
    mu = ocfg.get("mu")
    if mu is not None:
        mu = _parse_positive(mu, "oracle.mu")

    bern = _fit_track(cfg, window, mm, sm)
    constrained = _constrain_track(bern, cs, budget, seed)
    reports = {"bernoulli": oracle_bernoulli(bern, constrained, cs, n, z, seed + 2)}

    if mu is not None:
        ppp = PppTrajectory(mu, bern.density)
        cp = constrain_ppp(ppp, cs, budget, seed)
        reports["ppp"] = oracle_ppp(ppp, cp, cs, n_runs, z, seed + 3)

    combined = {k: r.to_dict() for k, r in reports.items()}
    passed = all(r.passed for r in reports.values())
    combined["passed"] = passed
    (out_dir / "oracle_report.json").write_text(json.dumps(combined, indent=2, sort_keys=True) + "\n")
    table = "\n\n".join(f"[{k}]\n{r.to_table()}" for k, r in reports.items())
    (out_dir / "oracle_report.txt").write_text(table + "\n")
    if verbose or not passed:
        print(table)
    return EXIT_OK if passed else EXIT_ORACLE


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="traj-constrain")
    parser.add_argument("command", choices=["simulate", "constrain", "oracle"])
    parser.add_argument("--config", required=True, help="path to JSON run configuration")
    parser.add_argument("--seed", default=None, help="override config seed")
    parser.add_argument("--out-dir", default=".", help="output directory")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        seed = _parse_int(args.seed if args.seed is not None else cfg.get("seed", 0), "seed", 0)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        handler = {"simulate": cmd_simulate, "constrain": cmd_constrain, "oracle": cmd_oracle}[
            args.command
        ]
        return handler(cfg, seed, out_dir, args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrajConstrainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
