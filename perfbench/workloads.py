"""Seeded inputs, timed operations and output checks of the three workloads.

Every input is a pure function of ``(seed, workload, op index)``; the library
sees only the generated configs and densities. Truth tracks and detections
are simulated here with numpy rather than with ``trajconstrain.scenario``, so
that a change to the library's simulator cannot change the inputs.

All three workloads are closed loops with one client in one process: the next
op starts only after the previous one returned and was checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from typing import Dict, List

import numpy as np

from trajconstrain import cli, engine, rfs
from trajconstrain.core import Constraint, ConstraintSet, StateRegion, TimeWindow
from trajconstrain.errors import ZeroSupportError
from trajconstrain.rfs import BernoulliTrajectory, GlobalHypothesis, PmbmDensity, PppTrajectory
from trajconstrain.scenario import MotionModel, SensorModel, fit_bernoulli_track

# Constant-velocity motion, position-only detections (1-D position, velocity).
TRANSITION = [[1.0, 1.0], [0.0, 1.0]]
PROCESS_NOISE = [[0.05 / 3.0, 0.025], [0.025, 0.05]]
BIRTH_MEAN = [0.0, 1.0]
BIRTH_COV = [[25.0, 0.0], [0.0, 1.0]]
MEASUREMENT = [[1.0, 0.0]]
MEAS_NOISE = [[1.0]]
DETECTION = 0.9

REFERENCE_FACTOR = 16  # reference budget = 16 x the op's mc_budget
PROB_TOL = 1e-12  # probabilities may leave [0, 1] by this much without failing an op
# An oracle op makes about 43 z-tests. At |z| <= 4 each, a correct engine
# fails a few ops in a thousand by chance; at 5, about 3 in 100 000. Entries
# beyond 4 are still counted, in oracle.failed_entries and oracle_fail_frac.
ORACLE_Z_FAIL = 5.0
ORACLE_Z_COUNT = 4.0

# pmbm-scan assembles its PMBMs from one fixed library of fitted tracks; the
# workload seed picks the tracks, hypotheses, gates and Monte Carlo seeds of
# each op. A library drawn per seed would add the spread of its composition to
# every figure and make runs with different seeds incomparable.
TRACK_LIBRARY_SEED = 0

WORKLOAD_IDS = {"cli-track": 1, "pmbm-scan": 2, "oracle-verify": 3}


class CheckError(Exception):
    """An op returned, but its output failed a correctness check."""


class OpFailed(Exception):
    """An op reported failure itself (a nonzero CLI exit code)."""


def op_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOAD_IDS[workload], int(index)])


def derived_seed(seed: int, workload: str, index: int, stream: int) -> int:
    """Library seed for op ``index``; stream 1 is the op, stream 2 its reference."""
    ss = np.random.SeedSequence([int(seed), WORKLOAD_IDS[workload], int(index), stream])
    return int(ss.generate_state(1)[0] & 0x7FFFFFFF)


def simulate_cv(rng: np.random.Generator, steps: int) -> np.ndarray:
    """One constant-velocity truth trajectory over ``steps`` steps, shape (steps, 2)."""
    f = np.array(TRANSITION)
    q_fac = np.linalg.cholesky(np.array(PROCESS_NOISE))
    x = np.array(BIRTH_MEAN) + np.sqrt(np.diag(BIRTH_COV)) * rng.standard_normal(2)
    out = np.empty((steps, 2))
    for k in range(steps):
        out[k] = x
        x = f @ x + q_fac @ rng.standard_normal(2)
    return out


def detect(rng: np.random.Generator, states: np.ndarray, first: int, last: int) -> List[dict]:
    """Position detections with probability DETECTION at each step of first..last."""
    sd = math.sqrt(MEAS_NOISE[0][0])
    return [
        {"time": k, "value": [float(states[k, 0] + sd * rng.standard_normal())]}
        for k in range(first, last + 1)
        if rng.random() < DETECTION
    ]


def track_config(seed: int, workload: str, index: int, steps: int, mode: str, slack: int) -> dict:
    """CLI config: one truth track, its detections and 3 position gates.

    The target lives from step 5 to step ``steps - 6``, so with ``slack`` 3 the
    fitted track has 4 x 4 (birth, death) hypotheses of nearly the same length
    and op cost varies little between inputs. Gate edges sit near the true position, so
    spatial probabilities spread over (0, 1) instead of piling up at 0 or 1.
    Disjunct gates are narrow (any one may hold), conjunct gates wide (all
    must hold).
    """
    rng = op_rng(seed, workload, index)
    birth, death = 5, steps - 6
    states = simulate_cv(rng, steps)
    measurements = detect(rng, states, birth, death)
    times = sorted(int(t) for t in rng.choice(np.arange(steps // 5, 4 * steps // 5), 3, replace=False))
    items = []
    for t in times:
        if mode == "disjunct":
            centre, half = states[t, 0] + rng.normal(0.0, 0.6), rng.uniform(0.2, 0.6)
        else:
            centre, half = states[t, 0] + rng.normal(0.0, 0.3), rng.uniform(0.6, 1.2)
        items.append(
            {"time": t, "boxes": [{"lower": [float(centre - half), None], "upper": [float(centre + half), None]}]}
        )
    return {
        "seed": 0,
        "window": {"alpha": 0, "gamma": steps - 1},
        "motion": {
            "transition": TRANSITION,
            "process_noise": PROCESS_NOISE,
            "survival": 0.99,
            "birth_rate": 0.0,
            "birth_mean": BIRTH_MEAN,
            "birth_cov": BIRTH_COV,
        },
        "sensor": {
            "measurement": MEASUREMENT,
            "noise": MEAS_NOISE,
            "detection": DETECTION,
            "clutter_rate": 0.0,
            "clutter_low": [-1000.0],
            "clutter_high": [1000.0],
        },
        "track": {"measurements": measurements, "r0": 0.9, "slack": slack},
        "constraints": {"mode": mode, "items": items},
        "mc_budget": 50_000,
    }


def check_probability(value: float, name: str, counters: Dict[str, float]) -> None:
    """Fail on a probability outside [0, 1]; count one outside by <= PROB_TOL."""
    if not math.isfinite(value) or value < -PROB_TOL or value > 1.0 + PROB_TOL:
        raise CheckError(f"{name}={value!r} outside [0, 1]")
    if value < 0.0 or value > 1.0:
        counters["engine.prob_out_of_range"] += 1


def check_scaled(scaled: float, base: float, name: str, counters: Dict[str, float]) -> None:
    """``scaled <= base``, where scaled = base * joint; joint may exceed 1 by PROB_TOL."""
    if not math.isfinite(scaled) or scaled < 0.0 or scaled > base * (1.0 + PROB_TOL):
        raise CheckError(f"{name}={scaled!r} not in [0, {base!r}]")
    if scaled > base:
        counters["engine.prob_out_of_range"] += 1


def check_report(report: dict, prefix: str, counters: Dict[str, float]) -> None:
    for key in ("prob_alive", "prob_spatial", "joint"):
        check_probability(float(report[key]), f"{prefix}.{key}", counters)


def _fit_from_config(cfg: dict) -> BernoulliTrajectory:
    window = cli.parse_window(cfg)
    mm = cli.parse_motion(cfg)
    sm = cli.parse_sensor(cfg)
    track = cfg["track"]
    pairs = [(int(m["time"]), np.array(m["value"], dtype=float)) for m in track["measurements"]]
    return fit_bernoulli_track(pairs, mm, sm, window, float(track["r0"]), int(track["slack"]))


class CliWorkload:
    """Common part of the two workloads whose op is an in-process ``cli.main``."""

    name = ""
    command = ""
    steps = 0
    mode = ""
    slack = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.config_path = workdir / "config.json"
        self.out_dir = workdir / "out"

    def make_input(self, index: int) -> dict:
        return track_config(self.seed, self.name, index, self.steps, self.mode, self.slack)

    def prepare_op(self, cfg: dict) -> None:
        self.config_path.write_text(json.dumps(cfg))
        if self.out_dir.exists():
            for f in self.out_dir.iterdir():
                f.unlink()

    def run_op(self, cfg: dict, op_seed: int) -> int:
        argv = [self.command, "--config", str(self.config_path), "--out-dir", str(self.out_dir), "--seed", str(op_seed)]
        with contextlib.redirect_stdout(io.StringIO()):  # keep the oracle's table out of the result stream
            return cli.main(argv)

    def reference(self, cfg: dict, ref_seed: int) -> Dict[str, float]:
        """Joint of the same fitted Bernoulli at REFERENCE_FACTOR x the budget."""
        cs = cli.parse_constraints(cfg, cli.parse_window(cfg), len(TRANSITION))
        b = _fit_from_config(cfg)
        ref = engine.constrain_bernoulli(b, cs, REFERENCE_FACTOR * int(cfg["mc_budget"]), ref_seed)
        return {"bernoulli": ref.report.joint}


class CliTrack(CliWorkload):
    """The user's CLI path: Kalman/RTS fit of 16 (birth, death) hypotheses,
    disjunct partition probabilities, a rejection cloud of full ~90-step
    sequences (up to 200-dim draws) and CSV/JSON output. One component, so
    PMBM-level sharing cannot help it."""

    name = "cli-track"
    command = "constrain"
    steps = 100
    mode = "disjunct"

    def check(self, cfg: dict, rc: int, counters: Dict[str, float]) -> Dict[str, float]:
        if rc != cli.EXIT_OK:
            raise OpFailed(f"exit code {rc}")
        summary = json.loads((self.out_dir / "summary.json").read_text())
        check_report(summary["report"], "report", counters)
        check_scaled(summary["r_constrained"], summary["r"], "r_constrained", counters)
        if not 0.0 < summary["acceptance_rate"] <= 1.0:
            raise CheckError(f"acceptance_rate={summary['acceptance_rate']!r}")
        lines = (self.out_dir / "constrained.csv").read_text().splitlines()
        if lines[0] != f"# schema={cli.CSV_SCHEMA}" or len(lines) < 3:
            raise CheckError("constrained.csv lacks its schema line or rows")
        return {"bernoulli": float(summary["report"]["joint"])}


class OracleVerify(CliWorkload):
    """The oracle path: the same draw, core and kernels calls as cli-track, but
    on a few large batches (2e5 Bernoulli draws, 1e4 PPP runs) instead of
    many small ones, so a change tuned for small batches that costs large
    ones shows here. Conjunct gates, a PPP (oracle.mu), a 30-step window.

    The track has one (birth, death) hypothesis (slack 0). With several, the
    oracle's check of the moment-matched mean fails about 4% of ops at |z| > 4
    on steps where only some hypotheses are alive: its standard error divides
    by all accepted draws, not by those alive at that step. The benchmark
    needs workloads on which no op fails, so that defect is left to the
    library's tests."""

    name = "oracle-verify"
    command = "oracle"
    steps = 30
    mode = "conjunct"
    slack = 0
    mu = 2.0

    def make_input(self, index: int) -> dict:
        cfg = super().make_input(index)
        cfg["oracle"] = {"n": 200_000, "n_runs": 10_000, "mu": self.mu, "z_threshold": ORACLE_Z_FAIL}
        return cfg

    def check(self, cfg: dict, rc: int, counters: Dict[str, float]) -> Dict[str, float]:
        if rc not in (cli.EXIT_OK, cli.EXIT_ORACLE):
            raise OpFailed(f"exit code {rc}")
        report = json.loads((self.out_dir / "oracle_report.json").read_text())
        for part in ("bernoulli", "ppp"):
            for e in report[part]["entries"]:
                counters["oracle.entries"] += 1
                counters["oracle.failed_entries"] += abs(e["z"]) > ORACLE_Z_COUNT
        if (rc == cli.EXIT_OK) != report["passed"]:
            raise CheckError(f"exit code {rc} disagrees with passed={report['passed']}")
        if rc == cli.EXIT_ORACLE:
            raise OpFailed(f"exit code {rc}: an oracle entry exceeded |z| > {ORACLE_Z_FAIL}")
        analytic = {e["name"]: e["analytic"] for part in ("bernoulli", "ppp") for e in report[part]["entries"]}
        r0 = float(cfg["track"]["r0"])
        check_scaled(analytic["r_constrained"], r0, "r_constrained", counters)
        check_scaled(analytic["mu_constrained"], self.mu, "mu_constrained", counters)
        # The PPP is constrained from the Bernoulli's density with the same seed,
        # so its joint repeats the Bernoulli's and is not counted twice.
        return {"bernoulli": analytic["r_constrained"] / r0}


class PmbmScan:
    """Constrain whole PMBMs whose global hypotheses share single-target
    hypotheses, as in trajectory PMBM filters: hundreds of small per-pair
    marginal draws, partition coding and duplicated components; no fitting,
    rejection sampling or file I/O inside the op. Query: inside the gate at
    any scan, one constraint every 10 steps.

    A Bernoulli whose support misses every constraint time raises
    ZeroSupportError for the whole PMBM. The benchmark needs workloads on
    which no op fails, so the library's targets enter during the first 10
    steps and stay to the window's end, and every support meets the query.
    The defect is measured apart from the timed ops: ``zero_support_probe``
    asks the same PMBM about the first scan only, before most tracks were
    born."""

    name = "pmbm-scan"
    steps = 60
    scenarios = 4
    distinct = 15  # distinct Bernoullis per PMBM
    per_hypothesis = 11  # 3 x 11 = 33 slots over 15 distinct tracks, 55% duplicates
    hypotheses = 3
    entry_steps = 10  # targets enter during the first 10 steps, ~20 per scenario, and never leave
    mc_budget = 10_000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.window = TimeWindow(0, self.steps - 1)
        self.mm = MotionModel(
            np.array(TRANSITION), np.array(PROCESS_NOISE), 0.98, 2.0, np.array(BIRTH_MEAN), np.array(BIRTH_COV)
        )
        self.sm = SensorModel(np.array(MEASUREMENT), np.array(MEAS_NOISE), DETECTION, 0.0, [-1e3], [1e3])
        self.tracks: List[BernoulliTrajectory] = []
        self.ppps: List[PppTrajectory] = []
        for s in range(self.scenarios):
            tracks, ppp = self._fit_scenario(s)
            self.tracks.extend(tracks)
            self.ppps.append(ppp)
        self.keys = {id(t): f"track{j}" for j, t in enumerate(self.tracks)}

    def _fit_scenario(self, s: int):
        """Fitted Bernoulli tracks of every detected target of one library scenario, plus a PPP."""
        rng = op_rng(TRACK_LIBRARY_SEED, self.name, 1_000_000 + s)
        truths: List[tuple] = []
        q_fac = np.linalg.cholesky(self.mm.process_noise)
        for k in range(self.steps):
            for _, states in truths:
                states.append(self.mm.transition @ states[-1] + q_fac @ rng.standard_normal(2))
            for _ in range(int(rng.poisson(self.mm.birth_rate)) if k < self.entry_steps else 0):
                x0 = np.array(BIRTH_MEAN) + np.sqrt(np.diag(BIRTH_COV)) * rng.standard_normal(2)
                truths.append((k, [x0]))
        tracks = []
        for birth, states in truths:
            full = np.zeros((self.steps, 2))
            full[birth : birth + len(states)] = states
            meas = detect(rng, full, birth, birth + len(states) - 1)
            if meas:
                tracks.append(self._fit(meas, float(rng.uniform(0.5, 0.99))))
        # PPP density: a sparsely detected target alive over the whole window.
        offset = int(rng.integers(0, 10))
        undetected = simulate_cv(rng, self.steps)
        meas = [m for m in detect(rng, undetected, 0, self.steps - 1) if m["time"] % 10 == offset]
        ppp = PppTrajectory(1.0, self._fit(meas, 0.9).density)
        return tracks, ppp

    def _fit(self, meas: List[dict], r0: float) -> BernoulliTrajectory:
        pairs = [(m["time"], np.array(m["value"])) for m in meas]
        return fit_bernoulli_track(pairs, self.mm, self.sm, self.window, r0, 3)

    def make_input(self, index: int):
        """PMBM of 15 library tracks, each of the 3 hypotheses holding 11 of them.

        The scan offset of the query sweeps 0..9 with the op index; the gate
        position and width are drawn per op.
        """
        rng = op_rng(self.seed, self.name, index)
        chosen = rng.choice(len(self.tracks), self.distinct, replace=False)
        weights = rng.dirichlet(np.ones(self.hypotheses))
        weights /= weights.sum()
        hyps = []
        for w in weights:
            picks = np.sort(rng.choice(chosen, self.per_hypothesis, replace=False))
            hyps.append(GlobalHypothesis(float(w), tuple(self.tracks[j] for j in picks)))
        low = float(rng.uniform(-10.0, 20.0))
        gate = StateRegion.box([(low, low + float(rng.uniform(20.0, 40.0))), None])
        times = range(index % 10, self.steps, 10)
        cs = ConstraintSet([Constraint(t, gate) for t in times], "disjunct")
        return PmbmDensity(self.ppps[index % self.scenarios], tuple(hyps)), cs

    def prepare_op(self, inp) -> None:
        pass

    def run_op(self, inp, op_seed: int):
        pmbm, cs = inp
        return engine.constrain_pmbm(pmbm, cs, self.mc_budget, op_seed)

    def check(self, inp, out, counters: Dict[str, float]) -> Dict[str, float]:
        pmbm, _ = inp
        problems = rfs.validate(out)
        if problems:
            raise CheckError("; ".join(problems))
        check_scaled(out.ppp.mu, pmbm.ppp.mu, "ppp.mu", counters)
        parts = [("ppp", out.ppp)]
        joints = {"ppp": out.ppp.report.joint}
        for a, (h, hc) in enumerate(zip(pmbm.hypotheses, out.hypotheses)):
            if hc.weight != h.weight or len(hc.tracks) != len(h.tracks):
                raise CheckError(f"hypothesis {a} changed weight or size")
            for i, (t, tc) in enumerate(zip(h.tracks, hc.tracks)):
                check_scaled(tc.r, t.r, f"hyp[{a}].track[{i}].r", counters)
                parts.append((f"hyp[{a}].track[{i}]", tc))
                joints[self.keys[id(t)]] = tc.report.joint
        for name, comp in parts:
            r = comp.report
            check_report(
                {"prob_alive": r.prob_alive, "prob_spatial": r.prob_spatial, "joint": r.joint}, name, counters
            )
            pmf = comp.density.pmf
            if pmf is not None and abs(float(np.sum(pmf.probs)) - 1.0) > PROB_TOL:
                raise CheckError(f"{name}: constrained pmf sums to {float(np.sum(pmf.probs))!r}")
        return joints

    def zero_support_probe(self, inp, op_seed: int) -> bool:
        """Whether ``constrain_pmbm`` raises ZeroSupportError on the op's PMBM
        queried at the first scan only (ROADMAP item 4: such a component
        should constrain to r = 0 instead)."""
        pmbm, cs = inp
        try:
            engine.constrain_pmbm(pmbm, ConstraintSet([Constraint(0, cs.constraints[0].region)], "disjunct"), self.mc_budget, op_seed)
        except ZeroSupportError:
            return True
        return False

    def reference(self, inp, ref_seed: int) -> Dict[str, float]:
        """Joint of every distinct component at REFERENCE_FACTOR x the budget."""
        pmbm, cs = inp
        budget = REFERENCE_FACTOR * self.mc_budget
        ref = {"ppp": engine.constrain_ppp(pmbm.ppp, cs, budget, ref_seed).report.joint}
        for h in pmbm.hypotheses:
            for t in h.tracks:
                if self.keys[id(t)] not in ref:
                    ref[self.keys[id(t)]] = engine.constrain_bernoulli(t, cs, budget, ref_seed).report.joint
        return ref


WORKLOADS = {w.name: w for w in (CliTrack, PmbmScan, OracleVerify)}
