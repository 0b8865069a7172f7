"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import json
import math
import time

import numpy as np
import pytest

from trajconstrain import (
    BernoulliTrajectory,
    BirthDeathPmf,
    Constraint,
    ConstraintSet,
    GaussianSequence,
    GlobalHypothesis,
    PmbmDensity,
    PppTrajectory,
    StateRegion,
    TimeWindow,
    Trajectory,
    TrajectoryDensity,
    constrain_bernoulli,
    constrain_density,
    constrain_pmbm,
    constrain_ppp,
    disjunct_partitions,
    satisfies_batch,
    tau_set,
    time_window_constraints,
)
from trajconstrain.cli import main as cli_main
from trajconstrain.errors import ZeroSupportError
from trajconstrain.mvn import COMPLEMENT, region_probability
from trajconstrain.oracle import oracle_bernoulli, oracle_ppp
from trajconstrain.rfs import validate

from conftest import component_seeds, random_constraint_set, random_density


def _report(num: int, desc: str, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num}] {status}: {desc}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def _valid_instance(rng, window, dim, mode=None, max_constraints=4):
    """A (density, constraint set) pair with nonzero support and joint mass."""
    td = random_density(rng, window, dim)
    for _ in range(20):
        cs = random_constraint_set(rng, window, dim, max_constraints, mode)
        try:
            ctd, report = constrain_density(td, cs, 20_000, rng_seed=int(rng.integers(1 << 30)))
        except ZeroSupportError:
            continue
        if not ctd.degenerate:
            return td, cs, ctd, report
    raise RuntimeError("could not build a non-degenerate instance")


def _fresh_spatial_estimate(ctd, pair, n, seed):
    """Independent rejection estimate of the pair's spatial probability."""
    gs = ctd.base.conditional(pair)
    b, e = pair
    rng = np.random.default_rng(seed)
    x = gs.draw(n, rng).reshape(n, e - b + 1, ctd.dim)
    acc = satisfies_batch(b, e, x, ctd.cs)
    return float(acc.mean())


def test_criterion_1_normalization(rng):
    """Constrained pmfs sum to 1; the MC integral of each constrained state
    density is 1 at a 1e5 budget: no instance's z = (integral - 1) / SE
    beyond 4, and the mean z^2 over the instances with SE > 0 in [0.7, 1.3].

    A bound of 3 SE on each of ~146 instances alone fails about a third of
    correct runs by chance; the mean z^2 keeps the power that bound had: it
    fails when every spatial probability is 1% off."""
    failures, z2 = [], []
    for i in range(50):
        window = TimeWindow(0, int(rng.integers(2, 8)))
        dim = int(rng.integers(1, 3))
        for mode, max_c in (("conjunct", 1), ("conjunct", 4), ("disjunct", 4)):
            td, cs, ctd, report = _valid_instance(rng, window, dim, mode, max_c)
            total = float(ctd.pmf.probs.sum())
            if abs(total - 1.0) > 1e-12:
                failures.append(f"inst {i}/{mode}: pmf sums to {total}")
                continue
            budget = 100_000
            est = var = 0.0
            for j, (pair, q) in enumerate(ctd.pmf.items()):
                info = ctd.pair_info[pair]
                n_pair = max(int(round(q * budget)), 200)
                a_hat = _fresh_spatial_estimate(ctd, pair, n_pair, 7_000_000 + 9701 * i + j)
                est += q * a_hat / info.spatial_prob
                var += (q / info.spatial_prob) ** 2 * a_hat * (1 - a_hat) / n_pair
                var += (q * info.spatial_se / info.spatial_prob) ** 2
            se = math.sqrt(var)
            if se > 0.0:
                z2.append(((est - 1.0) / se) ** 2)
            if abs(est - 1.0) > 4 * max(se, 1e-12):
                failures.append(f"inst {i}/{mode}: integral {est} +- {se}")
    if not 0.7 <= np.mean(z2) <= 1.3:
        failures.append(f"mean z^2 {np.mean(z2):.3f} over {len(z2)} instances outside [0.7, 1.3]")
    _report(1, "constrained pmf normalization and MC density integral", failures)


def test_criterion_2_oracle_equivalence(rng):
    """Analytic constrained scales and pmfs match rejection-sampling oracles
    (|z| <= 4 at n = 2e5) over 100 Bernoulli and 30 PPP instances, with at
    most one tolerated statistical failure per full run."""
    failed_entries = []
    for i in range(100):
        window = TimeWindow(0, int(rng.integers(2, 6)))
        dim = int(rng.integers(1, 3))
        td, cs, _, _ = _valid_instance(rng, window, dim)
        b = BernoulliTrajectory(float(rng.uniform(0.2, 0.95)), td)
        out = constrain_bernoulli(b, cs, 50_000, rng_seed=i)
        rep = oracle_bernoulli(b, out, cs, n=200_000, rng_seed=50_000 + i, check_moments=False)
        failed_entries.extend(f"bern {i}: {e.name} z={e.z:.2f}" for e in rep.entries if not e.passed)
    for i in range(30):
        window = TimeWindow(0, int(rng.integers(2, 6)))
        dim = int(rng.integers(1, 3))
        td, cs, _, _ = _valid_instance(rng, window, dim)
        p = PppTrajectory(float(rng.uniform(0.5, 4.0)), td)
        out = constrain_ppp(p, cs, 50_000, rng_seed=200 + i)
        rep = oracle_ppp(p, out, cs, n_runs=20_000, rng_seed=60_000 + i)
        failed_entries.extend(f"ppp {i}: {e.name} z={e.z:.2f}" for e in rep.entries if not e.passed)
    failures = failed_entries if len(failed_entries) > 1 else []
    _report(2, "oracle equivalence for constrained Bernoulli and PPP scales", failures)


def test_criterion_3_mode_identities(rng):
    """Single-element sets agree across modes; disjunct dominates conjunct on
    shared sets; constraining never increases r or mu."""
    failures = []
    for i in range(25):
        window = TimeWindow(0, int(rng.integers(2, 6)))
        dim = int(rng.integers(1, 3))
        td = random_density(rng, window, dim)
        # single-element mode agreement
        single = random_constraint_set(rng, window, dim, max_constraints=1, mode="conjunct")
        try:
            _, rep_c = constrain_density(td, single, 30_000, rng_seed=i)
            _, rep_d = constrain_density(td, ConstraintSet(list(single), "disjunct"), 30_000, rng_seed=i)
        except ZeroSupportError:
            continue
        tol = 1e-10 if rep_c.joint_se == 0.0 and rep_d.joint_se == 0.0 else 3 * math.hypot(
            rep_c.joint_se, rep_d.joint_se
        )
        if abs(rep_c.joint - rep_d.joint) > tol:
            failures.append(f"inst {i}: single-element modes differ by {rep_c.joint - rep_d.joint}")
        # shared multi-constraint set: disjunct at least conjunct
        shared = random_constraint_set(rng, window, dim, max_constraints=4, mode="conjunct")
        b = BernoulliTrajectory(float(rng.uniform(0.2, 0.95)), td)
        p = PppTrajectory(float(rng.uniform(0.5, 3.0)), td)
        try:
            out_c = constrain_bernoulli(b, shared, 30_000, rng_seed=i)
            out_d = constrain_bernoulli(b, ConstraintSet(list(shared), "disjunct"), 30_000, rng_seed=i)
            out_p = constrain_ppp(p, shared, 30_000, rng_seed=i)
        except ZeroSupportError:
            continue
        slack = 3 * b.r * math.hypot(out_c.report.joint_se, out_d.report.joint_se)
        if out_c.r > out_d.r + slack:
            failures.append(f"inst {i}: conjunct r {out_c.r} > disjunct r {out_d.r}")
        if out_c.r > b.r or out_d.r > b.r:
            failures.append(f"inst {i}: constrained r exceeds original")
        if out_p.mu > p.mu:
            failures.append(f"inst {i}: constrained mu {out_p.mu} exceeds {p.mu}")
    _report(3, "mode identities and monotonicity of constrained scales", failures)


def test_criterion_4_time_window_equivalence(rng):
    """Restricting 1e4 random trajectories by a time-window constraint set
    equals the lifetime-overlap filter exactly."""
    window = TimeWindow(0, 40)
    trajs = []
    for _ in range(10_000):
        b = int(rng.integers(0, 41))
        e = int(rng.integers(b, 41))
        trajs.append(Trajectory(b, e, rng.standard_normal((e - b + 1, 1))))
    eta, zeta = 12, 25
    cs = time_window_constraints(eta, zeta, 1)
    kept = tau_set(trajs, cs)
    expected = [t for t in trajs if t.birth <= zeta and t.death >= eta]
    failures = [] if kept == expected else [f"{len(kept)} kept vs {len(expected)} expected"]
    _report(4, "time-window constraint set equals lifetime-overlap filter", failures)


def test_criterion_5_pmbm_closure(rng):
    """Constrained PMBMs validate, keep hypothesis weights bitwise unchanged
    and equal their componentwise-constrained counterparts exactly."""
    failures = []
    for i in range(20):
        window = TimeWindow(0, int(rng.integers(2, 6)))
        dim = int(rng.integers(1, 3))
        ppp = PppTrajectory(float(rng.uniform(0.5, 3.0)), random_density(rng, window, dim))
        n_tracks = int(rng.integers(1, 3))
        tracks = tuple(
            BernoulliTrajectory(float(rng.uniform(0.2, 0.9)), random_density(rng, window, dim))
            for _ in range(n_tracks)
        )
        w0 = float(rng.uniform(0.2, 0.8))
        m = PmbmDensity(
            ppp,
            (GlobalHypothesis(w0, tracks), GlobalHypothesis(1.0 - w0, tracks[:1])),
        )
        cs = random_constraint_set(rng, window, dim)
        try:
            out = constrain_pmbm(m, cs, 20_000, rng_seed=i)
        except ZeroSupportError:
            continue
        problems = validate(out)
        if problems:
            failures.append(f"inst {i}: validate -> {problems}")
        if [h.weight for h in out.hypotheses] != [h.weight for h in m.hypotheses]:
            failures.append(f"inst {i}: hypothesis weights changed")
        seeds = component_seeds(m, i)
        solo = constrain_ppp(ppp, cs, 20_000, rng_seed=seeds[id(ppp.density)])
        if out.ppp.mu != solo.mu or out.ppp.report != solo.report:
            failures.append(f"inst {i}: ppp component differs from direct constraining")
        for a, (hc, h) in enumerate(zip(out.hypotheses, m.hypotheses)):
            for k, (tc, t) in enumerate(zip(hc.tracks, h.tracks)):
                solo_b = constrain_bernoulli(t, cs, 20_000, rng_seed=seeds[id(t.density)])
                if tc.r != solo_b.r or tc.report != solo_b.report:
                    failures.append(f"inst {i}: hyp {a} track {k} differs")
                elif tc.density.pmf is not None and not np.array_equal(
                    tc.density.pmf.probs, solo_b.density.pmf.probs
                ):
                    failures.append(f"inst {i}: hyp {a} track {k} pmf differs")
    _report(5, "constrained PMBM closure and componentwise equality", failures)


def test_criterion_6_disjunct_partitions(rng):
    """Disjunct partition weights normalize; raw weights sum to one minus the
    all-complements probability; the symmetric independent-0.5 case yields
    equal thirds within 1e-3."""
    failures = []
    # randomized instances with 2-4 active constraints on a single long pair
    for i in range(15):
        n_c = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 3))
        window = TimeWindow(0, n_c - 1)
        td = random_density(rng, window, dim)
        cs = random_constraint_set(rng, window, dim, max_constraints=n_c, mode="disjunct")
        try:
            ctd, _ = constrain_density(td, cs, 100_000, rng_seed=i)
        except ZeroSupportError:
            continue
        for pair, info in ctd.pair_info.items():
            if len(info.active) < 2 or info.spatial_prob <= 0:
                continue
            partitions = disjunct_partitions(ctd, pair, 100_000, rng_seed=i)
            w_sum = sum(p.weight for p in partitions)
            if abs(w_sum - 1.0) > 1e-10:
                failures.append(f"inst {i} pair {pair}: weights sum to {w_sum}")
            raw_sum = sum(p.raw_weight for p in partitions)
            if abs(raw_sum - info.spatial_prob) > 1e-12:
                failures.append(f"inst {i} pair {pair}: raw sum {raw_sum} vs spatial {info.spatial_prob}")
            entries = [
                (cs.constraints[j].time, cs.constraints[j].region, COMPLEMENT)
                for j in info.active
            ]
            p_comp, se_comp = region_probability(
                ctd.base.conditional(pair), pair, entries, 100_000, rng_seed=9_000 + i
            )
            tol = 3 * math.hypot(info.spatial_se, se_comp) + 1e-10
            if abs(raw_sum - (1.0 - p_comp)) > tol:
                failures.append(
                    f"inst {i} pair {pair}: raw sum {raw_sum} vs 1-allcomp {1 - p_comp}"
                )
    # symmetric case: two independent half-line constraints at probability 1/2
    half = StateRegion.box([(0, None)])
    split_half = StateRegion.boxes([[(0.0, 1.0)], [(1.0, None)]])  # same set, forces MC
    for region, budget in ((half, 100_000), (split_half, 1_000_000)):
        gs = GaussianSequence(np.zeros(2), np.eye(2), 1)
        td = TrajectoryDensity(BirthDeathPmf(((0, 1),), np.array([1.0])), (gs,))
        cs = ConstraintSet([Constraint(0, region), Constraint(1, region)], "disjunct")
        ctd, _ = constrain_density(td, cs, budget, rng_seed=21)
        partitions = disjunct_partitions(ctd, (0, 1), budget, rng_seed=21)
        weights = [p.weight for p in partitions]
        if abs(sum(p.raw_weight for p in partitions) - ctd.pair_info[(0, 1)].spatial_prob) > 1e-12:
            failures.append(f"symmetric case ({region.n_boxes} boxes): raw weights miss spatial_prob")
        if len(weights) != 3 or any(abs(w - 1 / 3) > 1e-3 for w in weights):
            failures.append(f"symmetric case ({region.n_boxes} boxes): weights {weights}")
    _report(6, "disjunct partition weight identities", failures)


def test_criterion_7_truncation_closed_form():
    """Rejection-sampled half-normal moments match sqrt(2/pi) and 1 - 2/pi
    within 4 standard errors at n = 1e5 accepted samples."""
    gs = GaussianSequence(np.zeros(1), np.eye(1), 1)
    td = TrajectoryDensity(BirthDeathPmf(((0, 0),), np.array([1.0])), (gs,))
    cs = ConstraintSet([Constraint(0, StateRegion.box([(0, None)]))], "conjunct")
    ctd, _ = constrain_density(td, cs)
    n_target = 100_000
    cloud = ctd.sample_cloud(mc_budget=2 * n_target, rng_seed=8)
    x = cloud.strata[(0, 0)].states.ravel()
    n = x.size
    mean_t, var_t = math.sqrt(2 / math.pi), 1 - 2 / math.pi
    failures = []
    if abs(x.mean() - mean_t) > 4 * math.sqrt(var_t / n):
        failures.append(f"mean {x.mean()} vs {mean_t} at n={n}")
    if abs(x.var(ddof=1) - var_t) > 4 * math.sqrt(2 * var_t**2 / n):
        failures.append(f"var {x.var(ddof=1)} vs {var_t} at n={n}")
    _report(7, "half-normal truncation moments", failures)


def test_criterion_8_end_to_end(tmp_path):
    """Simulate + fit + constrain a 100-step position/velocity scenario in
    under 60 seconds; the constrained scale shrinks when the spatial
    probability is below one and constrained means respect the box."""
    t0 = time.perf_counter()
    track_meas = [{"time": k, "value": [2.0 + 0.9 * k]} for k in range(10, 90, 4)]
    cfg = {
        "seed": 5,
        "window": {"alpha": 0, "gamma": 99},
        "motion": {
            "transition": [[1.0, 1.0], [0.0, 1.0]],
            "process_noise": [[0.05, 0.02], [0.02, 0.05]],
            "survival": 0.98,
            "birth_rate": 0.1,
            "birth_mean": [0.0, 1.0],
            "birth_cov": [[25.0, 0.0], [0.0, 1.0]],
        },
        "sensor": {
            "measurement": [[1.0, 0.0]],
            "noise": [[0.5]],
            "detection": 0.9,
            "clutter_rate": 1.0,
            "clutter_low": [-120.0],
            "clutter_high": [120.0],
        },
        "track": {"measurements": track_meas, "r0": 0.9, "slack": 3},
        "constraints": {
            "mode": "conjunct",
            "items": [
                {"time": 30, "boxes": [{"lower": [0.0, None], "upper": [40.0, None]}]},
                {"time": 60, "boxes": [{"lower": [20.0, None], "upper": [70.0, None]}]},
            ],
        },
        "mc_budget": 50000,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    failures = []
    for command in ("simulate", "constrain"):
        code = cli_main([command, "--config", str(cfg_path), "--out-dir", str(out)])
        if code != 0:
            failures.append(f"{command} exited {code}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        failures.append(f"took {elapsed:.1f}s")
    if not failures:
        summary = json.loads((out / "summary.json").read_text())
        if summary["report"]["prob_spatial"] < 1.0 and not (
            summary["r_constrained"] < summary["r"]
        ):
            failures.append("r did not shrink despite spatial probability < 1")
        header, *rows = (out / "constrained.csv").read_text().splitlines()[1:]
        cols = header.split(",")
        mean_idx = cols.index("constrained_mean_x0")
        boxes = {30: (0.0, 40.0), 60: (20.0, 70.0)}
        for row in rows:
            vals = row.split(",")
            t = int(vals[0])
            if t in boxes and vals[mean_idx]:
                lo, hi = boxes[t]
                v = float(vals[mean_idx])
                if not (lo <= v <= hi):
                    failures.append(f"constrained mean at t={t} is {v}, outside [{lo}, {hi}]")
    _report(8, "end-to-end simulate/fit/constrain scenario", failures)
