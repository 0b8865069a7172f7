import logging
import math

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
    TrajectoryDensity,
    constrain_bernoulli,
    constrain_density,
    constrain_pmbm,
    constrain_ppp,
    constrained_marginals,
    disjunct_partitions,
    sample,
    satisfies_batch,
    time_window_constraints,
)
from trajconstrain import engine, gaussian
from trajconstrain.core import active_indices
from trajconstrain.engine import MAX_ACTIVE_FOR_PARTITIONS
from trajconstrain.errors import (
    DegenerateDensityError,
    DimensionMismatchError,
    PartitionBudgetError,
    ZeroSupportError,
)
from trajconstrain.gaussian import step_moments

from conftest import component_seeds, pattern_probabilities_per_pair, random_constraint_set, random_density

HALF_LINE = StateRegion.box([(0, None)])


def std_density(pairs, probs):
    """Independent standard normal steps for every pair."""
    conds = tuple(
        GaussianSequence(np.zeros(e - b + 1), np.eye(e - b + 1), 1) for b, e in pairs
    )
    return TrajectoryDensity(BirthDeathPmf(tuple(pairs), np.asarray(probs, float)), conds)


class TestConjunct:
    def test_identity_constraint(self, rng):
        # a full-space constraint active for every pair leaves the density unchanged
        td = random_density(rng, TimeWindow(0, 3))
        cs = ConstraintSet(
            [Constraint(t, StateRegion.full_space(td.dim)) for t in range(4)],
            "disjunct",
        )
        ctd, report = constrain_density(td, cs)
        assert report.prob_alive == pytest.approx(1.0)
        assert report.joint == pytest.approx(1.0)
        assert report.joint_se == 0.0
        assert ctd.pmf.pairs == td.pmf.pairs
        np.testing.assert_allclose(ctd.pmf.probs, td.pmf.probs, atol=1e-12)

    def test_pmf_reweighted_by_spatial_probability(self):
        # pair (0,0) keeps mass 0.5 * 0.5, pair (1,1) has no active constraint
        td = std_density([(0, 0), (1, 1)], [0.5, 0.5])
        cs = ConstraintSet([Constraint(0, HALF_LINE)], "conjunct")
        ctd, report = constrain_density(td, cs)
        assert report.prob_alive == pytest.approx(0.5)
        assert report.prob_spatial == pytest.approx(0.5)
        assert report.joint == pytest.approx(0.25)
        assert ctd.pmf.pairs == ((0, 0),)
        assert ctd.pmf.probs[0] == pytest.approx(1.0)

    def test_pmf_reweighting_two_qualifying_pairs(self):
        # pair (0,1) must satisfy both half-lines (prob 1/4), pair (0,0) one (prob 1/2)
        td = std_density([(0, 0), (0, 1)], [0.4, 0.6])
        cs = ConstraintSet([Constraint(0, HALF_LINE), Constraint(1, HALF_LINE)], "conjunct")
        ctd, report = constrain_density(td, cs)
        m00, m01 = 0.4 * 0.5, 0.6 * 0.25
        assert report.joint == pytest.approx(m00 + m01)
        assert ctd.pmf.prob((0, 0)) == pytest.approx(m00 / (m00 + m01))
        assert ctd.pmf.prob((0, 1)) == pytest.approx(m01 / (m00 + m01))
        # exact path: no Monte Carlo error
        assert report.joint_se == 0.0

    def test_bernoulli_scale_product(self):
        # r^C = r * Pr(alive at constraint time) * Pr(inside | alive)
        td = std_density([(0, 0), (0, 1), (1, 1)], [1 / 3, 1 / 3, 1 / 3])
        cs = ConstraintSet([Constraint(0, HALF_LINE)], "conjunct")
        out = constrain_bernoulli(BernoulliTrajectory(0.8, td), cs)
        assert out.report.prob_alive == pytest.approx(2 / 3)
        assert out.report.prob_spatial == pytest.approx(0.5)
        assert out.r == pytest.approx(0.8 * (2 / 3) * 0.5)

    def test_ppp_scale_product(self):
        td = std_density([(0, 0)], [1.0])
        cs = ConstraintSet([Constraint(0, HALF_LINE)], "conjunct")
        out = constrain_ppp(PppTrajectory(4.0, td), cs)
        assert out.mu == pytest.approx(2.0)


class TestDisjunct:
    def test_symmetric_two_constraint_partitions(self):
        # independent half-line constraints with p=1/2 each: the three
        # nonempty satisfied-sets {0},{1},{0,1} each get weight 1/3
        td = std_density([(0, 1)], [1.0])
        cs = ConstraintSet([Constraint(0, HALF_LINE), Constraint(1, HALF_LINE)], "disjunct")
        ctd, report = constrain_density(td, cs)
        info = ctd.pair_info[(0, 1)]
        assert info.spatial_se == 0.0
        assert info.spatial_prob == pytest.approx(0.75)
        partitions = disjunct_partitions(ctd, (0, 1))
        assert len(partitions) == 3
        for part in partitions:
            assert part.weight == pytest.approx(1 / 3)
            assert part.raw_weight == pytest.approx(0.25)
        assert abs(sum(p.raw_weight for p in partitions) - info.spatial_prob) <= 1e-12
        assert report.joint == pytest.approx(0.75)

    def test_partition_weights_normalize(self, rng):
        td = random_density(rng, TimeWindow(0, 4), 1)
        cs = random_constraint_set(rng, TimeWindow(0, 4), 1, mode="disjunct")
        ctd, _ = constrain_density(td, cs, mc_budget=20_000, rng_seed=5)
        checked = 0
        for pair, info in ctd.pair_info.items():
            if info.spatial_prob == 0.0:
                continue
            partitions = disjunct_partitions(ctd, pair, mc_budget=20_000, rng_seed=5)
            assert sum(p.weight for p in partitions) == pytest.approx(1.0)
            assert sum(p.raw_weight for p in partitions) == pytest.approx(
                info.spatial_prob
            )
            assert abs(sum(p.raw_weight for p in partitions) - info.spatial_prob) <= 1e-12
            checked += len(info.active) > 1
        assert checked > 0

    def test_single_constraint_modes_agree(self, rng):
        td = random_density(rng, TimeWindow(0, 3), 1)
        region = StateRegion.box([(-0.5, 1.2)])
        outs = {}
        for mode in ("conjunct", "disjunct"):
            cs = ConstraintSet([Constraint(2, region)], mode)
            _, outs[mode] = constrain_density(td, cs, rng_seed=3)
        assert outs["conjunct"] == outs["disjunct"]

    def test_partition_cap(self):
        n = MAX_ACTIVE_FOR_PARTITIONS + 1
        td = std_density([(0, n - 1)], [1.0])
        cs = ConstraintSet([Constraint(t, HALF_LINE) for t in range(n)], "disjunct")
        ctd, _ = constrain_density(td, cs)
        with pytest.raises(PartitionBudgetError):
            disjunct_partitions(ctd, (0, n - 1))

    def test_partitions_need_a_disjunct_pair_with_active_constraints(self):
        td = std_density([(0, 1), (5, 5)], [0.5, 0.5])
        constraints = [Constraint(0, HALF_LINE), Constraint(1, HALF_LINE)]
        ctd, _ = constrain_density(td, ConstraintSet(constraints, "conjunct"))
        with pytest.raises(ValueError):
            disjunct_partitions(ctd, (0, 1))
        ctd, _ = constrain_density(td, ConstraintSet(constraints, "disjunct"))
        with pytest.raises(ValueError):
            disjunct_partitions(ctd, (5, 5))

    @pytest.mark.parametrize("mc_budget", [0, 1])
    def test_partitions_reject_a_budget_below_two(self, mc_budget):
        # a pair that samples: two correlated steps, two half-line gates
        gs = GaussianSequence(np.zeros(2), np.array([[1.0, 0.9], [0.9, 1.0]]), 1)
        td = TrajectoryDensity(BirthDeathPmf(((0, 1),), np.ones(1)), (gs,))
        cs = ConstraintSet([Constraint(0, HALF_LINE), Constraint(1, HALF_LINE)], "disjunct")
        ctd, _ = constrain_density(td, cs, 1_000)
        assert ctd.pair_info[(0, 1)].path in ("mc", "qmc")
        with pytest.raises(ValueError, match="mc_budget"):
            disjunct_partitions(ctd, (0, 1), mc_budget)
        with pytest.raises(ValueError, match="mc_budget"):
            constrain_density(td, cs, mc_budget)

    def test_time_window_of_26_steps_is_the_alive_probability(self, monkeypatch):
        # 26 active constraints are above the partition cap; the answer needs no draw
        def no_draw(self, n, rng):
            raise AssertionError("drew samples")

        monkeypatch.setattr(GaussianSequence, "draw", no_draw)
        td = std_density([(0, 25), (30, 31)], [0.6, 0.4])
        ctd, report = constrain_density(td, time_window_constraints(0, 25, 1))
        assert report.prob_alive == pytest.approx(0.6)
        assert report.joint == report.prob_alive
        assert report.joint_se == 0.0
        assert ctd.pmf.pairs == ((0, 25),)

    def test_26_independent_half_lines(self):
        n = 26
        td = std_density([(0, n - 1)], [1.0])
        cs = ConstraintSet([Constraint(t, HALF_LINE) for t in range(n)], "disjunct")
        _, report = constrain_density(td, cs)
        assert report.joint == pytest.approx(1.0 - 2.0**-n, abs=1e-15)
        assert report.joint_se == 0.0

    def test_constrain_pmbm_builds_no_partition(self, monkeypatch):
        def no_partition(*args, **kwargs):
            raise AssertionError("built a PartitionEntry")

        monkeypatch.setattr(engine, "PartitionEntry", no_partition)
        td = std_density([(0, 1), (0, 2)], [0.5, 0.5])
        pmbm = PmbmDensity(
            PppTrajectory(1.0, td),
            (GlobalHypothesis(1.0, (BernoulliTrajectory(0.7, td),)),),
        )
        cs = ConstraintSet([Constraint(t, HALF_LINE) for t in range(3)], "disjunct")
        out = constrain_pmbm(pmbm, cs, mc_budget=1_000)
        assert out.hypotheses[0].tracks[0].report.joint == pytest.approx(0.5 * 0.75 + 0.5 * 0.875)

    def test_disjunct_at_least_conjunct(self, rng):
        td = random_density(rng, TimeWindow(0, 4), 2)
        for trial in range(5):
            constraints = random_constraint_set(rng, TimeWindow(0, 4), 2, mode="conjunct")
            _, rep_c = constrain_density(td, constraints, 30_000, rng_seed=trial)
            disj = ConstraintSet(list(constraints), "disjunct")
            _, rep_d = constrain_density(td, disj, 30_000, rng_seed=trial)
            slack = 4 * math.hypot(rep_c.joint_se, rep_d.joint_se) + 1e-12
            assert rep_d.joint >= rep_c.joint - slack


class TestEdgeCases:
    def test_report_probabilities_clipped(self):
        # the pmf's floats sum to 1 + 2^-52; every step is inside full space
        td = std_density([(0, 0), (0, 1)], [0.5, 0.5 + 2.0**-52])
        assert math.fsum(td.pmf.probs) > 1.0
        cs = ConstraintSet([Constraint(0, StateRegion.full_space(1))], "conjunct")
        ctd, report = constrain_density(td, cs)
        assert report.prob_alive == report.prob_spatial == report.joint == 1.0
        assert math.fsum(ctd.pmf.probs) == pytest.approx(1.0, abs=1e-15)
        assert constrain_bernoulli(BernoulliTrajectory(0.7, td), cs).r <= 0.7

    def test_zero_support(self):
        td = std_density([(0, 1)], [1.0])
        cs = ConstraintSet([Constraint(5, HALF_LINE)], "conjunct")
        with pytest.raises(ZeroSupportError):
            constrain_density(td, cs)

    def test_dimension_mismatch(self, rng):
        td = random_density(rng, dim=1)
        cs = ConstraintSet([Constraint(0, StateRegion.full_space(2))], "conjunct")
        with pytest.raises(DimensionMismatchError):
            constrain_density(td, cs)

    def test_degenerate_zero_spatial_probability(self):
        # point mass at 3.0 can never fall in [0, 1]
        gs = GaussianSequence(np.array([3.0]), np.zeros((1, 1)), 1)
        td = TrajectoryDensity(BirthDeathPmf(((0, 0),), np.array([1.0])), (gs,))
        cs = ConstraintSet([Constraint(0, StateRegion.box([(0, 1)]))], "conjunct")
        ctd, report = constrain_density(td, cs)
        assert ctd.degenerate and ctd.pmf is None
        assert report.joint == 0.0
        out = constrain_bernoulli(BernoulliTrajectory(0.7, td), cs)
        assert out.density.degenerate and out.r == 0.0
        with pytest.raises(DegenerateDensityError):
            ctd.sample_cloud()

    def test_degenerate_is_derived_from_the_pmf(self):
        td = std_density([(0, 0), (0, 1)], [0.5, 0.5])
        cs = ConstraintSet([Constraint(0, HALF_LINE)], "conjunct")
        assert engine.ConstrainedTrajectoryDensity(td, cs, None, {}).degenerate
        assert not engine.ConstrainedTrajectoryDensity(td, cs, td.pmf, {}).degenerate

    def test_deterministic(self, rng):
        td = random_density(rng, TimeWindow(0, 4), 2)
        cs = random_constraint_set(rng, TimeWindow(0, 4), 2)
        a = constrain_density(td, cs, 20_000, rng_seed=11)[1]
        b = constrain_density(td, cs, 20_000, rng_seed=11)[1]
        assert a == b


class TestRejectionSampling:
    def test_half_normal_moments(self):
        # standard normal truncated to x >= 0: mean sqrt(2/pi), var 1 - 2/pi
        td = std_density([(0, 0)], [1.0])
        cs = ConstraintSet([Constraint(0, HALF_LINE)], "conjunct")
        ctd, _ = constrain_density(td, cs)
        n = 100_000
        mm = ctd.moment_matched(mc_budget=2 * n, rng_seed=4)
        g = mm.conditional((0, 0))
        n_acc = constrained_marginals(ctd, 2 * n, rng_seed=4).accepted[(0, 0)]
        mean_t, var_t = math.sqrt(2 / math.pi), 1 - 2 / math.pi
        assert abs(g.mean[0] - mean_t) <= 4 * math.sqrt(var_t / n_acc)
        assert abs(g.cov[0, 0] - var_t) <= 4 * math.sqrt(2 * var_t**2 / n_acc)

    def test_all_samples_satisfy(self, rng):
        td = random_density(rng, TimeWindow(0, 3), 1)
        cs = random_constraint_set(rng, TimeWindow(0, 3), 1)
        try:
            ctd, _ = constrain_density(td, cs, 20_000, rng_seed=1)
        except ZeroSupportError:
            pytest.skip("constraint set missed all support")
        if ctd.degenerate:
            pytest.skip("degenerate draw")
        from trajconstrain import satisfies

        cloud = ctd.sample_cloud(10_000, rng_seed=2)
        for traj, _ in cloud.trajectories():
            assert satisfies(traj, cs)

    def test_cloud_stratum_weights_match_pmf(self, rng):
        td = random_density(rng, TimeWindow(0, 3), 1)
        cs = ConstraintSet([Constraint(1, StateRegion.box([(-1, 1)]))], "conjunct")
        ctd, _ = constrain_density(td, cs)
        cloud = ctd.sample_cloud(50_000, rng_seed=0)
        for pair, s in cloud.strata.items():
            assert s.total_weight == pytest.approx(ctd.pmf.prob(pair))

    def test_moment_matched_cache_respects_arguments(self):
        td = std_density([(0, 1)], [1.0])
        cs = ConstraintSet([Constraint(0, HALF_LINE)], "conjunct")
        ctd, _ = constrain_density(td, cs)
        a = ctd.moment_matched(mc_budget=5_000, rng_seed=1).conditional((0, 1))
        b = ctd.moment_matched(mc_budget=5_000, rng_seed=1).conditional((0, 1))
        c = ctd.moment_matched(mc_budget=5_000, rng_seed=2).conditional((0, 1))
        again = ctd.moment_matched(mc_budget=5_000, rng_seed=1).conditional((0, 1))
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.cov, b.cov)
        assert not np.array_equal(a.mean, c.mean)
        np.testing.assert_array_equal(a.mean, again.mean)

    def test_moment_matched_needs_two_draws_per_pair(self):
        # two draws of y (budget 2), of which seed 0 accepts exactly one
        td = std_density([(0, 0)], [1.0])
        ctd, _ = constrain_density(td, ConstraintSet([Constraint(0, HALF_LINE)], "conjunct"))
        assert constrained_marginals(ctd, 2, rng_seed=0).accepted[(0, 0)] == 1
        with pytest.raises(ValueError, match="fewer than 2"):
            ctd.moment_matched(2, rng_seed=0)

    def test_moment_matched_drops_single_draw_pairs(self, caplog):
        """On the 40 conftest densities (window 0..5, both modes, budgets 2e3
        and 2e4), a pair that accepted one draw is dropped and logged
        instead of failing the whole call."""
        window = TimeWindow(0, 5)
        dropped = 0
        with caplog.at_level(logging.WARNING, logger="trajconstrain"):
            for seed in range(40):
                for mode in ("conjunct", "disjunct"):
                    rng = np.random.default_rng(seed)
                    td = random_density(rng, window)
                    cs = random_constraint_set(rng, window, td.dim, mode=mode)
                    for budget in (2_000, 20_000):
                        ctd, _ = constrain_density(td, cs, budget, rng_seed=seed)
                        if ctd.degenerate:
                            continue
                        mm = ctd.moment_matched(budget, rng_seed=seed)
                        accepted = constrained_marginals(ctd, budget, rng_seed=seed).accepted
                        assert set(mm.pmf.pairs) == {pair for pair, n in accepted.items() if n >= 2}
                        dropped += any(n == 1 for n in accepted.values())
        assert dropped > 0
        assert sum("single draw" in r.getMessage() for r in caplog.records) == dropped

    @pytest.mark.parametrize("mc_budget", [0, 1, -5])
    @pytest.mark.parametrize("view", ["constrained_marginals", "moment_matched", "sample_cloud"])
    def test_views_reject_a_budget_below_two(self, view, mc_budget):
        # each used to draw y twice per pair, whatever the budget
        td = std_density([(0, 0)], [1.0])
        ctd, _ = constrain_density(td, ConstraintSet([Constraint(0, HALF_LINE)], "conjunct"))
        call = {
            "constrained_marginals": lambda: constrained_marginals(ctd, mc_budget),
            "moment_matched": lambda: ctd.moment_matched(mc_budget),
            "sample_cloud": lambda: ctd.sample_cloud(mc_budget),
        }[view]
        with pytest.raises(ValueError, match="mc_budget"):
            call()

    def test_step_ess_counts_draws_alive_at_the_step(self):
        # step 1 is alive only in stratum (0, 1); step 0 in both strata, whose
        # per-draw weights differ, so its ESS is below the accepted total
        td = std_density([(0, 0), (0, 1)], [0.3, 0.7])
        cs = ConstraintSet([Constraint(0, HALF_LINE)], "conjunct")
        ctd, _ = constrain_density(td, cs)
        mm = constrained_marginals(ctd, mc_budget=20_000, rng_seed=5)
        n_01 = mm.accepted[(0, 1)]
        assert mm.ess[mm.times.index(1)] == pytest.approx(n_01, rel=1e-12)
        assert mm.ess[mm.times.index(0)] < mm.n_accepted

    def test_marginals_shape_and_alive(self):
        td = std_density([(0, 2)], [1.0])
        cs = ConstraintSet([Constraint(1, HALF_LINE)], "conjunct")
        ctd, _ = constrain_density(td, cs)
        mm = constrained_marginals(ctd, mc_budget=50_000, rng_seed=3)
        assert mm.times == [0, 1, 2]
        assert mm.means.shape == (3, 1)
        np.testing.assert_allclose(mm.alive_probs, 1.0, atol=1e-12)
        assert 0.4 < mm.acceptance_rate < 0.6
        # constrained step keeps the half-normal mean; free steps stay near 0
        n = mm.n_accepted
        assert abs(mm.means[1, 0] - math.sqrt(2 / math.pi)) <= 4 / math.sqrt(n)
        assert abs(mm.means[0, 0]) <= 4 / math.sqrt(n)


def degenerate_window_density():
    """Three pairs over steps 0..4, dim 2, whose conditionals are marginals of
    one rank-deficient Gaussian: position at step 3 equals position at step 1,
    and velocity at step 3 is the constant 0.5."""
    rng = np.random.default_rng(7)
    a = 0.6 * rng.standard_normal((10, 10))
    mean = rng.standard_normal(10) * 0.5
    a[6], mean[6] = a[2], mean[2]
    a[7], mean[7] = 0.0, 0.5
    cov = a @ a.T
    pairs, probs = ((0, 3), (0, 4), (1, 4)), (0.3, 0.5, 0.2)
    conds = tuple(
        GaussianSequence(mean[2 * b : 2 * e + 2], cov[2 * b : 2 * e + 2, 2 * b : 2 * e + 2], 2) for b, e in pairs
    )
    return TrajectoryDensity(BirthDeathPmf(pairs, np.array(probs)), conds)


# Step 1: two boxes bounding the same coordinate (position). Step 3: position
# (the same variable as at step 1, so S_yy is singular) and velocity (zero
# variance). Step 4: full space, which bounds no coordinate.
SPLIT_GATE = StateRegion.boxes([[(-2.0, -0.2), None], [(0.3, 2.0), None]])
POS_VEL_GATE = StateRegion.box([(-0.5, 1.5), (0.0, 1.0)])
FULL_2D = StateRegion.full_space(2)


def brute_force_step_moments(td, cs, n, seed):
    """Per-step mean, covariance, their standard errors and draw count of
    full-sequence draws that satisfy ``cs``, pooled over the pairs alive."""
    chunks = {}
    for (b, e), s in sample(td, n, seed).strata.items():
        kept = s.states[satisfies_batch(b, e, s.states, cs)]
        for t in range(b, e + 1):
            chunks.setdefault(t, []).append(kept[:, t - b, :])
    out = {}
    for t, parts in chunks.items():
        x = np.vstack(parts)
        c = x - x.mean(axis=0)
        prods = c[:, :, None] * c[:, None, :]
        k = x.shape[0]
        out[t] = (x.mean(axis=0), c.std(axis=0) / math.sqrt(k), prods.mean(axis=0), prods.std(axis=0) / math.sqrt(k), k)
    return out


def cloud_step_moments(cloud):
    """Per-step weighted mean, covariance and Kish ESS of a sample cloud,
    pooled over the strata alive at each step."""
    chunks = {}
    for (b, e), s in cloud.strata.items():
        for t in range(b, e + 1):
            chunks.setdefault(t, []).append((s.states[:, t - b, :], s.weights))
    times = sorted(chunks)
    means, covs, ess = [], [], []
    for t in times:
        x = np.vstack([x for x, _ in chunks[t]])
        w = np.concatenate([w for _, w in chunks[t]])
        m = w @ x / w.sum()
        c = x - m
        means.append(m)
        covs.append((w[:, None] * c).T @ c / w.sum())
        ess.append(w.sum() ** 2 / (w @ w))
    return times, np.array(means), np.array(covs), np.array(ess)


def view_step_moments(ctd, view, mc_budget, rng_seed):
    """(times, means, covs, ess) per step of one view of a constrained density."""
    if view == "sample_cloud":
        return cloud_step_moments(ctd.sample_cloud(mc_budget, rng_seed))
    mm = constrained_marginals(ctd, mc_budget, rng_seed)
    if view == "moment_matched":
        times, means, covs, _ = step_moments(ctd.moment_matched(mc_budget, rng_seed))
        return times, means, covs, mm.ess  # the same accepted draws
    return mm.times, mm.means, mm.covs, mm.ess


class TestRaoBlackwellMarginals:
    # constrained_marginals keeps the bare (mode, with_full) test id
    @pytest.mark.parametrize(
        "mode, with_full, view",
        [
            pytest.param(
                mode, full, view, id=f"{mode}-{full}" + ("" if view == "constrained_marginals" else f"-{view}")
            )
            for view in ("constrained_marginals", "moment_matched", "sample_cloud")
            for mode, full in (("conjunct", True), ("disjunct", True), ("disjunct", False))
        ],
    )
    def test_matches_full_sequence_rejection(self, mode, with_full, view):
        td = degenerate_window_density()
        items = [Constraint(1, SPLIT_GATE), Constraint(3, POS_VEL_GATE)]
        if with_full:
            items.append(Constraint(4, FULL_2D))
        cs = ConstraintSet(items, mode)
        ctd, _ = constrain_density(td, cs, 100_000, rng_seed=1)
        times, means, covs, ess = view_step_moments(ctd, view, 200_000, 2)
        bf = brute_force_step_moments(td, cs, 400_000, seed=3)
        assert times == sorted(bf)
        for k, t in enumerate(times):
            mean, mean_se, cov, cov_se, n_t = bf[t]
            # the estimate's own error is at most that of ess plain draws
            inflate = math.sqrt(1.0 + n_t / ess[k])
            for got, want, se in ((means[k], mean, mean_se), (covs[k], cov, cov_se)):
                exact = se == 0.0  # the zero-variance coordinate, drawn exactly
                np.testing.assert_allclose(got[exact], want[exact], rtol=0, atol=1e-12)
                z = (got[~exact] - want[~exact]) / (se[~exact] * inflate)
                assert np.all(np.abs(z) <= 4.0), (t, z)

    def test_accepted_counts_and_rate(self):
        td = degenerate_window_density()
        cs = ConstraintSet([Constraint(1, SPLIT_GATE), Constraint(3, POS_VEL_GATE)], "conjunct")
        ctd, _ = constrain_density(td, cs, 50_000, rng_seed=1)
        mm = constrained_marginals(ctd, mc_budget=50_000, rng_seed=2)
        assert set(mm.accepted) == set(ctd.pmf.pairs)
        assert mm.n_accepted == sum(mm.accepted.values())
        # ceil(budget * prob / spatial_prob) y draws per pair, clipped to [2, budget]
        drawn = sum(
            min(max(math.ceil(50_000 * p / ctd.pair_info[pair].spatial_prob), 2), 50_000)
            for pair, p in ctd.pmf.items()
        )
        assert mm.acceptance_rate == pytest.approx(mm.n_accepted / drawn, rel=1e-12)

    def test_views_share_one_accepted_draw(self, monkeypatch):
        td = degenerate_window_density()
        cs = ConstraintSet([Constraint(1, SPLIT_GATE), Constraint(3, POS_VEL_GATE)], "disjunct")
        ctd, _ = constrain_density(td, cs, 50_000, rng_seed=1)
        seen = []
        inner = engine._accepted_y

        def spy(*args):
            out = inner(*args)
            seen.append(out[0])
            return out

        monkeypatch.setattr(engine, "_accepted_y", spy)
        mm = constrained_marginals(ctd, 20_000, rng_seed=6)
        cloud = ctd.sample_cloud(20_000, rng_seed=6)
        assert all(n > 0 for n in mm.accepted.values())  # no stratum dropped
        assert set(cloud.strata) == set(mm.accepted)
        marginal_draws, cloud_draws = seen
        for (_, pair, _, cols, y, _), (_, _, _, _, y_cloud, _) in zip(marginal_draws, cloud_draws):
            np.testing.assert_array_equal(y_cloud, y)
            (b, e), states = pair, cloud.strata[pair].states
            assert states.shape[0] == mm.accepted[pair]
            np.testing.assert_array_equal(states.reshape(states.shape[0], -1)[:, cols], y)
            assert satisfies_batch(b, e, states, cs).all()
        monkeypatch.undo()
        times, means, covs, _ = step_moments(ctd.moment_matched(20_000, rng_seed=6))
        assert times == mm.times
        np.testing.assert_allclose(means, mm.means, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(covs, mm.covs, rtol=1e-12, atol=1e-12)


    @pytest.mark.parametrize("mode", ["conjunct", "disjunct"])
    def test_views_ignore_the_order_of_the_constraint_list(self, rng, mode):
        # The wide gate at step 1 is pinned as holding, so every pair probability
        # is exact and both orders give the same pmf. Its coordinate still
        # enters y, correlated with the narrow gate's, so the y draw sees the
        # column order (a diagonal covariance would hide it).
        td = random_density(rng, TimeWindow(0, 4), 2)
        items = [
            Constraint(3, StateRegion.box([(-1.0, 1.5), None])),
            Constraint(1, StateRegion.box([(-50.0, 50.0), None])),
        ]
        views = []
        for order in (items, items[::-1]):
            ctd, report = constrain_density(td, ConstraintSet(order, mode), 20_000, rng_seed=3)
            assert all(info.spatial_se == 0.0 for info in ctd.pair_info.values())
            mm = constrained_marginals(ctd, 20_000, rng_seed=4)
            matched = ctd.moment_matched(20_000, rng_seed=4)
            cloud = ctd.sample_cloud(20_000, rng_seed=4)
            views.append(
                (
                    report,
                    ctd.pmf.pairs,
                    ctd.pmf.probs,
                    (mm.times, mm.means, mm.covs, mm.alive_probs, mm.ess, mm.acceptance_rate, mm.accepted),
                    (matched.pmf.pairs, matched.pmf.probs, [(g.mean, g.cov) for g in matched.conditionals]),
                    {pair: (s.states, s.weights) for pair, s in cloud.strata.items()},
                )
            )
        forward, backward = views
        assert forward[0] == backward[0]
        for a, b in zip(forward[1:], backward[1:]):
            np.testing.assert_equal(a, b)


class TestDroppedStrata:
    def density(self):
        # pair (0, 1) meets x >= 0 at step 0 with probability ~1e-9, so it gets
        # the minimum of 2 draws and accepts neither
        conds = (
            GaussianSequence(np.zeros(1), np.eye(1), 1),
            GaussianSequence(np.array([-6.0, 0.0]), np.eye(2), 1),
        )
        td = TrajectoryDensity(BirthDeathPmf(((0, 0), (0, 1)), np.array([0.5, 0.5])), conds)
        ctd, _ = constrain_density(td, ConstraintSet([Constraint(0, HALF_LINE)], "conjunct"))
        return ctd

    @pytest.mark.parametrize("via", ["sample_cloud", "moment_matched", "constrained_marginals"])
    def test_dropped_strata_logged(self, via, caplog):
        ctd = self.density()
        with caplog.at_level(logging.WARNING, logger="trajconstrain"):
            if via == "sample_cloud":
                assert set(ctd.sample_cloud(10_000, rng_seed=1).strata) == {(0, 0)}
            elif via == "moment_matched":
                mm = ctd.moment_matched(10_000, rng_seed=1)
                assert mm.pmf.pairs == ((0, 0),) and mm.pmf.probs[0] == 1.0
            else:
                assert constrained_marginals(ctd, 10_000, rng_seed=1).accepted[(0, 1)] == 0
        [record] = [r for r in caplog.records if r.name == "trajconstrain"]
        assert record.levelno == logging.WARNING
        assert "1 of 2" in record.getMessage()
        assert f"{ctd.pmf.prob((0, 1)):.3g}" in record.getMessage()

    def test_nothing_logged_when_every_stratum_accepts(self, caplog):
        td = std_density([(0, 0), (0, 1)], [0.5, 0.5])
        ctd, _ = constrain_density(td, ConstraintSet([Constraint(0, HALF_LINE)], "conjunct"))
        with caplog.at_level(logging.WARNING, logger="trajconstrain"):
            constrained_marginals(ctd, 10_000, rng_seed=1)
            ctd.sample_cloud(10_000, rng_seed=1)
        assert not [r for r in caplog.records if r.name == "trajconstrain"]

    def test_no_stratum_of_material_mass_dropped(self):
        # a pair draws about budget * prob / spatial_prob y, so it expects about
        # budget * prob acceptances however rarely it meets the constraints
        window = TimeWindow(0, 5)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            td = random_density(rng, window)
            cs = random_constraint_set(rng, window, td.dim)
            ctd, _ = constrain_density(td, cs, 20_000, rng_seed=seed)
            accepted = constrained_marginals(ctd, 20_000, rng_seed=seed).accepted
            dropped = [pair for pair, n in accepted.items() if n == 0 and ctd.pmf.prob(pair) >= 1e-3]
            assert not dropped, (seed, dropped)


class TestQmcPairs:
    def two_deaths(self):
        """Pairs (0, 1) and (0, 2) whose steps 0-1 are byte-identical, as the
        deaths of one birth of a smoothed track are; correlated steps."""
        a = np.array([[1.0, 0.0, 0.0], [0.8, 0.6, 0.0], [0.5, 0.5, 0.7]])
        long = GaussianSequence(np.array([0.1, -0.2, 0.3]), a @ a.T, 1)
        short = gaussian.marginal(long, (0, 2), [0, 1])
        return TrajectoryDensity(BirthDeathPmf(((0, 1), (0, 2)), np.array([0.3, 0.7])), (short, long))

    def test_identical_pairs_share_one_estimate(self):
        td = self.two_deaths()
        items = [(0, HALF_LINE), (1, StateRegion.box([(-0.5, 0.5)]))]
        asked = []

        def stream(p):
            asked.append(p)
            return 11 + p

        out = gaussian._pattern_batch(
            td.conditionals, td.pmf.pairs, items, np.ones((2, 2), dtype=bool), np.zeros((2, 2), dtype=bool), 20_000, stream
        )
        assert [s.path for s in out] == [gaussian.QMC, gaussian.QMC]
        assert [s.leader for s in out] == [0, 0]
        assert out[0][:2] == out[1][:2] and out[0].se > 0.0
        assert asked == [0]

    def test_joint_se_adds_a_groups_errors_linearly(self):
        td = self.two_deaths()
        cs = ConstraintSet([Constraint(0, HALF_LINE), Constraint(1, StateRegion.box([(-0.5, 0.5)]))], "disjunct")
        ctd, report = constrain_density(td, cs, 20_000, rng_seed=3)
        first, second = ctd.pair_info[(0, 1)], ctd.pair_info[(0, 2)]
        assert first.path == second.path == "qmc"
        assert (first.spatial_prob, first.spatial_se) == (second.spatial_prob, second.spatial_se)
        # perfectly correlated errors: 0.3 se + 0.7 se, not sqrt(0.3^2 + 0.7^2) se
        assert report.joint_se == pytest.approx(first.spatial_se, rel=1e-12)

    def test_fallbacks_to_monte_carlo_are_logged_with_their_reason(self, caplog):
        a = np.array([[1.0, 0.0], [0.9, 0.4]])
        gs = GaussianSequence(np.zeros(2), a @ a.T, 1)
        two_boxes = StateRegion.boxes([[(-1.0, 0.0)], [(0.5, 1.5)]])
        with caplog.at_level(logging.INFO, logger="trajconstrain"):
            _, se = gaussian.region_probability(gs, (0, 1), [(0, two_boxes, "inside"), (1, HALF_LINE, "inside")], 1_000, 1)
            # three complements of 5-d boxes split into 5^3 = 125 cells, over the cap of 64
            d = 5
            b = np.random.default_rng(0).standard_normal((3 * d, 3 * d))
            wide = GaussianSequence(np.zeros(3 * d), b @ b.T / d + np.eye(3 * d), d)
            box = StateRegion.box([(-1.0, 1.0)] * d)
            settled = gaussian._pattern_probabilities(wide, (0, 2), [(t, box) for t in range(3)], 1_000, 2, [False] * 3)
            td = TrajectoryDensity(BirthDeathPmf(((0, 1),), np.ones(1)), (gs,))
            ctd, _ = constrain_density(td, ConstraintSet([Constraint(0, HALF_LINE), Constraint(1, HALF_LINE)], "disjunct"), 1_000)
            disjunct_partitions(ctd, (0, 1), 1_000)
        assert se > 0.0 and settled.path == gaussian.MC
        messages = [r.getMessage() for r in caplog.records if r.name == "trajconstrain"]
        assert messages == [
            "1 of 1 pairs settled by Monte Carlo instead of QMC (multi-box item: 1)",
            "1 of 1 pairs settled by Monte Carlo instead of QMC (over 64 cells: 1)",
            "1 of 1 pairs settled by Monte Carlo instead of QMC (partition cells: 1)",
        ]


class TestPmbm:
    def test_componentwise_and_weights(self, rng):
        ppp = PppTrajectory(2.0, random_density(rng, TimeWindow(0, 3), 1))
        tracks = tuple(
            BernoulliTrajectory(r, random_density(rng, TimeWindow(0, 3), 1))
            for r in (0.3, 0.8)
        )
        m = PmbmDensity(
            ppp, (GlobalHypothesis(0.6, tracks[:1]), GlobalHypothesis(0.4, tracks))
        )
        cs = random_constraint_set(rng, TimeWindow(0, 3), 1)
        out = constrain_pmbm(m, cs, 20_000, rng_seed=9)
        assert [h.weight for h in out.hypotheses] == [0.6, 0.4]
        # identical to constraining each component with its component's seed
        seeds = component_seeds(m, 9)
        assert list(seeds.values()) == [engine._component_seed(9, k) for k in range(3)]
        solo_ppp = constrain_ppp(ppp, cs, 20_000, rng_seed=seeds[id(ppp.density)])
        assert out.ppp.mu == solo_ppp.mu
        assert out.ppp.report == solo_ppp.report
        for hyp, src in zip(out.hypotheses, m.hypotheses):
            for track_c, track in zip(hyp.tracks, src.tracks):
                solo = constrain_bernoulli(track, cs, 20_000, rng_seed=seeds[id(track.density)])
                assert track_c.r == solo.r
                assert track_c.report == solo.report

    def test_shared_track_constrained_once(self, rng, monkeypatch):
        window = TimeWindow(0, 3)
        shared = BernoulliTrajectory(0.6, random_density(rng, window, 1))
        other = BernoulliTrajectory(0.9, random_density(rng, window, 1))
        # a second Bernoulli object holding the shared density counts as the same component
        alias = BernoulliTrajectory(0.3, shared.density)
        m = PmbmDensity(
            PppTrajectory(1.5, random_density(rng, window, 1)),
            (
                GlobalHypothesis(0.5, (shared, other)),
                GlobalHypothesis(0.3, (shared,)),
                GlobalHypothesis(0.2, (other, alias, shared)),
            ),
        )
        cs = ConstraintSet([Constraint(1, HALF_LINE), Constraint(3, HALF_LINE)], "disjunct")
        calls = []
        inner = engine._constrain_densities

        def counting(tds, *args, **kwargs):
            calls.extend(id(td) for td in tds)
            return inner(tds, *args, **kwargs)

        monkeypatch.setattr(engine, "_constrain_densities", counting)
        out = constrain_pmbm(m, cs, 20_000, rng_seed=4)
        assert sorted(calls) == sorted({id(m.ppp.density), id(shared.density), id(other.density)})
        slots = [(t, tc) for h, hc in zip(m.hypotheses, out.hypotheses) for t, tc in zip(h.tracks, hc.tracks)]
        for t, tc in slots:
            assert tc.r == t.r * tc.report.joint
            first = next(c for s, c in slots if s.density is t.density)
            assert tc.density is first.density and tc.report == first.report
        monkeypatch.undo()
        # the alias shares component 1 (PPP 0, shared 1, other 2) and its stream
        solo = constrain_bernoulli(alias, cs, 20_000, rng_seed=engine._component_seed(4, 1))
        assert out.hypotheses[2].tracks[1].r == solo.r

    @pytest.mark.parametrize("mode", ["conjunct", "disjunct"])
    def test_pairs_equal_the_per_pair_reference(self, mode):
        """Every pair of random PMBMs built from the conftest densities, all
        settled in one batch, equals the per-pair reference bit for bit on
        its own stream; a component meeting no constraint time gets r = 0."""
        densities = [random_density(np.random.default_rng(seed)) for seed in range(40)]
        budget = 2_000
        paths = set()
        for trial in range(8):
            rng = np.random.default_rng(trial)
            dim = 1 + trial % 2
            pool = [td for td in densities if td.dim == dim]
            picked = [pool[i] for i in rng.choice(len(pool), 5, replace=False)]
            cs = random_constraint_set(rng, TimeWindow(1, 7), dim, max_constraints=4, mode=mode)
            # alive at step 0 only, and the constraint times are 1..7
            gs = GaussianSequence(np.zeros(dim), np.eye(dim), dim)
            late = BernoulliTrajectory(0.5, TrajectoryDensity(BirthDeathPmf(((0, 0),), np.ones(1)), (gs,)))
            tracks = [BernoulliTrajectory(float(rng.uniform(0.1, 1.0)), td) for td in picked[1:]]
            m = PmbmDensity(
                PppTrajectory(2.0, picked[0]),
                (GlobalHypothesis(0.7, tuple(tracks[:3]) + (late,)), GlobalHypothesis(0.3, tuple(tracks[1:]))),
            )
            out = constrain_pmbm(m, cs, budget, rng_seed=trial)
            seeds = component_seeds(m, trial)
            comps = [(m.ppp.density, out.ppp)] + [
                (t.density, tc) for h, hc in zip(m.hypotheses, out.hypotheses) for t, tc in zip(h.tracks, hc.tracks)
            ]
            for td, c in comps:
                if not any(p > 0.0 and active_indices(cs, *pair) for pair, p in td.pmf.items()):
                    assert c.report.joint == 0.0 and c.density.pair_info == {}
                    paths.add("no support")
                for j, pair in enumerate(td.pmf.pairs):
                    if pair not in c.density.pair_info:
                        assert not active_indices(cs, *pair)
                        continue
                    info = c.density.pair_info[pair]
                    items = [(cs.constraints[i].time, cs.constraints[i].region) for i in info.active]
                    flip = mode == "disjunct" and len(items) > 1
                    p, se, kind = pattern_probabilities_per_pair(
                        td.conditionals[j], pair, items, budget, engine._pair_seed(seeds[id(td)], j), [not flip] * len(items)
                    )
                    assert info.spatial_prob == (1.0 - p if flip else p)
                    assert info.spatial_se == se
                    assert (info.path in ("mc", "qmc")) == (kind != "exact") == (info.spatial_se > 0.0)
                    paths.add(info.path)
        # single-box regions only: every pair that the 1-D bounds and the closed form leave is QMC
        assert paths == {"no support", "pinned", "closed_form", "qmc"}

    def test_track_missing_every_constraint_time(self, rng):
        window = TimeWindow(0, 5)
        late = BernoulliTrajectory(0.8, std_density([(0, 1), (1, 2)], [0.5, 0.5]))
        tracks = tuple(BernoulliTrajectory(r, random_density(rng, window, 1)) for r in (0.4, 0.7))
        m = PmbmDensity(
            PppTrajectory(2.0, random_density(rng, window, 1)),
            (GlobalHypothesis(0.5, tracks), GlobalHypothesis(0.5, (tracks[0], late))),
        )
        cs = ConstraintSet([Constraint(4, HALF_LINE), Constraint(5, StateRegion.box([(-1, 1)]))], "conjunct")
        out = constrain_pmbm(m, cs, 20_000, rng_seed=2)
        late_c = out.hypotheses[1].tracks[1]
        assert late_c.r == 0.0 and late_c.density.degenerate and late_c.density.pmf is None
        assert late_c.report == engine.ConstraintReport(0.0, 0.0, 0.0, 0.0, 0.0)
        seeds = component_seeds(m, 2)
        for hc, h in zip(out.hypotheses, m.hypotheses):
            for tc, t in zip(hc.tracks, h.tracks):
                if t is not late:
                    solo = constrain_bernoulli(t, cs, 20_000, rng_seed=seeds[id(t.density)])
                    assert tc.r == solo.r > 0.0 and tc.report == solo.report
        assert out.ppp.mu == constrain_ppp(m.ppp, cs, 20_000, rng_seed=seeds[id(m.ppp.density)]).mu
        assert constrain_ppp(PppTrajectory(3.0, late.density), cs).mu == 0.0
