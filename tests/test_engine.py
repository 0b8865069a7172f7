import logging
import math

import numpy as np
import pytest
from scipy import optimize

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
from trajconstrain import engine, gaussian, mvn
from trajconstrain.core import active_indices
from trajconstrain.engine import MAX_ACTIVE_FOR_PARTITIONS
from trajconstrain.errors import (
    DegenerateDensityError,
    DimensionMismatchError,
    LowAcceptanceError,
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

    def test_constrained_pmf_passes_the_pmf_checks(self):
        # the constrained pmf is built without checking it again: its pairs
        # are a validated pmf's and its masses are normalized by construction
        built = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            td = random_density(rng)
            cs = random_constraint_set(rng, TimeWindow(0, max(e for _, e in td.pmf.pairs)), td.dim)
            ctd, _ = constrain_density(td, cs, 2_000, rng_seed=seed)
            if ctd.degenerate:
                continue
            checked = BirthDeathPmf(ctd.pmf.pairs, ctd.pmf.probs)
            assert checked.pairs == ctd.pmf.pairs
            assert all(type(x) is int for pair in ctd.pmf.pairs for x in pair)
            np.testing.assert_array_equal(checked.probs, ctd.pmf.probs)
            assert not ctd.pmf.probs.flags.writeable
            built += 1
        assert built >= 15

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
        # a pair that samples: four correlated steps, four half-line gates
        gs = GaussianSequence(np.zeros(4), 0.5 * (np.eye(4) + np.ones((4, 4))), 1)
        td = TrajectoryDensity(BirthDeathPmf(((0, 3),), np.ones(1)), (gs,))
        cs = ConstraintSet([Constraint(t, HALF_LINE) for t in range(4)], "disjunct")
        ctd, _ = constrain_density(td, cs, 1_000)
        assert ctd.pair_info[(0, 3)].path in ("mc", "qmc")
        with pytest.raises(ValueError, match="mc_budget"):
            disjunct_partitions(ctd, (0, 3), mc_budget)
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

    @pytest.mark.parametrize("view", ["constrained_marginals", "moment_matched", "sample_cloud"])
    def test_degenerate_views_rejected(self, view):
        # a degenerate density has no pmf to take a view of
        td = std_density([(0, 0)], [1.0])
        ctd = engine.ConstrainedTrajectoryDensity(td, ConstraintSet([Constraint(0, HALF_LINE)], "conjunct"), None, {})
        call = {
            "constrained_marginals": lambda: constrained_marginals(ctd),
            "moment_matched": ctd.moment_matched,
            "sample_cloud": ctd.sample_cloud,
        }[view]
        with pytest.raises(DegenerateDensityError):
            call()

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
        # standard normal truncated to x >= 0: mean sqrt(2/pi), var 1 - 2/pi,
        # in closed form with no points
        td = std_density([(0, 0)], [1.0])
        cs = ConstraintSet([Constraint(0, HALF_LINE)], "conjunct")
        ctd, _ = constrain_density(td, cs)
        mm = ctd.moment_matched(mc_budget=200_000, rng_seed=4)
        g = mm.conditional((0, 0))
        marginals = constrained_marginals(ctd, 200_000, rng_seed=4)
        assert marginals.view_paths == {(0, 0): mvn.CLOSED_FORM} and marginals.accepted == {(0, 0): 0}
        assert not marginals.dropped and marginals.mean_se[0, 0] == 0.0 and marginals.acceptance_rate == 1.0
        mean_t, var_t = math.sqrt(2 / math.pi), 1 - 2 / math.pi
        assert abs(g.mean[0] - mean_t) <= 1e-15
        assert abs(g.cov[0, 0] - var_t) <= 1e-15

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
        # four gated steps: a lattice view, whose points follow the seed
        td = std_density([(0, 4)], [1.0])
        cs = ConstraintSet([Constraint(t, HALF_LINE) for t in range(4)], "conjunct")
        ctd, _ = constrain_density(td, cs)
        a = ctd.moment_matched(mc_budget=5_000, rng_seed=1).conditional((0, 4))
        b = ctd.moment_matched(mc_budget=5_000, rng_seed=1).conditional((0, 4))
        c = ctd.moment_matched(mc_budget=5_000, rng_seed=2).conditional((0, 4))
        again = ctd.moment_matched(mc_budget=5_000, rng_seed=1).conditional((0, 4))
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.cov, b.cov)
        assert not np.array_equal(a.mean, c.mean)
        np.testing.assert_array_equal(a.mean, again.mean)

    def test_moment_matched_at_a_budget_of_two(self):
        # budget 2 leaves one lattice point per shift, 10 in all, for the
        # four gated steps: the moment match needs no minimum count of draws
        td = std_density([(0, 4)], [1.0])
        ctd, _ = constrain_density(td, ConstraintSet([Constraint(t, HALF_LINE) for t in range(4)], "conjunct"))
        mm = constrained_marginals(ctd, 2, rng_seed=0)
        assert mm.accepted[(0, 4)] == mvn._QMC_SHIFTS and mm.view_paths[(0, 4)] == engine.LATTICE
        g = ctd.moment_matched(2, rng_seed=0).conditional((0, 4))
        assert g.mean[0] > 0.0 and 0.0 < g.cov[0, 0] < 1.0  # all 10 points pooled
        # the unconstrained step 4 is independent of y, so it stays exact
        assert (g.mean[4], g.cov[4, 4], g.cov[0, 4]) == (0.0, 1.0, 0.0)

    def test_moment_matched_keeps_every_pair(self, caplog):
        """On the 40 conftest densities (window 0..5, both modes, budgets 2e3
        and 2e4, single boxes: no Monte Carlo view), moment_matched keeps
        every pair of the constrained pmf and logs nothing."""
        window = TimeWindow(0, 5)
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
                        assert mm.pmf.pairs == ctd.pmf.pairs
                        np.testing.assert_allclose(mm.pmf.probs, ctd.pmf.probs, rtol=1e-12)
        assert not [r for r in caplog.records if r.name == "trajconstrain"]

    def test_moment_matched_pmf_has_the_weight_ratios(self):
        # two pairs of prior mass 0.4 and 0.6 whose step 0 holds with
        # probability Phi(0) = 0.5 and Phi(1): the views' pmf is the
        # constrained one, and the cloud's stratum weights are in its ratios
        conds = (
            GaussianSequence(np.zeros(1), np.eye(1), 1),
            GaussianSequence(np.array([1.0, 0.0]), np.eye(2), 1),
        )
        td = TrajectoryDensity(BirthDeathPmf(((0, 0), (0, 1)), np.array([0.4, 0.6])), conds)
        ctd, _ = constrain_density(td, ConstraintSet([Constraint(0, HALF_LINE)], "conjunct"))
        phi1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        want = np.array([0.4 * 0.5, 0.6 * phi1])
        want /= want.sum()
        mm = ctd.moment_matched(5_000, rng_seed=3)
        assert mm.pmf.pairs == ((0, 0), (0, 1))
        np.testing.assert_allclose(mm.pmf.probs, want, rtol=1e-9)
        cloud = ctd.sample_cloud(5_000, rng_seed=3)
        totals = [cloud.strata[pair].total_weight for pair in mm.pmf.pairs]
        np.testing.assert_allclose(totals, want, rtol=1e-9)
        assert totals[0] / totals[1] == pytest.approx(0.4 * 0.5 / (0.6 * phi1), rel=1e-9)

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

    def test_step_mean_se_mixes_the_pairs_alive_at_the_step(self):
        # step 4 is alive only in stratum (0, 4), steps 0-3 in both; the two
        # strata share one y problem (byte-identical gated steps 0-3, a
        # lattice view), so their per-shift deviations are the same and
        # their SEs add linearly
        td = std_density([(0, 3), (0, 4)], [0.3, 0.7])
        cs = ConstraintSet([Constraint(t, HALF_LINE) for t in range(4)], "conjunct")
        ctd, _ = constrain_density(td, cs)
        mm = constrained_marginals(ctd, mc_budget=20_000, rng_seed=5)
        alone = constrained_marginals(constrain_density(std_density([(0, 3)], [1.0]), cs)[0], 20_000, rng_seed=5)
        assert set(mm.view_paths.values()) == {engine.LATTICE}
        assert mm.mean_se[mm.times.index(0), 0] == pytest.approx(alone.mean_se[0, 0], rel=1e-12)
        # step 4 is independent of y: exact
        assert mm.mean_se[mm.times.index(4), 0] == 0.0
        assert 0.0 < mm.mean_se[0, 0] < 1e-2

    def test_marginals_shape_and_alive(self):
        td = std_density([(0, 2)], [1.0])
        cs = ConstraintSet([Constraint(1, HALF_LINE)], "conjunct")
        ctd, _ = constrain_density(td, cs)
        mm = constrained_marginals(ctd, mc_budget=50_000, rng_seed=3)
        assert mm.times == [0, 1, 2]
        assert mm.means.shape == (3, 1)
        np.testing.assert_allclose(mm.alive_probs, 1.0, atol=1e-12)
        # one coordinate: every point weighs the same, P(x >= 0)
        assert mm.acceptance_rate == pytest.approx(1.0, rel=1e-12)
        # constrained step keeps the half-normal mean; the free steps are
        # independent of it, so they keep their means exactly
        assert abs(mm.means[1, 0] - math.sqrt(2 / math.pi)) <= 4 * mm.mean_se[1, 0]
        assert (mm.means[0, 0], mm.means[2, 0], mm.mean_se[0, 0], mm.mean_se[2, 0]) == (0.0, 0.0, 0.0, 0.0)


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


def count_bound(ctd, mm, cloud=None):
    """Per step of ``mm``, the Kish count of plain accepted draws whose mean
    has at least the error of a view's estimates, pooled over the pairs alive
    at the step with pmf weights. Each pair counts its points of positive
    weight (lattice points err less than as many plain draws), and an exact
    pair adds no error; in a ``cloud`` each pair counts its samples, as
    each is completed by an unconstrained draw."""
    sq = np.zeros(len(mm.times))
    for (b, e), prob in ctd.pmf.items():
        if cloud is not None:
            count = cloud.strata[(b, e)].states.shape[0]
        elif mm.view_paths[(b, e)] != engine.EXACT:
            count = mm.accepted[(b, e)]
        else:
            continue
        sq[mm.times.index(b) : mm.times.index(e) + 1] += prob * prob / count
    with np.errstate(divide="ignore"):
        return mm.alive_probs**2 / sq


def view_step_moments(ctd, view, mc_budget, rng_seed):
    """(times, means, covs, mean SEs, count bound) per step of one view of a
    constrained density; every view reads the same pass. A cloud's step
    means are not Rao-Blackwellized, so it has no mean SE but the count of
    its samples."""
    mm = constrained_marginals(ctd, mc_budget, rng_seed)
    if view == "sample_cloud":
        cloud = ctd.sample_cloud(mc_budget, rng_seed)
        times, means, covs, _ = cloud_step_moments(cloud)
        return times, means, covs, None, count_bound(ctd, mm, cloud)
    if view == "moment_matched":
        times, means, covs, _ = step_moments(ctd.moment_matched(mc_budget, rng_seed))
    else:
        times, means, covs = mm.times, mm.means, mm.covs
    return times, means, covs, mm.mean_se, count_bound(ctd, mm)


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
        times, means, covs, engine_se, count = view_step_moments(ctd, view, 200_000, 2)
        bf = brute_force_step_moments(td, cs, 400_000, seed=3)
        assert times == sorted(bf)
        for k, t in enumerate(times):
            mean, mean_se, cov, cov_se, n_t = bf[t]
            # a step mean's own error is its mean_se; a covariance's (and a
            # cloud's mean's) at most that of ``count`` plain draws
            inflate = math.sqrt(1.0 + n_t / count[k])
            for got, want, se in (
                (means[k], mean, mean_se * inflate if engine_se is None else np.hypot(mean_se, engine_se[k])),
                (covs[k], cov, cov_se * inflate),
            ):
                exact = se == 0.0  # the zero-variance coordinate, drawn exactly
                np.testing.assert_allclose(got[exact], want[exact], rtol=0, atol=1e-12)
                z = (got[~exact] - want[~exact]) / se[~exact]
                assert np.all(np.abs(z) <= 4.0), (t, z)

    def test_accepted_counts_and_rate(self):
        # SPLIT_GATE has two boxes, so every pair's view draws y by Monte
        # Carlo: budget / 10 draws in each of 10 blocks
        td = degenerate_window_density()
        cs = ConstraintSet([Constraint(1, SPLIT_GATE), Constraint(3, POS_VEL_GATE)], "conjunct")
        ctd, _ = constrain_density(td, cs, 50_000, rng_seed=1)
        mm = constrained_marginals(ctd, mc_budget=50_000, rng_seed=2)
        assert set(mm.accepted) == set(ctd.pmf.pairs)
        assert set(mm.view_paths.values()) == {mvn.MC}
        assert mm.n_accepted == sum(mm.accepted.values())
        # Kish ESS of the draws' weights prob / accepted (0 when rejected) over all draws
        probs = np.array([ctd.pmf.prob(pair) for pair in mm.accepted])
        kish = probs.sum() ** 2 / np.sum(probs**2 / np.array(list(mm.accepted.values())))
        assert mm.acceptance_rate == pytest.approx(kish / (50_000 * len(probs)), rel=1e-12)

    def test_views_share_one_accepted_draw(self, monkeypatch):
        # single boxes in disjunct mode: each pair's lattice points lie in
        # the cells where gate k is the first to hold (position at step 3
        # repeats step 1 and velocity is fixed, so y is singular and its
        # view stays on the lattice)
        td = degenerate_window_density()
        gate = StateRegion.box([(-0.3, 0.6), None])
        cs = ConstraintSet([Constraint(1, gate), Constraint(3, POS_VEL_GATE)], "disjunct")
        ctd, _ = constrain_density(td, cs, 50_000, rng_seed=1)
        seen = []
        inner = engine._accepted_y

        def spy(*args, **kwargs):
            out = inner(*args, **kwargs)
            seen.append(out)
            return out

        monkeypatch.setattr(engine, "_accepted_y", spy)
        mm = constrained_marginals(ctd, 20_000, rng_seed=6)
        cloud = ctd.sample_cloud(20_000, rng_seed=6)
        assert set(mm.view_paths.values()) == {engine.LATTICE}
        assert not mm.dropped
        assert set(cloud.strata) == set(mm.accepted)
        marginal_pass, cloud_pass = seen
        for v, v_cloud in zip(marginal_pass, cloud_pass):
            np.testing.assert_array_equal(v_cloud.y, v.y)
            np.testing.assert_array_equal(v_cloud.w, v.w)
            (b, e), states = v.pair, cloud.strata[v.pair].states
            keep = v.w.ravel() > 0.0
            assert states.shape[0] == mm.accepted[v.pair] == np.count_nonzero(keep)
            y = v.y.reshape(keep.size, -1)[keep]
            np.testing.assert_array_equal(states.reshape(states.shape[0], -1)[:, v.cols], y)
            np.testing.assert_allclose(
                cloud.strata[v.pair].weights, v.w.ravel()[keep] * ctd.pmf.prob(v.pair) / v.w.sum(), rtol=1e-12
            )
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
                    (mm.times, mm.means, mm.covs, mm.alive_probs, mm.mean_se, mm.acceptance_rate, mm.accepted),
                    (matched.pmf.pairs, matched.pmf.probs, [(g.mean, g.cov) for g in matched.conditionals]),
                    {pair: (s.states, s.weights) for pair, s in cloud.strata.items()},
                )
            )
        forward, backward = views
        assert forward[0] == backward[0]
        for a, b in zip(forward[1:], backward[1:]):
            np.testing.assert_equal(a, b)


def lattice_case(name):
    """(density of one pair (0, 2) with 2-dim states, constraint set, cells
    of its view) for a case of ``TestLatticeMoments``."""
    rng = np.random.default_rng(31)
    a = rng.standard_normal((6, 6)) * 0.7
    mean = rng.standard_normal(6) * 0.3
    if "uncorrelated" in name:
        a = np.diag(rng.uniform(0.6, 1.4, 6))
    if "zero-variance" in name:
        a[3], mean[3] = 0.0, 0.5  # velocity at step 1
    td = TrajectoryDensity(BirthDeathPmf(((0, 2),), np.array([1.0])), (GaussianSequence(mean, a @ a.T, 2),))
    sd = np.sqrt(np.diag(a @ a.T))

    def gate(t, half):  # a position gate at step t, off its mean by a quarter sd
        centre = mean[2 * t] + 0.25 * sd[2 * t]
        return Constraint(t, StateRegion.box([(centre - half * sd[2 * t], centre + half * sd[2 * t]), None]))

    box = Constraint(1, StateRegion.box([(mean[2] - 0.6 * sd[2], mean[2] + 0.9 * sd[2]), (mean[3] - 0.5, mean[3] + 0.7)]))
    mode, count = name.split("-")[:2]
    cases = {
        "1": ([gate(1, 0.6)], 1),
        "2": ([gate(0, 0.5), gate(2, 0.7)], 2),
        "3": ([gate(0, 0.4), gate(1, 0.6), gate(2, 0.5)], 3),
        "box": ([gate(0, 0.4), box, gate(2, 0.5)], 4),  # the box's outside is 2 cells; four coordinates
        "full": ([Constraint(0, StateRegion.full_space(2)), gate(1, 0.5), gate(2, 0.6)], 2),
    }
    items, cells = cases[count]
    if mode == "conjunct" or len(items) == 1:
        cells = 1
    return td, ConstraintSet(items, mode), cells


def brute_moments(td, cs, n, seed, chunk=100_000):
    """Accepted count, mean, covariance and the standard errors of each of
    the whole sequence (6 coordinates) of ``lattice_case``'s pair (0, 2),
    from n draws by rejection under ``cs``: two passes over the same draws,
    for the mean and then the centred second moments."""

    def accepted():
        rng = np.random.default_rng(seed)
        for start in range(0, n, chunk):
            x = td.conditionals[0].draw(min(chunk, n - start), rng)
            yield x[satisfies_batch(0, 2, x.reshape(-1, 3, 2), cs)]

    count, total = 0, np.zeros(6)
    for x in accepted():
        count += x.shape[0]
        total += x.sum(axis=0)
    mean = total / count
    second, fourth = np.zeros((6, 6)), np.zeros((6, 6))
    for x in accepted():
        c = x - mean
        prods = c[:, :, None] * c[:, None, :]
        second += prods.sum(axis=0)
        fourth += (prods * prods).sum(axis=0)
    cov = second / count
    return count, mean, np.sqrt(np.diag(cov) / count), cov, np.sqrt((fourth / count - cov * cov) / count)


class TestLatticeMoments:
    """The views against brute-force rejection of the whole sequence. A y of
    at most three coordinates is in closed form: its moments and the step
    means and covariances within 4 SE of 4e6 draws. On the lattice (four
    coordinates): the pass's probability (sum of weights over points per
    cell), the weighted moments of y and the step means, within 4 SE."""

    BUDGET = 100_000
    N_BRUTE = 400_000
    N_CLOSED = 4_000_000

    @pytest.mark.parametrize(
        "name",
        [
            "conjunct-1-uncorrelated",
            "conjunct-2-correlated",
            "conjunct-3-correlated",
            "conjunct-box-correlated",
            "conjunct-box-zero-variance",
            "conjunct-full-correlated",
            "disjunct-2-uncorrelated",
            "disjunct-2-correlated",
            "disjunct-3-uncorrelated",
            "disjunct-3-correlated",
            "disjunct-box-correlated",
            "disjunct-box-zero-variance",
        ],
    )
    def test_against_brute_force(self, name):
        td, cs, cells = lattice_case(name)
        ctd, _ = constrain_density(td, cs, self.BUDGET, rng_seed=1)
        [v] = engine._accepted_y(ctd, self.BUDGET, 2)
        if v.cols.size <= 3:
            self.closed_form(td, cs, ctd, v)
            return
        assert v.path == engine.LATTICE
        n_cell = mvn._qmc_points(self.BUDGET) // cells
        assert v.w.shape == (mvn._QMC_SHIFTS, cells * n_cell)

        x = td.conditionals[0].draw(self.N_BRUTE, np.random.default_rng(3))
        states = x.reshape(self.N_BRUTE, 3, 2)
        acc = satisfies_batch(0, 2, states, cs)
        y_bf, n_acc = x[acc][:, v.cols], int(acc.sum())

        def z_ok(got, want, se):
            exact = se <= 1e-12  # the zero-variance coordinate, up to rounding
            np.testing.assert_allclose(got[exact], want[exact], rtol=0, atol=1e-12)
            assert np.all(np.abs(got[~exact] - want[~exact]) <= 4.0 * se[~exact]), (name, got, want, se)

        # probability: the weights summed per cell over the lattice points
        est = v.w.sum(axis=1) / n_cell
        p_bf = n_acc / self.N_BRUTE
        z_ok(np.array([est.mean()]), np.array([p_bf]), np.array([math.hypot(est.std(ddof=1) / math.sqrt(10), math.sqrt(p_bf * (1 - p_bf) / self.N_BRUTE))]))

        # every point of positive weight satisfies the constraints
        kept = v.w.ravel() > 0.0
        points = np.zeros((kept.sum(), 6))
        points[:, v.cols] = v.y.reshape(kept.size, -1)[kept]
        assert satisfies_batch(0, 2, points.reshape(-1, 3, 2), cs).all()

        # weighted moments of y
        y_bar = v.y_mean.mean(axis=0)
        _, delta, _ = engine._given_y(v)
        sigma = delta + td.conditionals[0].cov[np.ix_(v.cols, v.cols)]
        centred = y_bf - y_bf.mean(axis=0)
        prods = centred[:, :, None] * centred[:, None, :]
        lat_mean_se = v.y_mean.std(axis=0, ddof=1) / math.sqrt(10)
        lat_cov_se = v.y_cov.std(axis=0, ddof=1) / math.sqrt(10)
        z_ok(y_bar, y_bf.mean(axis=0), np.hypot(y_bf.std(axis=0) / math.sqrt(n_acc), lat_mean_se))
        z_ok(sigma, prods.mean(axis=0), np.hypot(prods.std(axis=0) / math.sqrt(n_acc), lat_cov_se))

        # step means of the whole sequence
        mm = constrained_marginals(ctd, self.BUDGET, 2)
        kept_states = states[acc]
        z_ok(mm.means, kept_states.mean(axis=0), np.hypot(kept_states.std(axis=0) / math.sqrt(n_acc), mm.mean_se))

    def closed_form(self, td, cs, ctd, v):
        """y's moments, and the step means and covariances, against 4e6 draws:
        exact, so within 4 of the draws' SEs."""
        assert v.path == mvn.CLOSED_FORM and v.y is None and v.kept == 0 and not v.dropped
        assert v.y_mean.shape == (1, v.cols.size) and v.y_cov.shape == (1, v.cols.size, v.cols.size)
        count, mean, mean_se, cov, cov_se = brute_moments(td, cs, self.N_CLOSED, 3)
        assert count > 100_000
        block = np.ix_(v.cols, v.cols)
        mm = constrained_marginals(ctd, self.BUDGET, 2)
        steps = np.arange(3)
        step_cov = cov.reshape(3, 2, 3, 2)[steps, :, steps, :]
        step_cov_se = cov_se.reshape(3, 2, 3, 2)[steps, :, steps, :]
        assert mm.view_paths == {(0, 2): mvn.CLOSED_FORM} and mm.accepted == {(0, 2): 0}
        assert np.all(mm.mean_se == 0.0) and mm.acceptance_rate == 1.0
        for got, want, se in (
            (v.y_mean[0], mean[v.cols], mean_se[v.cols]),
            (v.y_cov[0], cov[block], cov_se[block]),
            (mm.means, mean.reshape(3, 2), mean_se.reshape(3, 2)),
            (mm.covs, step_cov, step_cov_se),
        ):
            z = (got - want) / se
            assert np.all(np.abs(z) <= 4.0), z

    @pytest.mark.parametrize("det, path", [(0.0101, mvn.CLOSED_FORM), (0.0099, engine.LATTICE)])
    def test_determinant_floor(self, det, path, caplog):
        # three gated steps of equal correlation rho, det (1 - rho)^2 (1 + 2 rho)
        # on either side of 0.01: closed form above it, the lattice below,
        # which is logged; the views agree within the lattice's SEs
        rho = optimize.brentq(lambda x: (1.0 - x) ** 2 * (1.0 + 2.0 * x) - det, 0.5, 1.0)
        cov = np.eye(4)
        cov[:3, :3] = (1.0 - rho) * np.eye(3) + rho
        gs = GaussianSequence(np.zeros(4), cov, 1)
        td = TrajectoryDensity(BirthDeathPmf(((0, 3),), np.ones(1)), (gs,))
        gates = [Constraint(0, StateRegion.box([(-0.5, 1.0)])), Constraint(1, HALF_LINE), Constraint(2, StateRegion.box([(-1.0, 0.3)]))]
        ctd, _ = constrain_density(td, ConstraintSet(gates, "disjunct"), self.BUDGET, rng_seed=1)
        with caplog.at_level(logging.INFO, logger="trajconstrain"):
            mm = constrained_marginals(ctd, self.BUDGET, 2)
        messages = [r.getMessage() for r in caplog.records if r.name == "trajconstrain"]
        assert mm.view_paths == {(0, 3): path}
        if path == engine.LATTICE:
            assert messages == ["1 of 1 pairs' views drawn on the lattice instead of in closed form (near-singular correlation: 1)"]
            assert np.all(mm.mean_se[:3] > 0.0)
        else:
            assert not messages and np.all(mm.mean_se == 0.0)
        # the brute-force step means, as far as the draws tell
        x = gs.draw(1_000_000, np.random.default_rng(4))
        kept = x[satisfies_batch(0, 3, x.reshape(-1, 4, 1), ctd.cs)]
        se = np.hypot(kept.std(axis=0) / math.sqrt(kept.shape[0]), mm.mean_se[:, 0])
        assert np.all(np.abs(mm.means[:, 0] - kept.mean(axis=0)) <= 4.0 * se)

    def test_no_mass_in_closed_form_falls_back_to_the_lattice(self, monkeypatch, caplog):
        # a closed-form problem whose Tallis moments have no mass (as where
        # its cells' probability underflows) is drawn on the lattice, and
        # logged with that reason
        td, cs, _ = lattice_case("conjunct-2-correlated")
        ctd, _ = constrain_density(td, cs, self.BUDGET, rng_seed=1)
        closed = constrained_marginals(ctd, self.BUDGET, 2)
        assert closed.view_paths == {(0, 2): mvn.CLOSED_FORM}
        monkeypatch.setattr(engine, "_truncated_moments", lambda problems: [None] * len(problems))
        with caplog.at_level(logging.INFO, logger="trajconstrain"):
            mm = constrained_marginals(ctd, self.BUDGET, 2)
        assert mm.view_paths == {(0, 2): engine.LATTICE}
        assert [r.getMessage() for r in caplog.records if r.name == "trajconstrain"] == [
            "1 of 1 pairs' views drawn on the lattice instead of in closed form (no mass in closed form: 1)"
        ]
        assert np.all(mm.mean_se > 0.0)
        assert np.all(np.abs(mm.means - closed.means) <= 4.0 * mm.mean_se)

    def test_view_fallbacks_are_logged_with_their_reason(self, caplog):
        # four 5-d boxes in disjunct mode: 1 + 5 + 25 + 125 "first to hold"
        # cells, over the cap of 64; and a two-box item
        d = 5
        b = np.random.default_rng(0).standard_normal((4 * d, 4 * d))
        wide = GaussianSequence(np.zeros(4 * d), b @ b.T / d + np.eye(4 * d), d)
        box = StateRegion.box([(-1.0, 1.0)] * d)
        td = TrajectoryDensity(BirthDeathPmf(((0, 3),), np.ones(1)), (wide,))
        over_cap, _ = constrain_density(td, ConstraintSet([Constraint(t, box) for t in range(4)], "disjunct"), 2_000)
        two_boxes = StateRegion.boxes([[(-1.0, 0.0)], [(0.5, 1.5)]])
        td = std_density([(0, 1)], [1.0])
        multi_box, _ = constrain_density(td, ConstraintSet([Constraint(0, two_boxes), Constraint(1, HALF_LINE)], "conjunct"), 2_000)
        with caplog.at_level(logging.INFO, logger="trajconstrain"):
            views = [constrained_marginals(ctd, 2_000, 1).view_paths for ctd in (over_cap, multi_box)]
        assert views == [{(0, 3): mvn.MC}, {(0, 1): mvn.MC}]
        assert [r.getMessage() for r in caplog.records if r.name == "trajconstrain"] == [
            "1 of 1 pairs' views drawn by Monte Carlo instead of the lattice (over 64 cells: 1)",
            "1 of 1 pairs' views drawn by Monte Carlo instead of the lattice (multi-box item: 1)",
        ]

    def test_zero_variance_coordinate_is_exact(self):
        td, cs, _ = lattice_case("disjunct-box-zero-variance")
        ctd, _ = constrain_density(td, cs, self.BUDGET, rng_seed=1)
        [v] = engine._accepted_y(ctd, self.BUDGET, 2)
        column = list(v.cols).index(3)  # the fixed velocity, bounded by the box
        assert np.all(v.y[..., column] == 0.5)
        mm = constrained_marginals(ctd, self.BUDGET, 2)
        assert mm.means[1, 1] == 0.5 and mm.covs[1, 1, 1] == 0.0 and mm.mean_se[1, 1] == 0.0

    def test_disjunct_full_space_constraint_is_exact(self):
        # a full-space constraint always holds, so a disjunct pair meeting it
        # is its unconstrained conditional, with no points and SE 0
        td, _, _ = lattice_case("disjunct-full-correlated")
        _, cs, _ = lattice_case("conjunct-full-correlated")
        cs = ConstraintSet(cs.constraints, "disjunct")
        ctd, _ = constrain_density(td, cs, self.BUDGET, rng_seed=1)
        mm = constrained_marginals(ctd, self.BUDGET, 2)
        assert mm.view_paths == {(0, 2): engine.EXACT} and mm.accepted == {(0, 2): 0}
        times, means, covs, _ = step_moments(td)
        np.testing.assert_array_equal(mm.means, means)
        np.testing.assert_array_equal(mm.covs, covs)
        assert np.all(mm.mean_se == 0.0)
        g = ctd.moment_matched(self.BUDGET, 2).conditionals[0]
        np.testing.assert_array_equal(g.mean, td.conditionals[0].mean)
        np.testing.assert_array_equal(g.cov, td.conditionals[0].cov)


class TestStepMeanSe:
    BUDGET = 20_000

    def test_calibrated_against_a_reference(self):
        """Over 40 seeds, the squared errors of the step means against a
        64x-budget reference average to the squared ``mean_se``: their ratio
        is within [0.8, 1.25] pooled over lattice densities (four
        coordinates, or a singular y) in both modes, a zero-variance
        coordinate, several pairs on independent problems and a Monte Carlo
        (two-box) pair's blocks, and within [0.5, 2] for each.
        (The mean z^2 itself would be about 9/7: each SE has 9 degrees of
        freedom.) Exact entries (SE 0) must have no error at all."""
        td = degenerate_window_density()
        cases = [lattice_case(name)[:2] for name in ("conjunct-box-correlated", "disjunct-box-zero-variance", "disjunct-box-correlated", "conjunct-box-zero-variance")]
        cases.append((td, ConstraintSet([Constraint(1, SPLIT_GATE), Constraint(3, POS_VEL_GATE)], "disjunct")))
        cases.append((td, ConstraintSet([Constraint(1, StateRegion.box([(-0.3, 0.6), None])), Constraint(3, POS_VEL_GATE)], "disjunct")))
        errors, variances = [], []
        for td, cs in cases:
            ctd, _ = constrain_density(td, cs, self.BUDGET, rng_seed=1)
            ref = constrained_marginals(ctd, 64 * self.BUDGET, 999)
            err2 = var = 0.0
            for seed in range(40):
                mm = constrained_marginals(ctd, self.BUDGET, seed)
                exact = mm.mean_se <= 1e-12
                np.testing.assert_allclose(mm.means[exact], ref.means[exact], rtol=0, atol=1e-12)
                err2 += np.sum((mm.means - ref.means)[~exact] ** 2)
                var += np.sum(mm.mean_se[~exact] ** 2)
            assert 0.5 <= err2 / var <= 2.0, (cs, err2 / var)
            errors.append(err2)
            variances.append(var)
        assert 0.8 <= sum(errors) / sum(variances) <= 1.25


class TestDroppedStrata:
    # Two boxes: a view of a pair meeting them draws y by Monte Carlo.
    TWO_BOXES = StateRegion.boxes([[(0.0, 1.0)], [(2.0, 3.0)]])

    def density(self):
        # pair (0, 1) meets the boxes at step 0 with probability ~3e-6: the
        # 2e6 draws that constrain it accept a few, the views' 1e4 none
        conds = (
            GaussianSequence(np.zeros(1), np.eye(1), 1),
            GaussianSequence(np.array([-4.5, 0.0]), np.eye(2), 1),
        )
        td = TrajectoryDensity(BirthDeathPmf(((0, 0), (0, 1)), np.array([0.5, 0.5])), conds)
        ctd, _ = constrain_density(td, ConstraintSet([Constraint(0, self.TWO_BOXES)], "conjunct"), 2_000_000)
        assert ctd.pmf.pairs == ((0, 0), (0, 1))
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
                mm = constrained_marginals(ctd, 10_000, rng_seed=1)
                assert mm.accepted[(0, 1)] == 0 and mm.dropped == [(0, 1)]
        [record] = [r for r in caplog.records if r.name == "trajconstrain" and r.levelno == logging.WARNING]
        assert "1 of 2" in record.getMessage()
        assert f"{ctd.pmf.prob((0, 1)):.3g}" in record.getMessage()

    def test_monte_carlo_block_that_accepts_nothing_takes_the_pooled_moments(self):
        # a two-box view at a budget of 20: ten blocks of two draws, some of
        # which accept none; such a block takes the moments of every draw the
        # pair accepted, so its step means stay finite
        gs = GaussianSequence(np.zeros(2), np.array([[1.0, 0.5], [0.5, 1.0]]), 1)
        td = TrajectoryDensity(BirthDeathPmf(((0, 1),), np.ones(1)), (gs,))
        near = StateRegion.boxes([[(-1.0, 0.0)], [(0.5, 1.5)]])
        ctd, _ = constrain_density(td, ConstraintSet([Constraint(0, near), Constraint(1, HALF_LINE)], "conjunct"), 2_000)
        [v] = engine._accepted_y(ctd, 20, 0)
        empty = v.w.sum(axis=1) == 0.0
        assert v.path == mvn.MC and empty.any() and not empty.all()
        kept = v.y[v.w > 0.0]
        centred = kept - kept.mean(axis=0)
        for row in range(v.y.shape[0]):
            own = kept if empty[row] else v.y[row][v.w[row] > 0.0]
            own_centred = centred if empty[row] else own - own.mean(axis=0)
            np.testing.assert_allclose(v.y_mean[row], own.mean(axis=0), rtol=1e-12)
            np.testing.assert_allclose(v.y_cov[row], own_centred.T @ own_centred / own.shape[0], rtol=1e-12, atol=1e-15)
        mm = constrained_marginals(ctd, 20, 0)
        assert np.isfinite(mm.means).all() and np.isfinite(mm.mean_se).all()

    def test_nothing_logged_when_every_stratum_accepts(self, caplog):
        td = std_density([(0, 0), (0, 1)], [0.5, 0.5])
        ctd, _ = constrain_density(td, ConstraintSet([Constraint(0, HALF_LINE)], "conjunct"))
        with caplog.at_level(logging.WARNING, logger="trajconstrain"):
            constrained_marginals(ctd, 10_000, rng_seed=1)
            ctd.sample_cloud(10_000, rng_seed=1)
        assert not [r for r in caplog.records if r.name == "trajconstrain"]

    def test_no_stratum_of_material_mass_dropped(self):
        # single boxes: every pair's view is exact, closed form or lattice,
        # and a lattice pair keeps points however rarely it meets the
        # constraints
        window = TimeWindow(0, 5)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            td = random_density(rng, window)
            cs = random_constraint_set(rng, window, td.dim)
            ctd, _ = constrain_density(td, cs, 20_000, rng_seed=seed)
            mm = constrained_marginals(ctd, 20_000, rng_seed=seed)
            assert not mm.dropped, seed
            assert set(mm.view_paths.values()) <= {engine.EXACT, mvn.CLOSED_FORM, engine.LATTICE}, seed
            for pair, path in mm.view_paths.items():
                assert (mm.accepted[pair] > 0) == (path == engine.LATTICE), (seed, pair)

    def test_every_pair_dropped_raises(self):
        # pair (0, 0) alone, meeting the boxes with probability ~3e-6
        td = std_density([(0, 0)], [1.0])
        far = StateRegion.boxes([[(4.5, 5.0)], [(5.5, 6.0)]])
        ctd, _ = constrain_density(td, ConstraintSet([Constraint(0, far)], "conjunct"), 2_000_000)
        assert not ctd.degenerate
        with pytest.raises(LowAcceptanceError, match="no .* stratum accepted"):
            constrained_marginals(ctd, 10_000, rng_seed=1)


class TestQmcPairs:
    def two_deaths(self):
        """Pairs (0, 3) and (0, 4) whose steps 0-3 are byte-identical, as the
        deaths of one birth of a smoothed track are; correlated steps."""
        a = np.array(
            [
                [1.0, 0.0, 0.0, 0.0, 0.0],
                [0.8, 0.6, 0.0, 0.0, 0.0],
                [0.5, 0.5, 0.7, 0.0, 0.0],
                [0.3, 0.4, 0.5, 0.7, 0.0],
                [0.2, 0.3, 0.4, 0.5, 0.7],
            ]
        )
        long = GaussianSequence(np.array([0.1, -0.2, 0.3, 0.0, 0.2]), a @ a.T, 1)
        short = gaussian.marginal(long, (0, 4), [0, 1, 2, 3])
        return TrajectoryDensity(BirthDeathPmf(((0, 3), (0, 4)), np.array([0.3, 0.7])), (short, long))

    def gates(self):
        # four gates: QMC (three would be in closed form)
        return [
            (0, HALF_LINE),
            (1, StateRegion.box([(-0.5, 0.5)])),
            (2, StateRegion.box([(-1.0, 1.5)])),
            (3, StateRegion.box([(-1.5, 1.0)])),
        ]

    def test_identical_pairs_share_one_estimate(self):
        td = self.two_deaths()
        items = self.gates()
        asked = []

        def stream(p):
            asked.append(p)
            return 11 + p

        out = mvn._pattern_batch(
            td.conditionals, td.pmf.pairs, items, np.ones((2, 4), dtype=bool), np.zeros((2, 4), dtype=bool), 20_000, stream
        )
        assert [s.path for s in out] == [mvn.QMC, mvn.QMC]
        assert [s.leader for s in out] == [0, 0]
        assert out[0][:2] == out[1][:2] and out[0].se > 0.0
        assert asked == [0]

    def test_joint_se_adds_a_groups_errors_linearly(self):
        td = self.two_deaths()
        cs = ConstraintSet([Constraint(t, region) for t, region in self.gates()], "disjunct")
        ctd, report = constrain_density(td, cs, 20_000, rng_seed=3)
        first, second = ctd.pair_info[(0, 3)], ctd.pair_info[(0, 4)]
        assert first.path == second.path == "qmc"
        assert (first.spatial_prob, first.spatial_se) == (second.spatial_prob, second.spatial_se)
        # perfectly correlated errors: 0.3 se + 0.7 se, not sqrt(0.3^2 + 0.7^2) se
        assert report.joint_se == pytest.approx(first.spatial_se, rel=1e-12)

    def test_fallbacks_to_monte_carlo_are_logged_with_their_reason(self, caplog):
        a = np.array([[1.0, 0.0], [0.9, 0.4]])
        gs = GaussianSequence(np.zeros(2), a @ a.T, 1)
        two_boxes = StateRegion.boxes([[(-1.0, 0.0)], [(0.5, 1.5)]])
        with caplog.at_level(logging.INFO, logger="trajconstrain"):
            _, se = mvn.region_probability(gs, (0, 1), [(0, two_boxes, "inside"), (1, HALF_LINE, "inside")], 1_000, 1)
            # three complements of 5-d boxes split into 5^3 = 125 cells, over the cap of 64
            d = 5
            b = np.random.default_rng(0).standard_normal((3 * d, 3 * d))
            wide = GaussianSequence(np.zeros(3 * d), b @ b.T / d + np.eye(3 * d), d)
            box = StateRegion.box([(-1.0, 1.0)] * d)
            settled = mvn._pattern_probabilities(wide, (0, 2), [(t, box) for t in range(3)], 1_000, 2, [False] * 3)
            td = TrajectoryDensity(BirthDeathPmf(((0, 1),), np.ones(1)), (gs,))
            ctd, _ = constrain_density(td, ConstraintSet([Constraint(0, HALF_LINE), Constraint(1, HALF_LINE)], "disjunct"), 1_000)
            disjunct_partitions(ctd, (0, 1), 1_000)
        assert se > 0.0 and settled.path == mvn.MC
        messages = [r.getMessage() for r in caplog.records if r.name == "trajconstrain"]
        assert messages == [
            "1 of 1 pairs settled by Monte Carlo instead of QMC (multi-box item: 1)",
            "1 of 1 pairs settled by Monte Carlo instead of QMC (over 64 cells: 1)",
            "1 of 1 pairs settled by Monte Carlo instead of QMC (partition cells: 1)",
        ]


class TestCellCap:
    """One rule caps the product cells of a pair probability (its wanted
    side) and of a view (its "first to hold" sides together) at 64."""

    @staticmethod
    def density(dim, steps, seed):
        n = dim * steps
        b = np.random.default_rng(seed).standard_normal((n, n))
        gs = GaussianSequence(np.zeros(n), b @ b.T / n + np.eye(n), dim)
        return TrajectoryDensity(BirthDeathPmf(((0, steps - 1),), np.ones(1)), (gs,))

    @staticmethod
    def gates(dims, dim):
        # the gate at time t bounds the first dims[t] of the dim state dims
        return [Constraint(t, StateRegion.box([(-1.0, 1.0)] * k + [None] * (dim - k))) for t, k in enumerate(dims)]

    @staticmethod
    def messages(caplog):
        return [r.getMessage() for r in caplog.records if r.name == "trajconstrain"]

    @pytest.mark.parametrize("dims, path", [((4, 4, 4), "qmc"), ((5, 13), "mc")], ids=["64-cells", "65-cells"])
    def test_probability(self, dims, path, caplog):
        # every complement wanted: 4 x 4 x 4 = 64 cells, at the cap; 5 x 13 = 65, one over
        dim = max(dims)
        td = self.density(dim, len(dims), 0)
        cs = ConstraintSet(self.gates(dims, dim), "disjunct")
        if path == "qmc":
            lo, _, _ = mvn._product_cells([c.region for c in cs.constraints], [[False] * len(dims)])
            assert lo.shape[0] == 64
        with caplog.at_level(logging.INFO, logger="trajconstrain"):
            ctd, _ = constrain_density(td, cs, 2_000, 1)
        assert ctd.pair_info[td.pmf.pairs[0]].path == path
        over = ["1 of 1 pairs settled by Monte Carlo instead of QMC (over 64 cells: 1)"]
        assert self.messages(caplog) == ([] if path == "qmc" else over)

    @pytest.mark.parametrize("dims, path", [((7, 8, 2), "lattice"), ((8, 7, 2), "mc")], ids=["64-cells", "65-cells"])
    def test_view(self, dims, path, caplog):
        # "first to hold" sides: 1 + 7 + 7 x 8 = 64 cells, at the cap; 1 + 8 + 8 x 7 = 65, one over
        td = self.density(8, 3, 1)
        cs = ConstraintSet(self.gates(dims, 8), "disjunct")
        ctd, _ = constrain_density(td, cs, 2_000, 1)
        assert ctd.pair_info[(0, 2)].path == "mc"  # its complements are 7 x 8 x 2 = 112 cells
        if path == "lattice":
            lo, _, _ = engine._view_cells([c.region for c in cs.constraints], "disjunct")
            assert lo.shape[0] == 64
        with caplog.at_level(logging.INFO, logger="trajconstrain"):
            mm = constrained_marginals(ctd, 2_000, 2)
        assert mm.view_paths == {(0, 2): path} and mm.n_accepted > 0
        over = ["1 of 1 pairs' views drawn by Monte Carlo instead of the lattice (over 64 cells: 1)"]
        assert self.messages(caplog) == ([] if path == "lattice" else over)


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
        assert list(seeds.values()) == [engine._seed(9, k) for k in range(3)]
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
        solo = constrain_bernoulli(alias, cs, 20_000, rng_seed=engine._seed(4, 1))
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
                        td.conditionals[j], pair, items, budget, engine._seed(seeds[id(td)], j, 0), [not flip] * len(items)
                    )
                    assert info.spatial_prob == (1.0 - p if flip else p)
                    assert info.spatial_se == se
                    assert (info.path in ("mc", "qmc")) == (kind != "exact") == (info.spatial_se > 0.0)
                    paths.add(info.path)
        # single-box regions only: every pair that the 1-D bounds and the closed form leave is QMC
        assert paths == {"no support", "pinned", "closed_form", "qmc"}

    @staticmethod
    def alone_equals_batch(mode, gates):
        """A PMBM's pairs alive at two or more of ``gates`` are settled in
        closed form and get the same bits in its batch as alone; returns how
        many were compared."""
        rng = np.random.default_rng(31)
        window = TimeWindow(0, 4)
        tracks = tuple(BernoulliTrajectory(r, random_density(rng, window, 1)) for r in (0.9, 0.6, 0.4))
        m = PmbmDensity(
            PppTrajectory(1.5, random_density(rng, window, 1)),
            (GlobalHypothesis(0.5, tracks[:2]), GlobalHypothesis(0.5, tracks)),
        )
        cs = ConstraintSet(gates, mode)
        out = constrain_pmbm(m, cs, 2_000, rng_seed=5)
        side = "inside" if mode == "conjunct" else "complement"
        compared = 0
        for src, c in [(m.ppp.density, out.ppp)] + [(t.density, tc) for t, tc in zip(tracks, out.hypotheses[1].tracks)]:
            for pair, info in c.density.pair_info.items():
                if len(info.active) < 2:
                    continue
                assert info.path == "closed_form" and info.spatial_se == 0.0
                entries = [(gates[i].time, gates[i].region, side) for i in info.active]
                p, se = mvn.region_probability(src.conditional(pair), pair, entries, 2_000, 0)
                assert (p if mode == "conjunct" else 1.0 - p, se) == (info.spatial_prob, info.spatial_se)
                compared += len(info.active) == len(gates)
        return compared

    @pytest.mark.parametrize("mode", ["conjunct", "disjunct"])
    def test_closed_form_pair_alone_equals_its_batch(self, mode):
        """A pair settled in closed form on two correlated coordinates gets
        the same bits in a PMBM's batch as alone: no reduction runs across
        the pairs of a batch."""
        gates = [Constraint(1, StateRegion.box([(-1.0, 1.5)])), Constraint(3, StateRegion.box([(-0.5, 2.0)]))]
        assert self.alone_equals_batch(mode, gates) >= 10

    @pytest.mark.parametrize("mode", ["conjunct", "disjunct"])
    def test_three_coordinate_pair_alone_equals_its_batch(self, mode):
        """Likewise on three correlated coordinates (the trivariate normal),
        beside two-coordinate pairs of the same batch."""
        gates = [
            Constraint(1, StateRegion.box([(-1.0, 1.5)])),
            Constraint(2, StateRegion.box([(-2.0, 0.5)])),
            Constraint(3, StateRegion.box([(-0.5, 2.0)])),
        ]
        assert self.alone_equals_batch(mode, gates) >= 10

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

    def test_only_pair_meeting_a_constraint_time_has_no_mass(self):
        """Support under the constraints needs a pair that meets a
        constraint time with positive mass: without one, constrain_density
        raises, and a Bernoulli, a PPP or a PMBM slot constrains to 0."""
        massless = std_density([(0, 1), (3, 4)], [1.0, 0.0])
        cs = ConstraintSet([Constraint(4, HALF_LINE)], "conjunct")
        assert [bool(active_indices(cs, *pair)) for pair in massless.pmf.pairs] == [False, True]
        zero = engine.ConstraintReport(0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ZeroSupportError):
            constrain_density(massless, cs, 2_000)
        bern = constrain_bernoulli(BernoulliTrajectory(0.8, massless), cs, 2_000)
        ppp = constrain_ppp(PppTrajectory(3.0, massless), cs, 2_000)
        assert bern.r == 0.0 and ppp.mu == 0.0 and bern.report == ppp.report == zero
        assert bern.density.degenerate and ppp.density.pmf is None
        track = BernoulliTrajectory(0.7, std_density([(2, 4)], [1.0]))
        m = PmbmDensity(
            PppTrajectory(2.0, std_density([(4, 5)], [1.0])),
            (GlobalHypothesis(1.0, (track, BernoulliTrajectory(0.8, massless))),),
        )
        out = constrain_pmbm(m, cs, 2_000, rng_seed=2)
        slot = out.hypotheses[0].tracks[1]
        assert slot.r == 0.0 and slot.report == zero and slot.density.pmf is None
        assert out.hypotheses[0].tracks[0].r > 0.0 and out.ppp.mu > 0.0
