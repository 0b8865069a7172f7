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
from trajconstrain import engine
from trajconstrain.engine import MAX_ACTIVE_FOR_PARTITIONS
from trajconstrain.errors import (
    DegenerateDensityError,
    DimensionMismatchError,
    PartitionBudgetError,
    ZeroSupportError,
)

from conftest import random_constraint_set, random_density

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
        assert out.degenerate and out.r == 0.0
        with pytest.raises(DegenerateDensityError):
            ctd.sample_cloud()

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
        n_acc = ctd._cloud_cache.strata[(0, 0)].states.shape[0]
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


class TestRaoBlackwellMarginals:
    @pytest.mark.parametrize(
        "mode, with_full",
        [("conjunct", True), ("disjunct", True), ("disjunct", False)],
    )
    def test_matches_full_sequence_rejection(self, mode, with_full):
        td = degenerate_window_density()
        items = [Constraint(1, SPLIT_GATE), Constraint(3, POS_VEL_GATE)]
        if with_full:
            items.append(Constraint(4, FULL_2D))
        cs = ConstraintSet(items, mode)
        ctd, _ = constrain_density(td, cs, 100_000, rng_seed=1)
        mm = constrained_marginals(ctd, mc_budget=200_000, rng_seed=2)
        bf = brute_force_step_moments(td, cs, 400_000, seed=3)
        assert mm.times == sorted(bf)
        for k, t in enumerate(mm.times):
            mean, mean_se, cov, cov_se, n_t = bf[t]
            # the estimate's own error is at most that of ess plain draws
            inflate = math.sqrt(1.0 + n_t / mm.ess[k])
            for got, want, se in ((mm.means[k], mean, mean_se), (mm.covs[k], cov, cov_se)):
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
        drawn = sum(max(math.ceil(50_000 * p), 2) for p in ctd.pmf.probs)
        assert mm.acceptance_rate == pytest.approx(mm.n_accepted / drawn, rel=1e-12)


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

    @pytest.mark.parametrize("via", ["sample_cloud", "constrained_marginals"])
    def test_dropped_strata_logged(self, via, caplog):
        ctd = self.density()
        with caplog.at_level(logging.WARNING, logger="trajconstrain"):
            if via == "sample_cloud":
                assert set(ctd.sample_cloud(10_000, rng_seed=1).strata) == {(0, 0)}
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
        # identical to constraining each component with the same seed
        solo_ppp = constrain_ppp(ppp, cs, 20_000, rng_seed=9)
        assert out.ppp.mu == solo_ppp.mu
        assert out.ppp.report == solo_ppp.report
        for hyp, src in zip(out.hypotheses, m.hypotheses):
            for track_c, track in zip(hyp.tracks, src.tracks):
                solo = constrain_bernoulli(track, cs, 20_000, rng_seed=9)
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
        inner = engine.constrain_density

        def counting(td, *args, **kwargs):
            calls.append(id(td))
            return inner(td, *args, **kwargs)

        monkeypatch.setattr(engine, "constrain_density", counting)
        out = constrain_pmbm(m, cs, 20_000, rng_seed=4)
        assert sorted(calls) == sorted({id(m.ppp.density), id(shared.density), id(other.density)})
        slots = [(t, tc) for h, hc in zip(m.hypotheses, out.hypotheses) for t, tc in zip(h.tracks, hc.tracks)]
        for t, tc in slots:
            assert tc.r == t.r * tc.report.joint
            first = next(c for s, c in slots if s.density is t.density)
            assert tc.density is first.density and tc.report == first.report
        monkeypatch.undo()
        solo = constrain_bernoulli(alias, cs, 20_000, rng_seed=4)
        assert out.hypotheses[2].tracks[1].r == solo.r

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
        assert late_c.r == 0.0 and late_c.degenerate and late_c.density.pmf is None
        assert late_c.report == engine.ConstraintReport(0.0, 0.0, 0.0, 0.0, 0.0)
        for hc, h in zip(out.hypotheses, m.hypotheses):
            for tc, t in zip(hc.tracks, h.tracks):
                if t is not late:
                    solo = constrain_bernoulli(t, cs, 20_000, rng_seed=2)
                    assert tc.r == solo.r > 0.0 and tc.report == solo.report
        assert out.ppp.mu == constrain_ppp(m.ppp, cs, 20_000, rng_seed=2).mu
        assert constrain_ppp(PppTrajectory(3.0, late.density), cs).mu == 0.0
