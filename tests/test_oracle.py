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
    constrain_pmbm,
    constrain_ppp,
)
from trajconstrain.engine import ConstrainedBernoulli
from trajconstrain.oracle import oracle_bernoulli, oracle_pmbm, oracle_ppp

from conftest import random_constraint_set, random_density

HALF_LINE = StateRegion.box([(0, None)])


def std_density(pairs, probs):
    conds = tuple(
        GaussianSequence(np.zeros(e - b + 1), np.eye(e - b + 1), 1) for b, e in pairs
    )
    return TrajectoryDensity(BirthDeathPmf(tuple(pairs), np.asarray(probs, float)), conds)


class TestOracleBernoulli:
    def test_identity_constraint_passes(self, rng):
        td = random_density(rng, TimeWindow(0, 2), 1)
        cs = ConstraintSet(
            [Constraint(t, StateRegion.full_space(1)) for t in range(3)], "disjunct"
        )
        b = BernoulliTrajectory(0.7, td)
        out = constrain_bernoulli(b, cs)
        assert out.r == pytest.approx(0.7)
        rep = oracle_bernoulli(b, out, cs, n=50_000, rng_seed=1)
        assert rep.passed, rep.to_table()

    def test_known_halving(self):
        # half-line at the only live step halves both alive mass and r
        td = std_density([(0, 0)], [1.0])
        cs = ConstraintSet([Constraint(0, HALF_LINE)], "conjunct")
        b = BernoulliTrajectory(0.8, td)
        out = constrain_bernoulli(b, cs)
        assert out.r == pytest.approx(0.4)
        rep = oracle_bernoulli(b, out, cs, n=100_000, rng_seed=2)
        assert rep.passed, rep.to_table()
        names = [e.name for e in rep.entries]
        assert "r_constrained" in names

    def test_random_instances(self, rng):
        for trial in range(5):
            td = random_density(rng, TimeWindow(0, 3), 1)
            cs = random_constraint_set(rng, TimeWindow(0, 3), 1)
            b = BernoulliTrajectory(float(rng.uniform(0.3, 0.95)), td)
            out = constrain_bernoulli(b, cs, 50_000, rng_seed=trial)
            rep = oracle_bernoulli(b, out, cs, n=100_000, rng_seed=100 + trial)
            assert rep.n_failed == 0, rep.to_table()

    def test_zero_acceptance_rule(self):
        # impossible region: zero accepted samples agree with analytic zero
        gs = GaussianSequence(np.array([5.0]), np.zeros((1, 1)), 1)
        td = TrajectoryDensity(BirthDeathPmf(((0, 0),), np.array([1.0])), (gs,))
        cs = ConstraintSet([Constraint(0, StateRegion.box([(0, 1)]))], "conjunct")
        b = BernoulliTrajectory(0.9, td)
        out = constrain_bernoulli(b, cs)
        assert out.r == 0.0
        rep = oracle_bernoulli(b, out, cs, n=10_000, rng_seed=3)
        assert rep.passed, rep.to_table()

    def test_detects_corrupted_scale(self):
        td = std_density([(0, 0)], [1.0])
        cs = ConstraintSet([Constraint(0, HALF_LINE)], "conjunct")
        b = BernoulliTrajectory(0.8, td)
        good = constrain_bernoulli(b, cs)
        bad = ConstrainedBernoulli(good.r * 1.2, good.density, good.report)
        rep = oracle_bernoulli(b, bad, cs, n=200_000, rng_seed=4)
        assert not rep.passed
        assert any(e.name == "r_constrained" and not e.passed for e in rep.entries)

    def test_report_serialization(self, rng):
        td = random_density(rng, TimeWindow(0, 2), 1)
        cs = random_constraint_set(rng, TimeWindow(0, 2), 1)
        b = BernoulliTrajectory(0.6, td)
        out = constrain_bernoulli(b, cs)
        rep = oracle_bernoulli(b, out, cs, n=20_000, rng_seed=5)
        d = rep.to_dict()
        assert d["passed"] == rep.passed
        assert len(d["entries"]) == len(rep.entries)
        assert "result" in rep.to_table().splitlines()[0]


class TestOraclePpp:
    def test_known_thinning(self):
        td = std_density([(0, 0), (1, 1)], [0.5, 0.5])
        cs = ConstraintSet([Constraint(0, HALF_LINE)], "conjunct")
        p = PppTrajectory(4.0, td)
        out = constrain_ppp(p, cs)
        assert out.mu == pytest.approx(1.0)
        rep = oracle_ppp(p, out, cs, n_runs=20_000, rng_seed=6)
        assert rep.passed, rep.to_table()
        names = {e.name for e in rep.entries}
        assert {"mu_constrained", "dispersion(var/mean)", "corr(surviving, removed)"} <= names

    def test_random_instance(self, rng):
        td = random_density(rng, TimeWindow(0, 3), 2)
        cs = random_constraint_set(rng, TimeWindow(0, 3), 2)
        p = PppTrajectory(2.5, td)
        out = constrain_ppp(p, cs, 50_000, rng_seed=7)
        rep = oracle_ppp(p, out, cs, n_runs=10_000, rng_seed=8)
        assert rep.n_failed == 0, rep.to_table()

    def test_detects_corrupted_mu(self):
        td = std_density([(0, 0)], [1.0])
        cs = ConstraintSet([Constraint(0, HALF_LINE)], "conjunct")
        p = PppTrajectory(4.0, td)
        good = constrain_ppp(p, cs)
        bad = type(good)(good.mu * 1.3, good.density, good.report)
        rep = oracle_ppp(p, bad, cs, n_runs=20_000, rng_seed=9)
        assert any(e.name == "mu_constrained" and not e.passed for e in rep.entries)


class TestOraclePmbm:
    def test_componentwise_pass(self, rng):
        ppp = PppTrajectory(1.5, random_density(rng, TimeWindow(0, 2), 1))
        tracks = tuple(
            BernoulliTrajectory(r, random_density(rng, TimeWindow(0, 2), 1))
            for r in (0.4, 0.85)
        )
        m = PmbmDensity(
            ppp, (GlobalHypothesis(0.5, tracks[:1]), GlobalHypothesis(0.5, tracks))
        )
        cs = random_constraint_set(rng, TimeWindow(0, 2), 1)
        out = constrain_pmbm(m, cs, 50_000, rng_seed=10)
        rep = oracle_pmbm(m, out, cs, n=60_000, rng_seed=11)
        assert rep.passed, rep.to_table()
        names = {e.name for e in rep.entries}
        assert "expected_cardinality" in names
        assert any(name.startswith("ppp.") for name in names)
        assert any(name.startswith("hyp[1].track[1].") for name in names)

    @staticmethod
    def mc_pmbm():
        # correlated 2-D states under a 2-D box: every component is settled by Monte Carlo
        rng = np.random.default_rng(12)
        window = TimeWindow(0, 2)
        tracks = tuple(BernoulliTrajectory(r, random_density(rng, window, 2)) for r in (0.9, 0.8))
        m = PmbmDensity(
            PppTrajectory(1.0, random_density(rng, window, 2)),
            (GlobalHypothesis(0.4, tracks[:1]), GlobalHypothesis(0.6, tracks)),
        )
        return m, ConstraintSet([Constraint(1, StateRegion.box([(-1.5, 1.5), (-1.5, 1.5)]))], "conjunct")

    @staticmethod
    def cardinality_entry(m, out, cs, n):
        [entry] = [e for e in oracle_pmbm(m, out, cs, n=n, rng_seed=13).entries if e.name == "expected_cardinality"]
        sums = np.array([sum(t.r for t in h.tracks) for h in out.hypotheses])
        w = np.array([h.weight for h in out.hypotheses])
        bern = sum(h.weight * sum(t.r * (1.0 - t.r) for t in h.tracks) for h in out.hypotheses)
        var_one = out.ppp.mu + bern + float(np.sum(w * (sums - np.sum(w * sums)) ** 2))
        engine_se = m.ppp.mu * out.ppp.report.joint_se + sum(
            h.weight * sum(t.r * tc.report.joint_se for t, tc in zip(h.tracks, hc.tracks))
            for h, hc in zip(m.hypotheses, out.hypotheses)
        )
        return entry, var_one / min(n, 50_000), engine_se

    def test_cardinality_se_includes_engine_error(self):
        m, cs = self.mc_pmbm()
        out = constrain_pmbm(m, cs, 20_000, rng_seed=3)
        entry, sampling_var, engine_se = self.cardinality_entry(m, out, cs, 20_000)
        assert engine_se > 0.0
        assert entry.se**2 >= (sampling_var + engine_se**2) * (1.0 - 1e-12)
        # every component exact: the engine adds nothing
        tracks = tuple(BernoulliTrajectory(r, std_density([(0, 0), (0, 1)], [0.5, 0.5])) for r in (0.9, 0.8))
        m = PmbmDensity(PppTrajectory(1.0, std_density([(0, 1)], [1.0])), (GlobalHypothesis(1.0, tracks),))
        cs = ConstraintSet([Constraint(0, HALF_LINE)], "conjunct")
        out = constrain_pmbm(m, cs, 20_000, rng_seed=3)
        entry, sampling_var, engine_se = self.cardinality_entry(m, out, cs, 20_000)
        assert engine_se == 0.0
        assert entry.se == pytest.approx(math.sqrt(sampling_var), rel=1e-12)

    def test_cardinality_detects_corrupted_track(self):
        m, cs = self.mc_pmbm()
        out = constrain_pmbm(m, cs, 20_000, rng_seed=3)
        good = out.hypotheses[1].tracks[1]
        out.hypotheses[1].tracks[1] = ConstrainedBernoulli(good.r * 1.3, good.density, good.report)
        entry, _, engine_se = self.cardinality_entry(m, out, cs, 50_000)
        assert engine_se > 0.0
        assert not entry.passed, entry
