import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import chi2, poisson

from trajconstrain import (
    BernoulliTrajectory,
    BirthDeathPmf,
    GaussianSequence,
    GlobalHypothesis,
    PmbmDensity,
    PppTrajectory,
    TrajectoryDensity,
    sample_bernoulli,
    sample_pmbm,
    sample_ppp,
    validate,
)

from conftest import random_density


def point_density(value=0.0):
    gs = GaussianSequence(np.array([value]), np.zeros((1, 1)), 1)
    return TrajectoryDensity(BirthDeathPmf(((0, 0),), np.array([1.0])), (gs,))


class TestValidation:
    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            BernoulliTrajectory(1.2, point_density())
        with pytest.raises(ValueError):
            BernoulliTrajectory(-0.1, point_density())

    def test_mu_nonpositive(self):
        with pytest.raises(ValueError):
            PppTrajectory(0.0, point_density())

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_mu_non_finite(self, mu):
        with pytest.raises(ValueError):
            PppTrajectory(mu, point_density())

    def test_nan_hypothesis_weight(self):
        with pytest.raises(ValueError):
            GlobalHypothesis(math.nan, ())

    def test_hypothesis_weights_must_sum_to_one(self):
        ppp = PppTrajectory(1.0, point_density())
        hyps = (GlobalHypothesis(0.6, ()), GlobalHypothesis(0.6, ()))
        with pytest.raises(ValueError):
            PmbmDensity(ppp, hyps)

    def test_mixed_dims_rejected(self, rng):
        ppp = PppTrajectory(1.0, point_density())
        track = BernoulliTrajectory(0.5, random_density(rng, dim=2))
        with pytest.raises(ValueError):
            PmbmDensity(ppp, (GlobalHypothesis(1.0, (track,)),))


class TestSampleBernoulli:
    def test_r_zero_always_empty(self, rng):
        b = BernoulliTrajectory(0.0, random_density(rng))
        assert all(sample_bernoulli(b, rng_seed=s) == [] for s in range(50))

    def test_r_one_always_single(self, rng):
        b = BernoulliTrajectory(1.0, random_density(rng))
        assert all(len(sample_bernoulli(b, rng_seed=s)) == 1 for s in range(50))

    def test_existence_frequency(self, rng):
        b = BernoulliTrajectory(0.3, random_density(rng))
        n = 20_000
        hits = sum(bool(sample_bernoulli(b, rng_seed=s)) for s in range(n))
        se = math.sqrt(0.3 * 0.7 / n)
        assert abs(hits / n - 0.3) <= 4 * se

    def test_deterministic(self, rng):
        b = BernoulliTrajectory(0.9, random_density(rng))
        out1 = sample_bernoulli(b, rng_seed=77)
        out2 = sample_bernoulli(b, rng_seed=77)
        assert [t.birth for t in out1] == [t.birth for t in out2]
        for t1, t2 in zip(out1, out2):
            np.testing.assert_array_equal(t1.states, t2.states)


class TestSamplePpp:
    def test_cardinality_chi_square(self):
        # goodness of fit of the set cardinality against Poisson(mu)
        mu = 2.5
        p = PppTrajectory(mu, point_density())
        n = 100_000
        counts = np.bincount(
            [len(sample_ppp(p, rng_seed=s)) for s in range(n)], minlength=12
        )
        # bins 0..9 plus a tail bin
        probs = poisson.pmf(np.arange(10), mu)
        expected = np.append(probs, 1.0 - probs.sum()) * n
        observed = np.append(counts[:10], counts[10:].sum())
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(1 - 1e-3, df=len(expected) - 1)

    def test_pair_membership(self, rng):
        td = random_density(rng)
        p = PppTrajectory(3.0, td)
        support = set(td.pmf.pairs)
        for s in range(30):
            for t in sample_ppp(p, rng_seed=s):
                assert (t.birth, t.death) in support


class TestSamplePmbm:
    def make(self, rng, mu=1.0, rs=(0.4, 0.9)):
        ppp = PppTrajectory(mu, random_density(rng, dim=1))
        tracks = tuple(BernoulliTrajectory(r, random_density(rng, dim=1)) for r in rs)
        hyps = (
            GlobalHypothesis(0.7, tracks[:1]),
            GlobalHypothesis(0.3, tracks),
        )
        return PmbmDensity(ppp, hyps)

    def test_expected_cardinality_formula(self, rng):
        m = self.make(rng, mu=1.5, rs=(0.4, 0.9))
        expected = 1.5 + 0.7 * 0.4 + 0.3 * (0.4 + 0.9)
        assert m.expected_cardinality() == pytest.approx(expected)

    def test_empirical_cardinality(self, rng):
        m = self.make(rng)
        n = 30_000
        sizes = np.array([len(sample_pmbm(m, rng_seed=s)) for s in range(n)])
        se = sizes.std(ddof=1) / math.sqrt(n)
        assert abs(sizes.mean() - m.expected_cardinality()) <= 4 * se

    def test_validate_clean(self, rng):
        assert validate(self.make(rng)) == []


class TestValidateReport:
    def test_flags_bad_weight_sum(self, rng):
        m = SimpleNamespace(
            ppp=SimpleNamespace(mu=1.0, density=random_density(rng)),
            hypotheses=(SimpleNamespace(weight=0.5, tracks=()),),
        )
        report = validate(m)
        assert any("weights sum" in line for line in report)

    def test_flags_negative_mu_and_bad_r(self, rng):
        bad_track = SimpleNamespace(r=1.5, density=random_density(rng))
        m = SimpleNamespace(
            ppp=SimpleNamespace(mu=-0.2, density=random_density(rng)),
            hypotheses=(SimpleNamespace(weight=1.0, tracks=(bad_track,)),),
        )
        report = validate(m)
        assert any("mu=-0.2" in line for line in report)
        assert any("r=1.5" in line for line in report)

    def test_flags_unnormalized_pmf(self, rng):
        td = random_density(rng)
        bad_pmf = SimpleNamespace(probs=td.pmf.probs * 0.9, pairs=td.pmf.pairs)
        bad_density = SimpleNamespace(pmf=bad_pmf, conditionals=td.conditionals)
        m = SimpleNamespace(
            ppp=SimpleNamespace(mu=1.0, density=bad_density),
            hypotheses=(SimpleNamespace(weight=1.0, tracks=()),),
        )
        assert any("pmf sums" in line for line in validate(m))
