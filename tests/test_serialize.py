import json

import numpy as np
import pytest

from trajconstrain import (
    BernoulliTrajectory,
    GlobalHypothesis,
    PmbmDensity,
    PppTrajectory,
    TimeWindow,
    Trajectory,
)
from trajconstrain.scenario import Measurement, Scenario
from trajconstrain.serialize import (
    pmbm_from_json,
    pmbm_to_json,
    scenario_from_json,
    scenario_to_json,
)

from conftest import random_density


def random_pmbm(rng):
    ppp = PppTrajectory(float(rng.uniform(0.5, 3.0)), random_density(rng, dim=2))
    tracks = tuple(
        BernoulliTrajectory(float(rng.uniform(0.1, 0.9)), random_density(rng, dim=2))
        for _ in range(3)
    )
    return PmbmDensity(
        ppp,
        (GlobalHypothesis(0.25, tracks[:2]), GlobalHypothesis(0.75, tracks[1:])),
    )


def assert_density_close(a, b, tol=1e-12):
    assert a.pmf.pairs == b.pmf.pairs
    np.testing.assert_allclose(a.pmf.probs, b.pmf.probs, rtol=0, atol=tol)
    for ga, gb in zip(a.conditionals, b.conditionals):
        assert ga.dim == gb.dim
        np.testing.assert_allclose(ga.mean, gb.mean, rtol=0, atol=tol)
        np.testing.assert_allclose(ga.cov, gb.cov, rtol=0, atol=tol)


class TestPmbmRoundTrip:
    def test_round_trip(self, rng):
        m = random_pmbm(rng)
        back = pmbm_from_json(pmbm_to_json(m))
        assert back.ppp.mu == pytest.approx(m.ppp.mu, abs=1e-12)
        assert_density_close(back.ppp.density, m.ppp.density)
        assert len(back.hypotheses) == len(m.hypotheses)
        for ha, hb in zip(m.hypotheses, back.hypotheses):
            assert hb.weight == pytest.approx(ha.weight, abs=1e-12)
            assert len(ha.tracks) == len(hb.tracks)
            for ta, tb in zip(ha.tracks, hb.tracks):
                assert tb.r == pytest.approx(ta.r, abs=1e-12)
                assert_density_close(ta.density, tb.density)

    def test_json_is_stable(self, rng):
        m = random_pmbm(rng)
        s = pmbm_to_json(m)
        assert pmbm_to_json(pmbm_from_json(s)) == s

    def test_schema_mismatch(self):
        with pytest.raises(ValueError):
            pmbm_from_json('{"schema": "something-else"}')

    @pytest.mark.parametrize("field", ["mu", "weight", "prob", "mean", "cov"])
    def test_nan_token_rejected(self, rng, field):
        # Python's json reads a bare NaN token as a float
        s = pmbm_to_json(random_pmbm(rng))
        d = json.loads(s)
        density = d["ppp"]["density"]
        if field == "mu":
            d["ppp"]["mu"] = "NaN"
        elif field == "weight":
            d["hypotheses"][0]["weight"] = "NaN"
        elif field == "prob":
            density["pmf"][0]["prob"] = "NaN"
        else:
            density["conditionals"][0][field][0] = "NaN" if field == "mean" else ["NaN"] * len(density["conditionals"][0]["cov"][0])
        text = json.dumps(d).replace('"NaN"', "NaN")
        assert "NaN" in text
        with pytest.raises(ValueError):
            pmbm_from_json(text)


class TestScenarioRoundTrip:
    def make(self, rng):
        truth = [
            Trajectory(0, 3, rng.standard_normal((4, 2))),
            Trajectory(2, 2, rng.standard_normal((1, 2))),
        ]
        measurements = {
            0: [Measurement(0, rng.standard_normal(2), 0)],
            1: [
                Measurement(1, rng.standard_normal(2), None),
                Measurement(1, rng.standard_normal(2), 1),
            ],
        }
        return Scenario(TimeWindow(0, 3), truth, measurements)

    def test_round_trip(self, rng):
        sc = self.make(rng)
        back = scenario_from_json(scenario_to_json(sc))
        assert back.window == sc.window
        assert len(back.truth) == len(sc.truth)
        for ta, tb in zip(sc.truth, back.truth):
            assert (ta.birth, ta.death) == (tb.birth, tb.death)
            np.testing.assert_allclose(ta.states, tb.states, rtol=0, atol=1e-12)
        assert set(back.measurements) == set(sc.measurements)
        for k in sc.measurements:
            for ma, mb in zip(sc.measurements[k], back.measurements[k]):
                assert mb.time == k and mb.source == ma.source
                np.testing.assert_allclose(ma.value, mb.value, rtol=0, atol=1e-12)

    def test_json_is_stable(self, rng):
        sc = self.make(rng)
        s = scenario_to_json(sc)
        assert scenario_to_json(scenario_from_json(s)) == s

    def test_schema_mismatch(self):
        with pytest.raises(ValueError):
            scenario_from_json('{"schema": "nope"}')
