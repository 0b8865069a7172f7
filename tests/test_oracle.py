import dataclasses
import json
import math
import tracemalloc

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
)
from trajconstrain import engine, gaussian, oracle
from trajconstrain.core import active_indices, satisfies_batch, time_window_constraints
from trajconstrain.engine import ConstrainedBernoulli
from trajconstrain.errors import LowAcceptanceError
from trajconstrain.oracle import (
    _accepted,
    _augmented_gram,
    _entry,
    _merge,
    _Screen,
    _StepMoments,
    oracle_bernoulli,
    oracle_pmbm,
    oracle_ppp,
)
from trajconstrain.scenario import MotionModel, SensorModel, fit_bernoulli_track

from conftest import (
    eager_accepted,
    random_constraint_set,
    random_density,
    random_gaussian_sequence,
    random_region,
    row_moments,
    screened_rows,
    whole_rows,
)

HALF_LINE = StateRegion.box([(0, None)])
HALF_PLANE = StateRegion.box([(0, None), None])


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

    def test_moment_check_skipped_when_every_view_drops(self, monkeypatch):
        # two far boxes, met with probability ~7e-4: the oracle accepts about
        # 130 of its draws, but the views' Monte Carlo draws (2,000 here)
        # accept none, so the moments are not checked and the counts are
        td = std_density([(0, 0)], [1.0])
        cs = ConstraintSet([Constraint(0, StateRegion.boxes([[(3.0, 3.1)], [(3.2, 3.4)]]))], "conjunct")
        b = BernoulliTrajectory(0.9, td)
        out = constrain_bernoulli(b, cs, 200_000, 1)
        monkeypatch.setattr(oracle, "_MOMENT_BUDGET", 2_000)
        seed = 3
        with pytest.raises(LowAcceptanceError):
            constrained_marginals(out.density, 2_000, seed + 1)  # the oracle's view stream
        rep = oracle_bernoulli(b, out, cs, n=200_000, rng_seed=seed)
        assert rep.passed, rep.to_table()
        assert [e.name for e in rep.entries] == ["r_constrained", "pmf[(0, 0)]"]

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

    def test_report_json_is_that_of_asdict(self, rng):
        td = random_density(rng, TimeWindow(0, 2), 1)
        cs = random_constraint_set(rng, TimeWindow(0, 2), 1)
        b = BernoulliTrajectory(0.6, td)
        good = constrain_bernoulli(b, cs)
        bad = ConstrainedBernoulli(good.r * 1.5, good.density, good.report)
        rep = oracle_bernoulli(b, bad, cs, n=20_000, rng_seed=5)
        rep.entries.append(_entry("exact", 0.25, 0.5, 0.0, rep.z_threshold, rep.n))
        assert math.isinf(rep.entries[-1].z) and not rep.passed
        d = rep.to_dict()
        old = {
            "n": rep.n,
            "seed": rep.seed,
            "z_threshold": rep.z_threshold,
            "passed": rep.passed,
            "entries": [dataclasses.asdict(e) for e in rep.entries],
        }
        assert json.dumps(d, indent=2, sort_keys=True) == json.dumps(old, indent=2, sort_keys=True)
        d["entries"][0]["z"] = None  # a copy: the report is unchanged
        assert rep.entries[0].z is not None


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


class TestDrawCounts:
    """Every oracle needs at least 2 draws, the minimum the CLI enforces."""

    @pytest.mark.parametrize("n", [0, 1, -5])
    @pytest.mark.parametrize("oracle", ["bernoulli", "ppp", "pmbm"])
    def test_below_two_rejected(self, oracle, n):
        td = std_density([(0, 0)], [1.0])
        cs = ConstraintSet([Constraint(0, HALF_LINE)], "conjunct")
        b, p = BernoulliTrajectory(0.5, td), PppTrajectory(1.0, td)
        m = PmbmDensity(p, (GlobalHypothesis(1.0, (b,)),))
        call = {
            "bernoulli": lambda: oracle_bernoulli(b, constrain_bernoulli(b, cs), cs, n),
            "ppp": lambda: oracle_ppp(p, constrain_ppp(p, cs), cs, n),
            "pmbm": lambda: oracle_pmbm(m, constrain_pmbm(m, cs), cs, n),
        }[oracle]
        with pytest.raises(ValueError, match="n_runs" if oracle == "ppp" else "n must"):
            call()


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
        # correlated 2-D states under a region of two 2-D boxes: every
        # component is settled by Monte Carlo
        rng = np.random.default_rng(12)
        window = TimeWindow(0, 2)
        tracks = tuple(BernoulliTrajectory(r, random_density(rng, window, 2)) for r in (0.9, 0.8))
        m = PmbmDensity(
            PppTrajectory(1.0, random_density(rng, window, 2)),
            (GlobalHypothesis(0.4, tracks[:1]), GlobalHypothesis(0.6, tracks)),
        )
        region = StateRegion.boxes([[(-1.5, 1.5), (-1.5, 1.5)], [(1.5, 3.0), (-1.5, 0.0)]])
        return m, ConstraintSet([Constraint(1, region)], "conjunct")

    @pytest.mark.parametrize("mode", ["conjunct", "disjunct"])
    def test_closed_form_pairs_pass(self, mode):
        # gates at two steps of correlated 1-D states: every pair alive at
        # both is settled in closed form, which the oracle then checks
        rng = np.random.default_rng(23)
        window = TimeWindow(0, 3)
        tracks = tuple(BernoulliTrajectory(r, random_density(rng, window, 1)) for r in (0.9, 0.7))
        m = PmbmDensity(
            PppTrajectory(1.2, random_density(rng, window, 1)),
            (GlobalHypothesis(0.3, tracks[:1]), GlobalHypothesis(0.7, tracks)),
        )
        gates = [Constraint(1, StateRegion.box([(-1.0, 1.0)])), Constraint(2, StateRegion.box([(-0.5, 1.5)]))]
        cs = ConstraintSet(gates, mode)
        out = constrain_pmbm(m, cs, 20_000, rng_seed=4)
        infos = [i for c in [out.ppp] + out.hypotheses[1].tracks for i in c.density.pair_info.values()]
        assert {i.path for i in infos if len(i.active) == 2} == {"closed_form"}
        rep = oracle_pmbm(m, out, cs, n=60_000, rng_seed=5)
        assert rep.passed, rep.to_table()

    @staticmethod
    def cardinality_entry(m, out, cs, n):
        [entry] = [e for e in oracle_pmbm(m, out, cs, n=n, rng_seed=13).entries if e.name == "expected_cardinality"]
        sums = np.array([sum(t.r for t in h.tracks) for h in out.hypotheses])
        w = np.array([h.weight for h in out.hypotheses])
        bern = sum(h.weight * sum(t.r * (1.0 - t.r) for t in h.tracks) for h in out.hypotheses)
        var_one = out.ppp.mu + bern + float(np.sum(w * (sums - np.sum(w * sums)) ** 2))
        # constrain_pmbm gives each distinct component its own stream, so the
        # engine term is a root sum of squares over components (tracks[0] sits
        # in both hypotheses: its slots add linearly within the component)
        components = {}
        for weight, src, constrained in [(m.ppp.mu, m.ppp.density, out.ppp)] + [
            (h.weight * t.r, t.density, tc)
            for h, hc in zip(m.hypotheses, out.hypotheses)
            for t, tc in zip(h.tracks, hc.tracks)
        ]:
            total, _ = components.get(id(src), (0.0, None))
            components[id(src)] = (total + weight, constrained.report.joint_se)
        engine_se = math.sqrt(sum((w * se) ** 2 for w, se in components.values()))
        return entry, var_one / min(n, 50_000), engine_se

    def test_cardinality_se_includes_engine_error(self):
        m, cs = self.mc_pmbm()
        out = constrain_pmbm(m, cs, 20_000, rng_seed=3)
        entry, sampling_var, engine_se = self.cardinality_entry(m, out, cs, 20_000)
        assert engine_se > 0.0
        assert entry.se == pytest.approx(math.sqrt(sampling_var + engine_se**2), rel=1e-12)
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

    def test_shared_track_checked_once(self, monkeypatch):
        rng = np.random.default_rng(19)
        window = TimeWindow(0, 2)
        shared, other = (BernoulliTrajectory(r, random_density(rng, window, 1)) for r in (0.7, 0.5))
        m = PmbmDensity(
            PppTrajectory(1.0, random_density(rng, window, 1)),
            (GlobalHypothesis(0.5, (shared,)), GlobalHypothesis(0.5, (other, shared))),
        )
        cs = ConstraintSet([Constraint(1, HALF_LINE)], "conjunct")
        out = constrain_pmbm(m, cs, 20_000, rng_seed=1)
        checked = []
        inner = oracle.oracle_bernoulli

        def counted(t, *args, **kwargs):
            checked.append(t)
            return inner(t, *args, **kwargs)

        monkeypatch.setattr(oracle, "oracle_bernoulli", counted)
        rep = oracle_pmbm(m, out, cs, n=20_000, rng_seed=2)
        assert rep.passed, rep.to_table()
        assert [id(t) for t in checked] == [id(shared), id(other)]
        names = [e.name for e in rep.entries]
        # each track is named after its first slot
        assert any(name.startswith("hyp[0].track[0].") for name in names)
        assert any(name.startswith("hyp[1].track[0].") for name in names)
        assert not any(name.startswith("hyp[1].track[1].") for name in names)


class TestStreaming:
    def test_merge_matches_numpy(self):
        rng = np.random.default_rng(14)
        x = rng.normal(3.0, 2.0, size=(5_000, 6))
        cuts = np.concatenate(([0, 1], np.sort(rng.choice(np.arange(2, 5_000), 20, replace=False)), [5_000]))
        n, mean, m2 = 0, np.zeros(6), np.zeros(6)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            chunk = x[lo:hi]
            c_mean = chunk.mean(axis=0)
            n, mean, m2 = _merge(n, mean, m2, chunk.shape[0], c_mean, ((chunk - c_mean) ** 2).sum(axis=0))
        assert n == x.shape[0]
        np.testing.assert_allclose(mean, np.mean(x, axis=0), rtol=1e-12)
        np.testing.assert_allclose(np.sqrt(m2 / (n - 1)), np.std(x, axis=0, ddof=1), rtol=1e-12)

    @staticmethod
    def reports(seed):
        rng = np.random.default_rng(seed)
        window = TimeWindow(0, 3)
        box = StateRegion.box([(-2.0, 2.5), (None, None)])
        cs = ConstraintSet([Constraint(1, box), Constraint(2, box)], "conjunct")
        b = BernoulliTrajectory(0.9, random_density(rng, window, 2))
        p = PppTrajectory(3.0, random_density(rng, window, 2))
        m = PmbmDensity(p, (GlobalHypothesis(0.7, (b,)), GlobalHypothesis(0.3, ())))
        out = constrain_pmbm(m, cs, 20_000, rng_seed=seed)
        return [
            oracle_bernoulli(b, out.hypotheses[0].tracks[0], cs, n=60_000, rng_seed=seed),
            oracle_ppp(p, out.ppp, cs, n_runs=5_000, rng_seed=seed),
            oracle_pmbm(m, out, cs, n=30_000, rng_seed=seed),
        ]

    def test_chunk_size_changes_nothing(self, monkeypatch):
        screened = []  # rows of each screening chunk, in call order

        def counted(*args):
            screened.append(args[2].shape[0])
            return satisfies_batch(*args)

        monkeypatch.setattr(oracle, "satisfies_batch", counted)
        whole = self.reports(15)
        n_whole = len(screened)
        monkeypatch.setattr(oracle, "DRAW_CHUNK", 1000)
        chunked = self.reports(15)
        # the oracle read the patched size: more, smaller chunks over the same rows
        assert max(screened[n_whole:]) == 1000 < max(screened[:n_whole])
        assert len(screened) - n_whole > n_whole
        assert sum(screened[n_whole:]) == sum(screened[:n_whole])
        assert any(e.name.startswith("mean[") for e in whole[0].entries)
        for a, b in zip(whole, chunked):
            assert [e.name for e in a.entries] == [e.name for e in b.entries]
            for ea, eb in zip(a.entries, b.entries):
                if ea.name.startswith("mean["):
                    # the per-step moments merge in another order: rounding only
                    assert eb.empirical == pytest.approx(ea.empirical, rel=1e-12)
                    assert eb.se == pytest.approx(ea.se, rel=1e-12)
                else:  # counts: the same draws up to rounding accept the same way
                    assert eb == ea

    def test_memory_is_bounded_by_the_chunk(self):
        # 2e5 draws of a 20-step, dim-2 sequence: one copy of all of them is 64 MB
        rng = np.random.default_rng(18)
        gs = random_gaussian_sequence(rng, (0, 19), 2)
        td = TrajectoryDensity(BirthDeathPmf(((0, 19),), np.array([1.0])), (gs,))
        box = StateRegion.box([(-1.0, 1.5), (None, None)])
        cs = ConstraintSet([Constraint(5, box), Constraint(12, box)], "conjunct")
        b = BernoulliTrajectory(1.0, td)
        out = constrain_bernoulli(b, cs, 20_000, rng_seed=1)
        tracemalloc.start()
        try:
            rep = oracle_bernoulli(b, out, cs, n=200_000, rng_seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert any(e.name.startswith("mean[") for e in rep.entries)
        assert peak < 16e6, peak / 1e6

    def test_memory_of_a_fitted_track_is_bounded_by_the_chunk(self):
        # 16 pairs of about 90 steps: the screens live until the tail draws,
        # each with its factor, so a chunk-sized array kept per pair would
        # add 16 of them; the dense joints are built before tracing
        b, cs = conjunct_cli_track()
        assert len(b.density.pmf.pairs) == 16
        out = constrain_bernoulli(b, cs, 20_000, rng_seed=1)
        for g in b.density.conditionals:
            assert g.cov.shape == (g.mean.size, g.mean.size)
        tracemalloc.start()
        try:
            rep = oracle_bernoulli(b, out, cs, n=200_000, rng_seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert any(e.name.startswith("mean[") for e in rep.entries)
        assert peak < 12e6, peak / 1e6

    @pytest.mark.parametrize("chunk", [None, 1000])
    @pytest.mark.parametrize("mode", ["conjunct", "disjunct"])
    def test_head_normals_are_one_draw_per_pair(self, monkeypatch, mode, chunk):
        """Pair by pair in pmf order, the head normals of a pair's chunks are
        one ``standard_normal((count, h))`` of its whole count, drawn after
        the multinomial, at any chunk size. A yielded block is valid only
        until the generator resumes, so each is copied first."""
        if chunk is not None:
            monkeypatch.setattr(oracle, "DRAW_CHUNK", chunk)
        td = random_density(np.random.default_rng(110), TimeWindow(0, 4), 2)
        gate = StateRegion.box([(-0.5, 1.0), None])
        other = StateRegion.box([(-1.0, None), (None, 0.8)])
        cs = ConstraintSet([Constraint(1, gate), Constraint(3, other)], mode)
        n = 30_000
        if chunk is not None:  # several chunks for some pair
            assert n * td.pmf.probs.max() > 2 * chunk
        for complete in (False, True):
            rng = np.random.default_rng(111)
            blocks, first = {}, None
            for pair, screen, z_head, _ in oracle._screened_chunks(td, n, rng, cs, complete):
                blocks.setdefault(pair, (screen.h, []))[1].append(z_head.copy())
                if first is None:
                    first = (z_head, z_head.copy())
            twin = np.random.default_rng(111)
            counts = twin.multinomial(n, td.pmf.probs).tolist()
            drawn = [(pair, c) for pair, c in zip(td.pmf.pairs, counts) if c and active_indices(cs, *pair)]
            assert list(blocks) == [pair for pair, _ in drawn] and len(drawn) > 2
            for pair, c in drawn:
                h, chunks = blocks[pair]
                np.testing.assert_array_equal(np.concatenate(chunks), twin.standard_normal((c, h)))
            assert rng.bit_generator.state == twin.bit_generator.state
            assert [len(chunks) for _, chunks in blocks.values()] == [-(-c // oracle.DRAW_CHUNK) for _, c in drawn]
            # the later chunks overwrote the first one in place
            assert not np.array_equal(*first)


def conjunct_cli_track():
    """A track fitted as the benchmark's CLI track is (100 steps, constant
    velocity with process noise, slack 3: 4 x 4 (birth, death) pairs), under
    three wide conjunct position gates."""
    rng, steps = np.random.default_rng(2027), 100
    f, q = np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[0.05 / 3.0, 0.025], [0.025, 0.05]])
    mm = MotionModel(f, q, 0.99, 0.0, np.array([0.0, 1.0]), np.diag([25.0, 1.0]))
    sm = SensorModel(np.array([[1.0, 0.0]]), np.array([[1.0]]), 0.9, 0.0, np.array([-1e3]), np.array([1e3]))
    x, truth = np.array([0.0, 1.0]) + np.array([5.0, 1.0]) * rng.standard_normal(2), []
    for _ in range(steps):
        truth.append(float(x[0]))
        x = f @ x + np.linalg.cholesky(q) @ rng.standard_normal(2)
    meas = [(k, [truth[k] + rng.standard_normal()]) for k in range(5, steps - 5) if rng.random() < 0.9]
    b = fit_bernoulli_track(meas, mm, sm, TimeWindow(0, steps - 1), 0.9, 3)
    gates = [Constraint(t, StateRegion.box([(truth[t] - 1.0, truth[t] + 1.0), None])) for t in (30, 50, 70)]
    return b, ConstraintSet(gates, "conjunct")


# The engine's probability math. The oracle shares none of it, so it runs
# with each of these raising, in ``engine`` and in ``gaussian``.
ENGINE_MATH = (
    "_accepted_y",
    "_given_y",
    "_pattern_batch",
    "marginal",
    "_bounded_cols",
    "_cell_probabilities",
    "_truncated_moments",
    "_lattice_pass",
)


class TestIndependence:
    def test_oracle_calls_no_engine_probability_math(self, monkeypatch):
        rng = np.random.default_rng(120)
        window = TimeWindow(0, 4)
        b = BernoulliTrajectory(0.9, random_density(rng, window, 2))
        p = PppTrajectory(3.0, random_density(rng, window, 2))
        m = PmbmDensity(p, (GlobalHypothesis(0.7, (b,)), GlobalHypothesis(0.3, ())))
        gate = StateRegion.box([(-0.5, 1.5), None])
        cs = ConstraintSet([Constraint(1, gate), Constraint(3, HALF_PLANE)], "conjunct")
        out = constrain_pmbm(m, cs, 20_000, rng_seed=5)

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"the oracle called {name}")

            return call

        for name in ENGINE_MATH:
            modules = [module for module in (engine, gaussian) if hasattr(module, name)]
            assert modules, name
            for module in modules:
                monkeypatch.setattr(module, name, forbidden(name))
        moments = _StepMoments(b.density)
        per_pair = _accepted(b.density, 50_000, np.random.default_rng(6), cs, moments, np.random.default_rng(7))
        assert sum(per_pair.values()) > 100 and moments.per_step(min_count=100)
        tc = out.hypotheses[0].tracks[0]
        assert oracle_bernoulli(b, tc, cs, n=50_000, rng_seed=8, check_moments=False).passed
        assert oracle_ppp(p, out.ppp, cs, n_runs=5_000, rng_seed=9).passed
        assert oracle_pmbm(m, out, cs, n=30_000, rng_seed=10).passed


def no_process_noise_density():
    """A fitted track with constant velocity and no process noise: every
    (birth, death) joint covariance has rank 2 (the initial state's)."""
    mm = MotionModel(
        np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros((2, 2)), 0.95, 0.2, np.array([0.0, 1.0]), np.diag([4.0, 1.0])
    )
    sm = SensorModel(np.array([[1.0, 0.0]]), np.array([[0.25]]), 0.9, 1.0, np.array([-50.0]), np.array([50.0]))
    return fit_bernoulli_track([(k, [1.1 * k]) for k in (3, 4, 6)], mm, sm, TimeWindow(0, 10), slack=2).density


class TestScreenedDraws:
    """The oracle draws the coordinates that the active constraints bound (the
    head) first, tests them, and reduces only the accepted rows, from the
    Gram matrix of their normals."""

    @pytest.mark.parametrize("case", ["correlated", "no_process_noise"])
    def test_full_space_keeps_every_row_with_the_conditional_law(self, case):
        if case == "correlated":
            pair = (0, 5)
            g = random_gaussian_sequence(np.random.default_rng(20), pair, 2)
        else:
            fitted = no_process_noise_density()
            pair, g = fitted.pmf.pairs[0], fitted.conditionals[0]
        td = TrajectoryDensity(BirthDeathPmf((pair,), np.array([1.0])), (g,))
        # a full-space step and two steps whose boxes bound one dim each, so
        # widely that every row is kept: the head is dim 1 at birth + 3, then
        # dim 0 at birth + 1, and the reordering moves columns
        wide = 1e6
        cs = ConstraintSet(
            [
                Constraint(pair[0] + 4, StateRegion.full_space(2)),
                Constraint(pair[0] + 3, StateRegion.box([None, (-wide, wide)])),
                Constraint(pair[0] + 1, StateRegion.box([(-wide, wide), None])),
            ],
            "conjunct",
        )
        n = 50_000
        chunks = list(screened_rows(td, n, np.random.default_rng(21), cs, np.random.default_rng(22)))
        x = np.concatenate([rows for _, _, _, rows in chunks])
        assert x.shape == (n, g.mean.size)
        var = np.diag(g.cov)
        z_mean = (x.mean(axis=0) - g.mean) / np.sqrt(var / n)
        z_cov = (np.cov(x, rowvar=False) - g.cov) / np.sqrt((np.outer(var, var) + g.cov**2) / n)
        assert np.abs(z_mean).max() < 4.5, z_mean
        assert np.abs(z_cov).max() < 4.5, z_cov
        w, v = np.linalg.eigh(g.cov)
        null = v[:, w < 1e-9 * w.max()]
        if case == "no_process_noise":
            # the draws stay on the covariance's range, as exact draws do
            assert null.shape[1] == g.mean.size - 2
            assert np.abs((x - g.mean) @ null).max() < 1e-6 * math.sqrt(w.max())
        else:
            assert null.shape[1] == 0
        moments = _StepMoments(td)
        assert _accepted(td, n, np.random.default_rng(21), cs, moments, np.random.default_rng(22)) == {pair: n}
        # the Gram reduction of the explicit normals gives their rows' moments
        gram, rows = _StepMoments(td), _StepMoments(td)
        for _, screen, z, chunk in chunks:
            ones_z = np.hstack([np.ones((z.shape[0], 1)), z])
            gram.add(pair[0], *screen.reduce(ones_z.T @ ones_z))
            rows.add(pair[0], *row_moments(chunk))
        assert np.array_equal(gram.n, rows.n)
        np.testing.assert_allclose(gram.mean, rows.mean, rtol=1e-12, atol=1e-12 * math.sqrt(var.max()))
        np.testing.assert_allclose(gram.m2, rows.m2, rtol=1e-12, atol=1e-12 * n * var.max())

    @staticmethod
    def assert_agrees_with_eager(td, cs, seed, n=200_000):
        """Per-pair counts and per-step means of the screened draws agree with
        whole-sequence rejection (``conftest.eager_accepted``) within SE."""
        moments = _StepMoments(td)
        screened = _accepted(td, n, np.random.default_rng(40 + seed), cs, moments, np.random.default_rng(50 + seed))
        eager, eager_moments = eager_accepted(td, n, np.random.default_rng(60 + seed), cs)
        z = []
        for pair in td.pmf.pairs:
            a, b = screened.get(pair, 0), eager.get(pair, 0)
            q = (a + b) / (2 * n)
            if q == 0.0:
                continue
            z.append((a - b) / math.sqrt(2 * n * q * (1 - q)))
        steps = eager_moments.per_step(min_count=100)
        assert len(steps) > 0
        for t, (mean, se, count) in moments.per_step(min_count=100).items():
            if t in steps:
                e_mean, e_se, _ = steps[t]
                z.extend((mean - e_mean) / np.sqrt(se**2 + e_se**2))
        assert len(z) > 2 * len(td.pmf.pairs) // 3
        assert np.abs(z).max() < 4.5, z
        return screened

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_whole_sequence_rejection(self, seed):
        rng = np.random.default_rng(30 + seed)
        window = TimeWindow(0, 4)
        td = random_density(rng, window, 2)
        cs = random_constraint_set(rng, window, 2, mode="conjunct" if seed % 2 else "disjunct")
        self.assert_agrees_with_eager(td, cs, seed)

    def test_full_space_constraints_have_an_empty_head_and_keep_every_row(self):
        td = random_density(np.random.default_rng(70), TimeWindow(0, 4), 2)
        cs = time_window_constraints(2, 3, 2)
        for pair, g in zip(td.pmf.pairs, td.conditionals):
            idx = active_indices(cs, *pair)
            if idx:
                screen = _Screen(g, pair[0], idx, cs, complete=True)
                assert screen.h == 0
                assert screen.screen(np.empty((7, 0))).all()
        screened = self.assert_agrees_with_eager(td, cs, 4)
        # every draw alive in the window is kept, and no other
        alive = [pair for pair in td.pmf.pairs if active_indices(cs, *pair)]
        assert set(screened) == set(alive)

    def test_two_boxes_bounding_different_dims(self):
        # box 0 bounds dim 0, box 1 dim 2; dim 1 is free. Neither box holds
        # the origin, where a coordinate left out of the head would sit.
        region = StateRegion.boxes([[(1.0, 2.5), None, None], [None, None, (-2.0, -0.5)]])
        assert region.bounded_dims.tolist() == [0, 2]
        rng = np.random.default_rng(71)
        td = random_density(rng, TimeWindow(0, 3), 3)
        cs = ConstraintSet([Constraint(1, region), Constraint(2, random_region(rng, 3))], "conjunct")
        self.assert_agrees_with_eager(td, cs, 5)
        screen = _Screen(td.conditional((0, 3)), 0, (0, 1), cs, complete=False)
        assert screen.order[:2].tolist() == [3, 5]

    def test_region_bounding_every_dim(self):
        rng = np.random.default_rng(72)
        td = random_density(rng, TimeWindow(0, 3), 2)
        region = StateRegion.box([(-1.0, 1.5), (-0.5, 2.0)])
        cs = ConstraintSet([Constraint(2, region), Constraint(0, HALF_PLANE)], "disjunct")
        self.assert_agrees_with_eager(td, cs, 6)

    @pytest.mark.parametrize(
        "case", ["conjunct", "disjunct", "two_boxes", "full_space_item", "empty_head", "no_process_noise"]
    )
    def test_screen_is_the_whole_sequence_test(self, case):
        """``_Screen.screen`` on head normals gives exactly the mask that
        ``satisfies_batch`` gives on the whole sequences m + F z."""
        rng = np.random.default_rng(80)
        gate = StateRegion.box([(-0.5, 1.0), None])
        other = StateRegion.box([(-1.0, None), (None, 0.8)])
        if case == "no_process_noise":
            td = no_process_noise_density()
            position, velocity = StateRegion.box([(4.0, 4.6), None]), StateRegion.box([None, (1.0, 1.2)])
            cs = ConstraintSet([Constraint(4, position), Constraint(6, velocity)], "conjunct")
        elif case == "two_boxes":
            td = random_density(rng, TimeWindow(0, 3), 3)
            region = StateRegion.boxes([[(0.5, 2.5), None, None], [None, None, (-2.0, -0.5)]])
            cs = ConstraintSet([Constraint(1, region), Constraint(2, StateRegion.box([(-1.0, 1.0), None, None]))],
                               "conjunct")
        else:
            td = random_density(rng, TimeWindow(0, 4), 2)
            cs = {
                "conjunct": ConstraintSet([Constraint(1, gate), Constraint(3, other)], "conjunct"),
                "disjunct": ConstraintSet([Constraint(1, gate), Constraint(3, other)], "disjunct"),
                "full_space_item": ConstraintSet(
                    [Constraint(2, StateRegion.full_space(2)), Constraint(1, gate)], "conjunct"
                ),
                "empty_head": time_window_constraints(2, 3, 2),
            }[case]
        masks = []
        for (b, e), g in zip(td.pmf.pairs, td.conditionals):
            idx = active_indices(cs, b, e)
            if not idx:
                continue
            screen = _Screen(g, b, idx, cs, complete=True)
            z = rng.standard_normal((4_000, g.mean.size))
            mask = screen.screen(z[:, : screen.h])
            states = whole_rows(screen, z).reshape(z.shape[0], e - b + 1, g.dim)
            assert np.array_equal(mask, satisfies_batch(b, e, states, cs))
            masks.append(mask)
        masks = np.concatenate(masks)
        if case == "empty_head":
            assert masks.all()
        else:  # both outcomes are tested
            assert 0.02 < masks.mean() < 0.98, masks.mean()


def explicit_gram(z_head, q, rng):
    """[A Z_t]^T [A Z_t] for A = [1 z_head] and explicit tail normals Z_t
    (n, q) from ``rng``: the reference for ``oracle._augmented_gram``."""
    n = z_head.shape[0]
    full = np.hstack([np.ones((n, 1)), z_head, rng.standard_normal((n, q))])
    return full.T @ full


class TestDrawnTailGram:
    """Each block's tail Gram blocks are drawn given its head normals, in the
    law that explicit tail normals give them."""

    @staticmethod
    def head(n, h):
        # not standard normal, as accepted head normals are not: shifted and
        # correlated columns, so that A^T A is far from diagonal
        rng = np.random.default_rng(90 + n + h)
        mix = np.tril(rng.uniform(0.3, 1.0, (h, h)))
        return 0.5 + rng.standard_normal((n, h)) @ mix

    @pytest.mark.parametrize(
        "h, q, n",
        [
            (3, 5, 9),  # n = h + 1 + q: W is full rank, the last chi^2 has 1 df
            (4, 6, 30),
            (6, 10, 4096),
            (0, 6, 30),  # empty head: A is the ones column
            (4, 6, 10),  # singular W: 5 degrees of freedom for q = 6
            (4, 6, 3),  # fewer rows than h + 1: A has rank n and W = 0
            (4, 6, 1),  # one row
            (4, 6, 5),  # n = h + 1: A has full rank and W = 0
            (3, 5, 8),  # n = h + q, one row below the boundary case: the last singular W
        ],
        ids=["boundary", "n30", "n4096", "empty_head", "small_block", "short_head", "one_row", "rank_boundary",
             "last_singular"],
    )
    def test_agrees_in_law_with_explicit_tail_normals(self, h, q, n):
        z_head = self.head(n, h)
        a, reps = h + 1, 2_000
        drawn_rng, explicit_rng = np.random.default_rng(91), np.random.default_rng(92)
        head_gram = explicit_gram(z_head, 0, explicit_rng)
        upper = np.triu_indices(q)

        def stats(gram):
            # the blocks that involve the tail: A^T Z_t, the upper triangle of
            # Z_t^T Z_t and its trace
            np.testing.assert_allclose(gram[:a, :a], head_gram, rtol=1e-12, atol=1e-12 * n)
            assert np.array_equal(gram[a:, :a], gram[:a, a:].T)
            tail = gram[a:, a:]
            return np.concatenate([gram[:a, a:].ravel(), tail[upper], [np.trace(tail)]])

        drawn = np.array([stats(_augmented_gram(head_gram, q, drawn_rng)) for _ in range(reps)])
        explicit = np.array([stats(explicit_gram(z_head, q, explicit_rng)) for _ in range(reps)])
        # the first two moments of every statistic agree
        z = []
        for x, y in ((drawn, explicit), ((drawn - drawn.mean(0)) ** 2, (explicit - explicit.mean(0)) ** 2)):
            z.extend((x.mean(0) - y.mean(0)) / np.sqrt((x.var(0) + y.var(0)) / reps))
        assert np.abs(z).max() < 4.5, z

    def test_no_tail_draws_nothing(self):
        for n in (30, 5, 3):  # above, at and below the rank h + 1 = 5 of A
            z_head = self.head(n, 4)
            head_gram = explicit_gram(z_head, 0, np.random.default_rng(0))
            rng = np.random.default_rng(94)
            state = rng.bit_generator.state
            gram = _augmented_gram(head_gram, 0, rng)
            assert rng.bit_generator.state == state
            np.testing.assert_array_equal(gram, head_gram)

    @staticmethod
    def tail_draws(monkeypatch):
        """The augmented Gram matrices ``_accepted`` draws, in call order."""
        grams = []
        original = oracle._augmented_gram

        def spy(head, q, rng):
            grams.append(original(head, q, rng))
            return grams[-1]

        monkeypatch.setattr(oracle, "_augmented_gram", spy)
        return grams

    def test_one_tail_draw_per_pair(self, monkeypatch):
        rng = np.random.default_rng(95)
        window = TimeWindow(0, 3)
        td = random_density(rng, window, 2)
        box = StateRegion.box([(-1.0, 1.5), (None, None)])
        cs = ConstraintSet([Constraint(1, box), Constraint(2, HALF_PLANE)], "conjunct")
        grams = self.tail_draws(monkeypatch)

        def draws():
            grams.clear()
            tail_rng = np.random.default_rng(97)
            per_pair = _accepted(td, 100_000, np.random.default_rng(96), cs, _StepMoments(td), tail_rng)
            return per_pair, [int(g[0, 0]) for g in grams], tail_rng.bit_generator.state

        whole = draws()
        monkeypatch.setattr(oracle, "DRAW_CHUNK", 1000)
        per_pair, counts, state = draws()
        # one draw per pair with accepted rows, in pmf order, for its whole count
        assert counts == [per_pair[p] for p in td.pmf.pairs if per_pair.get(p)]
        assert max(counts) > 3 * 1000  # over several screening chunks
        # so the counts, and every tail draw, are those of the unpatched chunk size
        assert (per_pair, counts, state) == whole

    def test_short_pair_takes_one_tail_draw_across_chunks(self, monkeypatch):
        # one 12-dim pair under a gate on 1 coordinate: h = 1 and q = 11, so
        # h + 1 + q is 13 rows; about 6 of 3,000 draws are kept, a singular
        # Wishart's worth, in several screening chunks of 1,000
        g = random_gaussian_sequence(np.random.default_rng(98), (0, 5), 2)
        td = TrajectoryDensity(BirthDeathPmf(((0, 5),), np.array([1.0])), (g,))
        lo = g.mean[2] + 2.9 * math.sqrt(g.cov[2, 2])
        cs = ConstraintSet([Constraint(1, StateRegion.box([(lo, None), None]))], "conjunct")
        n = 3_000
        grams = self.tail_draws(monkeypatch)

        def draws():
            grams.clear()
            tail_rng = np.random.default_rng(100)
            per_pair = _accepted(td, n, np.random.default_rng(99), cs, _StepMoments(td), tail_rng)
            return per_pair, [int(gram[0, 0]) for gram in grams], tail_rng.bit_generator.state

        whole = draws()
        monkeypatch.setattr(oracle, "DRAW_CHUNK", 1000)
        screened = oracle._screened_chunks(td, n, np.random.default_rng(99), cs, complete=True)
        chunks = [(int(acc.sum()), screen) for _, screen, _, acc in screened]
        screen = chunks[0][1]
        assert (screen.h, screen.mean.size - screen.h) == (1, 11)
        accepted = sum(c for c, _ in chunks)
        assert 2 <= accepted < 13 and sum(c > 0 for c, _ in chunks) >= 2
        per_pair, counts, state = draws()
        # one tail draw, for the pair's whole count, as at the default chunk size
        assert per_pair == {(0, 5): accepted} and counts == [accepted]
        assert (per_pair, counts, state) == whole


NOT_PSD = np.array([[1.0, 2.0], [2.0, 1.0]])


def not_psd_density():
    """One pair of 1-D states whose covariance [[1, 2], [2, 1]] has
    eigenvalues 3 and -1: not a covariance. The constructor rejects it, so
    it is built unchecked, to show that the factors behind it refuse it too."""
    g = GaussianSequence._valid(np.zeros(2), NOT_PSD.copy(), 1)
    return TrajectoryDensity(BirthDeathPmf(((0, 1),), np.array([1.0])), (g,))


def no_process_noise_track():
    """A constant-velocity track fitted as the benchmark's CLI track is, but
    with no process noise, under three narrow disjunct position gates: every
    (birth, death) covariance has rank 2."""
    rng, steps = np.random.default_rng(2026), 100
    mm = MotionModel(
        np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros((2, 2)), 0.99, 0.0, np.array([0.0, 1.0]), np.diag([25.0, 1.0])
    )
    sm = SensorModel(np.array([[1.0, 0.0]]), np.array([[1.0]]), 0.9, 0.0, np.array([-1e3]), np.array([1e3]))
    start = np.array([0.0, 1.0]) + np.array([5.0, 1.0]) * rng.standard_normal(2)
    truth = [start[0] + start[1] * k for k in range(steps)]
    meas = [(k, [truth[k] + rng.standard_normal()]) for k in range(5, steps - 5) if rng.random() < 0.9]
    b = fit_bernoulli_track(meas, mm, sm, TimeWindow(0, steps - 1), 0.9, 3)
    gates = [
        Constraint(t, StateRegion.box([(truth[t] - 0.4, truth[t] + 0.4), None])) for t in (30, 50, 70)
    ]
    return b, ConstraintSet(gates, "disjunct")


# Symmetric matrices that are not PSD, each with a Schur pivot of exactly 0
# that has a nonzero entry below it: [[0, 1], [1, 1]] (eigenvalue -0.618) and
# [[1, 1, 0], [1, 1, 1], [0, 1, 1]] (eigenvalue -0.414). Truncating the zero
# pivot's column would factor them as PSD matrices.
ZERO_PIVOT_NOT_PSD = {
    "2x2": np.array([[0.0, 1.0], [1.0, 1.0]]),
    "3x3": np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]),
}


def one_step_density(cov):
    """One pair (0, 0) whose single state has covariance ``cov``, built
    without the constructor's check."""
    g = GaussianSequence._valid(np.zeros(cov.shape[0]), cov.copy(), cov.shape[0])
    return TrajectoryDensity(BirthDeathPmf(((0, 0),), np.array([1.0])), (g,))


def every_dim_gate(k):
    """A conjunct box [-0.5, 1] on every dim of the state at step 0: not
    settled by the 1-D bounds, so the pair is settled on its joint."""
    return ConstraintSet([Constraint(0, StateRegion.box([(-0.5, 1.0)] * k))], "conjunct")


class TestNotPsdCovariance:
    """A conditional whose covariance is not PSD is rejected where it
    enters, and, built unchecked, where it is factored: not truncated to a
    PSD one that the oracle then agrees with."""

    @pytest.mark.parametrize("name", sorted(ZERO_PIVOT_NOT_PSD))
    def test_zero_pivot_with_entries_below_is_rejected_everywhere(self, name):
        cov = ZERO_PIVOT_NOT_PSD[name]
        k = cov.shape[0]
        with pytest.raises(ValueError, match="not PSD"):
            gaussian._cholesky(cov)
        with pytest.raises(ValueError, match="not PSD"):
            gaussian._cholesky(np.stack([np.eye(k), cov]))  # one bad matrix in a stack
        with pytest.raises(ValueError, match="not PSD"):
            GaussianSequence(np.zeros(k), cov, k)
        with pytest.raises(ValueError, match="not PSD"):
            one_step_density(cov).conditionals[0].draw(5, np.random.default_rng(0))
        cs = every_dim_gate(k)
        with pytest.raises(ValueError, match="not PSD"):
            constrain_density(one_step_density(cov), cs, 20_000, 1)
        # the engine's answer for a PSD twin; the oracle factors its own input
        constrained = constrain_bernoulli(BernoulliTrajectory(0.9, one_step_density(np.eye(k))), cs, 20_000, 3)
        bad = BernoulliTrajectory(0.9, one_step_density(cov))
        with pytest.raises(ValueError, match="not PSD"):
            oracle_bernoulli(bad, constrained, cs, 20_000, 4, check_moments=False)

    def test_lapack_and_the_column_loop_agree(self, monkeypatch):
        rng = np.random.default_rng(404)
        covs = [g.cov for _ in range(40) for g in random_density(rng).conditionals]
        lapack = [gaussian._cholesky(c) for c in covs]
        for c, f in zip(covs, lapack):
            np.testing.assert_array_equal(f, np.linalg.cholesky(c))

        def refuse(a):
            raise np.linalg.LinAlgError("refused")

        monkeypatch.setattr(gaussian.np.linalg, "cholesky", refuse)
        for c, f in zip(covs, lapack):
            loop = gaussian._cholesky(c)
            # each row of a factor has the norm of its coordinate's SD
            scale = np.sqrt(np.diag(c))[:, None]
            assert np.max(np.abs(loop - f) / scale) <= 1e-12

    def test_no_process_noise_fit_takes_the_loop(self):
        b, _ = no_process_noise_track()
        rng = np.random.default_rng(8)
        for g in b.density.conditionals:
            try:
                pivots = np.diag(np.linalg.cholesky(g.cov)) ** 2
            except np.linalg.LinAlgError:
                pass
            else:
                assert np.any(pivots <= gaussian._CHOL_TOL * np.diag(g.cov))
            # rank 2, the initial state's: every later column is exactly 0,
            # as rounding leaves those pivots at most about 1.4e-12 of their
            # variance, below ``_CHOL_TOL``
            assert np.abs(g._factor[:, :2]).max(axis=0).min() > 0.0
            assert not g._factor[:, 2:].any()
            x = g.draw(1_000, rng).reshape(1_000, -1, 2)
            # each draw keeps the velocity it was born with, to the smoother's rounding
            np.testing.assert_allclose(x[:, :, 1], np.repeat(x[:, :1, 1], x.shape[1], axis=1), rtol=0, atol=1e-7)

    def test_two_gates_raise_from_constrain_density(self):
        gate = StateRegion.box([(-0.5, 1.0)])
        cs = ConstraintSet([Constraint(0, gate), Constraint(1, gate)], "conjunct")
        with pytest.raises(ValueError, match="not PSD"):
            constrain_density(not_psd_density(), cs, 20_000, 1)

    def test_one_gate_raises_from_the_oracle_with_moments(self):
        with pytest.raises(ValueError, match="not PSD"):
            GaussianSequence(np.zeros(2), NOT_PSD, 1)
        b = BernoulliTrajectory(0.9, not_psd_density())
        cs = ConstraintSet([Constraint(1, StateRegion.box([(-0.5, 1.0)]))], "conjunct")
        constrained = constrain_bernoulli(b, cs, 20_000, 3)
        oracle_bernoulli(b, constrained, cs, 20_000, rng_seed=4, check_moments=False)  # counts only
        with pytest.raises(ValueError, match="not PSD"):
            oracle_bernoulli(b, constrained, cs, 20_000, rng_seed=4)

    @pytest.mark.parametrize("case", ["no_process_noise_density", "cli_track_fit"])
    def test_rank_deficient_fits_are_not_rejected(self, case):
        if case == "cli_track_fit":
            b, cs = no_process_noise_track()
        else:
            b = BernoulliTrajectory(0.9, no_process_noise_density())
            gate = StateRegion.box([(4.0, 5.0), None])
            cs = ConstraintSet([Constraint(4, gate), Constraint(6, StateRegion.box([None, (0.8, 1.4)]))], "conjunct")
        constrained = constrain_bernoulli(b, cs, 50_000, 5)
        views = constrained_marginals(constrained.density, 50_000, 6)
        assert views.times and np.isfinite(views.means).all()
        rep = oracle_bernoulli(b, constrained, cs, 50_000, rng_seed=7)
        assert any(e.name.startswith("mean[") for e in rep.entries)
        assert rep.passed, rep.to_table()
