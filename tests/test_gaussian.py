import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ndtr

from trajconstrain import (
    BirthDeathPmf,
    GaussianSequence,
    StateRegion,
    TimeWindow,
    TrajectoryDensity,
    alive_probability,
    existence_pairs,
    marginal,
    moment_match,
    region_probability,
    sample,
)
from trajconstrain import gaussian
from trajconstrain.gaussian import (
    SampleCloud,
    Stratum,
    _interval_masses,
    _ndtr,
    _pattern_probabilities,
    step_moments,
)

from conftest import pattern_probabilities_per_pair, random_density, random_gaussian_sequence

# Frozen oracle value: dense-grid quadrature of the standard bivariate normal
# with correlation 0.9 over the positive quadrant (4001x4001 grid on [0, 8]^2).
ORTHANT_RHO09 = 0.428217


class TestBirthDeathPmf:
    def test_sum_enforced(self):
        with pytest.raises(ValueError):
            BirthDeathPmf(((0, 0), (0, 1)), np.array([0.5, 0.6]))

    def test_invalid_pair(self):
        with pytest.raises(ValueError):
            BirthDeathPmf(((1, 0),), np.array([1.0]))

    def test_duplicate_pair(self):
        with pytest.raises(ValueError):
            BirthDeathPmf(((0, 0), (0, 0)), np.array([0.5, 0.5]))

    def test_total_mass_is_one(self, rng):
        td = random_density(rng)
        assert abs(td.pmf.probs.sum() - 1.0) <= 1e-12


class TestGaussianSequence:
    def test_asymmetry_rejected(self):
        cov = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            GaussianSequence(np.zeros(2), cov, 1)

    def test_negative_eigenvalue_rejected_on_draw(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # symmetric, indefinite
        gs = GaussianSequence(np.zeros(2), cov, 1)
        with pytest.raises(ValueError):
            gs.draw(5, np.random.default_rng(0))

    def test_zero_variance_coordinate_draws_its_mean(self, rng):
        # rank-deficient: coordinate 2 is a constant, coordinate 3 repeats coordinate 0
        a = rng.standard_normal((5, 5))
        a[2] = 0.0
        a[3] = a[0]
        cov = a @ a.T
        mean = rng.standard_normal(5)
        x = GaussianSequence(mean, cov, 1).draw(10_000, np.random.default_rng(3))
        assert np.all(x[:, 2] == mean[2])
        # every other coordinate draws as from the plain eigh factor
        w, v = np.linalg.eigh(0.5 * (cov + cov.T))
        z = np.random.default_rng(3).standard_normal((10_000, 5))
        plain = mean + z @ (v * np.sqrt(np.clip(w, 0.0, None))).T
        others = [0, 1, 3, 4]
        np.testing.assert_array_equal(x[:, others], plain[:, others])

    def test_factor_computed_once_per_sequence(self, rng, monkeypatch):
        calls = []
        inner = gaussian._psd_factor

        def spy(cov):
            calls.append(cov)
            return inner(cov)

        monkeypatch.setattr(gaussian, "_psd_factor", spy)
        gs = random_gaussian_sequence(rng, (0, 2), 2)
        twin = GaussianSequence(gs.mean, gs.cov, gs.dim)
        first = gs.draw(4, np.random.default_rng(5))
        second = gs.draw(4, np.random.default_rng(5))
        assert len(calls) == 1
        np.testing.assert_array_equal(second, first)
        # the cached factor is no field: repr and serialization ignore it
        assert [f.name for f in dataclasses.fields(gs)] == ["mean", "cov", "dim"]
        assert repr(gs) == repr(twin)


class TestNdtr:
    def test_matches_scipy(self):
        tiny = np.logspace(-300, 1.5, 2001)
        x = np.concatenate([np.linspace(-40.0, 40.0, 200_001), tiny, -tiny])
        got, ref = _ndtr(x), ndtr(x)
        rel = np.abs(got - ref) / np.where(ref > 0, ref, 1.0)
        assert np.max(rel[ref >= 1e-300]) <= 1e-13
        assert np.max(rel[np.abs(x) <= 10.0]) <= 1e-14
        assert np.max(np.abs(got - ref)) <= 3e-16

    def test_special_values_and_shape(self):
        np.testing.assert_array_equal(_ndtr(np.array([-np.inf, 0.0, -0.0, np.inf])), [0.0, 0.5, 0.5, 1.0])
        for shape in [(), (0,), (2, 3), (4, 0, 2)]:
            x = np.arange(math.prod(shape), dtype=float).reshape(shape) - 2.0
            assert _ndtr(x).shape == shape
            np.testing.assert_allclose(_ndtr(x), ndtr(x), rtol=1e-14, atol=0)

    def test_interval_masses_match_scipy_formula(self, rng):
        # the per-element formula, with scipy's ndtr, that _interval_masses evaluates in one pass
        def reference(lows, highs, mean, sd):
            with np.errstate(divide="ignore", invalid="ignore"):
                a, b = (lows - mean) / sd, (highs - mean) / sd
            a = np.where(sd == 0.0, np.where(lows <= mean, -np.inf, np.inf), a)
            b = np.where(sd == 0.0, np.where(highs >= mean, np.inf, -np.inf), b)
            return np.where(a > 0.0, ndtr(-a) - ndtr(-b), ndtr(b) - ndtr(a)), ndtr(a) + ndtr(-b)

        for _ in range(200):
            boxes, dims = rng.integers(1, 5), rng.integers(1, 6)
            mean = rng.normal(0.0, 3.0, dims)
            sd = rng.uniform(0.01, 3.0, dims) * (rng.random(dims) < 0.8)  # some point masses
            lows = mean + rng.normal(0.0, 4.0, (boxes, dims)) * np.maximum(sd, 1.0)
            highs = lows + rng.exponential(3.0, (boxes, dims))
            lows[rng.random((boxes, dims)) < 0.2] = -np.inf
            highs[rng.random((boxes, dims)) < 0.2] = np.inf
            for got, want in zip(_interval_masses(lows, highs, mean, sd), reference(lows, highs, mean, sd)):
                assert got.shape == (boxes, dims)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


class TestMarginal:
    def test_full_subset_identity(self, rng):
        gs = random_gaussian_sequence(rng, (2, 5), 2)
        out = marginal(gs, (2, 5), [2, 3, 4, 5])
        np.testing.assert_array_equal(out.mean, gs.mean)
        np.testing.assert_array_equal(out.cov, gs.cov)

    def test_first_block_of_independent_steps(self):
        mean = np.array([1.0, 2.0, 3.0, 4.0])
        cov = np.diag([1.0, 2.0, 3.0, 4.0])
        gs = GaussianSequence(mean, cov, 2)
        out = marginal(gs, (0, 1), [0])
        np.testing.assert_array_equal(out.mean, [1.0, 2.0])
        np.testing.assert_array_equal(out.cov, np.diag([1.0, 2.0]))

    def test_against_sampling_oracle(self, rng):
        gs = random_gaussian_sequence(rng, (0, 4), 1)
        sub = marginal(gs, (0, 4), [0, 2])
        n = 100_000
        draws = gs.draw(n, rng)[:, [0, 2]]
        se_mean = np.sqrt(np.diag(sub.cov) / n)
        assert np.all(np.abs(draws.mean(axis=0) - sub.mean) <= 3 * se_mean)
        emp_cov = np.cov(draws.T)
        # variance of a covariance estimate ~ (c_ii c_jj + c_ij^2)/n
        se_cov = np.sqrt(
            (np.outer(np.diag(sub.cov), np.diag(sub.cov)) + sub.cov**2) / n
        )
        assert np.all(np.abs(emp_cov - sub.cov) <= 4 * se_cov)

    def test_projection_consistency(self, rng):
        gs = random_gaussian_sequence(rng, (0, 5), 2)
        a = marginal(gs, (0, 5), [1, 2, 4])
        # re-index: marginal of a marginal needs the sub-sequence's own pair
        b = marginal(a, (0, 2), [0, 2])  # steps 1 and 4 of the original
        direct = marginal(gs, (0, 5), [1, 4])
        np.testing.assert_allclose(b.mean, direct.mean, atol=0)
        np.testing.assert_allclose(b.cov, direct.cov, atol=0)

    def test_time_out_of_range(self, rng):
        gs = random_gaussian_sequence(rng, (0, 3), 1)
        with pytest.raises(ValueError):
            marginal(gs, (0, 3), [4])


class TestRegionProbability:
    def std_normal_steps(self, k):
        return GaussianSequence(np.zeros(k), np.eye(k), 1)

    def test_half_line_exact(self):
        gs = self.std_normal_steps(1)
        p, se = region_probability(gs, (0, 0), [(0, StateRegion.box([(0, None)]), "inside")])
        assert se == 0.0
        assert p == pytest.approx(0.5, abs=1e-15)

    def test_independent_product(self):
        gs = self.std_normal_steps(2)
        entries = [
            (0, StateRegion.box([(0, None)]), "inside"),
            (1, StateRegion.box([(0, None)]), "inside"),
        ]
        p, se = region_probability(gs, (0, 1), entries)
        assert se == 0.0
        assert p == pytest.approx(0.25, abs=1e-15)

    def test_correlated_orthant_vs_quadrature_oracle(self):
        cov = np.array([[1.0, 0.9], [0.9, 1.0]])
        gs = GaussianSequence(np.zeros(2), cov, 1)
        entries = [
            (0, StateRegion.box([(0, None)]), "inside"),
            (1, StateRegion.box([(0, None)]), "inside"),
        ]
        p, se = region_probability(gs, (0, 1), entries, mc_budget=200_000, rng_seed=3)
        assert se > 0.0
        assert abs(p - ORTHANT_RHO09) <= 4 * se

    def test_inside_plus_complement_is_one(self, rng):
        gs = random_gaussian_sequence(rng, (0, 2), 1)
        region = StateRegion.box([(-0.5, 1.0)])
        p_in, se_in = region_probability(gs, (0, 2), [(1, region, "inside")], 50_000, 1)
        p_out, se_out = region_probability(gs, (0, 2), [(1, region, "complement")], 50_000, 2)
        tol = 3 * math.hypot(se_in, se_out) or 1e-12
        assert abs(p_in + p_out - 1.0) <= tol

    def test_monotone_in_region_enlargement(self, rng):
        gs = random_gaussian_sequence(rng, (0, 1), 2)
        small = StateRegion.box([(-1, 1), (-1, 1)])
        big = StateRegion.box([(-2, 2), (-1.5, 1.5)])
        p_s, se_s = region_probability(gs, (0, 1), [(0, small, "inside")], 50_000, 5)
        p_b, se_b = region_probability(gs, (0, 1), [(0, big, "inside")], 50_000, 6)
        assert p_s <= p_b + 3 * math.hypot(se_s, se_b)

    def test_empty_entries_rejected(self, rng):
        gs = random_gaussian_sequence(rng, (0, 0), 1)
        with pytest.raises(ValueError):
            region_probability(gs, (0, 0), [])

    @pytest.mark.parametrize("mc_budget", [0, 1])
    def test_budget_below_two_rejected(self, mc_budget):
        # at mc_budget 1 the 1/n rule of the next test would report SE 0
        gs = self.std_normal_steps(1)
        with pytest.raises(ValueError, match="mc_budget"):
            region_probability(gs, (0, 0), [(0, StateRegion.box([(0, None)]), "inside")], mc_budget)

    def test_mc_estimate_of_0_or_1_reports_nonzero_se(self):
        # two boxes force Monte Carlo; the region lies about 6 sd out
        gs = self.std_normal_steps(1)
        far = StateRegion.boxes([[(6.0, 7.0)], [(7.0, None)]])
        n = 1000
        for side, expected in (("inside", 0.0), ("complement", 1.0)):
            p, se = region_probability(gs, (0, 0), [(0, far, side)], n, 4)
            assert p == expected
            assert se == pytest.approx(math.sqrt((1 / n) * (1 - 1 / n) / n), rel=1e-12)

    def test_deterministic_under_seed(self, rng):
        gs = random_gaussian_sequence(rng, (0, 2), 2)
        entries = [(0, StateRegion.box([(-1, 1), None]), "inside"),
                   (2, StateRegion.box([(0, None), (0, None)]), "complement")]
        a = region_probability(gs, (0, 2), entries, 20_000, 42)
        b = region_probability(gs, (0, 2), entries, 20_000, 42)
        assert a == b


def _region(rng, dim, mean, kind):
    """A region around ``mean`` (one state) of the given kind.

    near-1: one box bounding dim 0 only; near-2: one box bounding every dim;
    multi: two boxes; wide: dim 0 within 2.5-4 sd (probability close to, but
    not within 1e-12 of, 1); tail: dim 0 beyond 3-4.5 sd (close to 0); far:
    one box 40 sd away (pinned outside); huge: one box 60 sd wide (pinned
    inside). The covariances of ``random_gaussian_sequence`` have marginal
    variances near 1.
    """
    bounds = lambda c, w: (float(c - w), float(c + w))
    if kind == "wide":
        return StateRegion.box([bounds(mean[0], rng.uniform(2.5, 4.0))] + [None] * (dim - 1))
    if kind == "tail":
        return StateRegion.box([(float(mean[0] + rng.uniform(3.0, 4.5)), None)] + [None] * (dim - 1))
    if kind == "near-1":
        return StateRegion.box([bounds(mean[0] + rng.normal(0, 0.7), rng.uniform(0.3, 1.5))] + [None] * (dim - 1))
    if kind == "near-2":
        return StateRegion.box([bounds(m + rng.normal(0, 0.5), rng.uniform(0.5, 2.0)) for m in mean])
    if kind == "multi":
        return StateRegion.boxes(
            [
                [bounds(mean[0] - 0.6, 0.7)] + [None] * (dim - 1),
                [bounds(m + 0.8, 0.9) for m in mean],
            ]
        )
    if kind == "far":
        return StateRegion.box([(float(mean[0] + 40.0), None)] + [None] * (dim - 1))
    return StateRegion.box([bounds(m, 60.0) for m in mean])


def _brute_cells(gs, pair, items, n, seed):
    """Inside/outside pattern frequencies of n draws of the full marginal."""
    times = sorted({t for t, _ in items})
    sub = marginal(gs, pair, times)
    d = gs.dim
    rng = np.random.default_rng(seed)
    counts = np.zeros(2 ** len(items))
    for _ in range(4):
        x = sub.draw(n // 4, rng)
        codes = np.zeros(x.shape[0], dtype=np.int64)
        for i, (t, region) in enumerate(items):
            c = times.index(t) * d
            codes |= region.contains_batch(x[:, c : c + d]).astype(np.int64) << i
        counts += np.bincount(codes, minlength=counts.size)
    return counts / n


def _independent_cells(gs, pair, items):
    """Closed-form cells for single boxes on a diagonal covariance (math.erf)."""
    def p_inside(t, region):
        idx = gs.coords(pair, [t])
        p = 1.0
        for j, k in enumerate(idx):
            lo, hi = region.lows[0, j], region.highs[0, j]
            sd = math.sqrt(gs.cov[k, k])
            cdf = lambda v: 0.5 * math.erfc(-(v - gs.mean[k]) / (sd * math.sqrt(2.0)))
            p *= cdf(hi) - cdf(lo)
        return p

    q = [p_inside(t, r) for t, r in items]
    cells = np.ones(2 ** len(items))
    for code in range(cells.size):
        for i, qi in enumerate(q):
            cells[code] *= qi if code >> i & 1 else 1.0 - qi
    return cells


class TestPatternProbabilities:
    N_BRUTE = 1_000_000
    BUDGET = 100_000

    def test_against_brute_force(self):
        """Cells and conjunct probabilities of the primitive against 1e6 brute
        draws of the full marginal, within 4 SE; every result reported exact
        (SE 0) that the test can also evaluate in closed form, or that is 0 or
        1, matches to 1e-9. Covers both modes, multi-box regions, regions
        bounding 1 and 2 dims, pinned items and the closed-form path."""
        rng = np.random.default_rng(2718)
        kinds = ["near-1", "near-2", "multi", "wide", "tail", "far", "huge"]
        paths = set()
        for i in range(48):
            dim = 1 + i % 2
            length = int(rng.integers(1, 4))
            diag = i % 3 == 0
            gs = random_gaussian_sequence(rng, (0, length - 1), dim, diag=diag)
            m = int(rng.integers(1, length + 1))
            times = sorted(int(t) for t in rng.choice(length, m, replace=False))
            chosen = [kinds[int(rng.integers(0, 5 if diag else 7))] for _ in times]
            if diag and i % 2 == 0:
                chosen[0] = "far" if i % 4 == 0 else "huge"
            items = []
            for t, kind in zip(times, chosen):
                mean = gs.mean[t * dim : (t + 1) * dim]
                items.append((t, _region(rng, dim, mean, "near-2" if kind == "near-1" and dim == 1 else kind)))
            brute = _brute_cells(gs, (0, length - 1), items, self.N_BRUTE, 10_000 + i)
            cells, exact = _pattern_probabilities(gs, (0, length - 1), items, self.BUDGET, i)
            paths.add("exact" if exact else "mc")
            assert cells.sum() == pytest.approx(1.0, abs=1e-12)
            var = cells * (1 - cells) * (0.0 if exact else 1.0 / self.BUDGET) + brute * (1 - brute) / self.N_BRUTE
            tol = np.maximum(4 * np.sqrt(var), 1e-9)
            assert np.all(np.abs(cells - brute) <= tol), (i, chosen, cells, brute)
            if exact and diag and all(r.n_boxes == 1 for _, r in items):
                np.testing.assert_allclose(cells, _independent_cells(gs, (0, length - 1), items), rtol=0, atol=1e-9)

            want = [bool(b) for b in rng.integers(0, 2, m)]
            code = sum(w << k for k, w in enumerate(want))
            p, exact_w = _pattern_probabilities(gs, (0, length - 1), items, self.BUDGET, i, want)
            var = p * (1 - p) * (0.0 if exact_w else 1.0 / self.BUDGET) + brute[code] * (1 - brute[code]) / self.N_BRUTE
            assert abs(p - brute[code]) <= max(4 * math.sqrt(var), 1e-9), (i, chosen, want, p, brute[code])
            if exact_w and diag and all(r.n_boxes == 1 for _, r in items):
                assert p == pytest.approx(_independent_cells(gs, (0, length - 1), items)[code], abs=1e-9)
        assert paths == {"exact", "mc"}

    def test_position_gate_on_correlated_state_is_exact(self):
        # a position-only half-line on a state whose position and velocity
        # are correlated: the bounded marginal is 1-D, so no Monte Carlo
        gs = GaussianSequence(np.zeros(2), np.array([[1.0, 0.8], [0.8, 1.0]]), 2)
        p, se = region_probability(gs, (0, 0), [(0, StateRegion.box([(0, None), None]), "inside")])
        assert (p, se) == (0.5, 0.0)

    def test_pinned_violation_draws_nothing(self, monkeypatch):
        def no_draw(self, n, rng):
            raise AssertionError("drew samples")

        monkeypatch.setattr(GaussianSequence, "draw", no_draw)
        cov = np.array([[1.0, 0.9], [0.9, 1.0]])
        gs = GaussianSequence(np.zeros(2), cov, 1)
        entries = [
            (0, StateRegion.box([(0, None)]), "inside"),  # unpinned, correlated with step 1
            (1, StateRegion.box([(50, None)]), "inside"),  # 50 sd away: pinned outside
        ]
        assert region_probability(gs, (0, 1), entries) == (0.0, 0.0)
        # full-space and far-away complements are pinned satisfied, so what is
        # left is one 1-D half-line in closed form
        entries = [
            (0, StateRegion.box([(0, None)]), "inside"),
            (1, StateRegion.box([(50, None)]), "complement"),
        ]
        assert region_probability(gs, (0, 1), entries) == (0.5, 0.0)
        cells, exact = _pattern_probabilities(gs, (0, 1), [(0, StateRegion.full_space(1)), (1, StateRegion.full_space(1))], 10, 0)
        assert exact and cells.tolist() == [0.0, 0.0, 0.0, 1.0]


def conftest_densities(diag=False):
    """The 40 seeded densities of conftest (window 0..2-7, dim 1-2)."""
    return [random_density(np.random.default_rng(seed), diag=diag) for seed in range(40)]


class TestPatternBatch:
    """``_pattern_batch`` over many pairs equals the per-pair reference of
    conftest bit for bit, and asks for the stream of Monte Carlo pairs only."""

    BUDGET = 2_000
    KINDS = ["near-1", "near-2", "multi", "wide", "tail", "far", "huge"]

    def test_equals_the_per_pair_reference(self):
        seen = set()
        # Correlated coordinates leave the closed form to 1-D remainders, so
        # the densities also come with diagonal covariances.
        for seed, td in enumerate(conftest_densities() + conftest_densities(diag=True)):
            rng = np.random.default_rng(1000 + seed)
            last = max(e for _, e in td.pmf.pairs)
            times = sorted(int(t) for t in rng.choice(last + 1, int(rng.integers(1, min(4, last + 1) + 1)), replace=False))
            items = []
            for t in times:
                alive = next(j for j, (b, e) in enumerate(td.pmf.pairs) if b <= t <= e)
                (b, _), g = td.pmf.pairs[alive], td.conditionals[alive]
                mean = g.mean[(t - b) * td.dim : (t - b + 1) * td.dim]
                items.append((t, _region(rng, td.dim, mean, self.KINDS[int(rng.integers(0, len(self.KINDS)))])))
            # pairs meeting no item are left out, as the engine leaves them out
            rows = [(j, [b <= t <= e for t in times]) for j, (b, e) in enumerate(td.pmf.pairs)]
            rows = [(j, act) for j, act in rows if any(act)]
            conds = [td.conditionals[j] for j, _ in rows]
            pairs = [td.pmf.pairs[j] for j, _ in rows]
            active = np.array([act for _, act in rows])
            conjunct = np.ones_like(active)
            disjunct = np.repeat(active.sum(axis=1, keepdims=True) == 1, len(times), axis=1)
            for want in (conjunct, disjunct, None):
                asked = []

                def stream(p):
                    asked.append(p)
                    return 100 * seed + p

                out = gaussian._pattern_batch(conds, pairs, items, active, want, self.BUDGET, stream)
                assert len(out) == len(rows)
                for p, (value, path) in enumerate(out):
                    its = [items[i] for i in np.flatnonzero(active[p])]
                    w = None if want is None else want[p][active[p]].tolist()
                    ref, exact = pattern_probabilities_per_pair(conds[p], pairs[p], its, self.BUDGET, 100 * seed + p, w)
                    assert exact == (path != gaussian.MC), (seed, p)
                    if want is None:
                        assert np.array_equal(value, ref), (seed, p, value, ref)
                        if path == gaussian.PINNED:
                            assert sorted(value.tolist())[-1] == 1.0
                    else:
                        assert value == ref, (seed, p, value, ref)
                        if path == gaussian.PINNED:
                            seen.add("pinned against want" if value == 0.0 else "all pinned")
                    seen.add(path)
                    seen.update(f"{r.n_boxes} boxes, {r.bounded_dims.size}-d" for _, r in its)
                assert asked == [p for p, (_, path) in enumerate(out) if path == gaussian.MC]
        assert {"pinned against want", "all pinned", gaussian.CLOSED_FORM, gaussian.MC} <= seen
        assert {"2 boxes, 1-d", "2 boxes, 2-d", "1 boxes, 2-d"} <= seen


class TestAliveProbability:
    def test_always_true(self, rng):
        td = random_density(rng)
        assert alive_probability(td.pmf, lambda p: True) == pytest.approx(1.0)

    def test_uniform_window_time_one(self):
        pmf = BirthDeathPmf.uniform_over_window(TimeWindow(0, 2))
        # enumeration: pairs containing time 1 are (0,1),(0,2),(1,1),(1,2)
        p = alive_probability(pmf, lambda pe: pe[0] <= 1 <= pe[1])
        assert p == pytest.approx(4 / 6)

    def test_no_overlap(self):
        pmf = BirthDeathPmf(((1, 2),), np.array([1.0]))
        assert alive_probability(pmf, lambda pe: pe[0] <= 0 <= pe[1]) == 0.0


class TestSample:
    def test_degenerate(self):
        pmf = BirthDeathPmf(((0, 0),), np.array([1.0]))
        gs = GaussianSequence(np.array([3.0]), np.zeros((1, 1)), 1)
        td = TrajectoryDensity(pmf, (gs,))
        cloud = sample(td, 50, rng_seed=0)
        s = cloud.strata[(0, 0)]
        assert np.all(s.states == 3.0)

    def test_pair_frequencies(self, rng):
        td = random_density(rng, TimeWindow(0, 3), 1)
        n = 100_000
        cloud = sample(td, n, rng_seed=7)
        for pair, p in td.pmf.items():
            count = cloud.strata[pair].states.shape[0] if pair in cloud.strata else 0
            assert abs(count / n - p) <= 4 * math.sqrt(max(p * (1 - p), 1e-12) / n) + 1e-9

    def test_stacked_mean(self, rng):
        gs = random_gaussian_sequence(rng, (0, 2), 2)
        td = TrajectoryDensity(BirthDeathPmf(((0, 2),), np.array([1.0])), (gs,))
        n = 100_000
        cloud = sample(td, n, rng_seed=3)
        flat = cloud.strata[(0, 2)].states.reshape(n, -1)
        se = np.sqrt(np.diag(gs.cov) / n)
        assert np.all(np.abs(flat.mean(axis=0) - gs.mean) <= 4 * se)

    def test_deterministic(self, rng):
        td = random_density(rng)
        a = sample(td, 500, rng_seed=9)
        b = sample(td, 500, rng_seed=9)
        assert set(a.strata) == set(b.strata)
        for pair in a.strata:
            np.testing.assert_array_equal(a.strata[pair].states, b.strata[pair].states)


class TestMomentMatch:
    def test_identical_points(self):
        states = np.full((100, 2, 1), 1.5)
        cloud = SampleCloud(1, {(0, 1): Stratum(states, np.ones(100))})
        td = moment_match(cloud)
        g = td.conditionals[0]
        np.testing.assert_allclose(g.mean, [1.5, 1.5])
        np.testing.assert_allclose(g.cov, 0, atol=1e-12)

    def test_recovers_known_gaussian(self, rng):
        gs = random_gaussian_sequence(rng, (0, 1), 2)
        td = TrajectoryDensity(BirthDeathPmf(((0, 1),), np.array([1.0])), (gs,))
        cloud = sample(td, 100_000, rng_seed=11)
        out = moment_match(cloud)
        g = out.conditionals[0]
        n = 100_000
        se = np.sqrt(np.diag(gs.cov) / n)
        assert np.all(np.abs(g.mean - gs.mean) <= 4 * se)
        se_cov = np.sqrt((np.outer(np.diag(gs.cov), np.diag(gs.cov)) + gs.cov**2) / n)
        assert np.all(np.abs(g.cov - gs.cov) <= 4 * se_cov)

    def test_weight_ratio_pmf(self):
        s1 = Stratum(np.zeros((10, 1, 1)), np.full(10, 0.3))
        s2 = Stratum(np.zeros((10, 2, 1)), np.full(10, 0.1))
        cloud = SampleCloud(1, {(0, 0): s1, (0, 1): s2})
        td = moment_match(cloud)
        assert td.pmf.prob((0, 0)) == pytest.approx(0.75)
        assert td.pmf.prob((0, 1)) == pytest.approx(0.25)

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            moment_match(SampleCloud(1, {}))


class TestStepMoments:
    def test_single_pair_matches_blocks(self, rng):
        gs = random_gaussian_sequence(rng, (2, 4), 2)
        td = TrajectoryDensity(BirthDeathPmf(((2, 4),), np.array([1.0])), (gs,))
        times, means, covs, alive = step_moments(td)
        assert times == [2, 3, 4]
        np.testing.assert_allclose(means[1], gs.mean[2:4])
        np.testing.assert_allclose(covs[1], gs.cov[2:4, 2:4])
        np.testing.assert_allclose(alive, 1.0)
