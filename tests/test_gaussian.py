import dataclasses
import logging
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize
from scipy.special import ndtr, ndtri, owens_t
from scipy.stats import norm
from scipy.stats import binom, multivariate_normal
from scipy.stats import t as student_t

from trajconstrain import (
    BirthDeathPmf,
    GaussianSequence,
    StateRegion,
    TimeWindow,
    TrajectoryDensity,
    alive_probability,
    existence_pairs,
    marginal,
    region_probability,
    sample,
)
from trajconstrain import gaussian
from trajconstrain.gaussian import (
    COMPLEMENT,
    INSIDE,
    _conditional_step,
    _ndtr,
    _ndtri,
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

    def test_nan_probability_rejected(self):
        with pytest.raises(ValueError):
            BirthDeathPmf(((0, 0), (0, 1)), np.array([1.0, np.nan]))

    def test_total_mass_is_one(self, rng):
        td = random_density(rng)
        assert abs(td.pmf.probs.sum() - 1.0) <= 1e-12


class TestGaussianSequence:
    def test_asymmetry_rejected(self):
        cov = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            GaussianSequence(np.zeros(2), cov, 1)

    def test_symmetric_cov_kept_and_slight_asymmetry_averaged(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        gs = GaussianSequence(np.zeros(2), cov, 1)
        np.testing.assert_array_equal(gs.cov, cov)
        # frozen in the sequence, still writeable for the caller
        assert not gs.cov.flags.writeable and cov.flags.writeable
        cov = cov.copy()
        cov[0, 1] += 4e-11
        gs = GaussianSequence(np.zeros(2), cov, 1)
        assert gs.cov[0, 1] == gs.cov[1, 0] == 0.5 * (cov[0, 1] + cov[1, 0])

    @pytest.mark.parametrize("where", ["mean", "cov diagonal", "cov off-diagonal", "cov inf"])
    def test_non_finite_rejected(self, where):
        mean, cov = np.zeros(2), np.eye(2)
        if where == "mean":
            mean[1] = np.nan
        elif where == "cov diagonal":
            cov[0, 0] = np.nan
        elif where == "cov off-diagonal":
            cov[0, 1] = cov[1, 0] = np.nan
        else:
            cov[1, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            GaussianSequence(mean, cov, 1)

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
        # every other coordinate draws as from the library's Cholesky factor,
        # which has a zero row at the constant and a zero column at the repeat
        factor = gaussian._cholesky(0.5 * (cov + cov.T))
        assert not factor[2].any() and not factor[:, 3].any()
        np.testing.assert_allclose(factor @ factor.T, cov, rtol=0, atol=1e-12 * np.abs(cov).max())
        z = np.random.default_rng(3).standard_normal((10_000, 5))
        plain = mean + z @ factor.T
        others = [0, 1, 3, 4]
        np.testing.assert_array_equal(x[:, others], plain[:, others])

    def test_factor_computed_once_per_sequence(self, rng, monkeypatch):
        calls = []
        inner = gaussian._cholesky

        def spy(cov):
            calls.append(cov)
            return inner(cov)

        monkeypatch.setattr(gaussian, "_cholesky", spy)
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
        # the per-element formula, with scipy's ndtr, whose inside and outside
        # masses _conditional_step evaluates in one pass
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
            # both sides in one broadcast call, and each side on its own
            sides = np.array([False, True])[:, None, None]
            both, z = _conditional_step(mean, sd, lows, highs, sides, None)
            assert z is None and both.shape == (2, boxes, dims)
            for out, got, want in zip([False, True], both, reference(lows, highs, mean, sd)):
                alone, _ = _conditional_step(mean, sd, lows, highs, np.full((boxes, dims), out), None)
                np.testing.assert_array_equal(alone, got)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


class TestNdtri:
    def test_matches_scipy(self):
        p = np.concatenate(
            [
                np.logspace(-300, -1e-16, 100_001),
                1.0 - np.logspace(-16, -0.31, 20_001),
                np.linspace(1e-9, 1.0 - 1e-9, 100_001),
            ]
        )
        p = p[(p > 1e-300) & (p < 1.0 - 1e-16)]
        got, ref = _ndtri(p), ndtri(p)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14

    def test_special_values_and_shape(self):
        np.testing.assert_array_equal(_ndtri(np.array([0.0, 0.5, 1.0])), [-np.inf, 0.0, np.inf])
        assert np.isnan(_ndtri(np.array([-0.1, 1.1, np.nan]))).all()
        for shape in [(), (0,), (2, 3)]:
            assert _ndtri(np.full(shape, 0.3)).shape == shape

    def test_inverts_ndtr_in_the_lower_tail(self):
        # where Phi(x) keeps its relative precision (x <= 0), the quantile gives x back
        x = np.linspace(-37.0, 0.0, 10_001)
        np.testing.assert_allclose(_ndtri(_ndtr(x)), x, rtol=1e-13, atol=1e-15)


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
        # two correlated coordinates: settled in closed form, exact to rounding
        cov = np.array([[1.0, 0.9], [0.9, 1.0]])
        gs = GaussianSequence(np.zeros(2), cov, 1)
        entries = [
            (0, StateRegion.box([(0, None)]), "inside"),
            (1, StateRegion.box([(0, None)]), "inside"),
        ]
        p, se = region_probability(gs, (0, 1), entries, mc_budget=200_000, rng_seed=3)
        assert se == 0.0
        assert abs(p - ORTHANT_RHO09) <= 5e-7
        assert abs(p - (0.25 + math.asin(0.9) / (2.0 * math.pi))) <= 1e-15

    def test_correlated_trivariate_orthant_in_closed_form(self):
        # three correlated coordinates: the trivariate normal, against
        # Sheppard's formula 1/8 + (asin r12 + asin r13 + asin r23) / (4 pi)
        cov = np.array([[1.0, 0.9, 0.8], [0.9, 1.0, 0.9], [0.8, 0.9, 1.0]])
        gs = GaussianSequence(np.zeros(3), cov, 1)
        entries = [(t, StateRegion.box([(0, None)]), "inside") for t in range(3)]
        settled = _pattern_probabilities(gs, (0, 2), [(t, r) for t, r, _ in entries], 200_000, 3, [True] * 3)
        exact = 0.125 + (2.0 * math.asin(0.9) + math.asin(0.8)) / (4.0 * math.pi)
        assert settled.path == gaussian.CLOSED_FORM and settled.se == 0.0
        assert abs(settled.value - exact) <= 1e-15

    def test_correlated_four_coordinate_orthant_by_qmc(self):
        # four coordinates of equal correlation 1/2: randomized QMC, against
        # the orthant probability 1 / (n + 1) = 1/5
        cov = 0.5 * (np.eye(4) + np.ones((4, 4)))
        gs = GaussianSequence(np.zeros(4), cov, 1)
        items = [(t, StateRegion.box([(0, None)])) for t in range(4)]
        settled = _pattern_probabilities(gs, (0, 3), items, 200_000, 3, [True] * 4)
        assert settled.path == gaussian.QMC and settled.se > 0.0
        assert abs(settled.value - 0.2) <= 4 * settled.se

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
            cells, _, path, _ = _pattern_probabilities(gs, (0, length - 1), items, self.BUDGET, i)
            exact = path in (gaussian.PINNED, gaussian.CLOSED_FORM)
            paths.add("exact" if exact else "mc")
            assert cells.sum() == pytest.approx(1.0, abs=1e-12)
            var = cells * (1 - cells) * (0.0 if exact else 1.0 / self.BUDGET) + brute * (1 - brute) / self.N_BRUTE
            tol = np.maximum(4 * np.sqrt(var), 1e-9)
            assert np.all(np.abs(cells - brute) <= tol), (i, chosen, cells, brute)
            if exact and diag and all(r.n_boxes == 1 for _, r in items):
                np.testing.assert_allclose(cells, _independent_cells(gs, (0, length - 1), items), rtol=0, atol=1e-9)

            want = [bool(b) for b in rng.integers(0, 2, m)]
            code = sum(w << k for k, w in enumerate(want))
            p, _, path, _ = _pattern_probabilities(gs, (0, length - 1), items, self.BUDGET, i, want)
            exact_w = path in (gaussian.PINNED, gaussian.CLOSED_FORM)
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
        cells, _, path, _ = _pattern_probabilities(gs, (0, 1), [(0, StateRegion.full_space(1)), (1, StateRegion.full_space(1))], 10, 0)
        assert path == gaussian.PINNED and cells.tolist() == [0.0, 0.0, 0.0, 1.0]


def conftest_densities(diag=False):
    """The 40 seeded densities of conftest (window 0..2-7, dim 1-2)."""
    return [random_density(np.random.default_rng(seed), diag=diag) for seed in range(40)]


class TestPatternBatch:
    """``_pattern_batch`` over many pairs equals the per-pair reference of
    conftest bit for bit, and asks for the stream of QMC and Monte Carlo
    pairs only, once each."""

    BUDGET = 2_000
    KINDS = ["near-1", "near-2", "multi", "wide", "tail", "far", "huge"]

    def test_equals_the_per_pair_reference(self):
        seen = set()
        # Correlated coordinates leave the closed form to 1-D remainders and
        # wanted patterns on two coordinates, so the densities also come with
        # diagonal covariances.
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
            # At times not yet taken: a full-space region, a second time of item
            # 0's region object, and item 0's boxes with one that pins them
            # inside; then a time no pair meets.
            unused = [t for t in range(last + 1) if t not in times]
            first = items[0][1]
            pinning = StateRegion(np.vstack([first.lows, [-60.0] * td.dim]), np.vstack([first.highs, [60.0] * td.dim]))
            items += [(t, r) for t, r in zip(unused, [StateRegion.full_space(td.dim), first, pinning])]
            items.append((last + 1, StateRegion.box([(0.0, 1.0)] + [None] * (td.dim - 1))))
            # pairs meeting no item are left out, as the engine leaves them out
            rows = [(j, [b <= t <= e for t, _ in items]) for j, (b, e) in enumerate(td.pmf.pairs)]
            rows = [(j, act) for j, act in rows if any(act)]
            conds = [td.conditionals[j] for j, _ in rows]
            pairs = [td.pmf.pairs[j] for j, _ in rows]
            active = np.array([act for _, act in rows])
            assert not active[:, -1].any()
            conjunct = np.ones_like(active)
            disjunct = np.repeat(active.sum(axis=1, keepdims=True) == 1, len(items), axis=1)
            for want in (conjunct, disjunct, None):
                asked = []

                def stream(p):
                    asked.append(p)
                    return 100 * seed + p

                out = gaussian._pattern_batch(conds, pairs, items, active, want, self.BUDGET, stream)
                assert len(out) == len(rows)
                for p, (value, se, path, leader) in enumerate(out):
                    its = [items[i] for i in np.flatnonzero(active[p])]
                    w = None if want is None else want[p][active[p]].tolist()
                    ref, ref_se, kind = pattern_probabilities_per_pair(conds[p], pairs[p], its, self.BUDGET, 100 * seed + p, w)
                    assert kind == {gaussian.MC: "mc", gaussian.QMC: "qmc"}.get(path, "exact"), (seed, p)
                    # random conditionals: no two pairs share an estimate
                    assert leader == p
                    assert se == ref_se, (seed, p, se, ref_se)
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
                    if len({id(r) for _, r in its}) < len(its):
                        seen.add("shared region")
                assert sorted(asked) == [p for p, s in enumerate(out) if s.path in (gaussian.MC, gaussian.QMC)]
                assert len(set(asked)) == len(asked)
        assert {"pinned against want", "all pinned", gaussian.CLOSED_FORM, gaussian.QMC, gaussian.MC, "shared region"} <= seen
        assert {"2 boxes, 1-d", "2 boxes, 2-d", "1 boxes, 2-d", "1 boxes, 0-d"} <= seen

    def test_cells_are_keyed_by_items_and_wanted_bits(self):
        """One conditional several times in one batch, on two and three
        correlated coordinates: the same free items under different wanted
        rows, a box bounding both dims wanted outside (two cells) and a
        byte-identical duplicate. Each pair has the bits of its batch of one,
        and the duplicates have one value."""
        rng = np.random.default_rng(26)
        b = rng.standard_normal((6, 6))
        gs = GaussianSequence(rng.standard_normal(6) * 0.3, b @ b.T / 6 + 0.5 * np.eye(6), 2)
        sd = np.sqrt(gs.cov.diagonal())
        m = gs.mean
        box = StateRegion.box([(m[0] - sd[0], m[0] + 0.5 * sd[0]), (m[1] - 0.5 * sd[1], m[1] + sd[1])])
        gates = [StateRegion.box([(m[c] - 0.8 * sd[c], m[c] + sd[c]), None]) for c in (2, 4)]
        items = [(0, box), (1, gates[0]), (2, gates[1])]
        # (active, want): the box and a gate (3 coordinates) with the box out,
        # then in; the two gates (2 coordinates) under two wanted rows; and
        # the first row again
        rows = [
            ([1, 1, 0], [0, 1, 0]),
            ([1, 1, 0], [1, 1, 0]),
            ([0, 1, 1], [0, 1, 0]),
            ([0, 1, 1], [0, 0, 1]),
            ([1, 1, 0], [0, 1, 0]),
        ]
        active, want = (np.array([r[k] for r in rows], dtype=bool) for k in (0, 1))
        assert [gaussian._product_cells([box], [[side]])[0].shape[0] for side in (True, False)] == [1, 2]
        asked = []

        def stream(p):
            asked.append(p)
            return p

        out = gaussian._pattern_batch([gs] * len(rows), [(0, 2)] * len(rows), items, active, want, 2_000, stream)
        for p, settled in enumerate(out):
            (alone,) = gaussian._pattern_batch([gs], [(0, 2)], items, active[p : p + 1], want[p : p + 1], 2_000, stream)
            assert settled.path == alone.path == gaussian.CLOSED_FORM and settled.se == 0.0, (p, settled)
            assert settled.value == alone.value and 0.0 < settled.value < 1.0, (p, settled, alone)
        assert asked == []
        values = [s.value for s in out]
        assert values[4] == values[0]
        assert len(set(values[:4])) == 4


def _box_probability(mean, cov, cols, lo, hi, abseps=1e-10):
    """P(lo <= y[cols] <= hi) for y ~ N(mean, cov), by scipy (Genz's MVNDST)."""
    if not cols:
        return 1.0
    m, c = mean[cols], cov[np.ix_(cols, cols)]
    if len(cols) == 1:
        sd = math.sqrt(c[0, 0])
        return float(ndtr((hi[0] - m[0]) / sd) - ndtr((lo[0] - m[0]) / sd))
    return float(multivariate_normal.cdf(hi, m, c, abseps=abseps, releps=abseps, lower_limit=lo))


def _sides_probability(mean, cov, boxes, abseps=1e-10):
    """P(every box (cols, lo, hi, inside) is on its side) by inclusion-exclusion
    over the boxes wanted outside: sum over subsets S of them of (-1)^|S|
    P(inside the wanted-inside boxes and the boxes of S)."""
    ins = [b for b in boxes if b[3]]
    outs = [b for b in boxes if not b[3]]
    total = 0.0
    for mask in range(2 ** len(outs)):
        chosen = ins + [b for k, b in enumerate(outs) if mask >> k & 1]
        cols = [c for b in chosen for c in b[0]]
        lo = np.concatenate([b[1] for b in chosen]) if chosen else np.empty(0)
        hi = np.concatenate([b[2] for b in chosen]) if chosen else np.empty(0)
        total += (-1) ** bin(mask).count("1") * _box_probability(mean, cov, cols, lo, hi, abseps)
    return total


def _box_cases(n_cases, n_coords, abseps=1e-10):
    """Single-box problems on the conftest densities with ``n_coords`` (2, 3
    or 4) correlated coordinates: per density, one pair with a gate on dim 0 at
    each of ``n_coords`` steps (or, on dim-2 densities every third case, a
    box bounding both dims, whose complement is 2 cells, and gates at the
    remaining steps) and a want pattern cycling conjunct, disjunct (all
    outside) and mixed. Yields (gs, pair, items, want, boxes, exact
    probability)."""
    # the densities with a pair of at least n_coords steps
    densities = [td for td in conftest_densities() if max(e - b + 1 for b, e in td.pmf.pairs) >= n_coords]
    for case in range(n_cases):
        td = densities[case % len(densities)]
        rng = np.random.default_rng(5000 + case)
        split = td.dim == 2 and case % 3 == 0
        n_times = n_coords - 1 if split else n_coords
        long = [j for j, (b, e) in enumerate(td.pmf.pairs) if e - b + 1 >= n_times]
        j = long[int(rng.integers(0, len(long)))]
        (b, e), gs, d = td.pmf.pairs[j], td.conditionals[j], td.dim
        times = sorted(int(t) for t in rng.choice(np.arange(b, e + 1), n_times, replace=False))
        items, want, boxes = [], [], []
        for k, t in enumerate(times):
            both = split and k == 0
            dims = [0, 1] if both else [0]
            cols = [(t - b) * d + x for x in dims]
            sd = np.sqrt(gs.cov.diagonal()[cols])
            lo = gs.mean[cols] + sd * rng.uniform(-1.5, 0.5, len(cols))
            hi = lo + sd * rng.uniform(0.5, 2.0, len(cols))
            inside = [True, False, bool(rng.integers(0, 2))][case % 3] and not both
            bounds = [(float(l), float(h)) for l, h in zip(lo, hi)] + [None] * (d - len(dims))
            items.append((t, StateRegion.box(bounds)))
            want.append(inside)
            boxes.append((cols, lo, hi, inside))
        yield gs, (b, e), items, want, boxes, _sides_probability(gs.mean, gs.cov, boxes, abseps)


# scipy's absolute and relative error target for the references of QMC
# pairs, whose standard errors are 1e-6 and above
QMC_REFERENCE_EPS = 1e-8


class TestQmcPairs:
    """Pairs of single boxes on four correlated coordinates, settled by
    randomized QMC, against scipy's multivariate normal CDF."""

    def test_against_scipy_by_inclusion_exclusion(self):
        seen = set()
        worst = 0.0
        for case, (gs, pair, items, want, boxes, exact) in enumerate(_box_cases(80, 4, QMC_REFERENCE_EPS)):
            settled = _pattern_probabilities(gs, pair, items, 20_000, 77 + case, want)
            assert settled.path == gaussian.QMC
            assert 0.0 < settled.se <= 1e-3
            z = abs(settled.value - exact) / settled.se
            assert z <= 6.0, (case, settled, exact)
            worst = max(worst, z)
            seen.add("conjunct" if all(want) else "disjunct" if not any(want) else "mixed")
            seen.update("2-cell complement" for cols, _, _, inside in boxes if len(cols) == 2 and not inside)
        assert seen == {"conjunct", "disjunct", "mixed", "2-cell complement"}
        assert worst > 0.5  # the bound is met by estimates with error, not by exact ones

    def test_standard_errors_are_honest(self):
        """On fresh streams, an estimate's error over its standard error is
        about t-distributed with R - 1 degrees of freedom (R random shifts):
        |z| > 4 may occur as often as that distribution says, with a
        binomial allowance at 1e-4."""
        zs = []
        for gs, pair, items, want, _, exact in _box_cases(30, 4, QMC_REFERENCE_EPS):
            for seed in range(8):
                settled = _pattern_probabilities(gs, pair, items, 4_000, 900 + seed, want)
                zs.append((settled.value - exact) / settled.se)
        zs = np.array(zs)
        allowed = binom.isf(1e-4, zs.size, 2.0 * student_t.sf(4.0, gaussian._QMC_SHIFTS - 1))
        assert np.sum(np.abs(zs) > 4.0) <= allowed, np.sort(np.abs(zs))[-5:]
        # neither far too small nor far too large a standard error
        assert 0.5 <= np.std(zs) <= 2.0


class TestBivariateNormal:
    """Two correlated coordinates are settled in closed form: Genz's
    bivariate normal (``_bvn_upper``) at the corners of their cells."""

    RHOS = [-1.0, -0.999, -0.925, -0.75, -0.3, 0.0, 0.3, 0.75, 0.925, 0.999, 1.0]
    BOUNDS = [-math.inf, -38.0, -9.0, -2.5, -0.7, 0.0, 0.4, 1.9, 6.0, 38.0, math.inf]

    def test_upper_tails_against_scipy_on_a_grid(self):
        h, k, r = (x.ravel() for x in np.meshgrid(self.BOUNDS, self.BOUNDS, self.RHOS, indexing="ij"))
        got = gaussian._bvn_upper(h, k, r)
        # P(X > h, Y > k) = P(-X < -h, -Y < -k), a lower orthant of the same correlation
        ref = np.array(
            [
                multivariate_normal([0.0, 0.0], [[1.0, c], [c, 1.0]], allow_singular=True).cdf([-a, -b])
                for a, b, c in zip(h, k, r)
            ]
        )
        assert np.max(np.abs(got - ref)) <= 1e-14

    def test_lower_orthants_against_owens_t(self):
        # P(X < h, Y < k) = (Phi(h) + Phi(k)) / 2 - T(h, a_h) - T(k, a_k) - beta,
        # a_h = (k - r h) / (h sqrt(1 - r^2)), beta = 1/2 where h k < 0
        rng = np.random.default_rng(8)
        h, k = rng.uniform(-8.0, 8.0, (2, 2000))
        r = rng.choice([-0.999, -0.925, -0.75, -0.3, 0.3, 0.75, 0.925, 0.999], 2000)
        s = np.sqrt(1.0 - r * r)
        ref = (ndtr(h) + ndtr(k)) / 2.0 - owens_t(h, (k - r * h) / (h * s)) - owens_t(k, (h - r * k) / (k * s))
        ref -= np.where(h * k < 0.0, 0.5, 0.0)
        assert np.max(np.abs(gaussian._bvn_upper(-h, -k, r) - ref)) <= 1e-14

    def test_two_coordinate_pairs_against_scipy_by_inclusion_exclusion(self):
        seen = set()
        for case, (gs, pair, items, want, boxes, exact) in enumerate(_box_cases(60, 2)):
            settled = _pattern_probabilities(gs, pair, items, 20_000, 77 + case, want)
            assert settled.path == gaussian.CLOSED_FORM and settled.se == 0.0, case
            assert abs(settled.value - exact) <= 1e-14, (case, settled, exact)
            seen.add("conjunct" if all(want) else "disjunct" if not any(want) else "mixed")
            seen.update("2-cell complement" for cols, _, _, inside in boxes if len(cols) == 2 and not inside)
        assert seen == {"conjunct", "disjunct", "mixed", "2-cell complement"}

    def test_box_on_a_two_d_state(self):
        # inside the box is one cell, outside it two: outside on dim 0, or
        # inside on dim 0 and outside on dim 1
        mean, cov = np.array([0.3, -0.2]), np.array([[1.0, 0.6], [0.6, 2.0]])
        gs = GaussianSequence(mean, cov, 2)
        box = StateRegion.box([(-0.5, 0.7), (-1.0, 1.2)])
        assert [gaussian._product_cells([box], [[side]])[0].shape[0] for side in (True, False)] == [1, 2]
        p_in, se_in = region_probability(gs, (0, 0), [(0, box, INSIDE)])
        p_out, se_out = region_probability(gs, (0, 0), [(0, box, COMPLEMENT)])
        exact = multivariate_normal(mean, cov).cdf([0.7, 1.2], lower_limit=[-0.5, -1.0])
        assert se_in == se_out == 0.0
        assert abs(p_in - exact) <= 1e-15 and abs(p_out - (1.0 - exact)) <= 1e-15
        assert abs(p_in + p_out - 1.0) <= 1e-15

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_no_process_noise_pair(self, sign):
        # without process noise a step is determined by the one before: here
        # y1 = sign * y0, correlation +-1, which _cholesky gives a zero column
        sd = 1.5
        gs = GaussianSequence(np.array([0.2, 0.2 * sign]), sd**2 * np.array([[1.0, sign], [sign, 1.0]]), 1)
        assert gaussian._cholesky(gs.cov)[1, 1] == 0.0
        gates = [StateRegion.box([(-1.0, 2.0)]), StateRegion.box([(0.5, 3.0) if sign > 0 else (-3.0, -0.5)])]
        items = [(0, gates[0]), (1, gates[1])]
        both = _pattern_probabilities(gs, (0, 1), items, 2_000, 1, [True, True])
        neither = _pattern_probabilities(gs, (0, 1), items, 2_000, 1, [False, False])
        # y0 in [-1, 2] and in [0.5, 3]: y0 in [0.5, 2]; outside both: y0 < -1 or y0 > 3
        cdf = lambda x: float(ndtr((x - 0.2) / sd))  # noqa: E731
        assert both.path == neither.path == gaussian.CLOSED_FORM and both.se == neither.se == 0.0
        assert abs(both.value - (cdf(2.0) - cdf(0.5))) <= 1e-15
        assert abs(neither.value - (cdf(-1.0) + 1.0 - cdf(3.0))) <= 1e-15

    def test_non_finite_covariance_is_rejected(self):
        for bad in ([[np.nan, 0.0], [0.0, 0.1]], [[1.0, np.inf], [np.inf, 1.0]]):
            with pytest.raises(ValueError, match="non-finite"):
                gaussian._cholesky(np.array(bad))


class TestTrivariateNormal:
    """Three correlated coordinates are settled in closed form where their
    correlation determinant is at least 0.01: Plackett's integral
    (``_upper_orthants``) at the corners of their cells."""

    @staticmethod
    def quadrature(h, r):
        """P(X > h) by quad over x1 of phi(x1) times the conditional
        bivariate normal of (X2, X3) from scipy.stats.multivariate_normal."""
        r12, r13, r23 = r
        cond = np.array([[1.0 - r12 * r12, r23 - r12 * r13], [r23 - r12 * r13, 1.0 - r13 * r13]])
        upper = np.minimum(np.maximum(-np.asarray(h[1:]), -40.0), 40.0)

        def f(x1):
            # P(X2 > h2, X3 > h3 | x1) = P(-X2 < -h2, -X3 < -h3 | x1)
            return norm.pdf(x1) * multivariate_normal([-r12 * x1, -r13 * x1], cond).cdf(upper)

        # phi is below 1e-18 beyond |x1| = 9
        lo = min(max(h[0], -9.0), 9.0)
        return integrate.quad(f, lo, 9.0, epsabs=1e-17, epsrel=1e-14, limit=400)[0]

    def test_orthants_against_quadrature(self):
        rng = np.random.default_rng(17)
        h, r = [], []
        while len(h) < 100:
            c = rng.uniform(-1.0, 1.0, 3)
            if np.linalg.det(np.array([[1.0, c[0], c[1]], [c[0], 1.0, c[2]], [c[1], c[2], 1.0]])) < 0.01:
                continue
            x = rng.uniform(-6.0, 6.0, 3)
            far = rng.random(3)
            x = np.where(far < 0.1, rng.choice([-38.0, 38.0], 3), np.where(far < 0.2, rng.choice([-np.inf, np.inf], 3), x))
            h.append(x)
            r.append(c)
        h, r = np.array(h), np.array(r)
        assert {-38.0, 38.0, -np.inf, np.inf} <= set(h.ravel().tolist())
        got = gaussian._upper_orthants(h, r, np.full(len(h), 3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            ref = np.array([self.quadrature(a, b) for a, b in zip(h, r)])
        assert np.max(np.abs(got - ref)) <= 1e-14

    def test_three_coordinate_pairs_against_scipy_by_inclusion_exclusion(self):
        # scipy's trivariate CDF is itself good to about 1e-10 here
        seen = set()
        for case, (gs, pair, items, want, boxes, exact) in enumerate(_box_cases(60, 3)):
            settled = _pattern_probabilities(gs, pair, items, 20_000, 77 + case, want)
            assert settled.path == gaussian.CLOSED_FORM and settled.se == 0.0, case
            assert abs(settled.value - exact) <= 1e-9, (case, settled, exact)
            seen.add("conjunct" if all(want) else "disjunct" if not any(want) else "mixed")
            seen.update("2-cell complement" for cols, _, _, inside in boxes if len(cols) == 2 and not inside)
        assert seen == {"conjunct", "disjunct", "mixed", "2-cell complement"}

    @pytest.mark.parametrize("det, path", [(0.0101, gaussian.CLOSED_FORM), (0.0099, gaussian.QMC), (0.0, gaussian.QMC)])
    def test_determinant_floor(self, det, path, caplog):
        # equal correlations rho with det = (1 - rho)^2 (1 + 2 rho) on either
        # side of 0.01, and rho = 1 (y0 = y1 = y2, as without process noise)
        rho = 1.0 if det == 0.0 else optimize.brentq(lambda x: (1.0 - x) ** 2 * (1.0 + 2.0 * x) - det, 0.5, 1.0)
        cov = (1.0 - rho) * np.eye(3) + rho * np.ones((3, 3))
        gs = GaussianSequence(np.zeros(3), cov, 1)
        items = [(t, StateRegion.box([(0, None)])) for t in range(3)]
        with caplog.at_level(logging.INFO, logger="trajconstrain"):
            settled = _pattern_probabilities(gs, (0, 2), items, 200_000, 3, [True] * 3)
        exact = 0.125 + 3.0 * math.asin(rho) / (4.0 * math.pi)
        assert settled.path == path
        messages = [r.getMessage() for r in caplog.records if r.name == "trajconstrain"]
        if path == gaussian.CLOSED_FORM:
            assert settled.se == 0.0 and abs(settled.value - exact) <= 1e-15 and not messages
        else:
            # at rho = 1 the lattice meets one coordinate: exact, with SE 0
            assert abs(settled.value - exact) <= max(4 * settled.se, 1e-15)
            assert messages == ["1 of 1 pairs settled by QMC instead of in closed form (near-singular correlation: 1)"]


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

    def test_stratified_draws_is_one_draw_per_pair(self):
        # one multinomial over the pmf, then one draw of each drawn pair in
        # pmf order, leaving the generator where that sequence leaves it;
        # 0 draws draw nothing, 3 leave pairs out, 20,000 draw every pair
        td = random_density(np.random.default_rng(16), TimeWindow(0, 2), 2)
        for n, n_pairs in [(0, 0), (3, 3), (20_000, len(td.pmf.pairs))]:
            rng_a, rng_b = np.random.default_rng(17), np.random.default_rng(17)
            got = gaussian.stratified_draws(td, n, rng_a)
            want = {}
            if n:
                counts = rng_b.multinomial(n, td.pmf.probs).tolist()
                for (b, e), g, c in zip(td.pmf.pairs, td.conditionals, counts):
                    if c:
                        want[(b, e)] = g.draw(c, rng_b).reshape(c, e - b + 1, 2)
            assert list(got) == list(want) and len(want) == n_pairs
            for pair in want:
                np.testing.assert_array_equal(got[pair], want[pair])
            assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestStepMoments:
    def test_single_pair_matches_blocks(self, rng):
        gs = random_gaussian_sequence(rng, (2, 4), 2)
        td = TrajectoryDensity(BirthDeathPmf(((2, 4),), np.array([1.0])), (gs,))
        times, means, covs, alive = step_moments(td)
        assert times == [2, 3, 4]
        np.testing.assert_allclose(means[1], gs.mean[2:4])
        np.testing.assert_allclose(covs[1], gs.cov[2:4, 2:4])
        np.testing.assert_allclose(alive, 1.0)
