import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from conftest import smooth_hypothesis_per_birth
from trajconstrain import (
    BirthDeathPmf,
    Constraint,
    ConstraintSet,
    GaussianSequence,
    StateRegion,
    TimeWindow,
    Trajectory,
    constrain_bernoulli,
    constrained_marginals,
    scenario,
)
from trajconstrain.chain import _Chain, _cov_blocks
from trajconstrain.engine import MarginalMoments
from trajconstrain.gaussian import SampleCloud, Stratum
from trajconstrain.mvn import CLOSED_FORM
from trajconstrain import oracle
from trajconstrain.core import active_indices
from trajconstrain.oracle import oracle_bernoulli
from trajconstrain.scenario import (
    Measurement,
    MotionModel,
    SensorModel,
    _smooth_births,
    fit_bernoulli_track,
    simulate_measurements,
    simulate_truth,
)


def cv_motion(dt=1.0, q=0.1, survival=0.95, birth_rate=0.2):
    """Constant-velocity model in one spatial dimension (state = [pos, vel])."""
    F = np.array([[1.0, dt], [0.0, 1.0]])
    Q = q * np.array(
        [[dt**3 / 3, dt**2 / 2], [dt**2 / 2, dt]]
    )
    return MotionModel(
        F, Q, survival, birth_rate, np.array([0.0, 1.0]), np.diag([4.0, 1.0])
    )


def pos_sensor(r=0.25, detection=0.9, clutter_rate=1.0):
    return SensorModel(
        np.array([[1.0, 0.0]]),
        np.array([[r]]),
        detection,
        clutter_rate,
        np.array([-50.0]),
        np.array([50.0]),
    )


def plane_motion(q=0.1):
    """Constant velocity in the plane (state = [x, y, vx, vy]), unit step."""
    F = np.kron(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
    Q = q * np.kron(np.array([[1 / 3, 1 / 2], [1 / 2, 1.0]]), np.eye(2))
    return MotionModel(F, Q, 0.9, 0.2, np.array([0.0, 0.0, 1.0, 0.5]), np.diag([4.0, 4.0, 1.0, 1.0]))


def plane_sensor(r=0.25):
    """Position detections in the plane, with noise correlated across axes."""
    return SensorModel(
        np.hstack([np.eye(2), np.zeros((2, 2))]),
        r * np.array([[1.0, 0.3], [0.3, 1.0]]),
        0.9,
        1.0,
        np.array([-50.0, -50.0]),
        np.array([50.0, 50.0]),
    )


class TestMotionModel:
    def test_non_psd_birth_cov_rejected(self):
        with pytest.raises(ValueError, match="birth covariance must be PSD"):
            MotionModel(np.eye(2), np.eye(2), 0.9, 0.1, np.zeros(2), np.array([[4.0, 0.0], [0.0, -1.0]]))

    def test_zero_variance_birth_cov_accepted(self):
        mm = MotionModel(np.eye(2), np.eye(2), 0.9, 0.0, np.zeros(2), np.diag([4.0, 0.0]), birth_schedule=(0, 3))
        truth = simulate_truth(mm, TimeWindow(0, 10), rng_seed=1)
        assert len(truth) == 2
        for t in truth:
            assert t.states[0, 1] == 0.0  # drawn exactly at the birth mean


class TestSimulateTruth:
    def test_zero_birth_rate_empty(self):
        mm = cv_motion(birth_rate=0.0)
        assert simulate_truth(mm, TimeWindow(0, 20), rng_seed=1) == []

    def test_schedule_with_full_survival(self):
        mm = MotionModel(
            np.eye(1), np.zeros((1, 1)), 1.0, 0.0, np.zeros(1), np.eye(1),
            birth_schedule=(0, 3, 3),
        )
        truth = simulate_truth(mm, TimeWindow(0, 8), rng_seed=2)
        assert [(t.birth, t.death) for t in truth] == [(0, 8), (3, 8), (3, 8)]

    def test_poisson_birth_count(self):
        mm = cv_motion(birth_rate=0.5, survival=0.0)
        # survival 0 means every trajectory is a single step, so the number of
        # trajectories equals the number of births
        window = TimeWindow(0, 199)
        counts = [len(simulate_truth(mm, window, rng_seed=s)) for s in range(50)]
        lam = 0.5 * 200
        se = math.sqrt(lam / 50)
        assert abs(np.mean(counts) - lam) <= 4 * se

    def test_trajectories_fit_window(self):
        mm = cv_motion()
        window = TimeWindow(5, 25)
        for t in simulate_truth(mm, window, rng_seed=3):
            assert window.alpha <= t.birth <= t.death <= window.gamma
            assert t.states.shape == (t.death - t.birth + 1, 2)


class TestSimulateMeasurements:
    def test_perfect_detection_no_clutter(self):
        mm = cv_motion(birth_rate=0.4)
        window = TimeWindow(0, 15)
        truth = simulate_truth(mm, window, rng_seed=4)
        out = simulate_measurements(truth, pos_sensor(detection=1.0, clutter_rate=0.0), window, rng_seed=5)
        for k in window.steps():
            sources = sorted(m.source for m in out[k])
            alive = sorted(i for i, t in enumerate(truth) if t.alive_at(k))
            assert sources == alive

    def test_zero_detection_only_clutter(self):
        mm = cv_motion(birth_rate=0.4)
        window = TimeWindow(0, 30)
        truth = simulate_truth(mm, window, rng_seed=4)
        sm = pos_sensor(detection=0.0, clutter_rate=2.0)
        out = simulate_measurements(truth, sm, window, rng_seed=6)
        all_meas = [m for ms in out.values() for m in ms]
        assert all(m.source is None for m in all_meas)
        n = len(all_meas)
        lam = 2.0 * 31
        assert abs(n - lam) <= 4 * math.sqrt(lam)
        for m in all_meas:
            assert -50.0 <= m.value[0] <= 50.0


def batch_posterior(beta, eps, meas, mm, sm):
    """Independent oracle: stack the prior over all steps and condition on the
    stacked measurements in one Gaussian-conditioning step."""
    F, Q, H, R = mm.transition, mm.process_noise, sm.measurement, sm.noise
    d = mm.dim
    nu = eps - beta + 1
    # joint prior: mean via repeated transition, covariance via
    # Cov(x_s, x_t) = P_s (F^(t-s))^T with P the prior marginal recursion
    mean = np.empty(nu * d)
    P_marg = [None] * nu
    m, P = mm.birth_mean.copy(), mm.birth_cov.copy()
    for i in range(nu):
        if i > 0:
            m = F @ m
            P = F @ P @ F.T + Q
        mean[i * d : (i + 1) * d] = m
        P_marg[i] = P
    cov = np.zeros((nu * d, nu * d))
    for s in range(nu):
        block = P_marg[s]
        cov[s * d : (s + 1) * d, s * d : (s + 1) * d] = block
        powF = np.eye(d)
        for t in range(s + 1, nu):
            powF = F @ powF
            cross = P_marg[s] @ powF.T
            cov[s * d : (s + 1) * d, t * d : (t + 1) * d] = cross
            cov[t * d : (t + 1) * d, s * d : (s + 1) * d] = cross.T
    # stacked measurement model over the observed steps
    obs = sorted(k for k in meas if beta <= k <= eps)
    if not obs:
        return mean, cov, 0.0
    mz = sm.meas_dim
    Hb = np.zeros((len(obs) * mz, nu * d))
    Rb = np.zeros((len(obs) * mz, len(obs) * mz))
    z = np.empty(len(obs) * mz)
    for j, k in enumerate(obs):
        Hb[j * mz : (j + 1) * mz, (k - beta) * d : (k - beta + 1) * d] = H
        Rb[j * mz : (j + 1) * mz, j * mz : (j + 1) * mz] = R
        z[j * mz : (j + 1) * mz] = meas[k]
    S = Hb @ cov @ Hb.T + Rb
    K = np.linalg.solve(S, Hb @ cov).T
    post_mean = mean + K @ (z - Hb @ mean)
    post_cov = cov - K @ S @ K.T
    log_lik = multivariate_normal.logpdf(z, Hb @ mean, 0.5 * (S + S.T))
    return post_mean, 0.5 * (post_cov + post_cov.T), float(log_lik)


class TestSmoother:
    def make_meas(self, rng, times):
        return {k: np.array([float(rng.normal(k, 1.0))]) for k in times}

    def test_joint_matches_batch_conditioning(self, rng):
        mm = cv_motion()
        sm = pos_sensor()
        meas = self.make_meas(rng, [0, 1, 3, 5])
        (mean,), (cov,), (log_lik,) = smoothed_joints([0], 6, meas, mm, sm)
        mean_o, cov_o, log_o = batch_posterior(0, 6, meas, mm, sm)
        np.testing.assert_allclose(mean, mean_o, rtol=0, atol=1e-8)
        np.testing.assert_allclose(cov, cov_o, rtol=0, atol=1e-8)
        assert log_lik == pytest.approx(log_o, abs=1e-8)

    def test_long_track_matches_batch_conditioning(self, rng):
        # 48 steps, three births and scattered misses: the filter scan after
        # the last birth runs six levels, the smoother scan six
        mm, sm = cv_motion(), pos_sensor()
        meas = self.make_meas(rng, [k for k in range(2, 46) if k % 7 != 3])
        births, eps = (0, 1, 2), 47
        means, covs, log_liks = smoothed_joints(births, eps, meas, mm, sm)
        for i, b in enumerate(births):
            mean_o, cov_o, log_o = batch_posterior(b, eps, meas, mm, sm)
            lo = (b - births[0]) * mm.dim
            assert_normwise_close(means[i, lo:], mean_o, 1e-9)
            assert_normwise_close(covs[i, lo:, lo:], cov_o, 1e-9)
            assert log_liks[i] == pytest.approx(log_o, rel=1e-9)

    def test_noise_free_sensor_on_a_noise_free_coordinate_fits(self):
        # with no measurement noise and no process noise on the measured
        # position, H Q H' + R is singular, so the filter steps on to the
        # last death instead of scanning; a single measurement leaves no
        # measured step to scan at all. Both fit as the per-birth smoother
        # does, and the pmf is the one the step-by-step fit gave.
        mm = MotionModel(np.array([[1.0, 1.0], [0.0, 1.0]]), np.diag([0.0, 0.1]), 0.9, 0.0, np.zeros(2), np.eye(2))
        sm = SensorModel(np.array([[1.0, 0.0]]), np.zeros((1, 1)), 0.9, 0.0, np.array([-50.0]), np.array([50.0]))
        for meas, probs in (
            ([(k, [1.0 * k]) for k in range(2, 8)], [0.41390519, 0.37251467, 0.1124106, 0.10116954]),
            ([(3, [1.0])], [0.23667754, 0.21300979, 0.28963825, 0.26067442]),
        ):
            with np.errstate(all="raise"):
                out = fit_bernoulli_track(meas, mm, sm, TimeWindow(0, 10), slack=1)
            np.testing.assert_allclose(out.density.pmf.probs, probs, rtol=1e-7)
            births = sorted({b for b, _ in out.density.pmf.pairs})
            last = max(e for _, e in out.density.pmf.pairs)
            by_time = {k: np.asarray(z, dtype=float) for k, z in meas}
            assert_equals_per_birth(births, last, by_time, mm, sm)

    def test_no_measurements_is_prior(self):
        mm = cv_motion()
        sm = pos_sensor()
        (mean,), (cov,), (log_lik,) = smoothed_joints([2], 5, {}, mm, sm)
        mean_o, cov_o, _ = batch_posterior(2, 5, {}, mm, sm)
        assert log_lik == 0.0
        np.testing.assert_allclose(mean, mean_o, atol=1e-10)
        np.testing.assert_allclose(cov, cov_o, atol=1e-10)

    def test_noise_free_recovers_truth(self):
        # deterministic dynamics and exact position sensing over a fully
        # observed span pin the position trajectory down exactly
        mm = MotionModel(
            np.array([[1.0, 1.0], [0.0, 1.0]]),
            np.zeros((2, 2)),
            1.0,
            0.0,
            np.array([0.0, 0.5]),
            np.diag([1.0, 1.0]),
        )
        sm = SensorModel(
            np.array([[1.0, 0.0]]), np.array([[1e-12]]), 1.0, 0.0,
            np.array([-50.0]), np.array([50.0]),
        )
        x = np.array([2.0, 0.5])
        meas = {}
        for k in range(5):
            meas[k] = np.array([x[0]])
            x = mm.transition @ x
        (mean,), _, _ = smoothed_joints([0], 4, meas, mm, sm)
        x = np.array([2.0, 0.5])
        for k in range(5):
            np.testing.assert_allclose(mean[2 * k : 2 * k + 2], x, atol=1e-6)
            x = mm.transition @ x


def good_track_motion():
    return MotionModel(
        np.array([[1.0, 1.0], [0.0, 1.0]]),
        0.01 * np.eye(2),
        0.5,
        0.2,
        np.array([4.0, 1.0]),
        np.diag([0.5, 0.5]),
    )


# (measurements, motion, sensor, window, slack) of the track fits below
FIT_FIXTURES = {
    "slack": ([(4, [4.0]), (6, [6.0])], cv_motion(), pos_sensor(), TimeWindow(0, 10), 2),
    "single": ([(0, [1.0])], cv_motion(), pos_sensor(), TimeWindow(0, 3), 1),
    "gap": (
        [(k, [float(z)]) for k, z in zip([1, 2, 3, 4, 7, 8], np.random.default_rng(5).normal([1, 2, 3, 4, 7, 8], 1.0))],
        cv_motion(),
        pos_sensor(),
        TimeWindow(0, 10),
        3,
    ),
    "good": ([(k, [1.0 + 1.0 * k]) for k in range(3, 8)], good_track_motion(), pos_sensor(r=0.01), TimeWindow(0, 10), 3),
    # births 0..1: the window clamps the slack before the first measurement
    "clamped": ([(1, [1.5]), (2, [2.2]), (4, [3.9])], cv_motion(), pos_sensor(), TimeWindow(0, 10), 3),
    "no_slack": ([(3, [3.1]), (5, [4.8]), (6, [6.3])], cv_motion(), pos_sensor(), TimeWindow(0, 10), 0),
    "plane": (
        [(k, [0.9 * k, 0.4 * k + 0.1]) for k in (2, 3, 5, 6)], plane_motion(), plane_sensor(), TimeWindow(0, 9), 2,
    ),
    "no_process_noise": ([(k, [1.1 * k]) for k in (3, 4, 6)], cv_motion(q=0.0), pos_sensor(), TimeWindow(0, 10), 2),
}

# (births, eps, measured steps, motion, sensor) of the lockstep smoother checks
LOCKSTEP_CASES = {
    "one_step_lifetime": ((3, 4, 5), 5, (3, 5), cv_motion(), pos_sensor()),
    "single_step": ((5,), 5, (5,), cv_motion(), pos_sensor()),
    "measured_at_every_birth": ((2, 3, 4), 7, (2, 3, 4, 6), cv_motion(), pos_sensor()),
    "spread_births_with_gap": ((0, 2, 5), 11, (2, 5, 6, 9, 10), cv_motion(), pos_sensor()),
    "unmeasured": ((1, 2), 4, (), cv_motion(), pos_sensor()),
    "plane": ((1, 2, 3), 8, (3, 4, 7), plane_motion(), plane_sensor()),
    "no_process_noise": ((0, 1, 2), 6, (2, 3, 5), cv_motion(q=0.0), pos_sensor()),
    # 97 or more steps, none a power of two, so every level of the scans runs:
    # the cli-track shape (4 births, 78 measurements with a gap of 5 steps
    # and scattered misses), births each measured at its own step, no process
    # noise, and births clamped at the window start
    "long_track": (
        (2, 3, 4, 5), 98,
        tuple(k for k in range(5, 95) if not 40 <= k < 45 and k % 13 != 7),
        cv_motion(q=0.05, survival=0.99), pos_sensor(),
    ),
    "long_measured_at_every_birth": (
        (10, 11, 12, 13), 112, tuple(range(10, 14)) + tuple(range(20, 110, 2)), cv_motion(), pos_sensor(),
    ),
    "long_no_process_noise": ((1, 2, 3), 99, tuple(range(3, 90, 3)), cv_motion(q=0.0), pos_sensor()),
    "long_clamped": ((0, 1), 100, tuple(range(1, 101, 4)), plane_motion(), plane_sensor()),
    # no measurement noise on a coordinate without process noise: H Q H' + R
    # is singular, so the step-by-step filter runs to the end
    "long_noise_free_sensor": (
        (2, 3, 4), 100, tuple(range(4, 96)),
        MotionModel(np.array([[1.0, 1.0], [0.0, 1.0]]), np.diag([0.0, 0.1]), 0.9, 0.0, np.zeros(2), np.eye(2)),
        pos_sensor(r=0.0),
    ),
}


def smoothed_joints(births, eps, meas, mm, sm):
    """``_smooth_births`` with every birth's chain expanded into its joint
    by a batched block-row fill, Cov(x_s, x_t) = G_s Cov(x_{s+1}, x_t): means
    (births, N * d), covariances (births, N * d, N * d) and log-likelihoods,
    each birth's leading coordinates, before it, zeros. The reference that
    a fitted conditional's ``cov`` equals bit for bit; the chain slots
    before each birth must hold zeros too."""
    means, steps, gains, log_liks = _smooth_births(births, eps, meas, mm, sm)
    nb, nu, d = means.shape
    assert steps.shape == (nb, nu, d, d) and gains.shape == (nb, nu - 1, d, d)
    for i, b in enumerate(births):
        lo = b - births[0]
        assert not means[i, :lo].any() and not steps[i, :lo].any() and not gains[i, :lo].any()
    joint = np.zeros((nb, nu * d, nu * d))
    joint[:, -d:, -d:] = steps[:, -1]
    for s in range(nu - 2, -1, -1):
        here, later = slice(s * d, (s + 1) * d), slice((s + 1) * d, None)
        cross = gains[:, s] @ joint[:, (s + 1) * d : (s + 2) * d, later]
        joint[:, here, here] = steps[:, s]
        joint[:, here, later] = cross
        joint[:, later, here] = cross.swapaxes(1, 2)
    return means.reshape(nb, -1), joint, log_liks


def assert_normwise_close(x, ref, tol=1e-12):
    """max |x - ref| <= tol * max |ref|: normwise relative agreement."""
    x, ref = np.asarray(x), np.asarray(ref)
    assert x.shape == ref.shape
    assert np.abs(x - ref).max(initial=0.0) <= tol * np.abs(ref).max(initial=0.0), np.abs(x - ref).max(initial=0.0)


def assert_equals_per_birth(births, eps, meas, mm, sm):
    """``_smooth_births``, run with every floating-point error raised, matches
    ``smooth_hypothesis_per_birth`` within 1e-12 normwise relative: each
    birth's trailing block of the joint mean and covariance its chain fixes,
    and its log-likelihood. The leading coordinates, before the birth, hold
    zeros."""
    with np.errstate(all="raise"):
        means, covs, log_liks = smoothed_joints(births, eps, meas, mm, sm)
    assert means.shape == (len(births), (eps - births[0] + 1) * mm.dim)
    for b, mean, cov, log_lik in zip(births, means, covs, log_liks):
        ref_mean, ref_cov, ref_log_lik = smooth_hypothesis_per_birth(b, eps, meas, mm, sm)
        lo = (b - births[0]) * mm.dim
        assert_normwise_close(mean[lo:], ref_mean)
        assert_normwise_close(cov[lo:, lo:], ref_cov)
        assert abs(log_lik - ref_log_lik) <= 1e-12 * abs(ref_log_lik)
        assert not mean[:lo].any() and not cov[:lo].any() and not cov[:, :lo].any()


@pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
def test_lockstep_equals_per_birth(case):
    births, eps, times, mm, sm = LOCKSTEP_CASES[case]
    rng = np.random.default_rng(3)
    meas = {k: rng.normal(k, 1.0, sm.meas_dim) for k in times}
    assert_equals_per_birth(births, eps, meas, mm, sm)


@pytest.fixture(params=sorted(FIT_FIXTURES))
def fit_case(request):
    return FIT_FIXTURES[request.param]


class TestFitBernoulliTrack:
    def test_input_validation(self):
        mm, sm, w = cv_motion(), pos_sensor(), TimeWindow(0, 10)
        with pytest.raises(ValueError):
            fit_bernoulli_track([], mm, sm, w)
        with pytest.raises(ValueError):
            fit_bernoulli_track([(3, [0.0]), (3, [1.0])], mm, sm, w)
        with pytest.raises(ValueError):
            fit_bernoulli_track([(11, [0.0])], mm, sm, w)

    def test_support_respects_slack(self):
        mm, sm = cv_motion(), pos_sensor()
        out = fit_bernoulli_track(
            [(4, [4.0]), (6, [6.0])], mm, sm, TimeWindow(0, 10), slack=2
        )
        assert out.r == 0.9
        for b, e in out.density.pmf.pairs:
            assert 2 <= b <= 4 and 6 <= e <= 8
        assert abs(out.density.pmf.probs.sum() - 1.0) <= 1e-12

    def test_single_measurement(self):
        mm, sm = cv_motion(), pos_sensor()
        out = fit_bernoulli_track([(0, [1.0])], mm, sm, TimeWindow(0, 3), slack=1)
        assert all(b == 0 for b, _ in out.density.pmf.pairs)
        assert {e for _, e in out.density.pmf.pairs} <= {0, 1}

    def test_equals_per_pair_smoother(self, rng):
        # every hypothesis's conditional and the pmf match a fresh Kalman/RTS
        # pass over exactly (b, e); the measurements leave a gap at 5..6, and
        # the window clamps the slack at both ends (births 0..1, deaths 8..10)
        mm, sm, window = cv_motion(), pos_sensor(), TimeWindow(0, 10)
        times = [1, 2, 3, 4, 7, 8]
        meas = [(k, [float(rng.normal(k, 1.0))]) for k in times]
        out = fit_bernoulli_track(meas, mm, sm, window, slack=3)
        assert out.density.pmf.pairs == tuple((b, e) for b in (0, 1) for e in (8, 9, 10))
        by_time = {k: np.asarray(z, dtype=float) for k, z in meas}
        log_w = []
        for (b, e), gs in zip(out.density.pmf.pairs, out.density.conditionals):
            ref_mean, ref_cov, log_lik = smooth_hypothesis_per_birth(b, e, by_time, mm, sm)
            np.testing.assert_allclose(gs.mean, ref_mean, rtol=0, atol=1e-10)
            np.testing.assert_allclose(gs.cov, ref_cov, rtol=0, atol=1e-10)
            death = 0.0 if e == window.gamma else math.log(1.0 - mm.survival)
            log_w.append(log_lik - math.log(2) + math.log(mm.survival) * (e - b) + death)
        w = np.exp(np.asarray(log_w) - max(log_w))
        np.testing.assert_allclose(out.density.pmf.probs, w / w.sum(), rtol=0, atol=1e-12)

    def test_pmf_matches_logsumexp(self, fit_case):
        # the max-shifted weights equal the logsumexp-normalized ones of the
        # per-pair smoother's log-likelihoods and birth/survival/death priors
        meas, mm, sm, window, slack = fit_case
        out = fit_bernoulli_track(meas, mm, sm, window, slack=slack)
        by_time = {k: np.asarray(z, dtype=float) for k, z in meas}
        n_betas = len({b for b, _ in out.density.pmf.pairs})
        log_w = []
        for b, e in out.density.pmf.pairs:
            _, _, log_lik = smooth_hypothesis_per_birth(b, e, by_time, mm, sm)
            death = 0.0 if e == window.gamma else math.log(1.0 - mm.survival)
            log_w.append(log_lik - math.log(n_betas) + math.log(mm.survival) * (e - b) + death)
        ref = np.exp(np.asarray(log_w) - logsumexp(log_w))
        np.testing.assert_allclose(out.density.pmf.probs, ref / ref.sum(), rtol=0, atol=1e-12)

    def test_conditionals_equal_per_birth(self, fit_case):
        # one lockstep pass gives every birth's joint and likelihood within
        # 1e-12 of the per-birth smoother, and each (b, e) conditional's
        # dense covariance, built from its chain on first access, is bit for
        # bit the leading block of b's joint as the batched fill builds it
        meas, mm, sm, window, slack = fit_case
        with np.errstate(all="raise"):
            out = fit_bernoulli_track(meas, mm, sm, window, slack=slack)
        by_time = {k: np.asarray(z, dtype=float) for k, z in meas}
        births = sorted({b for b, _ in out.density.pmf.pairs})
        last = max(e for _, e in out.density.pmf.pairs)
        assert_equals_per_birth(births, last, by_time, mm, sm)
        means, covs, _ = smoothed_joints(births, last, by_time, mm, sm)
        for (b, e), gs in zip(out.density.pmf.pairs, out.density.conditionals):
            i, n = births.index(b), (e - b + 1) * mm.dim
            lo = (b - births[0]) * mm.dim
            np.testing.assert_array_equal(gs.mean, means[i, lo : lo + n])
            np.testing.assert_array_equal(gs.cov, covs[i, lo : lo + n, lo : lo + n])

    def test_conditionals_are_frozen_symmetric_leading_blocks(self, fit_case):
        # built without re-validation, each conditional is still read-only,
        # exactly symmetric and the leading block of its birth's joint, the
        # conditional that lives to the last death
        meas, mm, sm, window, slack = fit_case
        out = fit_bernoulli_track(meas, mm, sm, window, slack=slack)
        last = max(e for _, e in out.density.pmf.pairs)
        for (b, e), gs in zip(out.density.pmf.pairs, out.density.conditionals):
            assert not gs.mean.flags.writeable and not gs.cov.flags.writeable
            assert np.array_equal(gs.cov, gs.cov.T)
            assert gs.mean.shape == ((e - b + 1) * mm.dim,) and gs.dim == mm.dim
            joint = out.density.conditional((b, last))
            np.testing.assert_array_equal(gs.mean, joint.mean[: gs.mean.size])
            np.testing.assert_array_equal(gs.cov, joint.cov[: gs.mean.size, : gs.mean.size])

    def test_pmf_finite_at_tiny_log_weights(self, fit_case, monkeypatch):
        # every log-weight around -1e4, where exp alone underflows to 0
        meas, mm, sm, window, slack = fit_case
        plain = fit_bernoulli_track(meas, mm, sm, window, slack=slack).density.pmf.probs
        smooth = scenario._smooth_births
        calls = []

        def shifted(*args):
            means, steps, gains, log_liks = smooth(*args)
            calls.append(log_liks.size)
            return means, steps, gains, log_liks - 1e4

        monkeypatch.setattr(scenario, "_smooth_births", shifted)
        out = fit_bernoulli_track(meas, mm, sm, window, slack=slack)
        assert calls == [len({b for b, _ in out.density.pmf.pairs})]
        probs = out.density.pmf.probs
        assert np.all(np.isfinite(probs))
        assert abs(probs.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(probs, plain, rtol=0, atol=1e-9)

    def test_good_track_concentrates_on_truth(self):
        # measurements along a straight line, with a birth prior centered on
        # the state at the first measured step, favor the hypothesis that
        # spans exactly the measured steps under low survival
        mm = good_track_motion()
        sm = pos_sensor(r=0.01)
        meas = [(k, [1.0 + 1.0 * k]) for k in range(3, 8)]
        out = fit_bernoulli_track(meas, mm, sm, TimeWindow(0, 10), slack=3)
        top = max(out.density.pmf.items(), key=lambda kv: kv[1])[0]
        assert top == (3, 7)


def cli_track_models():
    """The constant-velocity motion and position sensor of the ``cli-track`` benchmark inputs."""
    mm = MotionModel(
        np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[0.05 / 3.0, 0.025], [0.025, 0.05]]), 0.99, 0.0,
        np.array([0.0, 1.0]), np.diag([25.0, 1.0]),
    )
    sm = SensorModel(np.array([[1.0, 0.0]]), np.array([[1.0]]), 0.9, 0.0, np.array([-1e3]), np.array([1e3]))
    return mm, sm


def cv_track(rng, mm, steps):
    """Truth states (steps, 2) of one constant-velocity target and its
    position detections, each made with probability 0.9, from step 5 to
    ``steps`` - 6, as in the ``cli-track`` inputs."""
    q_fac = np.linalg.cholesky(mm.process_noise)
    x = np.array([0.0, 1.0]) + rng.standard_normal(2)
    states = np.empty((steps, 2))
    for k in range(steps):
        states[k] = x
        x = mm.transition @ x + q_fac @ rng.standard_normal(2)
    meas = [(k, [states[k, 0] + rng.standard_normal()]) for k in range(5, steps - 5) if rng.random() < 0.9]
    return states, meas


def fitted_chain_sequences():
    """(name, conditional) of fitted sequences that read their chain: each
    birth of every ``LOCKSTEP_CASES`` smoother at its full length and cut
    short, and every conditional of the no-process-noise, clamped-window and
    noise-free-sensor track fits."""
    rng = np.random.default_rng(21)
    out = []
    for case in sorted(LOCKSTEP_CASES):
        births, eps, times, mm, sm = LOCKSTEP_CASES[case]
        meas = {k: rng.normal(k, 1.0, sm.meas_dim) for k in times}
        means, steps, gains, _ = _smooth_births(births, eps, meas, mm, sm)
        for i, b in enumerate(births):
            start = b - births[0]
            chain = _Chain(means[i, start:], steps[i, start:], gains[i, start:])
            n = eps - b + 1
            out += [(f"{case}/{b}", chain.leading(n)), (f"{case}/{b}/short", chain.leading(max(n // 2, 1)))]
    noise_free = (
        [(k, [1.0 * k]) for k in range(2, 8)],
        MotionModel(np.array([[1.0, 1.0], [0.0, 1.0]]), np.diag([0.0, 0.1]), 0.9, 0.0, np.zeros(2), np.eye(2)),
        pos_sensor(r=0.0),
        TimeWindow(0, 10),
        1,
    )
    for name, (meas, mm, sm, window, slack) in (
        ("no_process_noise", FIT_FIXTURES["no_process_noise"]),
        ("clamped", FIT_FIXTURES["clamped"]),
        ("noise_free_sensor", noise_free),
    ):
        fit = fit_bernoulli_track(meas, mm, sm, window, slack=slack)
        out += [(f"{name}/{pair}", g) for pair, g in zip(fit.density.pmf.pairs, fit.density.conditionals)]
    return out


class TestFittedChains:
    def test_accessors_equal_the_materialized_covariance(self):
        # variances, step blocks and blocks of unsorted rows and columns read
        # off the chain agree with indexing the dense covariance built from
        # it within 1e-12 normwise relative; a dense sequence of that
        # covariance gives exactly the indexed entries. Each block has the
        # same bits alone as in one batch with requests on other chains and
        # on the longest conditional of its own chain
        rng = np.random.default_rng(4)
        sequences = fitted_chain_sequences()
        for name, g in sequences:
            assert "cov" not in g.__dict__, name
            others = [h for _, h in sequences if h.dim == g.dim and h._chain is not g._chain][:3]
            longest = g._chain.leading(g._chain.means.shape[0])
            with np.errstate(all="raise"):
                var, step_covs = g._variances(), g._step_covs()
            cov = g.cov
            n, d = cov.shape[0], g.dim
            steps = np.array([cov[s * d : (s + 1) * d, s * d : (s + 1) * d] for s in range(g.length)])
            assert_normwise_close(var, cov.diagonal())
            assert_normwise_close(step_covs, steps)
            dense = GaussianSequence._valid(np.array(g.mean), np.array(cov), g.dim)
            np.testing.assert_array_equal(dense._variances(), cov.diagonal())
            np.testing.assert_array_equal(dense._step_covs(), steps)
            for _ in range(4):
                col_steps = rng.choice(g.length, size=min(g.length, 3), replace=False)
                cols = rng.permutation(np.concatenate([s * d + rng.choice(d, d, replace=False) for s in col_steps]))
                # rows at the column steps, and before and after them
                edge = [0, cols[0], n - 1]
                rows = rng.permutation(np.concatenate((edge, rng.choice(n, min(n, 7), replace=False))))
                with np.errstate(all="raise"):
                    block, full, same = _cov_blocks([g, g, g], [rows, None, cols], [cols, cols, cols])
                    # rows that are the columns, as a pair probability asks
                    (square,) = _cov_blocks([g], [cols], [cols])
                assert_normwise_close(block, cov[np.ix_(rows, cols)])
                assert_normwise_close(full, cov[:, cols])
                for got in (same, square):
                    assert_normwise_close(got, cov[np.ix_(cols, cols)])
                    assert np.array_equal(got, got.T), name
                for got, want in zip(
                    _cov_blocks([dense] * 3, [rows, None, cols], [cols] * 3),
                    (cov[np.ix_(rows, cols)], cov[:, cols], cov[np.ix_(cols, cols)]),
                ):
                    np.testing.assert_array_equal(got, want)
                batch = [(g, rows, cols), (g, None, cols), (g, cols, cols), (longest, None, cols)]
                for h in others:
                    at = rng.choice(h.mean.size, min(h.mean.size, 4), replace=False)
                    batch[1:1] = [(h, at, at), (h, None, at)]
                for (h, r, c), got in zip(batch, _cov_blocks(*zip(*batch))):
                    (alone,) = _cov_blocks([h], [r], [c])
                    assert got.tobytes() == alone.tobytes(), name

    def test_array_dataclasses_compare_by_identity(self):
        # an elementwise comparison of array fields has no truth value, so
        # two distinct instances of equal values compare unequal without
        # raising, and comparing fitted conditionals builds no dense covariance
        mm, sm = cli_track_models()
        _, meas = cv_track(np.random.default_rng(8), mm, 35)
        assert [k for k, _ in meas][0] >= 5 and [k for k, _ in meas][-1] <= 29
        fit = fit_bernoulli_track(meas, mm, sm, TimeWindow(0, 34), slack=3)
        first, second = fit.density.conditionals[:2]
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])

        def moments():
            return MarginalMoments([0, 1], np.zeros((2, 1)), np.ones((2, 1, 1)), np.ones(2), 1.0, np.zeros((2, 1)), {}, {})

        def stratum():
            return Stratum(np.zeros((2, 1, 1)), np.ones(2))

        twins = [
            (moments(), moments()),
            (stratum(), stratum()),
            (SampleCloud(1, {(0, 0): stratum()}), SampleCloud(1, {(0, 0): stratum()})),
            (Measurement(0, np.zeros(2)), Measurement(0, np.zeros(2))),
            (GaussianSequence(np.zeros(2), cov, 1), GaussianSequence(np.zeros(2), cov, 1)),
            (BirthDeathPmf(((0, 1),), np.ones(1)), BirthDeathPmf(((0, 1),), np.ones(1))),
            (Trajectory(0, 1, np.zeros((2, 2))), Trajectory(0, 1, np.zeros((2, 2)))),
            (mm, dataclasses.replace(mm)),
            (sm, dataclasses.replace(sm)),
            (first, first._chain.leading(first.length)),
            (first, second),
        ]
        for a, b in twins:
            assert a != b and not a == b, type(a)
            assert a == a and hash(a) == hash(a) and len({a, b}) == 2, type(a)
        assert all("cov" not in g.__dict__ for g in fit.density.conditionals)

    def test_marginals_leave_the_chain_untouched(self):
        # constrained_marginals adds K Delta K' to each pair's step blocks,
        # which a chain lends read-only: two calls give the same bits, and the
        # chains' step covariances are unchanged
        mm, sm = cli_track_models()
        states, meas = cv_track(np.random.default_rng(6), mm, 40)
        fit = fit_bernoulli_track(meas, mm, sm, TimeWindow(0, 39), slack=3)
        for g in fit.density.conditionals:
            assert not g._step_covs().flags.writeable
            with pytest.raises(ValueError):
                g._step_covs()[0, 0, 0] = 1.0
        before = [g._chain.steps.copy() for g in fit.density.conditionals]
        gates = [Constraint(t, StateRegion.box([(states[t, 0] - 0.5, states[t, 0] + 0.5), None])) for t in (10, 20, 30)]
        ctd = constrain_bernoulli(fit, ConstraintSet(gates, "disjunct"), 20_000, 1).density
        first, second = (constrained_marginals(ctd, 20_000, 2) for _ in range(2))
        for a, b in ((first.means, second.means), (first.covs, second.covs), (first.mean_se, second.mean_se)):
            assert a.tobytes() == b.tobytes()
        for g, steps in zip(fit.density.conditionals, before):
            assert g._chain.steps.tobytes() == steps.tobytes()

    def test_long_track_constrains_in_chain_memory(self, monkeypatch):
        # a 1,200-step track: its four births' dense joints alone would take
        # 4 x 2,400^2 x 8 B, about 184 MB; fitting it, constraining it by
        # three disjunct gates, taking its marginals and checking its counts
        # by the oracle stays below 16 MB, and no conditional builds its dense
        # covariance. The oracle sweeps each chain once per distinct head.
        sweeps = []
        sweep = oracle._head_cov
        monkeypatch.setattr(oracle, "_head_cov", lambda g, head: sweeps.append(head.tolist()) or sweep(g, head))
        mm, sm = cli_track_models()
        steps = 1200
        states, meas = cv_track(np.random.default_rng(7), mm, steps)
        cs = ConstraintSet(
            [Constraint(t, StateRegion.box([(states[t, 0] - 0.5, states[t, 0] + 0.5), None])) for t in (300, 600, 900)],
            "disjunct",
        )
        tracemalloc.start()
        try:
            fit = fit_bernoulli_track(meas, mm, sm, TimeWindow(0, steps - 1), slack=3)
            constrained = constrain_bernoulli(fit, cs, 20_000, 1)
            marginals = constrained_marginals(constrained.density, 20_000, 2)
            report = oracle_bernoulli(fit, constrained, cs, n=20_000, rng_seed=3, check_moments=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak
        assert report.passed, [(e.name, e.z) for e in report.entries if not e.passed]
        assert len(fit.density.conditionals) == 16
        assert all("cov" not in g.__dict__ for g in fit.density.conditionals)
        assert {info.path for info in constrained.density.pair_info.values()} == {CLOSED_FORM}
        assert set(marginals.view_paths.values()) == {CLOSED_FORM}
        pairs = fit.density.pmf.pairs
        assert marginals.times == list(range(pairs[0][0], pairs[-1][1] + 1))
        assert np.isfinite(marginals.means).all()
        heads = {(b, tuple(cs.constraints[k].time - b for k in active_indices(cs, b, e))) for b, e in pairs}
        assert len(sweeps) == len(heads) < len(pairs), (len(sweeps), heads)
