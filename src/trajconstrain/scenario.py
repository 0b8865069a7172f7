"""Point-target scenario simulation and Bernoulli track fitting.

Ground truth follows the standard linear-Gaussian point-target model:
Poisson births, per-step survival, linear transition with additive noise.
Measurements are linear detections plus uniform Poisson clutter.
``fit_bernoulli_track`` turns one associated measurement sequence into a
Bernoulli trajectory density over every plausible (birth, death) hypothesis:
one Kalman filter and RTS smoother pass carries all births of the track in
lockstep (``_smooth_births``), each death's Gaussian is the leading block of
its birth's smoothed joint, and hypotheses are weighted by measurement
evidence and birth/survival priors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import TimeWindow, Trajectory
from .errors import DimensionMismatchError
from .gaussian import BirthDeathPmf, GaussianSequence, TrajectoryDensity, _cholesky, child_rng
from .rfs import BernoulliTrajectory


def _check_finite(**arrays: np.ndarray) -> None:
    """A ValueError naming the first of ``arrays`` with a NaN or infinite entry."""
    for name, x in arrays.items():
        if not np.isfinite(x).all():
            raise ValueError(f"{name} must be finite, got {x.tolist()}")


def _check_psd(cov: np.ndarray, name: str) -> np.ndarray:
    """The symmetric part of ``cov``; a ValueError naming it if ``_cholesky`` rejects that."""
    sym = 0.5 * (cov + cov.T)
    try:
        _cholesky(sym)
    except ValueError as exc:
        raise ValueError(f"{name} must be PSD: {exc}") from None
    return sym


@dataclass(frozen=True)
class MotionModel:
    """Linear-Gaussian dynamics with Poisson birth and per-step survival."""

    transition: np.ndarray
    process_noise: np.ndarray
    survival: float
    birth_rate: float
    birth_mean: np.ndarray
    birth_cov: np.ndarray
    birth_schedule: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        F = np.atleast_2d(np.asarray(self.transition, dtype=np.float64))
        Q = np.atleast_2d(np.asarray(self.process_noise, dtype=np.float64))
        bm = np.asarray(self.birth_mean, dtype=np.float64).ravel()
        bc = np.atleast_2d(np.asarray(self.birth_cov, dtype=np.float64))
        d = F.shape[0]
        if F.shape != (d, d) or Q.shape != (d, d) or bm.size != d or bc.shape != (d, d):
            raise DimensionMismatchError("motion model matrices have inconsistent shapes")
        _check_finite(transition=F, process_noise=Q, birth_mean=bm, birth_cov=bc)
        if not (0.0 <= self.survival <= 1.0):
            raise ValueError(f"survival: {self.survival} is not a probability in [0, 1]")
        if not 0.0 <= self.birth_rate < math.inf:
            raise ValueError(f"birth_rate: {self.birth_rate} is not a finite number >= 0")
        object.__setattr__(self, "transition", F)
        object.__setattr__(self, "process_noise", _check_psd(Q, "process noise"))
        object.__setattr__(self, "birth_mean", bm)
        object.__setattr__(self, "birth_cov", _check_psd(bc, "birth covariance"))

    @property
    def dim(self) -> int:
        return self.transition.shape[0]


@dataclass(frozen=True)
class SensorModel:
    """Linear detections with additive noise and uniform Poisson clutter."""

    measurement: np.ndarray
    noise: np.ndarray
    detection: float
    clutter_rate: float
    clutter_low: np.ndarray
    clutter_high: np.ndarray

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.measurement, dtype=np.float64))
        R = np.atleast_2d(np.asarray(self.noise, dtype=np.float64))
        lo = np.asarray(self.clutter_low, dtype=np.float64).ravel()
        hi = np.asarray(self.clutter_high, dtype=np.float64).ravel()
        m = H.shape[0]
        if R.shape != (m, m) or lo.size != m or hi.size != m:
            raise DimensionMismatchError("sensor model matrices have inconsistent shapes")
        _check_finite(measurement=H, noise=R, clutter_low=lo, clutter_high=hi)
        if not (0.0 <= self.detection <= 1.0):
            raise ValueError(f"detection: {self.detection} is not a probability in [0, 1]")
        if not 0.0 <= self.clutter_rate < math.inf:
            raise ValueError(f"clutter_rate: {self.clutter_rate} is not a finite number >= 0")
        object.__setattr__(self, "measurement", H)
        object.__setattr__(self, "noise", _check_psd(R, "measurement noise"))
        object.__setattr__(self, "clutter_low", lo)
        object.__setattr__(self, "clutter_high", hi)

    @property
    def meas_dim(self) -> int:
        return self.measurement.shape[0]


@dataclass
class Measurement:
    time: int
    value: np.ndarray
    source: Optional[int] = None  # truth trajectory index, None for clutter


@dataclass
class Scenario:
    window: TimeWindow
    truth: List[Trajectory]
    measurements: Dict[int, List[Measurement]] = field(default_factory=dict)

    def __post_init__(self):
        for t in self.truth:
            if t.birth < self.window.alpha or t.death > self.window.gamma:
                raise ValueError(f"trajectory {t.birth}..{t.death} exceeds window")


def simulate_truth(mm: MotionModel, window: TimeWindow, rng_seed: int = 0) -> List[Trajectory]:
    """Sample a ground-truth trajectory set from the motion model.

    A ``birth_schedule`` replaces Poisson births with one deterministic birth
    per listed time step.
    """
    rng = child_rng(rng_seed)
    q_fac = _cholesky(mm.process_noise)
    b_fac = _cholesky(mm.birth_cov)
    alive: List[Tuple[int, List[np.ndarray]]] = []
    done: List[Trajectory] = []
    for k in window.steps():
        survivors = []
        for birth, states in alive:
            if rng.random() < mm.survival:
                x = mm.transition @ states[-1] + q_fac @ rng.standard_normal(mm.dim)
                states.append(x)
                survivors.append((birth, states))
            else:
                done.append(Trajectory(birth, k - 1, np.array(states)))
        alive = survivors
        if mm.birth_schedule is not None:
            n_births = mm.birth_schedule.count(k)
        else:
            n_births = int(rng.poisson(mm.birth_rate))
        for _ in range(n_births):
            x0 = mm.birth_mean + b_fac @ rng.standard_normal(mm.dim)
            alive.append((k, [x0]))
    for birth, states in alive:
        done.append(Trajectory(birth, window.gamma, np.array(states)))
    done.sort(key=lambda t: (t.birth, t.death))
    return done


def simulate_measurements(
    truth: Sequence[Trajectory],
    sm: SensorModel,
    window: TimeWindow,
    rng_seed: int = 0,
) -> Dict[int, List[Measurement]]:
    """Per-step detections (probability ``detection``) plus uniform Poisson clutter."""
    rng = child_rng(rng_seed)
    r_fac = _cholesky(sm.noise)
    out: Dict[int, List[Measurement]] = {k: [] for k in window.steps()}
    for k in window.steps():
        for i, traj in enumerate(truth):
            if traj.alive_at(k) and rng.random() < sm.detection:
                z = sm.measurement @ traj.state_at(k) + r_fac @ rng.standard_normal(sm.meas_dim)
                out[k].append(Measurement(k, z, source=i))
        for _ in range(int(rng.poisson(sm.clutter_rate))):
            z = rng.uniform(sm.clutter_low, sm.clutter_high)
            out[k].append(Measurement(k, z, source=None))
    return out


def _smooth_births(
    births: Sequence[int],
    eps: int,
    meas: Dict[int, np.ndarray],
    mm: MotionModel,
    sm: SensorModel,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kalman filter + RTS smoother over b..eps for every b of the ascending
    ``births`` at once, on a leading batch axis.

    Returns the joint smoothed means (len(births), N * d), covariances
    (len(births), N * d, N * d) with cross-time blocks from the smoother gains,
    and log marginal measurement likelihoods (len(births),), where
    N = eps - births[0] + 1. Birth i's joint is the trailing block from
    coordinate (births[i] - births[0]) * d; the leading coordinates of its
    row are unused. At global step s the live births, those born at or
    before s, are a prefix of the batch, so every operation runs on a
    prefix; each is a stacked copy of the one-birth operation, which keeps
    every number bit-identical to smoothing the births one at a time.
    """
    F, Q, H, R = mm.transition, mm.process_noise, sm.measurement, sm.noise
    d = mm.dim
    nb, b0 = len(births), births[0]
    nu = eps - b0 + 1
    # live[s]: births alive at step b0 + s
    live = np.searchsorted(births, np.arange(b0, eps + 1), side="right").tolist()
    means_f = np.empty((nb, nu, d))
    covs_f = np.empty((nb, nu, d, d))
    means_p = np.empty((nb, nu, d))
    covs_p = np.empty((nb, nu, d, d))
    log_lik = np.zeros(nb)
    m = np.empty((nb, d))
    P = np.empty((nb, d, d))
    was = 0
    for s, a in enumerate(live):
        m[:was] = (F @ m[:was, :, None])[..., 0]
        P[:was] = F @ P[:was] @ F.T + Q
        m[was:a], P[was:a] = mm.birth_mean, mm.birth_cov
        means_p[:a, s], covs_p[:a, s] = m[:a], P[:a]
        z = meas.get(b0 + s)
        if z is not None:
            S = H @ P[:a] @ H.T + R
            S = 0.5 * (S + S.swapaxes(1, 2))
            innov = z - (H @ m[:a, :, None])[..., 0]
            _, logdet = np.linalg.slogdet(S)
            sol = np.linalg.solve(S, innov[..., None])[..., 0]
            log_lik[:a] += -0.5 * (z.size * math.log(2 * math.pi) + logdet + (innov[:, None] @ sol[..., None])[:, 0, 0])
            K = np.linalg.solve(S, H @ P[:a]).swapaxes(1, 2)
            m[:a] = m[:a] + (K @ innov[..., None])[..., 0]
            P[:a] = P[:a] - K @ S @ K.swapaxes(1, 2)
            P[:a] = 0.5 * (P[:a] + P[:a].swapaxes(1, 2))
        means_f[:a, s], covs_f[:a, s] = m[:a], P[:a]
        was = a
    # RTS backward pass over the births alive at each step
    means_s = means_f.copy()
    covs_s = covs_f.copy()
    gains = np.empty((nb, nu - 1, d, d))
    for s in range(nu - 2, -1, -1):
        a = live[s]
        G = np.linalg.solve(covs_p[:a, s + 1], F @ covs_f[:a, s]).swapaxes(1, 2)
        gains[:a, s] = G
        means_s[:a, s] = means_f[:a, s] + (G @ (means_s[:a, s + 1] - means_p[:a, s + 1])[..., None])[..., 0]
        covs_s[:a, s] = covs_f[:a, s] + G @ (covs_s[:a, s + 1] - covs_p[:a, s + 1]) @ G.swapaxes(1, 2)
        covs_s[:a, s] = 0.5 * (covs_s[:a, s] + covs_s[:a, s].swapaxes(1, 2))
    # Joint covariance: Cov(x_s, x_t) = G_s Cov(x_{s+1}, x_t) for s < t, built
    # one block row at a time from the row below and mirrored into the column.
    joint_mean = means_s.reshape(nb, -1)
    joint_cov = np.zeros((nb, nu * d, nu * d))
    joint_cov[:, -d:, -d:] = covs_s[:, -1]
    for s in range(nu - 2, -1, -1):
        a = live[s]
        here, later = slice(s * d, (s + 1) * d), slice((s + 1) * d, None)
        cross = gains[:a, s] @ joint_cov[:a, (s + 1) * d : (s + 2) * d, later]
        joint_cov[:a, here, here] = covs_s[:a, s]
        joint_cov[:a, here, later] = cross
        joint_cov[:a, later, here] = cross.swapaxes(1, 2)
    return joint_mean, joint_cov, log_lik


def fit_bernoulli_track(
    measurements: Sequence[Tuple[int, np.ndarray]],
    mm: MotionModel,
    sm: SensorModel,
    window: TimeWindow,
    r0: float = 0.9,
    slack: int = 3,
) -> BernoulliTrajectory:
    """Bernoulli density from one associated measurement sequence.

    Hypothesized births lie within ``slack`` steps before the first
    measurement and deaths within ``slack`` steps after the last one (with
    survival 1, the window's end only), clamped to the window. One lockstep
    ``_smooth_births`` pass smooths every birth through the last death; the
    (b, e) conditional is the leading block of b's joint, and all deaths of
    b share b's log-likelihood. The log-weight of (b, e) adds to it the
    uniform birth prior -log(#births), survival (e - b) log(survival) and,
    unless e is the window's last step, death log(1 - survival); the pmf is
    the max-shifted, normalized weights. Existence r is the supplied prior,
    not estimated from data.
    """
    if not measurements:
        raise ValueError("measurement list is empty")
    times = [t for t, _ in measurements]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("measurement times must be strictly increasing")
    if times[0] < window.alpha or times[-1] > window.gamma:
        raise ValueError("measurement times must lie within the window")
    if mm.survival == 0.0 and times[-1] > times[0]:
        raise ValueError(
            "motion.survival is 0, so no target lives from one measurement time to the next: "
            "every (birth, death) hypothesis of measurements at two or more times is impossible"
        )
    meas = {int(t): np.asarray(z, dtype=np.float64).ravel() for t, z in measurements}

    betas = range(max(window.alpha, times[0] - slack), times[0] + 1)
    epss = [window.gamma] if mm.survival == 1.0 else range(times[-1], min(window.gamma, times[-1] + slack) + 1)
    pairs: List[Tuple[int, int]] = []
    conds: List[GaussianSequence] = []
    log_w: List[float] = []
    n_betas = len(betas)
    d = mm.dim
    # No measurement lies after times[-1] <= e, so the (b, e) smoothed joint is
    # the leading block of the (b, epss[-1]) joint, with the same likelihood.
    means, covs, log_liks = _smooth_births(betas, epss[-1], meas, mm, sm)
    for b, mean, cov, log_lik in zip(betas, means, covs, log_liks.tolist()):
        lo = (b - betas[0]) * d
        for e in epss:
            hi = (e - betas[0] + 1) * d
            surv = math.log(mm.survival) * (e - b) if mm.survival > 0 else (0.0 if e == b else -np.inf)
            death = 0.0 if e == window.gamma else math.log(1.0 - mm.survival)
            prior = -math.log(n_betas) + surv + death
            pairs.append((b, e))
            conds.append(GaussianSequence(mean[lo:hi], cov[lo:hi, lo:hi], d))
            log_w.append(log_lik + prior)
    log_w = np.asarray(log_w)
    probs = np.exp(log_w - log_w.max())
    probs /= probs.sum()
    density = TrajectoryDensity(BirthDeathPmf(tuple(pairs), probs), tuple(conds))
    return BernoulliTrajectory(r0, density)
