"""Point-target scenario simulation and Bernoulli track fitting.

Ground truth follows the standard linear-Gaussian point-target model:
Poisson births, per-step survival, linear transition with additive noise.
Measurements are linear detections plus uniform Poisson clutter.
``fit_bernoulli_track`` turns one associated measurement sequence into a
Bernoulli trajectory density over every plausible (birth, death) hypothesis:
one Kalman filter and RTS smoother pass carries all births of the track in
lockstep (``_smooth_births``), by associative scans after the last birth,
each death's Gaussian is the leading steps of its birth's smoother chain,
and hypotheses are weighted by measurement evidence and birth/survival
priors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .chain import _Chain
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


@dataclass(eq=False)
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


def _filter_elements(
    F: np.ndarray, Q: np.ndarray, H: np.ndarray, R: np.ndarray, seen: np.ndarray, Z: np.ndarray
) -> Optional[Tuple[np.ndarray, ...]]:
    """Filter elements (A, b, C, eta, J) of consecutive steps, ``seen[k]``
    whether step k has a measurement and the rows of ``Z`` those measurements
    in order; None if a measured step's H Q H' + R is singular.
    Step k's element gives p(x_k | x_{k-1}, z_k) = N(A x_{k-1} + b, C) and
    p(z_k | x_{k-1}) as exp(eta' x_{k-1} - x_{k-1}' J x_{k-1} / 2) up to a
    constant; an unmeasured step's is (F, 0, Q, 0, 0)."""
    n, d = seen.size, F.shape[0]
    A = np.broadcast_to(F, (n, d, d)).copy()
    b = np.zeros((n, d))
    C = np.broadcast_to(Q, (n, d, d)).copy()
    eta = np.zeros((n, d))
    J = np.zeros((n, d, d))
    if seen.any():
        S = H @ Q @ H.T + R
        S = 0.5 * (S + S.T)
        HF = H @ F
        try:
            X = np.linalg.solve(S, np.hstack([H @ Q, HF]))
        except np.linalg.LinAlgError:
            return None
        K, SHF = X[:, :d].T, X[:, d:]
        C_seen, J_seen = Q - K @ S @ K.T, HF.T @ SHF
        A[seen] = F - K @ HF
        b[seen] = Z @ K.T
        C[seen] = 0.5 * (C_seen + C_seen.T)
        eta[seen] = Z @ SHF
        J[seen] = 0.5 * (J_seen + J_seen.T)
    return A, b, C, eta, J


def _filter_scan(A, b, C, eta, J) -> Tuple[np.ndarray, ...]:
    """Every prefix a_0 * ... * a_k of filter elements (steps on the leading
    axis) by a Hillis-Steele scan of Särkkä's combination rule."""
    n, d = b.shape
    off = 1
    while off < n:
        Ai, bi, Ci, ei, Ji = A[:-off], b[:-off], C[:-off], eta[:-off], J[:-off]
        Aj, bj, Cj, ej, Jj = A[off:], b[off:], C[off:], eta[off:], J[off:]
        # W = (I + C_i J_j)^-1 [A_i, b_i + C_i eta_j, C_i]; (I + J_j C_i)^-1 = W'
        rhs = np.concatenate([Ai, (bi + (Ci @ ej[..., None])[..., 0])[..., None], Ci], axis=-1)
        W = np.linalg.solve(np.eye(d) + Ci @ Jj, rhs)
        WA, Wb, WC = W[..., :d], W[..., d], W[..., d + 1 :]
        Ct = Aj @ WC @ Aj.swapaxes(-1, -2) + Cj
        Jt = WA.swapaxes(-1, -2) @ Jj @ Ai + Ji
        et = (WA.swapaxes(-1, -2) @ (ej - (Jj @ bi[..., None])[..., 0])[..., None])[..., 0] + ei
        A = np.concatenate([A[:off], Aj @ WA])
        b = np.concatenate([b[:off], (Aj @ Wb[..., None])[..., 0] + bj])
        C = np.concatenate([C[:off], 0.5 * (Ct + Ct.swapaxes(-1, -2))])
        eta = np.concatenate([eta[:off], et])
        J = np.concatenate([J[:off], 0.5 * (Jt + Jt.swapaxes(-1, -2))])
        off *= 2
    return A, b, C, eta, J


def _smoother_scan(gains, means_f, covs_f, means_p, covs_p) -> Tuple[np.ndarray, np.ndarray]:
    """Smoothed means and covariances (batch, steps, ...) from the filtered
    and predicted ones and the RTS gains (batch, steps - 1, d, d), by a
    reverse Hillis-Steele scan of the affine elements (E, g, L) of
    x_s = E x_{s+1} + g + N(0, L)."""
    nu = means_f.shape[1]
    E = np.zeros_like(covs_f)
    E[:, :-1] = gains
    g = means_f.copy()
    g[:, :-1] -= (gains @ means_p[:, 1:, :, None])[..., 0]
    L = covs_f.copy()
    L[:, :-1] -= gains @ covs_p[:, 1:] @ gains.swapaxes(-1, -2)
    off = 1
    while off < nu:
        Ei = E[:, :-off]
        g[:, :-off] = (Ei @ g[:, off:, :, None])[..., 0] + g[:, :-off]
        L[:, :-off] = Ei @ L[:, off:] @ Ei.swapaxes(-1, -2) + L[:, :-off]
        E[:, :-off] = Ei @ E[:, off:]
        off *= 2
    return g, 0.5 * (L + L.swapaxes(-1, -2))


def _smooth_births(
    births: Sequence[int],
    eps: int,
    meas: Dict[int, np.ndarray],
    mm: MotionModel,
    sm: SensorModel,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Kalman filter + RTS smoother over b..eps for every b of the ascending
    ``births`` at once, on a leading batch axis.

    Returns each birth's smoother chain and likelihood: smoothed means
    (len(births), N, d), step covariances (len(births), N, d, d), RTS gains
    (len(births), N - 1, d, d) and log marginal measurement likelihoods
    (len(births),), where N = eps - births[0] + 1. Birth i's chain starts at
    slot births[i] - births[0]; the slots before it hold zeros. The chain
    fixes the joint covariance (``chain._Chain``), which is never
    built here.

    Up to the last birth the filter steps one at a time, on the prefix of
    the batch born by then. After it every birth is alive and the steps'
    elements no longer depend on the birth, so the filter runs as one
    associative scan (Särkkä & García-Fernández, IEEE TAC 66, 2021) of
    those elements, each prefix combined with every birth's filtered
    moments at the last birth. A measured step's element needs H Q H' + R
    invertible; where it is not (a noise-free sensor on a coordinate
    without process noise), the step-by-step filter runs on to ``eps``
    instead. The log-likelihoods and RTS gains come from one batched
    expression or solve each, and the smoothed moments from a reverse scan.
    Slots before a birth hold zeros (a gain of 0), so every scan runs on
    the whole batch. The scans need no inverse of the process noise.
    """
    F, Q, H, R = mm.transition, mm.process_noise, sm.measurement, sm.noise
    d = mm.dim
    nb, b0, last = len(births), births[0], births[-1]
    start = np.asarray(births) - b0  # each birth's slot
    nu = eps - b0 + 1
    means_f = np.zeros((nb, nu, d))
    covs_f = np.zeros((nb, nu, d, d))
    means_p = np.zeros((nb, nu, d))
    covs_p = np.zeros((nb, nu, d, d))
    after = last - b0 + 1  # first slot after the last birth
    elements = None
    if after < nu:
        steps = range(last + 1, eps + 1)
        seen = np.array([k in meas for k in steps])
        Z = np.array([meas[k] for k in steps if k in meas]).reshape(-1, H.shape[0])
        elements = _filter_elements(F, Q, H, R, seen, Z)
    m = np.zeros((nb, d))
    P = np.zeros((nb, d, d))
    was = 0
    # live[s]: births alive at step b0 + s, up to the last birth (or to eps
    # when there are no elements to scan)
    stop = eps if elements is None else last
    for s, a in enumerate(np.searchsorted(births, np.arange(b0, stop + 1), side="right").tolist()):
        m[:was] = (F @ m[:was, :, None])[..., 0]
        P[:was] = F @ P[:was] @ F.T + Q
        m[was:a], P[was:a] = mm.birth_mean, mm.birth_cov
        means_p[:a, s], covs_p[:a, s] = m[:a], P[:a]
        z = meas.get(b0 + s)
        if z is not None:
            S = H @ P[:a] @ H.T + R
            S = 0.5 * (S + S.swapaxes(1, 2))
            K = np.linalg.solve(S, H @ P[:a]).swapaxes(1, 2)
            m[:a] = m[:a] + (K @ (z - (H @ m[:a, :, None])[..., 0])[..., None])[..., 0]
            P[:a] = P[:a] - K @ S @ K.swapaxes(1, 2)
            P[:a] = 0.5 * (P[:a] + P[:a].swapaxes(1, 2))
        means_f[:a, s], covs_f[:a, s] = m[:a], P[:a]
        was = a
    if elements is not None:
        A, b, C, eta, J = _filter_scan(*elements)
        # each birth's filtered (m, P) at the last birth, then every prefix:
        # W = (I + P J)^-1 [m + P eta, P]
        M = np.eye(d) + P[:, None] @ J
        m_eta = (m[:, None] + (P[:, None] @ eta[..., None])[..., 0])[..., None]
        W = np.linalg.solve(M, np.concatenate([m_eta, np.broadcast_to(P[:, None], M.shape)], axis=-1))
        means_f[:, after:] = (A @ W[..., :1])[..., 0] + b
        Pf = A @ W[..., 1:] @ A.swapaxes(-1, -2) + C
        covs_f[:, after:] = 0.5 * (Pf + Pf.swapaxes(-1, -2))
        means_p[:, after:] = means_f[:, after - 1 : -1] @ F.T
        covs_p[:, after:] = F @ covs_f[:, after - 1 : -1] @ F.T + Q
    # log p(z | b): the innovations of every measured slot from the predicted
    # moments, with S = I and no innovation where the birth is not yet alive
    log_lik = np.zeros(nb)
    obs = np.flatnonzero([b0 + s in meas for s in range(nu)])
    if obs.size:
        alive = obs >= start[:, None]
        Z = np.array([meas[b0 + s] for s in obs.tolist()]).reshape(obs.size, -1)
        S = H @ covs_p[:, obs] @ H.T + R
        S = np.where(alive[..., None, None], 0.5 * (S + S.swapaxes(-1, -2)), np.eye(Z.shape[1]))
        innov = np.where(alive[..., None], Z - means_p[:, obs] @ H.T, 0.0)
        _, logdet = np.linalg.slogdet(S)
        quad = np.einsum("...i,...i->...", innov, np.linalg.solve(S, innov[..., None])[..., 0])
        log_lik -= 0.5 * (alive.sum(axis=1) * Z.shape[1] * math.log(2 * math.pi) + (logdet + quad).sum(axis=1))
    # RTS gains G_s = P_s F' (P_{s+1|s})^-1, with identity denominators (so a
    # gain of 0) at the slots before each birth
    born = np.arange(nu - 1) >= start[:, None]
    den = np.where(born[..., None, None], covs_p[:, 1:], np.eye(d))
    gains = np.linalg.solve(den, F @ covs_f[:, :-1]).swapaxes(-1, -2)
    means_s, covs_s = _smoother_scan(gains, means_f, covs_f, means_p, covs_p)
    return means_s, covs_s, gains, log_lik


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
    (b, e) conditional is the leading steps of b's smoother chain (no copy,
    and no dense covariance until one is asked for), built without
    re-validation once the whole chain is checked finite, and all deaths of
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
    # No measurement lies after times[-1] <= e, so the (b, e) smoothed chain is
    # the leading part of the (b, epss[-1]) chain, with the same likelihood.
    means, steps, gains, log_liks = _smooth_births(betas, epss[-1], meas, mm, sm)
    if not (np.isfinite(means).all() and np.isfinite(steps).all() and np.isfinite(gains).all()):
        raise ValueError("mean and cov must be finite")
    for i, (b, log_lik) in enumerate(zip(betas, log_liks.tolist())):
        chain = _Chain(*(part[i, b - betas[0] :] for part in (means, steps, gains)))
        for e in epss:
            surv = math.log(mm.survival) * (e - b) if mm.survival > 0 else (0.0 if e == b else -np.inf)
            death = 0.0 if e == window.gamma else math.log(1.0 - mm.survival)
            prior = -math.log(n_betas) + surv + death
            pairs.append((b, e))
            conds.append(chain.leading(e - b + 1))
            log_w.append(log_lik + prior)
    log_w = np.asarray(log_w)
    probs = np.exp(log_w - log_w.max())
    probs /= probs.sum()
    density = TrajectoryDensity(BirthDeathPmf(tuple(pairs), probs), tuple(conds))
    return BernoulliTrajectory(r0, density)
