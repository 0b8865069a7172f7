"""Bernoulli, PPP and PMBM densities over sets of trajectories.

Sampling here is deliberately simple and independent of the constraining
math: it exists so constrained parameters can be checked against brute-force
set realizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .core import Trajectory
from .gaussian import TrajectoryDensity, child_rng, stratified_draws

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class BernoulliTrajectory:
    """Empty with probability 1 - r, else one trajectory from the density."""

    r: float
    density: TrajectoryDensity

    def __post_init__(self):
        if not (0.0 <= self.r <= 1.0):
            raise ValueError(f"existence probability r={self.r} outside [0, 1]")


@dataclass(frozen=True)
class PppTrajectory:
    """Poisson point process with intensity mu * density."""

    mu: float
    density: TrajectoryDensity

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError(f"expected count mu={self.mu} must be positive")


@dataclass(frozen=True)
class GlobalHypothesis:
    weight: float
    tracks: Tuple[BernoulliTrajectory, ...]

    def __post_init__(self):
        if self.weight < 0.0:
            raise ValueError(f"hypothesis weight {self.weight} must be nonnegative")
        object.__setattr__(self, "tracks", tuple(self.tracks))


@dataclass(frozen=True)
class PmbmDensity:
    """One PPP plus a normalized mixture of multi-Bernoulli global hypotheses."""

    ppp: PppTrajectory
    hypotheses: Tuple[GlobalHypothesis, ...]

    def __post_init__(self):
        if not self.hypotheses:
            raise ValueError("at least one global hypothesis is required")
        total = sum(h.weight for h in self.hypotheses)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"hypothesis weights must sum to 1, got {total!r}")
        dims = {self.ppp.density.dim}
        for h in self.hypotheses:
            for t in h.tracks:
                dims.add(t.density.dim)
        if len(dims) != 1:
            raise ValueError(f"all components must share one state dimension, got {sorted(dims)}")
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))

    @property
    def dim(self) -> int:
        return self.ppp.density.dim

    def expected_cardinality(self) -> float:
        return self.ppp.mu + sum(h.weight * sum(t.r for t in h.tracks) for h in self.hypotheses)


def _draw_trajectories(density: TrajectoryDensity, n: int, rng: np.random.Generator) -> List[Trajectory]:
    draws = stratified_draws(density, n, rng)
    return [Trajectory(b, e, x[i]) for (b, e), x in draws.items() for i in range(x.shape[0])]


def sample_bernoulli(b: BernoulliTrajectory, rng_seed: int = 0) -> List[Trajectory]:
    """One Bernoulli realization: empty or a single trajectory."""
    rng = child_rng(rng_seed)
    if rng.random() >= b.r:
        return []
    return _draw_trajectories(b.density, 1, rng)


def sample_ppp(p: PppTrajectory, rng_seed: int = 0) -> List[Trajectory]:
    """One PPP realization: Poisson(mu) i.i.d. trajectories."""
    rng = child_rng(rng_seed)
    n = int(rng.poisson(p.mu))
    return _draw_trajectories(p.density, n, rng)


def sample_pmbm(m: PmbmDensity, rng_seed: int = 0) -> List[Trajectory]:
    """One PMBM realization: one PPP draw plus the tracks of a weight-drawn hypothesis."""
    rng = child_rng(rng_seed)
    weights = np.array([h.weight for h in m.hypotheses])
    hyp = m.hypotheses[int(rng.choice(len(weights), p=weights / weights.sum()))]
    out = []
    n = int(rng.poisson(m.ppp.mu))
    out.extend(_draw_trajectories(m.ppp.density, n, rng))
    for track in hyp.tracks:
        if rng.random() < track.r:
            out.extend(_draw_trajectories(track.density, 1, rng))
    return out


def validate(m) -> List[str]:
    """Invariant-violation report for a PMBM (or constrained PMBM); empty iff valid.

    Accepts any object exposing ``ppp`` (with mu) and ``hypotheses`` (each
    with weight and tracks carrying r and a density with a pmf).
    """
    report: List[str] = []
    total = sum(h.weight for h in m.hypotheses)
    if abs(total - 1.0) > _WEIGHT_TOL:
        report.append(f"hypothesis weights sum to {total!r}, expected 1")
    mu = getattr(m.ppp, "mu", None)
    if mu is not None and mu < 0.0:
        report.append(f"ppp mu={mu} is negative")
    for comp_name, density in [("ppp", m.ppp.density)] + [
        (f"hypothesis[{a}].track[{i}]", t.density)
        for a, h in enumerate(m.hypotheses)
        for i, t in enumerate(h.tracks)
    ]:
        pmf = getattr(density, "pmf", None)
        if pmf is None:
            continue
        s = float(np.sum(pmf.probs))
        if abs(s - 1.0) > _WEIGHT_TOL:
            report.append(f"{comp_name}: pmf sums to {s!r}, expected 1")
        conds = getattr(density, "conditionals", ())
        for (pair, g) in zip(pmf.pairs, conds):
            w = np.linalg.eigvalsh(g.cov)
            if w.size and w.min() < -1e-10:
                report.append(f"{comp_name}: covariance for pair {pair} has eigenvalue {w.min()}")
    for a, h in enumerate(m.hypotheses):
        for i, t in enumerate(h.tracks):
            if not (0.0 <= t.r <= 1.0):
                report.append(f"hypothesis[{a}].track[{i}]: r={t.r} outside [0, 1]")
    return report
