"""Constrained trajectory, Bernoulli, PPP and PMBM densities.

For a constraint set, each (birth, death) pair with at least one active
constraint gets a spatial satisfaction probability: in conjunct mode the
joint probability of being inside every active region, in disjunct mode one
minus the probability of being inside every complement. The constrained
existence/intensity scale is the original scale times the joint
temporal-spatial satisfaction probability. A Bernoulli or PPP whose support
meets no constraint time constrains to r = 0 / mu = 0. A PMBM is constrained
by constraining its PPP and every Bernoulli while hypothesis weights stay
untouched; global hypotheses share single-target hypotheses, so each distinct
density is constrained once per call and its result reused for every slot.

Per pair, both modes make one ``region_probability`` call (all entries
inside, or in disjunct mode with two or more active constraints all in the
complement). It goes through one probability primitive
(``gaussian._pattern_probabilities``), which works in this order: marginalize
each active region onto its bounded coordinates; pin every constraint whose
1-D bounds settle it within 1e-12 (one pinned against its side gives exactly
0); evaluate the rest in closed form when they are single boxes on
uncorrelated coordinates, else by Monte Carlo on those coordinates alone.

In disjunct mode the constrained conditional is a mixture over partitions of
the active constraints into satisfied/unsatisfied index sets. Constraining
needs only its total mass, 1 - P(every active constraint fails), and samples
come from rejection against the indicators, so any number of active
constraints works. The 2^m - 1 partition weights are built only on request,
by ``disjunct_partitions``, which alone caps m.

Per-step constrained marginals (``constrained_marginals``) are exact Gaussian
given y, the bounded coordinates at the active constraint times: per pair
only y is drawn by Monte Carlo and accepted by the regions, and each step's
mean and covariance follow in closed form from the accepted draws' mean and
covariance. ``sample_cloud`` and ``moment_matched`` draw full sequences,
because they return joint samples.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import ConstraintSet, CONJUNCT, DISJUNCT, StateRegion, active_indices, satisfies_batch
from .errors import (
    DegenerateDensityError,
    DimensionMismatchError,
    LowAcceptanceError,
    PartitionBudgetError,
    ZeroSupportError,
)
from .gaussian import (
    COMPLEMENT,
    INSIDE,
    BirthDeathPmf,
    GaussianSequence,
    Pair,
    SampleCloud,
    Stratum,
    TrajectoryDensity,
    _bounded,
    _pattern_probabilities,
    _step_blocks,
    _step_mixture,
    child_rng,
    marginal,  # noqa: F401  (not called here; perfbench/tracing.py patches engine.marginal)
    moment_match,
    region_probability,
)
from .kernels import pattern_codes  # noqa: F401  (likewise patched as engine.pattern_codes)
from .rfs import BernoulliTrajectory, PmbmDensity, PppTrajectory

MAX_ACTIVE_FOR_PARTITIONS = 20

logger = logging.getLogger("trajconstrain")


@dataclass(frozen=True)
class PartitionEntry:
    """One disjunct partition: constraints satisfied (inside) vs not (outside)."""

    inside: Tuple[int, ...]
    outside: Tuple[int, ...]
    weight: float
    raw_weight: float


@dataclass(frozen=True)
class PairConstraintInfo:
    """Per-(birth, death) constraint data of a constrained density."""

    pair: Pair
    active: Tuple[int, ...]
    spatial_prob: float
    spatial_se: float


@dataclass(frozen=True)
class ConstraintReport:
    """Temporal, spatial and joint satisfaction probabilities.

    ``prob_spatial`` is the alive-conditioned pmf-weighted average of the
    per-pair spatial probabilities, so joint = prob_alive * prob_spatial.
    """

    prob_alive: float
    prob_spatial: float
    joint: float
    spatial_se: float
    joint_se: float


@dataclass
class MarginalMoments:
    """Per-time-step moment-matched summary of a constrained density.

    ``ess`` is, per step, the Kish effective sample size (sum w)^2 / sum w^2
    of the accepted draws alive at that step; the standard error of a step
    mean is at most about sd / sqrt(ess), whereas ``n_accepted`` counts every
    accepted draw, alive at the step or not. ``accepted`` holds the accepted
    draws of each (birth, death) pair; a pair with 0 was dropped.
    """

    times: List[int]
    means: np.ndarray
    covs: np.ndarray
    alive_probs: np.ndarray
    acceptance_rate: float
    n_accepted: int
    ess: np.ndarray
    accepted: Dict[Pair, int]


@dataclass
class ConstrainedTrajectoryDensity:
    """Indicator-truncated trajectory density under a constraint set.

    Evaluation/sampling goes through the base Gaussians restricted by the
    constraint indicators; ``pmf`` is the constrained (birth, death) mass.
    A degenerate instance (zero spatial probability everywhere) carries no
    pmf.
    """

    base: TrajectoryDensity
    cs: ConstraintSet
    pmf: Optional[BirthDeathPmf]
    pair_info: Dict[Pair, PairConstraintInfo]
    degenerate: bool = False
    _cloud_cache: Optional[SampleCloud] = field(default=None, repr=False)
    _cloud_key: Optional[Tuple[int, int]] = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.base.dim

    def conditional(self, pair: Pair) -> GaussianSequence:
        return self.base.conditional(pair)

    def sample_cloud(self, mc_budget: int = 100_000, rng_seed: int = 0) -> SampleCloud:
        """Rejection-sample the constrained density; the last cloud is cached
        under its (mc_budget, rng_seed)."""
        cloud = _rejection_cloud(self, mc_budget, rng_seed)
        self._cloud_cache, self._cloud_key = cloud, (int(mc_budget), int(rng_seed))
        return cloud

    def moment_matched(self, mc_budget: int = 100_000, rng_seed: int = 0) -> TrajectoryDensity:
        """Gaussian view of the constrained density via sample moment matching;
        reuses the cached cloud only when it was drawn with the same arguments."""
        if self._cloud_key == (int(mc_budget), int(rng_seed)):
            return moment_match(self._cloud_cache)
        return moment_match(self.sample_cloud(mc_budget, rng_seed))


@dataclass
class ConstrainedBernoulli:
    r: float
    density: ConstrainedTrajectoryDensity
    report: ConstraintReport
    degenerate: bool = False


@dataclass
class ConstrainedPpp:
    mu: float
    density: ConstrainedTrajectoryDensity
    report: ConstraintReport
    degenerate: bool = False


@dataclass
class ConstrainedHypothesis:
    weight: float
    tracks: List[ConstrainedBernoulli]


@dataclass
class ConstrainedPmbm:
    ppp: ConstrainedPpp
    hypotheses: List[ConstrainedHypothesis]


def _pair_seed(rng_seed: int, pair_index: int, query: int = 0) -> int:
    # One common stream per (pair, query); folded into a single int seed so
    # region_probability's child_rng stays deterministic.
    return int(np.random.SeedSequence([int(rng_seed), pair_index, query]).generate_state(1)[0])


def constrain_density(
    td: TrajectoryDensity,
    cs: ConstraintSet,
    mc_budget: int = 100_000,
    rng_seed: int = 0,
) -> Tuple[ConstrainedTrajectoryDensity, ConstraintReport]:
    """Constrained trajectory density and its satisfaction report.

    Raises ZeroSupportError when no support pair overlaps any constraint
    time. A zero spatial probability everywhere yields a degenerate (but
    valid) result instead.
    """
    if td.dim != cs.dim:
        raise DimensionMismatchError(f"density dim {td.dim} != constraint dim {cs.dim}")
    qualifying = []
    for j, (pair, prob) in enumerate(td.pmf.items()):
        active = active_indices(cs, *pair)
        if active:
            qualifying.append((j, pair, float(prob), active))
    # Summed pmf masses may exceed 1 by rounding; reported probabilities are clipped to [0, 1].
    prob_alive = min(math.fsum(p for _, _, p, _ in qualifying), 1.0)
    if not qualifying or prob_alive <= 0.0:
        raise ZeroSupportError("no (birth, death) support pair overlaps any constraint time")

    pair_info: Dict[Pair, PairConstraintInfo] = {}
    for j, pair, _, active in qualifying:
        # A disjunct pair holds unless every active constraint fails. With one
        # active constraint both modes take P(inside), so they agree exactly.
        complement = cs.mode == DISJUNCT and len(active) > 1
        side = COMPLEMENT if complement else INSIDE
        entries = [(cs.constraints[i].time, cs.constraints[i].region, side) for i in active]
        p, se = region_probability(td.conditionals[j], pair, entries, mc_budget, _pair_seed(rng_seed, j))
        pair_info[pair] = PairConstraintInfo(pair, active, 1.0 - p if complement else p, se)

    # Spatially weighted pmf: mass proportional to P(pair) * spatial_prob(pair),
    # which is what rejection sampling through the constraint indicators yields.
    masses = np.array([p * pair_info[pair].spatial_prob for _, pair, p, _ in qualifying])
    total = math.fsum(masses)
    joint = min(total, 1.0)
    joint_var = sum(
        (p * pair_info[pair].spatial_se) ** 2 for _, pair, p, _ in qualifying
    )
    joint_se = math.sqrt(joint_var)
    prob_spatial = min(joint / prob_alive, 1.0)
    report = ConstraintReport(prob_alive, prob_spatial, joint, joint_se / prob_alive, joint_se)

    if total <= 0.0:
        ctd = ConstrainedTrajectoryDensity(td, cs, None, pair_info, degenerate=True)
        return ctd, report
    keep = masses > 0.0
    pairs = tuple(pair for (_, pair, _, _), k in zip(qualifying, keep) if k)
    pmf = BirthDeathPmf(pairs, masses[keep] / total)
    ctd = ConstrainedTrajectoryDensity(td, cs, pmf, pair_info)
    return ctd, report


@lru_cache(maxsize=256)
def _partition_sets(active: Tuple[int, ...]) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]:
    """(inside, outside) constraint indices of every nonempty satisfied set, by code 1..2^m - 1."""
    m = len(active)
    return tuple(
        (
            tuple(active[t] for t in range(m) if code >> t & 1),
            tuple(active[t] for t in range(m) if not code >> t & 1),
        )
        for code in range(1, 2**m)
    )


def disjunct_partitions(
    ctd: ConstrainedTrajectoryDensity,
    pair: Pair,
    mc_budget: int = 100_000,
    rng_seed: int = 0,
) -> Tuple[PartitionEntry, ...]:
    """The disjunct mixture of one (birth, death) pair over partitions of its
    active constraints into satisfied (inside) and unsatisfied (outside) sets.

    One entry per nonempty satisfied set, in bit-code order 1..2^m - 1:
    ``raw_weight`` is the probability that exactly those constraints hold and
    ``weight`` that probability normalized over the entries. Called with the
    ``mc_budget`` and ``rng_seed`` of the ``constrain_density`` call, it uses
    the same draws, so the raw weights sum to the pair's ``spatial_prob`` up
    to rounding. Raises PartitionBudgetError above MAX_ACTIVE_FOR_PARTITIONS
    active constraints (2^m - 1 entries).
    """
    if ctd.cs.mode != DISJUNCT:
        raise ValueError(f"partitions need a disjunct constraint set, got {ctd.cs.mode!r}")
    if pair not in ctd.pair_info:
        raise ValueError(f"pair {pair} meets no constraint time")
    active = ctd.pair_info[pair].active
    m = len(active)
    if m > MAX_ACTIVE_FOR_PARTITIONS:
        raise PartitionBudgetError(
            f"{m} active constraints need {2**m - 1} partitions; "
            f"use conjunct mode or coarser constraints (cap {MAX_ACTIVE_FOR_PARTITIONS})"
        )
    j = ctd.base.pmf.pairs.index(pair)
    items = [(ctd.cs.constraints[i].time, ctd.cs.constraints[i].region) for i in active]
    cells, _ = _pattern_probabilities(ctd.base.conditionals[j], pair, items, mc_budget, _pair_seed(rng_seed, j))
    raw = cells[1:]
    total = float(raw.sum())
    weights = raw / total if total > 0 else np.zeros(raw.size)
    return tuple(
        PartitionEntry(inside, outside, w, r)
        for (inside, outside), w, r in zip(_partition_sets(active), weights.tolist(), raw.tolist())
    )


def _constrain_component(
    td: TrajectoryDensity, cs: ConstraintSet, mc_budget: int, rng_seed: int
) -> Tuple[ConstrainedTrajectoryDensity, ConstraintReport]:
    """``constrain_density``, except that a density whose support meets no
    constraint time gives a degenerate result with an all-zero report."""
    meets = any(p > 0.0 and active_indices(cs, *pair) for pair, p in td.pmf.items())
    if td.dim == cs.dim and not meets:
        ctd = ConstrainedTrajectoryDensity(td, cs, None, {}, degenerate=True)
        return ctd, ConstraintReport(0.0, 0.0, 0.0, 0.0, 0.0)
    return constrain_density(td, cs, mc_budget, rng_seed)


def constrain_bernoulli(
    b: BernoulliTrajectory,
    cs: ConstraintSet,
    mc_budget: int = 100_000,
    rng_seed: int = 0,
) -> ConstrainedBernoulli:
    """Constrained Bernoulli: r is scaled by the joint satisfaction probability
    (r = 0 when the support meets no constraint time)."""
    ctd, report = _constrain_component(b.density, cs, mc_budget, rng_seed)
    return ConstrainedBernoulli(b.r * report.joint, ctd, report, degenerate=ctd.degenerate)


def constrain_ppp(
    p: PppTrajectory,
    cs: ConstraintSet,
    mc_budget: int = 100_000,
    rng_seed: int = 0,
) -> ConstrainedPpp:
    """Constrained PPP: mu is scaled by the joint satisfaction probability
    (mu = 0 when the support meets no constraint time)."""
    ctd, report = _constrain_component(p.density, cs, mc_budget, rng_seed)
    return ConstrainedPpp(p.mu * report.joint, ctd, report, degenerate=ctd.degenerate)


def constrain_pmbm(
    m: PmbmDensity,
    cs: ConstraintSet,
    mc_budget: int = 100_000,
    rng_seed: int = 0,
) -> ConstrainedPmbm:
    """Constrained PMBM: componentwise constraining, hypothesis weights unchanged.

    Each distinct density (by object identity) is constrained once and its
    (density, report) shared by every slot that holds it, scaled by that
    slot's r or mu; the result equals constraining each slot on its own with
    the same seed.
    """
    done: Dict[int, Tuple[ConstrainedTrajectoryDensity, ConstraintReport]] = {}

    def constrained(td: TrajectoryDensity) -> Tuple[ConstrainedTrajectoryDensity, ConstraintReport]:
        if id(td) not in done:
            done[id(td)] = _constrain_component(td, cs, mc_budget, rng_seed)
        return done[id(td)]

    ctd, report = constrained(m.ppp.density)
    ppp_c = ConstrainedPpp(m.ppp.mu * report.joint, ctd, report, degenerate=ctd.degenerate)
    hyps = []
    for h in m.hypotheses:
        tracks = []
        for t in h.tracks:
            ctd, report = constrained(t.density)
            tracks.append(ConstrainedBernoulli(t.r * report.joint, ctd, report, degenerate=ctd.degenerate))
        hyps.append(ConstrainedHypothesis(h.weight, tracks))
    return ConstrainedPmbm(ppp_c, hyps)


def _acceptance_rate(ctd: ConstrainedTrajectoryDensity, accepted: Dict[Pair, int], drawn: int) -> float:
    """Overall acceptance rate of the per-pair draws. Logs a warning for pairs
    that accepted no draw (they are dropped) and raises LowAcceptanceError
    below 1e-6."""
    dropped = [pair for pair, n in accepted.items() if n == 0]
    if dropped:
        logger.warning(
            "%d of %d (birth, death) strata accepted no draw and were dropped (constrained mass %.3g)",
            len(dropped),
            len(accepted),
            math.fsum(ctd.pmf.prob(pair) for pair in dropped),
        )
    rate = sum(accepted.values()) / drawn if drawn else 0.0
    if rate < 1e-6:
        raise LowAcceptanceError(
            f"acceptance rate {rate} below 1e-6 over budget {drawn}; increase mc_budget"
        )
    return rate


def _pair_budget(mc_budget: int, prob: float) -> int:
    return max(int(math.ceil(mc_budget * prob)), 2)


def _rejection_cloud(ctd: ConstrainedTrajectoryDensity, mc_budget: int, rng_seed: int) -> SampleCloud:
    if ctd.degenerate or ctd.pmf is None:
        raise DegenerateDensityError("cannot sample a degenerate constrained density")
    strata: Dict[Pair, Stratum] = {}
    accepted: Dict[Pair, int] = {}
    drawn = 0
    for j, (pair, prob) in enumerate(ctd.pmf.items()):
        n_pair = _pair_budget(mc_budget, prob)
        gs = ctd.base.conditional(pair)
        b, e = pair
        x = gs.draw(n_pair, child_rng(rng_seed, 1, j)).reshape(n_pair, e - b + 1, ctd.dim)
        acc = satisfies_batch(b, e, x, ctd.cs)
        drawn += n_pair
        accepted[pair] = n_acc = int(acc.sum())
        if n_acc:
            strata[pair] = Stratum(x[acc], np.full(n_acc, prob / n_acc), n_proposed=n_pair)
    _acceptance_rate(ctd, accepted, drawn)
    return SampleCloud(ctd.dim, strata)


def constrained_marginals(
    ctd: ConstrainedTrajectoryDensity,
    mc_budget: int = 100_000,
    rng_seed: int = 0,
) -> MarginalMoments:
    """Per-time-step moment-matched mean/covariance of the constrained density.

    The constraint indicators read only y, the bounded coordinates at the
    active constraint times, and given y every state is exactly Gaussian.
    So per (birth, death) pair only y is drawn (the same per-pair budget and
    streams as ``sample_cloud``) and accepted by the regions; with accepted
    mean ybar and covariance Sigma, K = C_xy pinv(S_yy), step t has mean
    m_t + K_t (ybar - m_y) and covariance P_t - K_t S_yy K_t' + K_t Sigma K_t'
    (Rao-Blackwellization). Pairs are mixed by their constrained pmf mass.
    """
    if ctd.degenerate or ctd.pmf is None:
        raise DegenerateDensityError("cannot sample a degenerate constrained density")
    cs, d = ctd.cs, ctd.dim
    strata = []
    accepted: Dict[Pair, int] = {}
    drawn = 0
    for j, (pair, prob) in enumerate(ctd.pmf.items()):
        n_pair = _pair_budget(mc_budget, prob)
        gs = ctd.base.conditional(pair)
        active = [cs.constraints[i] for i in active_indices(cs, *pair)]
        bounded = [_bounded(gs, pair, c.time, c.region) for c in active]
        cols = np.unique(np.concatenate([c for _, _, c in bounded]))
        m_y, s_yy = gs.mean[cols], gs.cov[np.ix_(cols, cols)]
        y = GaussianSequence(m_y, s_yy, 1).draw(n_pair, child_rng(rng_seed, 1, j))
        hits = [StateRegion(lo, hi).contains_batch(y[:, np.searchsorted(cols, c)]) for lo, hi, c in bounded]
        acc = np.logical_and.reduce(hits) if cs.mode == CONJUNCT else np.logical_or.reduce(hits)
        y = y[acc]
        drawn += n_pair
        accepted[pair] = n_acc = y.shape[0]
        if n_acc == 0:
            continue
        y_mean = y.mean(axis=0)
        centered = y - y_mean
        sigma = centered.T @ centered / n_acc
        # pinv: S_yy is singular when bounded coordinates are degenerate or collinear.
        gain = (gs.cov[:, cols] @ np.linalg.pinv(s_yy)).reshape(gs.length, d, cols.size)
        means = gs.mean.reshape(-1, d) + gain @ (y_mean - m_y)
        covs = _step_blocks(gs.cov, d) + gain @ (sigma - s_yy) @ gain.transpose(0, 2, 1)
        strata.append((float(prob), pair, n_acc, means, covs))
    rate = _acceptance_rate(ctd, accepted, drawn)
    times, means, covs, alive = _step_mixture([(w, b, m, c) for w, (b, _), _, m, c in strata], d)
    # Kish ESS per step: each accepted draw of a pair carries weight prob / n_acc.
    sq = np.zeros(len(times))
    for w, (b, e), n_acc, _, _ in strata:
        sq[times.index(b) : times.index(e) + 1] += w * w / n_acc
    ess = alive * alive / sq
    return MarginalMoments(times, means, covs, alive, rate, sum(accepted.values()), ess, accepted)
