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

Per pair, both modes go through one probability primitive
(``gaussian._pattern_probabilities``), which works in this order: marginalize
each active region onto its bounded coordinates; pin every constraint whose
1-D bounds settle it within 1e-12 (a pinned violation in conjunct mode gives
exactly 0); evaluate the rest in closed form when they are single boxes on
uncorrelated coordinates, else by Monte Carlo on those coordinates alone.

In disjunct mode the constrained conditional is a mixture over partitions of
the active constraints into satisfied/unsatisfied index sets; the partition
weights are materialized explicitly, and the component densities are realized
by rejection sampling against the inside/complement indicators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import ConstraintSet, CONJUNCT, DISJUNCT, active_indices, satisfies_batch
from .errors import (
    DegenerateDensityError,
    DimensionMismatchError,
    LowAcceptanceError,
    PartitionBudgetError,
    ZeroSupportError,
)
from .gaussian import (
    INSIDE,
    BirthDeathPmf,
    GaussianSequence,
    Pair,
    SampleCloud,
    Stratum,
    TrajectoryDensity,
    _pattern_probabilities,
    alive_probability,
    child_rng,
    marginal,  # noqa: F401  (not called here; perfbench/tracing.py patches engine.marginal)
    moment_match,
    region_probability,
)
from .kernels import pattern_codes  # noqa: F401  (likewise patched as engine.pattern_codes)
from .rfs import BernoulliTrajectory, PmbmDensity, PppTrajectory

MAX_ACTIVE_FOR_PARTITIONS = 20


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
    partitions: Optional[Tuple[PartitionEntry, ...]] = None


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
    mean is about sd / sqrt(ess), whereas ``n_accepted`` counts every
    accepted draw, alive at the step or not.
    """

    times: List[int]
    means: np.ndarray
    covs: np.ndarray
    alive_probs: np.ndarray
    acceptance_rate: float
    n_accepted: int
    ess: np.ndarray


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


def _conjunct_pair_prob(
    gs: GaussianSequence,
    pair: Pair,
    cs: ConstraintSet,
    active: Tuple[int, ...],
    mc_budget: int,
    rng_seed: int,
    pair_index: int,
) -> PairConstraintInfo:
    entries = [(cs.constraints[i].time, cs.constraints[i].region, INSIDE) for i in active]
    p, se = region_probability(gs, pair, entries, mc_budget, _pair_seed(rng_seed, pair_index))
    return PairConstraintInfo(pair, active, p, se)


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


def _disjunct_pair_prob(
    gs: GaussianSequence,
    pair: Pair,
    cs: ConstraintSet,
    active: Tuple[int, ...],
    mc_budget: int,
    rng_seed: int,
    pair_index: int,
) -> PairConstraintInfo:
    m = len(active)
    if m > MAX_ACTIVE_FOR_PARTITIONS:
        raise PartitionBudgetError(
            f"{m} active constraints need {2**m - 1} partitions; "
            f"use conjunct mode or coarser constraints (cap {MAX_ACTIVE_FOR_PARTITIONS})"
        )
    items = [(cs.constraints[i].time, cs.constraints[i].region) for i in active]
    cells, exact = _pattern_probabilities(gs, pair, items, mc_budget, _pair_seed(rng_seed, pair_index))
    raw = cells[1:]
    total_inside = float(raw.sum())
    p_spatial = 1.0 - float(cells[0])
    se = 0.0 if exact else math.sqrt(p_spatial * (1.0 - p_spatial) / mc_budget)
    weights = raw / total_inside if total_inside > 0 else np.zeros(raw.size)
    partitions = tuple(
        PartitionEntry(inside, outside, w, r)
        for (inside, outside), w, r in zip(_partition_sets(active), weights.tolist(), raw.tolist())
    )
    return PairConstraintInfo(pair, active, p_spatial, se, partitions)


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
    prob_alive = sum(p for _, _, p, _ in qualifying)
    if not qualifying or prob_alive <= 0.0:
        raise ZeroSupportError("no (birth, death) support pair overlaps any constraint time")

    pair_info: Dict[Pair, PairConstraintInfo] = {}
    for j, pair, _, active in qualifying:
        gs = td.conditionals[j]
        if cs.mode == DISJUNCT and len(active) > 1:
            info = _disjunct_pair_prob(gs, pair, cs, active, mc_budget, rng_seed, j)
        else:
            info = _conjunct_pair_prob(gs, pair, cs, active, mc_budget, rng_seed, j)
        pair_info[pair] = info

    # Spatially weighted pmf: mass proportional to P(pair) * spatial_prob(pair),
    # which is what rejection sampling through the constraint indicators yields.
    masses = np.array([p * pair_info[pair].spatial_prob for _, pair, p, _ in qualifying])
    joint = float(masses.sum())
    joint_var = sum(
        (p * pair_info[pair].spatial_se) ** 2 for _, pair, p, _ in qualifying
    )
    joint_se = math.sqrt(joint_var)
    prob_spatial = joint / prob_alive
    report = ConstraintReport(prob_alive, prob_spatial, joint, joint_se / prob_alive, joint_se)

    if joint <= 0.0:
        ctd = ConstrainedTrajectoryDensity(td, cs, None, pair_info, degenerate=True)
        return ctd, report
    keep = masses > 0.0
    pairs = tuple(pair for (_, pair, _, _), k in zip(qualifying, keep) if k)
    pmf = BirthDeathPmf(pairs, masses[keep] / joint)
    ctd = ConstrainedTrajectoryDensity(td, cs, pmf, pair_info)
    return ctd, report


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


def _rejection_cloud(ctd: ConstrainedTrajectoryDensity, mc_budget: int, rng_seed: int) -> SampleCloud:
    if ctd.degenerate or ctd.pmf is None:
        raise DegenerateDensityError("cannot sample a degenerate constrained density")
    strata: Dict[Pair, Stratum] = {}
    total_drawn = total_accepted = 0
    for j, (pair, prob) in enumerate(ctd.pmf.items()):
        n_pair = max(int(math.ceil(mc_budget * prob)), 2)
        gs = ctd.base.conditional(pair)
        rng = child_rng(rng_seed, 1, j)
        b, e = pair
        nu = e - b + 1
        x = gs.draw(n_pair, rng).reshape(n_pair, nu, ctd.dim)
        acc = satisfies_batch(b, e, x, ctd.cs)
        total_drawn += n_pair
        n_acc = int(acc.sum())
        total_accepted += n_acc
        if n_acc == 0:
            continue
        weights = np.full(n_acc, prob / n_acc)
        strata[pair] = Stratum(x[acc], weights, n_proposed=n_pair)
    rate = total_accepted / total_drawn if total_drawn else 0.0
    if rate < 1e-6:
        raise LowAcceptanceError(
            f"acceptance rate {rate} below 1e-6 over budget {total_drawn}; increase mc_budget"
        )
    return SampleCloud(ctd.dim, strata)


def constrained_marginals(
    ctd: ConstrainedTrajectoryDensity,
    mc_budget: int = 100_000,
    rng_seed: int = 0,
) -> MarginalMoments:
    """Per-time-step moment-matched mean/covariance by rejection sampling."""
    cloud = ctd.sample_cloud(mc_budget, rng_seed)
    total_drawn = sum(s.n_proposed for s in cloud.strata.values())
    total_accepted = sum(s.states.shape[0] for s in cloud.strata.values())
    times = sorted({t for (b, e) in cloud.strata for t in range(b, e + 1)})
    d = ctd.dim
    means = np.full((len(times), d), np.nan)
    covs = np.full((len(times), d, d), np.nan)
    alive = np.zeros(len(times))
    ess = np.zeros(len(times))
    for k, t in enumerate(times):
        xs, ws = [], []
        for (b, e), s in cloud.strata.items():
            if b <= t <= e:
                xs.append(s.states[:, t - b, :])
                ws.append(s.weights)
        if not xs:
            continue
        x = np.vstack(xs)
        w = np.concatenate(ws)
        total = w.sum()
        alive[k] = total
        ess[k] = total * total / float((w * w).sum())
        mean = (w[:, None] * x).sum(axis=0) / total
        centered = x - mean
        means[k] = mean
        covs[k] = (w[:, None] * centered).T @ centered / total
    rate = total_accepted / total_drawn if total_drawn else 0.0
    return MarginalMoments(times, means, covs, alive, rate, total_accepted, ess)
