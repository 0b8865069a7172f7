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

Per pair, both modes ask for one pattern probability (all constraints
inside, or in disjunct mode with two or more active constraints all in the
complement), which is settled exactly where it can and by Monte Carlo on the
bounded coordinates otherwise. The pairs of all the densities constrained
together (one for ``constrain_density``, the distinct components for
``constrain_pmbm``) go through the primitive in one ``_pattern_batch`` call,
and each pair records the path that settled it.

In disjunct mode the constrained conditional is a mixture over partitions of
the active constraints into satisfied/unsatisfied index sets. Constraining
needs only its total mass, 1 - P(every active constraint fails), and the
views below accept draws against the indicators, so any number of active
constraints works. The 2^m - 1 partition weights are built only on request,
by ``disjunct_partitions``, which alone caps m.

The indicators read only y, the bounded coordinates at the active constraint
times, and given y the whole sequence is exactly Gaussian. So one accepted-y
draw per pair serves all three views: ``constrained_marginals`` and
``moment_matched`` take the Gaussian given the accepted draws' mean and
covariance (Rao-Blackwellization); ``sample_cloud`` completes each accepted y
to a joint sample by pathwise conditioning.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import ConstraintSet, CONJUNCT, DISJUNCT, active_indices
from .core import satisfies_batch  # noqa: F401  (not called here; perfbench/tracing.py patches engine.satisfies_batch)
from .errors import (
    DegenerateDensityError,
    DimensionMismatchError,
    LowAcceptanceError,
    PartitionBudgetError,
    ZeroSupportError,
)
from .gaussian import (
    MC,
    BirthDeathPmf,
    GaussianSequence,
    Pair,
    SampleCloud,
    Stratum,
    TrajectoryDensity,
    _bounded,
    _binomial_se,
    _bounded_masks,
    _pattern_batch,
    _pattern_probabilities,
    _step_blocks,
    _step_mixture,
    child_rng,
    marginal,  # noqa: F401  (not called here; perfbench/tracing.py patches engine.marginal)
    region_probability,  # noqa: F401  (not called here; perfbench/tracing.py patches engine.region_probability)
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
    """Per-(birth, death) constraint data of a constrained density.

    ``path`` is how the spatial probability was settled: ``"pinned"`` (no
    constraint left after the 1-D bounds), ``"closed_form"`` or ``"mc"``
    (``mc_budget`` draws; the only path with ``spatial_se`` > 0).
    """

    pair: Pair
    active: Tuple[int, ...]
    spatial_prob: float
    spatial_se: float
    path: str


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
    ess: np.ndarray
    accepted: Dict[Pair, int]

    @property
    def n_accepted(self) -> int:
        return sum(self.accepted.values())


@dataclass
class ConstrainedTrajectoryDensity:
    """Indicator-truncated trajectory density under a constraint set.

    ``pmf`` is the constrained (birth, death) mass. One accepted-y draw per
    pair (the same for the same ``mc_budget`` and ``rng_seed``) serves all
    three views: ``constrained_marginals``, ``moment_matched`` and the joint
    samples of ``sample_cloud``, which come from pathwise conditioning. A
    degenerate instance (zero spatial probability everywhere, or a support
    meeting no constraint time) carries no pmf; ``degenerate`` derives from it.
    """

    base: TrajectoryDensity
    cs: ConstraintSet
    pmf: Optional[BirthDeathPmf]
    pair_info: Dict[Pair, PairConstraintInfo]

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def degenerate(self) -> bool:
        return self.pmf is None

    def sample_cloud(self, mc_budget: int = 100_000, rng_seed: int = 0) -> SampleCloud:
        """Joint samples from the accepted-y draw that all three views share:
        each accepted y is completed by pathwise conditioning, x = x* + K (y -
        x*_y) with x* an unconstrained draw (exact given y), and y is written
        back exactly, so every sample satisfies the constraints. Each sample
        of a pair weighs prob / n_acc."""
        strata: Dict[Pair, Stratum] = {}
        for prob, (b, e), gs, cols, y, gain in _accepted_y(self, mc_budget, rng_seed)[0]:
            n_acc = y.shape[0]
            x = gs.draw(n_acc, child_rng(rng_seed, 2, self.pmf.pairs.index((b, e))))
            x += (y - x[:, cols]) @ gain.T
            x[:, cols] = y
            strata[(b, e)] = Stratum(x.reshape(n_acc, e - b + 1, self.dim), np.full(n_acc, prob / n_acc))
        return SampleCloud(self.dim, strata)

    def moment_matched(self, mc_budget: int = 100_000, rng_seed: int = 0) -> TrajectoryDensity:
        """Per pair the Gaussian given the accepted y of the draw all three
        views share (``sample_cloud`` draws joint samples from it by pathwise
        conditioning; none is drawn here); the pmf is renormalized over the
        pairs that accepted a draw. Raises ValueError for a pair with a single
        accepted draw."""
        pairs, probs, conds = [], [], []
        for prob, pair, gs, cols, y, gain in _accepted_y(self, mc_budget, rng_seed)[0]:
            if y.shape[0] == 1:
                raise ValueError(f"stratum {pair} has fewer than 2 effective samples")
            pairs.append(pair)
            probs.append(prob)
            mean, cov = _given_y(gs, cols, y, gain)
            conds.append(GaussianSequence(mean, 0.5 * (cov + cov.T), self.dim))
        probs = np.asarray(probs)
        return TrajectoryDensity(BirthDeathPmf(tuple(pairs), probs / probs.sum()), tuple(conds))


@dataclass
class ConstrainedBernoulli:
    r: float
    density: ConstrainedTrajectoryDensity
    report: ConstraintReport


@dataclass
class ConstrainedPpp:
    mu: float
    density: ConstrainedTrajectoryDensity
    report: ConstraintReport


@dataclass
class ConstrainedHypothesis:
    weight: float
    tracks: List[ConstrainedBernoulli]


@dataclass
class ConstrainedPmbm:
    ppp: ConstrainedPpp
    hypotheses: List[ConstrainedHypothesis]


def _pair_seed(rng_seed: int, pair_index: int) -> int:
    # One stream per pair, folded into a single int seed for the primitive's
    # child_rng; the trailing 0 is part of each stream's key.
    return int(np.random.SeedSequence([int(rng_seed), pair_index, 0]).generate_state(1)[0])


def _component_seed(rng_seed: int, k: int) -> int:
    # The stream of the k-th distinct component of a PMBM, folded like _pair_seed.
    return int(np.random.SeedSequence([int(rng_seed), k]).generate_state(1)[0])


def _constrain_densities(
    tds: Sequence[TrajectoryDensity],
    cs: ConstraintSet,
    mc_budget: int,
    component_seed: Callable[[int], int],
) -> List[Optional[Tuple[ConstrainedTrajectoryDensity, ConstraintReport]]]:
    """Constrained density and report of each of ``tds``, with one
    ``_pattern_batch`` call for the qualifying pairs of them all.

    Pair j of density k draws (when it draws at all) on stream
    ``_pair_seed(component_seed(k), j)``. A density whose support meets no
    constraint time with positive mass gives None.
    """
    for td in tds:
        if td.dim != cs.dim:
            raise DimensionMismatchError(f"density dim {td.dim} != constraint dim {cs.dim}")
    times = np.array(cs.times)
    qualifying: List[list] = []
    conds, pairs, rows, owners = [], [], [], []
    for k, td in enumerate(tds):
        births, deaths = np.array(td.pmf.pairs).T
        active = (births[:, None] <= times) & (times <= deaths[:, None])
        meets = np.flatnonzero(active.any(axis=1)).tolist()
        probs = td.pmf.probs.tolist()
        if not any(probs[j] > 0.0 for j in meets):
            meets = []
        qualifying.append([(td.pmf.pairs[j], probs[j], tuple(np.flatnonzero(active[j]).tolist())) for j in meets])
        conds.extend(td.conditionals[j] for j in meets)
        pairs.extend(td.pmf.pairs[j] for j in meets)
        rows.append(active[meets])
        owners.extend((k, j) for j in meets)
    active = np.concatenate(rows)
    # A disjunct pair holds unless every active constraint fails. With one
    # active constraint both modes take P(inside), so they agree exactly.
    complement = (cs.mode == DISJUNCT) & (active.sum(axis=1) > 1)
    want = np.repeat(~complement[:, None], len(cs), axis=1)
    items = [(c.time, c.region) for c in cs.constraints]

    def seed(p: int) -> int:
        k, j = owners[p]
        return _pair_seed(component_seed(k), j)

    settled = iter(zip(_pattern_batch(conds, pairs, items, active, want, mc_budget, seed), complement.tolist()))
    results: List[Optional[Tuple[ConstrainedTrajectoryDensity, ConstraintReport]]] = []
    for td, qual in zip(tds, qualifying):
        if not qual:
            results.append(None)
            continue
        pair_info: Dict[Pair, PairConstraintInfo] = {}
        for pair, _, act in qual:
            (p, path), flip = next(settled)
            se = _binomial_se(p, int(mc_budget)) if path == MC else 0.0
            pair_info[pair] = PairConstraintInfo(pair, act, 1.0 - p if flip else p, se, path)

        # Summed pmf masses may exceed 1 by rounding; reported probabilities are clipped to [0, 1].
        prob_alive = min(math.fsum(p for _, p, _ in qual), 1.0)
        # Spatially weighted pmf: mass proportional to P(pair) * spatial_prob(pair),
        # which is what rejection sampling through the constraint indicators yields.
        masses = np.array([p * pair_info[pair].spatial_prob for pair, p, _ in qual])
        total = math.fsum(masses)
        joint = min(total, 1.0)
        joint_se = math.sqrt(sum((p * pair_info[pair].spatial_se) ** 2 for pair, p, _ in qual))
        prob_spatial = min(joint / prob_alive, 1.0)
        report = ConstraintReport(prob_alive, prob_spatial, joint, joint_se / prob_alive, joint_se)
        pmf = None
        if total > 0.0:
            keep = masses > 0.0
            pmf = BirthDeathPmf(tuple(pair for (pair, _, _), k in zip(qual, keep) if k), masses[keep] / total)
        results.append((ConstrainedTrajectoryDensity(td, cs, pmf, pair_info), report))
    return results


def _no_support(td: TrajectoryDensity, cs: ConstraintSet) -> Tuple[ConstrainedTrajectoryDensity, ConstraintReport]:
    # A component whose support meets no constraint time constrains to r = 0 / mu = 0.
    return ConstrainedTrajectoryDensity(td, cs, None, {}), ConstraintReport(0.0, 0.0, 0.0, 0.0, 0.0)


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
    (result,) = _constrain_densities([td], cs, mc_budget, lambda _: rng_seed)
    if result is None:
        raise ZeroSupportError("no (birth, death) support pair overlaps any constraint time")
    return result


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
        PartitionEntry(
            tuple(active[t] for t in range(m) if code >> t & 1),
            tuple(active[t] for t in range(m) if not code >> t & 1),
            w,
            r,
        )
        for code, w, r in zip(range(1, 2**m), weights.tolist(), raw.tolist())
    )


def _constrain_component(
    td: TrajectoryDensity, cs: ConstraintSet, mc_budget: int, rng_seed: int
) -> Tuple[ConstrainedTrajectoryDensity, ConstraintReport]:
    """``constrain_density``, except that a density whose support meets no
    constraint time gives a degenerate result with an all-zero report."""
    meets = any(p > 0.0 and active_indices(cs, *pair) for pair, p in td.pmf.items())
    if td.dim == cs.dim and not meets:
        return _no_support(td, cs)
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
    return ConstrainedBernoulli(b.r * report.joint, ctd, report)


def constrain_ppp(
    p: PppTrajectory,
    cs: ConstraintSet,
    mc_budget: int = 100_000,
    rng_seed: int = 0,
) -> ConstrainedPpp:
    """Constrained PPP: mu is scaled by the joint satisfaction probability
    (mu = 0 when the support meets no constraint time)."""
    ctd, report = _constrain_component(p.density, cs, mc_budget, rng_seed)
    return ConstrainedPpp(p.mu * report.joint, ctd, report)


def constrain_pmbm(
    m: PmbmDensity,
    cs: ConstraintSet,
    mc_budget: int = 100_000,
    rng_seed: int = 0,
) -> ConstrainedPmbm:
    """Constrained PMBM: componentwise constraining, hypothesis weights unchanged.

    Each distinct density (by object identity) is constrained once, the
    pairs of all of them in one batch, and its (density, report) shared by
    every slot that holds it, scaled by that slot's r or mu. The distinct
    densities are numbered k = 0, 1, ... in order of first appearance, the
    PPP first, and density k is constrained with seed
    ``_component_seed(rng_seed, k)``, so the components' Monte Carlo errors
    are independent; the result equals constraining each slot on its own
    with its component's seed.
    """
    distinct: Dict[int, TrajectoryDensity] = {}
    for td in [m.ppp.density] + [t.density for h in m.hypotheses for t in h.tracks]:
        distinct.setdefault(id(td), td)
    tds = list(distinct.values())
    results = _constrain_densities(tds, cs, mc_budget, lambda k: _component_seed(rng_seed, k))
    done = {id(td): _no_support(td, cs) if r is None else r for td, r in zip(tds, results)}

    ctd, report = done[id(m.ppp.density)]
    ppp_c = ConstrainedPpp(m.ppp.mu * report.joint, ctd, report)
    hyps = []
    for h in m.hypotheses:
        tracks = []
        for t in h.tracks:
            ctd, report = done[id(t.density)]
            tracks.append(ConstrainedBernoulli(t.r * report.joint, ctd, report))
        hyps.append(ConstrainedHypothesis(h.weight, tracks))
    return ConstrainedPmbm(ppp_c, hyps)


def _accepted_y(
    ctd: ConstrainedTrajectoryDensity, mc_budget: int, rng_seed: int
) -> Tuple[list, Dict[Pair, int], float]:
    """The one Monte Carlo draw behind every view of a constrained density.

    Per pair j in pmf order, y (the bounded coordinates ``cols`` at the active
    constraint times, ascending as the times are distinct and sorted) is drawn
    ceil(mc_budget * prob / spatial_prob) times, clipped to [2, mc_budget],
    on stream child_rng(rng_seed, 1, j) and accepted by the regions (all in
    conjunct mode, any in disjunct). A pair thus expects about mc_budget *
    prob accepted draws, however low its spatial probability, unless the cap
    binds. Returns (prob, pair, conditional, cols, accepted y, K = C_xy
    pinv(S_yy)) per pair that accepted a draw, the accepted counts and the
    overall rate. Pairs that accepted nothing are logged; a rate below 1e-6
    raises LowAcceptanceError.
    """
    if ctd.degenerate:
        raise DegenerateDensityError("cannot sample a degenerate constrained density")
    cs = ctd.cs
    draws = []
    accepted: Dict[Pair, int] = {}
    drawn = 0
    for j, (pair, prob) in enumerate(ctd.pmf.items()):
        spatial = ctd.pair_info[pair].spatial_prob
        n_pair = max(math.ceil(min(mc_budget * prob / spatial, mc_budget)), 2)
        gs = ctd.base.conditional(pair)
        active = sorted((cs.constraints[i] for i in ctd.pair_info[pair].active), key=lambda c: c.time)
        bounded = [_bounded(gs, pair, c.time, c.region) for c in active]
        cols = np.concatenate([c for _, _, c in bounded])
        s_yy = gs.cov[np.ix_(cols, cols)]
        y = GaussianSequence(gs.mean[cols], s_yy, 1).draw(n_pair, child_rng(rng_seed, 1, j))
        masks = _bounded_masks(bounded, y)
        acc = masks.all(axis=0) if cs.mode == CONJUNCT else masks.any(axis=0)
        drawn += n_pair
        accepted[pair] = int(acc.sum())
        if accepted[pair]:
            # pinv: S_yy is singular when bounded coordinates are degenerate or collinear.
            draws.append((float(prob), pair, gs, cols, y[acc], gs.cov[:, cols] @ np.linalg.pinv(s_yy)))
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
    return draws, accepted, rate


def _given_y(
    gs: GaussianSequence, cols: np.ndarray, y: np.ndarray, gain: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the whole sequence when y has the accepted draws'
    mean ybar and covariance Sigma: m + K (ybar - m_y), P + K (Sigma - S_yy) K'."""
    y_mean = y.mean(axis=0)
    centered = y - y_mean
    sigma = centered.T @ centered / y.shape[0]
    mean = gs.mean + gain @ (y_mean - gs.mean[cols])
    cov = gs.cov + gain @ (sigma - gs.cov[np.ix_(cols, cols)]) @ gain.T
    return mean, cov


def constrained_marginals(
    ctd: ConstrainedTrajectoryDensity,
    mc_budget: int = 100_000,
    rng_seed: int = 0,
) -> MarginalMoments:
    """Per-time-step moment-matched mean/covariance of the constrained density:
    the step blocks of each pair's Gaussian given the accepted y, mixed over
    pairs by their constrained pmf mass."""
    draws, accepted, rate = _accepted_y(ctd, mc_budget, rng_seed)
    d = ctd.dim
    strata = []
    for prob, (b, _), gs, cols, y, gain in draws:
        mean, cov = _given_y(gs, cols, y, gain)
        strata.append((prob, b, mean.reshape(-1, d), _step_blocks(cov, d)))
    times, means, covs, alive = _step_mixture(strata, d)
    # Kish ESS per step: each accepted draw of a pair carries weight prob / n_acc.
    sq = np.zeros(len(times))
    for prob, (b, e), _, _, y, _ in draws:
        sq[times.index(b) : times.index(e) + 1] += prob * prob / y.shape[0]
    ess = alive * alive / sq
    return MarginalMoments(times, means, covs, alive, rate, ess, accepted)
