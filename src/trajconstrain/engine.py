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
complement), which is settled exactly where it can (single boxes on
uncorrelated coordinates, or on two or three correlated ones), by randomized
QMC where the constraints are single boxes on four or more correlated
coordinates (or three near-singular ones), and by Monte Carlo on the bounded
coordinates otherwise. The
pairs of all the densities constrained together (one for
``constrain_density``, the distinct components for ``constrain_pmbm``) go
through the primitive in one ``_pattern_batch`` call, and each pair records
the path that settled it.

In disjunct mode the constrained conditional is a mixture over partitions of
the active constraints into satisfied/unsatisfied index sets. Constraining
needs only its total mass, 1 - P(every active constraint fails), and the
views below restrict y to the disjoint cells where constraint k is the first
to hold, so any number of active constraints works. The 2^m - 1 partition
weights are built only on request, by ``disjunct_partitions``, which alone
caps m.

The indicators read only y, the bounded coordinates at the active constraint
times, and given y the whole sequence is exactly Gaussian. So
``constrained_marginals`` and ``moment_matched`` need only the mean and
covariance of y in its accepted cells, and take the Gaussian given them
(Rao-Blackwellization). Where y has at most three coordinates (and a
correlation ``mvn._well_conditioned`` accepts) these are exact, by
Tallis's formulas through the pair probabilities' primitive
(``mvn._truncated_moments``), with a step-mean standard error of 0.
Otherwise one batched lattice pass over the distinct y problems of a
density (the separation of variables of the QMC pair probabilities with
every coordinate on the lattice) gives each pair weighted points y inside
its accepted cells, a GHK draw, whose weighted moments stand in for them,
with a step-mean standard error from the spread across the lattice's random
shifts. ``sample_cloud`` needs points: it takes that pass for every pair and
completes each point to a joint sample by pathwise conditioning (both in
``_accepted_y``). Pinned pairs are exact; pairs with multi-box items or too
many cells fall back to Monte Carlo draws of y weighted by their indicators,
by the same cell rule as the pair probabilities (``mvn._product_cells``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .chain import _cov_blocks
from .core import ConstraintSet, CONJUNCT, DISJUNCT, StateRegion
from .core import active_indices  # noqa: F401  (not called here; perfbench/tests imports it from engine)
from .core import satisfies_batch  # noqa: F401  (not called here; perfbench/tracing.py patches engine.satisfies_batch)
from .errors import (
    DegenerateDensityError,
    DimensionMismatchError,
    LowAcceptanceError,
    PartitionBudgetError,
    ZeroSupportError,
)
from .gaussian import (
    BirthDeathPmf,
    GaussianSequence,
    Pair,
    SampleCloud,
    Stratum,
    TrajectoryDensity,
    _check_draws,
    _step_mixture,
    child_rng,
    marginal,  # noqa: F401  (not called here; perfbench/tracing.py patches engine.marginal)
)
from .kernels import pattern_codes  # noqa: F401  (likewise patched as engine.pattern_codes)
from .mvn import (
    _QMC_SHIFTS,
    CLOSED_FORM,
    MC,
    PINNED,
    _bounded_cols,
    _bounded_masks,
    _lattice_points,
    _log_fallbacks,
    _pattern_batch,
    _pattern_probabilities,
    _product_cells,
    _qmc_points,
    _truncated_moments,
    _well_conditioned,
    region_probability,  # noqa: F401  (not called here; perfbench/tracing.py patches engine.region_probability)
)
from .rfs import BernoulliTrajectory, PmbmDensity, PppTrajectory

MAX_ACTIVE_FOR_PARTITIONS = 20

# How a view settled a pair: its unconstrained conditional exactly, weighted
# lattice points, or Monte Carlo draws weighted by their indicators (``MC``).
EXACT = "exact"
LATTICE = "lattice"

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
    constraint left after the 1-D bounds), ``"closed_form"`` (single boxes
    on uncorrelated coordinates, or on two or three correlated ones),
    ``"qmc"`` (single boxes on four or more correlated coordinates, or three
    near-singular ones: randomized QMC
    over about ``mc_budget // 16`` lattice points, ``spatial_se`` the spread
    across its random shifts; a pair byte-identical to another shares its
    estimate) or ``"mc"`` (``mc_budget`` draws, binomial ``spatial_se``).
    Only the last two have ``spatial_se`` > 0.
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
    ``joint_se`` adds the pmf-weighted pair standard errors linearly within
    each group of pairs that share one estimate, and in quadrature across
    groups; ``spatial_se`` is joint_se / prob_alive.
    """

    prob_alive: float
    prob_spatial: float
    joint: float
    spatial_se: float
    joint_se: float


@dataclass(eq=False)
class MarginalMoments:
    """Per-time-step moment-matched summary of a constrained density.

    ``mean_se`` (steps, dim) is the standard error of each step mean: the
    spread of the pmf-mixed per-shift step mean over the ``_QMC_SHIFTS``
    lattice shifts (a Monte Carlo pair's equal blocks of draws) over
    sqrt(shifts); an exact or closed-form pair adds none. Per (birth, death)
    pair, ``view_paths`` says how its view was settled (``"exact"``,
    ``"closed_form"``, ``"lattice"`` or ``"mc"``) and ``accepted`` counts its
    points of positive weight: 0 for an exact or closed-form pair (it has
    no points and is never dropped), and for a Monte Carlo pair its accepted
    draws, 0 if it was dropped. ``acceptance_rate`` is the Kish effective
    sample size of all the points' weights over their number (rejected draws
    included; 1 when no view has points), in (0, 1].
    """

    times: List[int]
    means: np.ndarray
    covs: np.ndarray
    alive_probs: np.ndarray
    acceptance_rate: float
    mean_se: np.ndarray
    accepted: Dict[Pair, int]
    view_paths: Dict[Pair, str]

    @property
    def n_accepted(self) -> int:
        return sum(self.accepted.values())

    @property
    def dropped(self) -> List[Pair]:
        """Pairs left out of every view: Monte Carlo pairs that accepted nothing."""
        return [pair for pair, n in self.accepted.items() if n == 0 and self.view_paths[pair] in (LATTICE, MC)]


@dataclass
class ConstrainedTrajectoryDensity:
    """Indicator-truncated trajectory density under a constraint set.

    ``pmf`` is the constrained (birth, death) mass. One pass per call (the
    same for the same ``mc_budget`` and ``rng_seed``; ``_accepted_y``) gives
    each pair the mean and covariance of its bounded coordinates y inside
    the accepted cells, in closed form for at most three coordinates and
    else from weighted lattice points: ``constrained_marginals`` and
    ``moment_matched`` take each pair's Gaussian given them. For
    ``sample_cloud`` the pass gives every pair points y, which it completes
    to joint samples by pathwise conditioning. A degenerate instance (zero
    spatial probability everywhere, or a support meeting no constraint time)
    carries no pmf; ``degenerate`` derives from it.
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
        """Joint samples from the points of ``_accepted_y``: each point y of
        a pair with positive weight w is completed by pathwise conditioning,
        x = x* + K (y - x*_y) with x* an unconstrained draw (exact given y),
        and y is written back exactly, so every sample satisfies the
        constraints. A sample weighs prob * w / (sum of the pair's w), so a
        pair's samples weigh its constrained mass. A lattice pair has at most
        about mc_budget // 16 samples, a Monte Carlo pair its accepted draws;
        an exact pair has ``_QMC_SHIFTS * _qmc_points(mc_budget)``
        unconstrained draws of equal weight. Dropped pairs have none."""
        strata: Dict[Pair, Stratum] = {}
        for j, v in enumerate(_accepted_y(self, mc_budget, rng_seed, points=True)):
            if v.dropped:
                continue
            (b, e), rng = v.pair, child_rng(_seed(rng_seed, j, 2))
            if v.path == EXACT:
                n = _QMC_SHIFTS * _qmc_points(mc_budget)
                x, weights = v.gs.draw(n, rng), np.full(n, v.prob / n)
            else:
                w = v.w.ravel()
                keep = w > 0.0
                y = v.y.reshape(w.size, -1)[keep]
                x = v.gs.draw(y.shape[0], rng)
                x += (y - x[:, v.cols]) @ v.gain.T
                x[:, v.cols] = y
                weights = w[keep] * (v.prob / w.sum())
            strata[(b, e)] = Stratum(x.reshape(x.shape[0], e - b + 1, self.dim), weights)
        return SampleCloud(self.dim, strata)

    def moment_matched(self, mc_budget: int = 100_000, rng_seed: int = 0) -> TrajectoryDensity:
        """Per pair the Gaussian given the moments of y from ``_accepted_y``,
        as ``constrained_marginals`` takes them (none is drawn here); the pmf
        is renormalized over the pairs left after dropped ones (lattice or
        Monte Carlo pairs that accepted nothing, logged)."""
        pairs, probs, conds = [], [], []
        for v in _accepted_y(self, mc_budget, rng_seed):
            if v.dropped:
                continue
            mean, delta, _ = _given_y(v)
            cov = v.gs.cov if delta is None else v.gs.cov + v.gain @ delta @ v.gain.T
            pairs.append(v.pair)
            probs.append(v.prob)
            conds.append(GaussianSequence._valid(mean, 0.5 * (cov + cov.T), self.dim))
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


def _seed(*keys: int) -> int:
    # A stream folded into a single int seed for child_rng: (rng_seed, j, s)
    # constrains pair j (s = 0), draws its views' y (1) or completes its cloud
    # samples (2); (rng_seed, k) is the k-th distinct component of a PMBM.
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1)[0])


def _constrain_densities(
    tds: Sequence[TrajectoryDensity],
    cs: ConstraintSet,
    mc_budget: int,
    component_seed: Callable[[int], int],
) -> List[Optional[Tuple[ConstrainedTrajectoryDensity, ConstraintReport]]]:
    """Constrained density and report of each of ``tds``, with one
    ``_pattern_batch`` call for the qualifying pairs of them all.

    Pair j of density k draws (when it draws at all) on stream
    ``_seed(component_seed(k), j, 0)``, unless it is a QMC pair that
    takes the estimate of a byte-identical earlier pair of the batch. A
    density whose support meets no constraint time with positive mass gives
    None.
    """
    for td in tds:
        if td.dim != cs.dim:
            raise DimensionMismatchError(f"density dim {td.dim} != constraint dim {cs.dim}")
    # Every component's pairs, probabilities and active rows in one pass.
    counts = [len(td.pmf.pairs) for td in tds]
    every = [pair for td in tds for pair in td.pmf.pairs]
    probs = np.concatenate([td.pmf.probs for td in tds])
    component = np.repeat(np.arange(len(tds)), counts)
    births, deaths = np.array(every).T
    times = np.array(cs.times)
    active = (births[:, None] <= times) & (times <= deaths[:, None])
    meets = active.any(axis=1)
    # A density qualifies when a pair that meets a constraint time has positive mass.
    meets &= (np.bincount(component, meets & (probs > 0.0), len(tds)) > 0)[component]
    rows = np.flatnonzero(meets)
    active = active[rows]
    owner, local = component[rows], rows - (np.cumsum(counts) - counts)[component[rows]]
    every_cond = [g for td in tds for g in td.conditionals]
    conds = [every_cond[r] for r in rows.tolist()]
    pairs = [every[r] for r in rows.tolist()]
    owners = list(zip(owner.tolist(), local.tolist()))
    qualifying: List[list] = [[] for _ in tds]
    for (k, _), pair, prob in zip(owners, pairs, probs[rows].tolist()):
        qualifying[k].append((pair, prob))
    n_active = active.sum(axis=1)
    # The active constraint indices of every pair, from one nonzero over the batch.
    ends = np.cumsum(n_active).tolist()
    cols = np.nonzero(active)[1].tolist()
    acts = [tuple(cols[i:j]) for i, j in zip([0] + ends[:-1], ends)]
    # A disjunct pair holds unless every active constraint fails. With one
    # active constraint both modes take P(inside), so they agree exactly.
    complement = (cs.mode == DISJUNCT) & (n_active > 1)
    want = np.repeat(~complement[:, None], len(cs), axis=1)
    items = [(c.time, c.region) for c in cs.constraints]

    def seed(p: int) -> int:
        k, j = owners[p]
        return _seed(component_seed(k), j, 0)

    settled = _pattern_batch(conds, pairs, items, active, want, mc_budget, seed)
    spatial = [1.0 - s.value if flip else s.value for s, flip in zip(settled, complement.tolist())]
    # Spatially weighted pmf: mass proportional to P(pair) * spatial_prob(pair),
    # which is what rejection sampling through the constraint indicators yields.
    mass = probs[rows] * np.array(spatial)
    results: List[Optional[Tuple[ConstrainedTrajectoryDensity, ConstraintReport]]] = []
    end = 0
    for td, qual in zip(tds, qualifying):
        if not qual:
            results.append(None)
            continue
        start, end = end, end + len(qual)
        pair_info: Dict[Pair, PairConstraintInfo] = {}
        # The p-weighted SEs of pairs that share one estimate add linearly:
        # their errors are the same error.
        group_se: Dict[int, float] = {}
        for j, (pair, prob) in enumerate(qual, start):
            _, se, path, leader = settled[j]
            pair_info[pair] = PairConstraintInfo(pair, acts[j], spatial[j], se, path)
            group_se[leader] = group_se.get(leader, 0.0) + prob * se

        # Summed pmf masses may exceed 1 by rounding; reported probabilities are clipped to [0, 1].
        prob_alive = min(math.fsum(p for _, p in qual), 1.0)
        masses = mass[start:end]
        total = math.fsum(masses.tolist())
        joint = min(total, 1.0)
        joint_se = math.sqrt(sum(se**2 for se in group_se.values()))
        prob_spatial = min(joint / prob_alive, 1.0)
        report = ConstraintReport(prob_alive, prob_spatial, joint, joint_se / prob_alive, joint_se)
        pmf = None
        if total > 0.0:
            # A subset of a validated pmf's pairs, with positive masses
            # normalized here: valid without checking again.
            keep = masses > 0.0
            kept = tuple(pair for (pair, _), k in zip(qual, keep.tolist()) if k)
            pmf = BirthDeathPmf._valid(kept, masses[keep] / total)
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

    Raises ZeroSupportError when no support pair of positive mass overlaps
    any constraint time. A zero spatial probability everywhere yields a
    degenerate (but valid) result instead.
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
    ``weight`` that probability normalized over the entries. The cells come
    from ``_pattern_batch``'s cells path (pinned, closed form, or
    ``mc_budget`` Monte Carlo draws on stream ``_seed(rng_seed, j, 0)``;
    never QMC), and are scaled so that the raw weights sum to the pair's
    ``spatial_prob`` within 1e-12, whichever path settled that; draws that
    leave every cell but the empty one at 0 give raw weights of 0. Raises
    PartitionBudgetError above MAX_ACTIVE_FOR_PARTITIONS active constraints
    (2^m - 1 entries).
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
    cells = _pattern_probabilities(ctd.base.conditionals[j], pair, items, mc_budget, _seed(rng_seed, j, 0)).value
    total = float(cells[1:].sum())
    weights = cells[1:] / total if total > 0 else np.zeros(cells.size - 1)
    raw = weights * ctd.pair_info[pair].spatial_prob
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
    constraint time with positive mass gives a degenerate result with an
    all-zero report. The rule is ``_constrain_densities``' alone; going
    through ``constrain_density`` keeps these calls inside the span that
    perfbench's tracer times and counts."""
    try:
        return constrain_density(td, cs, mc_budget, rng_seed)
    except ZeroSupportError:
        return _no_support(td, cs)


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
    ``_seed(rng_seed, k)``, so the components' Monte Carlo errors
    are independent; the result equals constraining each slot on its own
    with its component's seed, except that a QMC pair byte-identical to a
    pair of an earlier component takes that pair's estimate.
    """
    distinct: Dict[int, TrajectoryDensity] = {}
    for td in [m.ppp.density] + [t.density for h in m.hypotheses for t in h.tracks]:
        distinct.setdefault(id(td), td)
    tds = list(distinct.values())
    results = _constrain_densities(tds, cs, mc_budget, lambda k: _seed(rng_seed, k))
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


class _ViewPair(NamedTuple):
    """One pair's part of the pass behind every view: ``path`` is ``EXACT``
    (no points: the unconstrained conditional is the constrained one),
    ``CLOSED_FORM`` (no points: ``y_mean`` (1, k) and ``y_cov`` (1, k, k)
    are the exact moments), ``LATTICE`` or ``MC``. The points y (shifts or
    blocks, points, k) are the bounded coordinates ``cols`` at the active
    constraint times, of covariance ``s_yy``, w (shifts or blocks, points)
    their weights, ``kept`` the count of positive ones, ``y_mean`` (R, k)
    and ``y_cov`` (R, k, k) their moments per shift or block
    (``_y_moments``) and ``gain`` K = C_xy pinv(S_yy). Only a pair with
    points can be dropped."""

    prob: float
    pair: Pair
    gs: GaussianSequence
    path: str
    cols: Optional[np.ndarray] = None
    s_yy: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    w: Optional[np.ndarray] = None
    kept: int = 0
    y_mean: Optional[np.ndarray] = None
    y_cov: Optional[np.ndarray] = None
    gain: Optional[np.ndarray] = None

    @property
    def dropped(self) -> bool:
        return self.path in (LATTICE, MC) and not self.kept


def _view_cells(regions: Sequence[StateRegion], mode: str):
    """``_product_cells`` of the accepted sides of ``regions`` (in time
    order): the inside in conjunct mode or for one region; in disjunct mode
    the sides where region k is the first to hold (the earlier ones outside,
    k inside, the later ones free), disjoint and together the union."""
    m = len(regions)
    if mode == CONJUNCT or m == 1:
        return _product_cells(regions, [[True] * m])
    return _product_cells(regions, [[False] * k + [True] + [None] * (m - k - 1) for k in range(m)])


def _y_moments(y: np.ndarray, w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Self-normalized weighted mean (R, k) and covariance (R, k, k) of y per
    shift or block, y (R, points, k) with weights w (R, points). A block
    with no weight (a Monte Carlo block that accepted nothing) takes the
    moments of all the blocks together."""
    total = w.sum(axis=1)
    empty = total == 0.0
    total[empty] = 1.0
    mean = (w[:, None, :] @ y)[:, 0] / total[:, None]
    centred = y - mean[:, None, :]
    cov = (centred.transpose(0, 2, 1) * w[:, None, :]) @ centred / total[:, None, None]
    if empty.any():
        pooled_mean, pooled_cov = _y_moments(y.reshape(1, -1, y.shape[2]), w.reshape(1, -1))
        mean[empty], cov[empty] = pooled_mean, pooled_cov
    return mean, cov


def _weighted(y: np.ndarray, w: np.ndarray) -> dict:
    """The ``_ViewPair`` fields of points y with weights w: the count of
    positive weights, and the per-shift moments when there is one."""
    kept = int(np.count_nonzero(w))
    y_mean, y_cov = _y_moments(y, w) if kept else (None, None)
    return {"y": y, "w": w, "kept": kept, "y_mean": y_mean, "y_cov": y_cov}


def _accepted_y(
    ctd: ConstrainedTrajectoryDensity, mc_budget: int, rng_seed: int, points: bool = False
) -> List[_ViewPair]:
    """The one pass behind every view of a constrained density, a
    ``_ViewPair`` per pair in pmf order; with ``points`` (``sample_cloud``)
    every pair that is not exact gets points.

    The indicators read only y, the bounded coordinates at the active
    constraint times (ascending, as the times are distinct and sorted),
    and given y the sequence is exactly Gaussian. A pinned pair, and a
    disjunct pair with a full-space active constraint, always holds, so its
    view is ``EXACT``. Every other pair's y lies in the accepted cells of
    its regions (``_view_cells``, built once per set of active constraints;
    full-space regions dropped). Pairs with byte-identical (m_y, S_yy,
    cells) share one problem. Without ``points``, a problem of at most
    three coordinates whose covariance ``_well_conditioned`` accepts gets
    its exact moments from ``mvn._truncated_moments``: a
    ``CLOSED_FORM`` pair; each of the others (near-singular, or with no
    mass in closed form) is counted by reason and logged. The rest draw y
    by ``mvn._lattice_points`` at about mc_budget // 16 points in all,
    seeded by the first pair j of the problem with ``_seed(rng_seed, j,
    1)``: a ``LATTICE`` pair. Pairs whose cells
    ``_product_cells`` refuses (a multi-box item, or over 64 cells) draw y
    ``mc_budget`` times (rounded up to ``_QMC_SHIFTS`` equal blocks) on
    the stream their problem would have had and weigh each draw by its
    indicator: ``MC``, each fallback counted by reason and logged.
    An MC pair that accepted no draw is dropped and logged at WARNING;
    LowAcceptanceError when every pair was dropped.
    """
    _check_draws("mc_budget", mc_budget)
    if ctd.degenerate:
        raise DegenerateDensityError("cannot sample a degenerate constrained density")
    cs = ctd.cs
    views: List[_ViewPair] = []
    cells_of: Dict[Tuple[int, ...], tuple] = {}
    problems, keys, slots = [], {}, []
    fallbacks: Dict[str, int] = {}
    pending = []
    for j, (pair, prob) in enumerate(ctd.pmf.items()):
        info = ctd.pair_info[pair]
        gs = ctd.base.conditional(pair)
        if info.active not in cells_of:
            active = sorted(info.active, key=lambda i: cs.constraints[i].time)
            bounded = [cs.constraints[i] for i in active if not cs.constraints[i].region.is_full_space]
            regions = [c.region for c in bounded]
            holds = not bounded or (cs.mode == DISJUNCT and len(bounded) < len(active))
            cells_of[info.active] = (bounded, None if holds else _view_cells(regions, cs.mode))
        bounded, cells = cells_of[info.active]
        views.append(_ViewPair(float(prob), pair, gs, EXACT))
        if info.path != PINNED and cells is not None:
            cols = np.concatenate([_bounded_cols(pair, gs.dim, c.time, c.region) for c in bounded])
            pending.append((j, bounded, cells, cols))
    # C_xy = Cov(x, y) of every pair with y, in one pass; S_yy is its y rows.
    c_xy = _cov_blocks([views[j].gs for j, *_ in pending], [None] * len(pending), [cols for *_, cols in pending])
    for (j, bounded, cells, cols), c_x in zip(pending, c_xy):
        prob, pair, gs, _ = views[j][:4]
        m_y, s_yy = gs.mean[cols], c_x[cols]
        if isinstance(cells, str):
            fallbacks[cells] = fallbacks.get(cells, 0) + 1
            block = -(-mc_budget // _QMC_SHIFTS)
            y = GaussianSequence._valid(m_y, s_yy, 1).draw(block * _QMC_SHIFTS, child_rng(_seed(rng_seed, j, 1)))
            masks = _bounded_masks([c.region for c in bounded], y)
            acc = masks.all(axis=0) if cs.mode == CONJUNCT else masks.any(axis=0)
            points = _weighted(y.reshape(_QMC_SHIFTS, block, -1), acc.reshape(_QMC_SHIFTS, block) * 1.0)
            # pinv: S_yy is singular when bounded coordinates are degenerate or collinear.
            gain = c_x @ np.linalg.pinv(s_yy)
            views[j] = _ViewPair(prob, pair, gs, MC, cols, s_yy, gain=gain, **points)
            continue
        lo, hi, out = cells
        key = (m_y.tobytes(), s_yy.tobytes(), lo.shape, lo.tobytes(), hi.tobytes(), out.tobytes())
        if key not in keys:
            keys[key] = (len(problems), np.linalg.pinv(s_yy))
            problems.append((m_y, s_yy, lo, hi, out, _seed(rng_seed, j, 1)))
        problem, inverse = keys[key]
        slots.append((j, problem))
        views[j] = _ViewPair(prob, pair, gs, LATTICE, cols, s_yy, gain=c_x @ inverse)
    _log_fallbacks(fallbacks, len(views), "pairs' views drawn by Monte Carlo instead of the lattice")
    settled: Dict[int, dict] = {}
    if not points:
        # Problems of at most three coordinates are in closed form, unless
        # near-singular or without mass there.
        reasons: Dict[int, str] = {}
        few = [i for i, (m_y, *_) in enumerate(problems) if m_y.size <= 3]
        good = [i for i in few if _well_conditioned(problems[i][1][None])[0]]
        reasons.update((i, "near-singular correlation") for i in few if i not in good)
        for i, moments in zip(good, _truncated_moments([problems[i] for i in good])):
            if moments is None:
                reasons[i] = "no mass in closed form"
            else:
                settled[i] = {"path": CLOSED_FORM, "y_mean": moments[0][None], "y_cov": moments[1][None]}
        fallbacks = {}
        for _, p in slots:
            if p in reasons:
                fallbacks[reasons[p]] = fallbacks.get(reasons[p], 0) + 1
        _log_fallbacks(fallbacks, len(views), "pairs' views drawn on the lattice instead of in closed form")
    lattice = [i for i in range(len(problems)) if i not in settled]
    for i, (y, w) in zip(lattice, _lattice_points([problems[i] for i in lattice], mc_budget)):
        settled[i] = _weighted(y, w)
    for v, p in slots:
        views[v] = views[v]._replace(**settled[p])
    dropped = [v for v in views if v.dropped]
    if dropped:
        logger.warning(
            "%d of %d (birth, death) strata accepted no draw and were dropped (constrained mass %.3g)",
            len(dropped),
            len(views),
            math.fsum(v.prob for v in dropped),
        )
        if len(dropped) == len(views):
            raise LowAcceptanceError(f"no (birth, death) stratum accepted a draw of {mc_budget}; increase mc_budget")
    return views


def _given_y(v: _ViewPair) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """The pair's Gaussian given y: its mean m + K (ybar - m_y), the
    correction Sigma - S_yy such that its covariance is P + K (Sigma -
    S_yy) K', and the per-shift deviations K (ybar_r - ybar) of its mean,
    (R, sequence dim). ybar is the mean of the per-shift means ybar_r and
    Sigma that of the per-shift covariances plus the spread of ybar_r about
    ybar: the covariance of all the points about ybar, each shift weighing
    alike. An exact pair has no correction and no deviation; a closed-form
    pair has one "shift", its exact moments, and deviations of 0."""
    gs = v.gs
    if v.path == EXACT:
        return gs.mean, None, np.zeros((1, gs.mean.size))
    y_bar = v.y_mean.mean(axis=0)
    dev = v.y_mean - y_bar
    sigma = v.y_cov.mean(axis=0) + dev.T @ dev / dev.shape[0]
    return gs.mean + v.gain @ (y_bar - gs.mean[v.cols]), sigma - v.s_yy, dev @ v.gain.T


def _kish_rate(views: Sequence[_ViewPair]) -> float:
    """Kish effective sample size (sum w)^2 / sum w^2 of every point of the
    views, each weighing prob * w / (sum of its pair's w), over the number
    of points (rejected Monte Carlo draws included), at most 1 whatever the
    rounding; 1 without points."""
    total, squares, count = 0.0, 0.0, 0
    for v in views:
        if not v.kept:
            continue
        w = v.w * (v.prob / v.w.sum())
        total += float(w.sum())
        squares += float(np.sum(w * w))
        count += w.size
    return min(total * total / squares / count, 1.0) if count else 1.0


def constrained_marginals(
    ctd: ConstrainedTrajectoryDensity,
    mc_budget: int = 100_000,
    rng_seed: int = 0,
) -> MarginalMoments:
    """Per-time-step moment-matched mean/covariance of the constrained density:
    each pair's step means and step blocks P_tt + K_t (Sigma - S_yy) K_t'
    given y (``_given_y``; the whole covariance is never formed), mixed over
    pairs by their constrained pmf mass, with the standard error of each step
    mean from the spread of the mixed per-shift means (0 from exact and
    closed-form pairs)."""
    views = _accepted_y(ctd, mc_budget, rng_seed)
    d = ctd.dim
    strata, spread = [], []
    for v in views:
        if v.dropped:
            continue
        mean, delta, dev = _given_y(v)
        blocks = v.gs._step_covs()
        if delta is not None:
            k_t = v.gain.reshape(-1, d, v.gain.shape[1])
            blocks = blocks + k_t @ delta @ k_t.transpose(0, 2, 1)
        strata.append((v.prob, v.pair[0], mean.reshape(-1, d), blocks))
        spread.append((v.prob, v.pair[0], dev.reshape(dev.shape[0], -1, d)))
    times, means, covs, alive = _step_mixture(strata, d)
    # The mixed per-shift deviations of the step means: pairs on one problem
    # share their shifts, pairs on different problems are independent.
    t0 = times[0]
    dev = np.zeros((_QMC_SHIFTS, times[-1] - t0 + 1, d))
    for prob, b, pair_dev in spread:
        dev[:, b - t0 : b - t0 + pair_dev.shape[1]] += prob * pair_dev
    dev = dev[:, np.array(times) - t0]
    live = alive > 0.0
    mean_se = np.full((len(times), d), np.nan)
    mean_se[live] = dev[:, live].std(axis=0, ddof=1) / alive[live, None] / math.sqrt(_QMC_SHIFTS)
    return MarginalMoments(
        times, means, covs, alive, _kish_rate(views), mean_se,
        {v.pair: v.kept for v in views}, {v.pair: v.path for v in views},
    )
