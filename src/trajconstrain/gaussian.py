"""Gaussian trajectory densities over (birth, death) hypotheses.

A trajectory density factorizes into a probability mass function over
(birth, death) pairs and, per pair, a joint Gaussian over the stacked state
sequence. This module provides marginalization onto time subsets, region
probabilities (one primitive, ``_pattern_probabilities``: settle what the 1-D
bounds settle, closed form where the remaining bounded coordinates are
independent single boxes, Monte Carlo on those coordinates otherwise),
stratified sampling (streamed in chunks of at most ``DRAW_CHUNK`` rows, or
gathered per pair), and moment matching of weighted sample clouds.

It needs numpy only: the normal CDF of the 1-D bounds is ``_ndtr``, the
C library's ``erfc`` taken element-wise (the formula of Cephes' ``ndtr``),
and each pair's bounds go through it in one call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import StateRegion, TimeWindow, Trajectory, existence_pairs
from .errors import DimensionMismatchError
from .kernels import pattern_codes

Pair = Tuple[int, int]

INSIDE = "inside"
COMPLEMENT = "complement"

_PMF_TOL = 1e-12
_SYM_TOL = 1e-10
_EIG_TOL = 1e-10
# A constraint whose satisfaction probability the 1-D bounds place within this
# distance of 0 or 1 is settled (pinned) without sampling.
_PIN_TOL = 1e-12
_SQRT1_2 = math.sqrt(0.5)
# Most rows ``stratified_chunks`` draws at once: memory is O(DRAW_CHUNK x
# sequence dim) however many draws are asked for.
DRAW_CHUNK = 2**15


def child_rng(seed: int, *keys: int) -> np.random.Generator:
    """Deterministic child generator for (seed, keys); keys must be >= 0."""
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + [int(k) for k in keys]))


@dataclass(frozen=True)
class BirthDeathPmf:
    """Probability mass function over (birth, death) pairs."""

    pairs: Tuple[Pair, ...]
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if len(self.pairs) != probs.shape[0]:
            raise ValueError("pairs/probs length mismatch")
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError("duplicate (birth, death) pairs")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > _PMF_TOL:
            raise ValueError(f"probabilities must sum to 1, got {probs.sum()!r}")
        for b, e in self.pairs:
            if b > e:
                raise ValueError(f"pair ({b}, {e}) violates birth <= death")
        probs.setflags(write=False)
        object.__setattr__(self, "pairs", tuple((int(b), int(e)) for b, e in self.pairs))
        object.__setattr__(self, "probs", probs)

    @classmethod
    def uniform_over_window(cls, window: TimeWindow) -> "BirthDeathPmf":
        pairs = existence_pairs(window)
        return cls(tuple(pairs), np.full(len(pairs), 1.0 / len(pairs)))

    def prob(self, pair: Pair) -> float:
        try:
            return float(self.probs[self.pairs.index(pair)])
        except ValueError:
            return 0.0

    def items(self) -> Iterable[Tuple[Pair, float]]:
        return zip(self.pairs, self.probs)


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """Matrix A with A @ A.T = cov, via eigendecomposition with eigenvalue floor.

    A PSD matrix has a zero row wherever its variance is 0; those rows of A
    are set to exactly 0, so such coordinates draw exactly their mean instead
    of eigh's rounding noise.
    """
    w, v = np.linalg.eigh(cov)
    if w.min(initial=0.0) < -_EIG_TOL:
        raise ValueError(f"covariance has eigenvalue {w.min()} below -{_EIG_TOL}")
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    factor[np.diag(cov) == 0.0] = 0.0
    return factor


@dataclass(frozen=True)
class GaussianSequence:
    """Joint Gaussian over a stacked state sequence.

    Time step t of a (birth, death) hypothesis occupies coordinates
    (t - birth) * dim .. (t - birth) * dim + dim - 1.
    """

    mean: np.ndarray
    cov: np.ndarray
    dim: int

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).ravel()
        cov = np.asarray(self.cov, dtype=np.float64)
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} incompatible with mean size {mean.size}")
        if mean.size % self.dim != 0:
            raise ValueError(f"mean size {mean.size} not a multiple of dim {self.dim}")
        asym = np.max(np.abs(cov - cov.T), initial=0.0)
        if asym > _SYM_TOL:
            raise ValueError(f"covariance asymmetry {asym} exceeds {_SYM_TOL}")
        cov = 0.5 * (cov + cov.T)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def length(self) -> int:
        return self.mean.size // self.dim

    def coords(self, pair: Pair, times: Sequence[int]) -> np.ndarray:
        """Flat coordinate indices of the given time steps, ascending in time."""
        birth, death = pair
        if self.length != death - birth + 1:
            raise ValueError(f"sequence length {self.length} != lifetime of pair {pair}")
        idx = []
        for t in sorted(times):
            if not (birth <= t <= death):
                raise ValueError(f"time {t} outside lifetime {birth}..{death}")
            base = (t - birth) * self.dim
            idx.extend(range(base, base + self.dim))
        return np.array(idx, dtype=np.intp)

    @cached_property
    def _factor(self) -> np.ndarray:
        # Computed on the first draw and kept in the instance dict; not a
        # field, so equality and serialization ignore it.
        return _psd_factor(self.cov)

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n joint samples, shape (n, length * dim)."""
        z = rng.standard_normal((n, self.mean.size))
        x = z @ self._factor.T
        x += self.mean
        return x


@dataclass(frozen=True)
class TrajectoryDensity:
    """BirthDeathPmf paired with one GaussianSequence per support pair."""

    pmf: BirthDeathPmf
    conditionals: Tuple[GaussianSequence, ...]

    def __post_init__(self):
        if len(self.conditionals) != len(self.pmf.pairs):
            raise ValueError("conditionals/support length mismatch")
        dims = {g.dim for g in self.conditionals}
        if len(dims) != 1:
            raise ValueError("all conditionals must share one state dimension")
        for (b, e), g in zip(self.pmf.pairs, self.conditionals):
            if g.length != e - b + 1:
                raise ValueError(f"conditional length {g.length} != lifetime of ({b}, {e})")
        object.__setattr__(self, "conditionals", tuple(self.conditionals))

    @property
    def dim(self) -> int:
        return self.conditionals[0].dim

    def conditional(self, pair: Pair) -> GaussianSequence:
        return self.conditionals[self.pmf.pairs.index(pair)]


@dataclass
class Stratum:
    """Weighted samples sharing one (birth, death) pair; states (n, length, dim)."""

    states: np.ndarray
    weights: np.ndarray

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


@dataclass
class SampleCloud:
    """Weighted trajectory samples keyed by (birth, death) stratum."""

    dim: int
    strata: Dict[Pair, Stratum]

    @property
    def total_weight(self) -> float:
        return sum(s.total_weight for s in self.strata.values())

    def trajectories(self) -> List[Tuple[Trajectory, float]]:
        out = []
        for (b, e), s in self.strata.items():
            for i in range(s.states.shape[0]):
                out.append((Trajectory(b, e, s.states[i]), float(s.weights[i])))
        return out


def marginal(gs: GaussianSequence, pair: Pair, times: Sequence[int]) -> GaussianSequence:
    """Exact Gaussian marginal over the stacked subset of time steps."""
    times = sorted(set(times))
    if not times:
        raise ValueError("times must be nonempty")
    idx = gs.coords(pair, times)
    return GaussianSequence(gs.mean[idx], gs.cov[np.ix_(idx, idx)], gs.dim)


def _bounded(
    gs: GaussianSequence, pair: Pair, t: int, region: StateRegion
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lows and highs of ``region`` over the dimensions it bounds, and their
    flat coordinates in ``gs`` at time ``t``; a full-space region bounds none."""
    dims = region.bounded_dims
    return region.lows[:, dims], region.highs[:, dims], gs.coords(pair, [t])[dims]


def _bounded_masks(bounded: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]], y: np.ndarray) -> np.ndarray:
    """(len(bounded), n) inside masks of ``_bounded`` items on y (n, total
    columns), whose columns are the items' bounded coordinates side by side."""
    masks = np.empty((len(bounded), y.shape[0]), dtype=bool)
    start = 0
    for k, (lows, highs, _) in enumerate(bounded):
        masks[k] = StateRegion(lows, highs).contains_batch(y[:, start : start + lows.shape[1]])
        start += lows.shape[1]
    return masks


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF element-wise: 0.5 erfc(-x / sqrt(2)), as Cephes' ndtr."""
    x = np.asarray(x, dtype=np.float64)
    erfc = math.erfc
    return np.array([0.5 * erfc(-v * _SQRT1_2) for v in x.ravel().tolist()]).reshape(x.shape)


def _interval_masses(
    lows: np.ndarray, highs: np.ndarray, mean: np.ndarray, sd: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """P(low <= x <= high) and P(x outside [low, high]) per coordinate, x ~ N(mean, sd^2).

    Broadcasts over boxes. Each mass is taken from the tail it lies in, so
    masses near 0 keep their relative precision; sd == 0 is a point mass.
    One ``_ndtr`` call covers every bound.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (lows - mean) / sd
        b = (highs - mean) / sd
    point = sd == 0.0
    if np.any(point):
        a = np.where(point, np.where(lows <= mean, -np.inf, np.inf), a)
        b = np.where(point, np.where(highs >= mean, np.inf, -np.inf), b)
    cdf_a, cdf_neg_a, cdf_b, cdf_neg_b = _ndtr(np.stack((a, -a, b, -b)))
    inside = np.where(a > 0.0, cdf_neg_a - cdf_neg_b, cdf_b - cdf_a)
    return inside, cdf_a + cdf_neg_b


def _pattern_probabilities(
    gs: GaussianSequence,
    pair: Pair,
    items: Sequence[Tuple[int, StateRegion]],
    mc_budget: int,
    rng_seed: int,
    want: Optional[Sequence[bool]] = None,
) -> Tuple[Union[float, np.ndarray], bool]:
    """Probabilities of inside/outside patterns over constraints (time, region).

    With ``want`` (the required inside-bit of each item) returns (P(pattern ==
    want), exact). Without it returns (cells, exact), where cells[code] is the
    probability that exactly the items whose bit is set in ``code`` hold.
    ``exact`` means standard error 0. The work runs in this order:

    1. Each region is marginalized onto its bounded coordinates only.
    2. An item is pinned when its 1-D bounds settle it within ``_PIN_TOL``:
       P(inside) <= sum over boxes of min over dims of P(in the interval),
       and P(inside) >= max over boxes of 1 - sum over dims of P(outside).
       A pinned item's bit is fixed; a pinned item against ``want`` gives 0
       at once.
    3. The unpinned items are evaluated in closed form when each is a single
       box and their bounded coordinates are uncorrelated, else by
       ``mc_budget`` draws of those coordinates alone; the sub-pattern codes
       are scattered back into the full cells.
    """
    m = len(items)
    bounded = [_bounded(gs, pair, t, region) for t, region in items]
    n_boxes = [lows.shape[0] for lows, _, _ in bounded]
    starts = [0, *itertools.accumulate(lows.size for lows, _, _ in bounded)]
    # One pass over every item's 1-D bounds, flattened box after box.
    flat_cols = np.concatenate([cols for (_, _, cols), n in zip(bounded, n_boxes) for _ in range(n)])
    p_in, p_out = _interval_masses(
        np.concatenate([lows.ravel() for lows, _, _ in bounded]),
        np.concatenate([highs.ravel() for _, highs, _ in bounded]),
        gs.mean[flat_cols],
        np.sqrt(gs.cov.diagonal()[flat_cols]),
    )
    # The bounds of step 2: per box the min of P(in) and the sum of P(outside)
    # over its dims, then per item the sum and the max over its boxes.
    box_item = np.repeat(np.arange(m), n_boxes)
    bound_box = np.repeat(np.arange(box_item.size), np.repeat([cols.size for _, _, cols in bounded], n_boxes))
    box_in = np.ones(box_item.size)
    np.minimum.at(box_in, bound_box, p_in)
    lower = np.full(m, -np.inf)
    np.maximum.at(lower, box_item, 1.0 - np.bincount(bound_box, p_out, box_item.size))
    holds = lower >= 1.0 - _PIN_TOL
    fails = ~holds & (np.bincount(box_item, box_in, m) <= _PIN_TOL)
    if want is not None and np.any(np.where(want, fails, holds)):
        return 0.0, True
    free = np.flatnonzero(~(holds | fails)).tolist()

    cols = np.concatenate([bounded[i][2] for i in free]) if free else np.empty(0, dtype=np.intp)
    cov = gs.cov[np.ix_(cols, cols)]
    exact = all(n_boxes[i] == 1 for i in free) and not np.any(cov - np.diag(np.diag(cov)))
    if exact:
        q = [math.prod(p_in[starts[i] : starts[i + 1]].tolist()) for i in free]
    else:
        x = GaussianSequence(gs.mean[cols], cov, 1).draw(int(mc_budget), child_rng(rng_seed))
        masks = _bounded_masks([bounded[i] for i in free], x)

    if want is not None:
        if exact:
            return float(np.prod([q[k] if want[i] else 1.0 - q[k] for k, i in enumerate(free)])), True
        hit = np.ones(masks.shape[1], dtype=bool)
        for k, i in enumerate(free):
            hit &= masks[k] if want[i] else ~masks[k]
        return float(hit.mean()), False

    sub = np.arange(2 ** len(free))
    if exact:
        sub_cells = np.ones(sub.size)
        for k in range(len(free)):
            sub_cells *= np.where(sub >> k & 1, q[k], 1.0 - q[k])
    else:
        sub_cells = np.bincount(pattern_codes(masks), minlength=sub.size) / masks.shape[1]
    full = np.full(sub.size, sum(1 << i for i in np.flatnonzero(holds).tolist()))
    for k, i in enumerate(free):
        full |= (sub >> k & 1) << i
    cells = np.zeros(2**m)
    cells[full] = sub_cells
    return cells, exact


def region_probability(
    gs: GaussianSequence,
    pair: Pair,
    entries: Sequence[Tuple[int, StateRegion, str]],
    mc_budget: int = 100_000,
    rng_seed: int = 0,
) -> Tuple[float, float]:
    """Joint probability that each constrained time's state is in its region.

    Each entry is (time, region, side) with side "inside" or "complement".
    Returns (probability, standard error). Evaluated by
    ``_pattern_probabilities``: each region is marginalized onto its bounded
    coordinates; entries that their 1-D bounds settle within 1e-12 are
    pinned (one pinned against its side gives exactly 0, with no draws);
    the rest are evaluated in closed form (standard error 0) when they are
    single boxes on uncorrelated coordinates, else by plain Monte Carlo on
    their bounded coordinates. A Monte Carlo estimate of exactly 0 or 1
    reports a standard error of about 1/mc_budget, not 0 (mc_budget >= 2).
    """
    if not entries:
        raise ValueError("entries must be nonempty")
    if mc_budget < 2:
        raise ValueError(f"mc_budget must be >= 2, got {mc_budget}")
    for t, region, side in entries:
        if side not in (INSIDE, COMPLEMENT):
            raise ValueError(f"side must be inside/complement, got {side!r}")
        if region.dim != gs.dim:
            raise DimensionMismatchError(f"region dim {region.dim} != state dim {gs.dim}")
    items = [(t, region) for t, region, _ in entries]
    want = [side == INSIDE for _, _, side in entries]
    p, exact = _pattern_probabilities(gs, pair, items, mc_budget, rng_seed, want)
    if exact:
        return p, 0.0
    n = int(mc_budget)
    # An estimate of exactly 0 or 1 is moved 1/n inward for its SE (about 1/n, not 0).
    q = p if 0.0 < p < 1.0 else min(max(p, 1.0 / n), 1.0 - 1.0 / n)
    return p, math.sqrt(q * (1.0 - q) / n)


def alive_probability(pmf: BirthDeathPmf, predicate: Callable[[Pair], bool]) -> float:
    """Total pmf mass on pairs where the predicate holds."""
    return float(sum(p for pair, p in pmf.items() if predicate(pair)))


def stratified_chunks(
    td: TrajectoryDensity, n: int, rng: np.random.Generator
) -> Iterator[Tuple[Pair, np.ndarray]]:
    """n i.i.d. draws of td as (pair, states (count, length, dim)) chunks.

    One multinomial over the pmf, then each pair with a nonzero count in pmf
    order, at most ``DRAW_CHUNK`` rows at a time. numpy fills normal draws row
    by row, so the chunks of a pair take the normals of one draw of its whole
    count and leave the generator in the same state; only the product with
    the factor may round differently in the last bit.
    """
    if n == 0:
        return
    counts = rng.multinomial(n, td.pmf.probs)
    for (b, e), g, c in zip(td.pmf.pairs, td.conditionals, counts.tolist()):
        for start in range(0, c, DRAW_CHUNK):
            rows = min(DRAW_CHUNK, c - start)
            yield (b, e), g.draw(rows, rng).reshape(rows, e - b + 1, td.dim)


def stratified_draws(td: TrajectoryDensity, n: int, rng: np.random.Generator) -> Dict[Pair, np.ndarray]:
    """The chunks of ``stratified_chunks`` gathered per pair, in pmf order;
    pairs drawn 0 times are left out."""
    chunks: Dict[Pair, List[np.ndarray]] = {}
    for pair, x in stratified_chunks(td, n, rng):
        chunks.setdefault(pair, []).append(x)
    return {pair: xs[0] if len(xs) == 1 else np.concatenate(xs) for pair, xs in chunks.items()}


def sample(td: TrajectoryDensity, n: int, rng_seed: int = 0) -> SampleCloud:
    """Stratified i.i.d. sampling: draw (birth, death) from the pmf, then the sequence."""
    if n < 1:
        raise ValueError("n must be >= 1")
    draws = stratified_draws(td, n, child_rng(rng_seed))
    return SampleCloud(td.dim, {pair: Stratum(x, np.ones(x.shape[0])) for pair, x in draws.items()})


def _step_blocks(cov: np.ndarray, dim: int) -> np.ndarray:
    """Per-step diagonal blocks (nu, dim, dim) of a stacked (nu * dim) covariance."""
    nu = cov.shape[0] // dim
    steps = np.arange(nu)
    return cov.reshape(nu, dim, nu, dim)[steps, :, steps, :]


def _step_mixture(
    strata: Sequence[Tuple[float, int, np.ndarray, np.ndarray]], dim: int
) -> Tuple[List[int], np.ndarray, np.ndarray, np.ndarray]:
    """Per-time-step mean/covariance of a mixture of strata.

    Each stratum is (weight, birth, per-step means (nu, dim), per-step
    covariances (nu, dim, dim)) over steps birth..birth + nu - 1. Returns
    (times, means (T, dim), covs (T, dim, dim), alive weight (T,)) over every
    step some stratum spans; means and covs are NaN where that weight is 0.
    """
    t0 = min(b for _, b, _, _ in strata)
    span = max(b + m.shape[0] for _, b, m, _ in strata) - t0
    spanned = np.zeros(span, dtype=bool)
    w_acc = np.zeros(span)
    m_acc = np.zeros((span, dim))
    s_acc = np.zeros((span, dim, dim))
    for w, b, m, c in strata:
        steps = slice(b - t0, b - t0 + m.shape[0])
        spanned[steps] = True
        if w == 0.0:
            continue
        w_acc[steps] += w
        m_acc[steps] += w * m
        s_acc[steps] += w * (c + m[:, :, None] * m[:, None, :])
    keep = np.flatnonzero(spanned)
    alive = w_acc[keep]
    live = alive > 0.0
    means = np.full((keep.size, dim), np.nan)
    covs = np.full((keep.size, dim, dim), np.nan)
    means[live] = m_acc[keep][live] / alive[live, None]
    covs[live] = s_acc[keep][live] / alive[live, None, None] - means[live, :, None] * means[live, None, :]
    return (t0 + keep).tolist(), means, covs, alive


def step_moments(td: TrajectoryDensity) -> Tuple[List[int], np.ndarray, np.ndarray, np.ndarray]:
    """Per-time-step mixture mean/covariance over pairs alive at each step.

    Returns (times, means (T, d), covs (T, d, d), alive mass (T,)); entries
    are NaN where no support pair is alive.
    """
    d = td.dim
    strata = [
        (float(w), b, g.mean.reshape(-1, d), _step_blocks(g.cov, d))
        for ((b, _), w), g in zip(td.pmf.items(), td.conditionals)
    ]
    return _step_mixture(strata, d)


def moment_match(cloud: SampleCloud) -> TrajectoryDensity:
    """Per-stratum weighted mean/covariance; pmf proportional to stratum weights."""
    if not cloud.strata:
        raise ValueError("cloud has no strata")
    pairs, probs, conds = [], [], []
    for pair in sorted(cloud.strata):
        s = cloud.strata[pair]
        w = s.weights
        total = w.sum()
        ess = total * total / float((w * w).sum()) if total > 0 else 0.0
        if ess < 2.0:
            raise ValueError(f"stratum {pair} has fewer than 2 effective samples")
        flat = s.states.reshape(s.states.shape[0], -1)
        mean = (w[:, None] * flat).sum(axis=0) / total
        centered = flat - mean
        cov = (w[:, None] * centered).T @ centered / total
        cov = 0.5 * (cov + cov.T)
        pairs.append(pair)
        probs.append(total)
        conds.append(GaussianSequence(mean, cov, cloud.dim))
    probs = np.asarray(probs)
    return TrajectoryDensity(BirthDeathPmf(tuple(pairs), probs / probs.sum()), tuple(conds))
