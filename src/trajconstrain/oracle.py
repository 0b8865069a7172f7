"""Brute-force verification of constrained densities.

Every constrained quantity is re-estimated by rejection: unconstrained
realizations are drawn and filtered through the trajectory-level
satisfaction test (vectorized ``satisfies_batch``), then compared with the
engine's value by a z-score at a stated threshold. No probability math is
shared with the engine.

A draw is decided as soon as one constraint decides it, so each draw is
screened one constraint at a time and draws a constraint's normals only
while it is undecided (Devroye, *Non-Uniform Random Variate Generation*,
1986, ch. II.3). Each pair's bounded active constraints are its stages,
most likely to decide a row first (``_Screen``). Its coordinates are
reordered with the stages' first (the head) and the rest after (the tail),
under one Cholesky factor F of the reordered covariance, and chunks of at
most ``DRAW_CHUNK`` rows are screened stage by stage (``_Screen.run``).
Stage k of every pair of a call takes its normals from its own generator
(``_stage_streams``), row-major over the rows that reach it, so the chunk
size changes no draw. Which rows reach stage k depends on the streams
before k alone, so each row's head normals are i.i.d. standard normal and
independent of the earlier stages' outcome: each head is N(m_h, S_hh), as
under whole-sequence rejection.

Only where per-step moments are checked are the accepted draws completed,
and then only as the statistics their moments need. n rows of normals
Z = [z_h z_t] with column means zbar have per-coordinate mean m + F zbar and
sum of squared deviations diag(F C F^T), C = Z^T Z - n zbar zbar^T:
everything comes from the augmented Gram matrix of [A z_t], A = [1 z_h].
Its head block A^T A is summed over the accepted head normals of each
chunk. The blocks that involve the tail normals, A^T z_t and z_t^T z_t, are then
drawn once per pair, from a second stream, in their exact law given A (a
matrix normal and a Wishart matrix, singular below q degrees of freedom, by
Bartlett's decomposition; see ``_augmented_gram``), by one law for every
accepted count, so at most (h + 1) q + q (q + 1) / 2 numbers stand in for
n q tail normals. z_t is independent of the head and of the test, so the
accepted rows are exact unconstrained draws that satisfy the constraints,
and every reported number has the law it has under whole-sequence
rejection. What the tail draw reads from its stream depends on the pair's
accepted count alone, so the chunk size changes no draw. Per-pair moments
merge with Chan, Golub & LeVeque's pairwise update ("Algorithms for
computing the sample variance", Amer. Statist. 1983), so memory is
O(chunk x head + sequence dim^2), not O(n). Counting callers draw no tail
statistic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .chain import _ChainSequence
from .core import CONJUNCT, Constraint, ConstraintSet, StateRegion, active_indices, satisfies_batch
from .engine import (
    ConstrainedBernoulli,
    ConstrainedPmbm,
    ConstrainedPpp,
    constrained_marginals,
)
from .errors import LowAcceptanceError
from .gaussian import GaussianSequence, Pair, TrajectoryDensity, _check_draws, _cholesky, child_rng
from .rfs import BernoulliTrajectory, PmbmDensity, PppTrajectory

# Budget behind the engine's step means that oracle_bernoulli checks.
_MOMENT_BUDGET = 100_000
# Most rows screened at once: memory is O(DRAW_CHUNK x head dim) however
# many draws are asked for. At 2^13 rows a call's buffers stay small enough
# that their pages are reused from call to call.
DRAW_CHUNK = 2**13


@dataclass
class OracleEntry:
    name: str
    analytic: float
    empirical: float
    se: float
    z: float
    passed: bool


@dataclass
class OracleReport:
    entries: List[OracleEntry]
    n: int
    seed: int
    z_threshold: float

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def n_failed(self) -> int:
        return sum(not e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "seed": self.seed,
            "z_threshold": self.z_threshold,
            "passed": self.passed,
            "entries": [dict(vars(e)) for e in self.entries],
        }

    def to_table(self) -> str:
        lines = [f"{'quantity':<44} {'analytic':>12} {'empirical':>12} {'z':>8}  result"]
        for e in self.entries:
            lines.append(
                f"{e.name:<44} {e.analytic:>12.6f} {e.empirical:>12.6f} "
                f"{e.z:>8.2f}  {'pass' if e.passed else 'FAIL'}"
            )
        lines.append(f"-- {self.n_failed} failed of {len(self.entries)} at |z| <= {self.z_threshold}")
        return "\n".join(lines)


def _entry(name: str, analytic: float, empirical: float, se: float, z_threshold: float, n: int) -> OracleEntry:
    if se == 0.0:
        if empirical == 0.0 and analytic < z_threshold / n:
            # zero observed events and an analytic value consistent with zero
            return OracleEntry(name, analytic, empirical, se, 0.0, True)
        z = 0.0 if analytic == empirical else math.inf
    else:
        z = (empirical - analytic) / se
    return OracleEntry(name, analytic, empirical, se, z, abs(z) <= z_threshold)


def _merge(n_a, mean_a, m2_a, n_b, mean_b, m2_b):
    """Count, mean and M2 (sum of squared deviations from the mean) of the
    union of two samples, from those of each (Chan, Golub & LeVeque's pairwise
    update). Broadcasts; n_a + n_b must be positive."""
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * (n_b / n), m2_a + m2_b + delta * delta * (n_a * n_b / n)


class _StepMoments:
    """Per-time-step count, mean and M2 of accepted states, merged chunk by chunk."""

    def __init__(self, td: TrajectoryDensity):
        self.t0 = min(b for b, _ in td.pmf.pairs)
        span = max(e for _, e in td.pmf.pairs) - self.t0 + 1
        self.n = np.zeros((span, 1))
        self.mean = np.zeros((span, td.dim))
        self.m2 = np.zeros((span, td.dim))

    def add(self, birth: int, n: int, mean: np.ndarray, m2: np.ndarray) -> None:
        """Merge the count ``n``, per-coordinate mean and M2 (flat, in
        coordinate order) of accepted sequences born at ``birth``."""
        dim = self.mean.shape[1]
        steps = slice(birth - self.t0, birth - self.t0 + mean.size // dim)
        self.n[steps], self.mean[steps], self.m2[steps] = _merge(
            self.n[steps], self.mean[steps], self.m2[steps], n, mean.reshape(-1, dim), m2.reshape(-1, dim)
        )

    def per_step(self, min_count: int) -> Dict[int, Tuple[np.ndarray, np.ndarray, int]]:
        """Accepted-sample mean, its standard error and the count, per time step
        with at least ``min_count`` (>= 2) accepted draws alive."""
        return {
            self.t0 + k: (self.mean[k], np.sqrt(self.m2[k] / ((n - 1) * n)), n)
            for k, n in enumerate(self.n[:, 0].astype(int).tolist())
            if n >= min_count
        }


def _pass_guess(mean: np.ndarray, var: np.ndarray, region: StateRegion) -> float:
    """A guess at the chance that a state whose ``region.bounded_dims`` have
    ``mean`` and ``var`` lies in ``region``: per box the product of its
    intervals' normal masses, as if independent, summed over the boxes and
    capped at 1. It only orders the stages and enters no reported number."""
    sds = [math.sqrt(max(v, 0.0)) * math.sqrt(2.0) for v in var.tolist()]
    total, boxes = 0.0, region.bounded_region
    for lows, highs in zip(boxes.lows.tolist(), boxes.highs.tolist()):
        p = 1.0
        for lo, hi, m, s in zip(lows, highs, mean.tolist(), sds):
            p *= 0.5 * (math.erfc((lo - m) / s) - math.erfc((hi - m) / s)) if s > 0.0 else float(lo <= m <= hi)
        total += p
    return min(total, 1.0)


def _head_cov(g: GaussianSequence, head: np.ndarray) -> np.ndarray:
    """The covariance block of ``g`` at its coordinates ``head``. A dense
    sequence indexes its ``cov``. A fitted conditional reads its chain's
    step covariances P_s and gains G_s alone, by one sweep back from the last
    head step to the first: Cov(x_s, x_t) = G_s Cov(x_{s+1}, x_t) for every
    later head step t (Rauch, Tung & Striebel, AIAA J. 3, 1965), whose column
    starts as P_t at t. The blocks below the diagonal mirror those above."""
    if not isinstance(g, _ChainSequence):
        return g.cov[np.ix_(head, head)]
    if not head.size:
        return np.zeros((0, 0))
    d, steps, gains = g.dim, g._chain.steps, g._chain.gains
    at, where = np.unique(head // d, return_inverse=True)
    k, first, last = at.size, int(at[0]), int(at[-1])
    carried = np.zeros((d, k * d))  # Cov(x_s, x_t), 0 while the sweep is after t
    rows = np.empty((k, d, k * d))
    for s in range(last, first - 1, -1):
        if s < last:
            carried = gains[s] @ carried
        if s == at[k - 1]:
            k -= 1
            carried[:, k * d : (k + 1) * d] = steps[s]
            rows[k] = carried
    cov = rows.reshape(at.size * d, -1)
    block = np.repeat(np.arange(at.size), d)
    cov = np.where(block[:, None] > block, cov.T, cov)
    idx = where * d + head % d
    return cov[np.ix_(idx, idx)]


class _Screen:
    """One pair's screening stages and conditional, reordered with the
    coordinates that the stages bound first (the head) and the rest after
    (the tail), and the head Gram of its accepted rows.

    A stage is an active constraint whose region is not full space, over
    step * dim + ``region.bounded_dims``; a full-space one holds for every
    row, and in disjunct mode it keeps every row, so that pair has no stage.
    Conjunct stages run in ascending ``_pass_guess``, disjunct ones in
    descending, ties by time; the head holds their coordinates in that
    order. With F the lower Cholesky factor of the reordered covariance
    (zero columns where it is singular), stage k's states are
    m_k + F[k, :e_k] z[:e_k], where e_k ends its coordinates. Without
    ``complete`` only the head is factored, from its block (``_head_cov``;
    the leading block of a Cholesky factor is the factor of the leading
    block), and the pairs of one chain with the same head coordinates share
    block and factor through the call's ``shared``. With ``complete`` the
    whole reordered sequence is factored, from its dense covariance.

    ``stages`` holds per stage its first and end head coordinate, F[k, :e_k]
    (contiguous), m_k as a column and the one-constraint set of its
    ``bounded_region``. ``gram`` is A^T A for A = [1 z_h] over the accepted
    head normals that ``add`` has seen."""

    def __init__(
        self, g: GaussianSequence, birth: int, idx: Sequence[int], cs: ConstraintSet, complete: bool, shared: dict
    ):
        items = sorted((cs.constraints[i] for i in idx), key=lambda c: c.time)
        bounded = [c for c in items if not c.region.is_full_space]
        self.conjunct = cs.mode == CONJUNCT
        if not self.conjunct and len(bounded) < len(items):
            bounded = []
        coords = [(c.time - birth) * g.dim + c.region.bounded_dims for c in bounded]
        head = np.concatenate(coords) if coords else np.zeros(0, dtype=np.intp)
        if complete:
            var = np.diagonal(g.cov)[head]
        else:
            key = (id(g._chain), head.tobytes()) if isinstance(g, _ChainSequence) else None
            block, factors = shared[key] if key in shared else (_head_cov(g, head), {})
            if key is not None:
                shared[key] = block, factors
            var = np.diagonal(block)
        ends = list(itertools.accumulate(x.size for x in coords))
        spans = [np.arange(end - x.size, end) for x, end in zip(coords, ends)]  # of each stage in head
        guess = [_pass_guess(g.mean[head[p]], var[p], c.region) for c, p in zip(bounded, spans)]
        rank = sorted(range(len(bounded)), key=lambda k: guess[k] if self.conjunct else -guess[k])
        perm = np.concatenate([spans[k] for k in rank]) if rank else head
        self.h = head.size
        if complete:
            self.order = np.concatenate([head[perm], np.setdiff1d(np.arange(g.mean.size), head)])
            self.factor = _cholesky(g.cov[np.ix_(self.order, self.order)])
        else:
            self.order = head[perm]
            if perm.tobytes() not in factors:  # shared by the chain's pairs of this head and order
                factors[perm.tobytes()] = _cholesky(block[np.ix_(perm, perm)])
            self.factor = factors[perm.tobytes()]
        self.mean = g.mean[self.order]
        self.stages = []
        end = 0
        for k in rank:
            start, end = end, end + spans[k].size
            stage_cs = ConstraintSet([Constraint(0, bounded[k].region.bounded_region)], cs.mode)
            f_k = np.ascontiguousarray(self.factor[start:end, :end])
            self.stages.append((start, end, f_k, self.mean[start:end, None], stage_cs))
        self.width = max((e - s for s, e, *_ in self.stages), default=0)
        self.gram = np.zeros((self.h + 1, self.h + 1)) if complete else None

    def run(self, rows: int, streams: List[np.random.Generator], work: Tuple[np.ndarray, ...], complete: bool):
        """Screen ``rows`` draws stage by stage: the accepted count and,
        with ``complete``, the accepted rows' head normals (h, count), else
        None. ``work`` is the call's normals, spare normals, states and draws
        buffers, viewed as (coordinates, rows). The undecided rows' normals
        lead a normals buffer; a conjunct stage keeps the rows that pass it,
        a count-only disjunct stage counts them and keeps the others, and the
        kept rows are gathered in order into the other buffer, except after
        the last stage. Disjunct stages with ``complete`` draw every row, and
        the accepted ones are gathered once."""
        z, other = (b[: self.h * rows].reshape(self.h, rows) for b in work[:2])
        m, count, acc, last = rows, 0 if self.stages else rows, None, len(self.stages) - 1
        for k, (_, end, *_) in enumerate(self.stages):
            hit = self._stage(k, z, m, streams[k], *work[2:])
            if self.conjunct:
                if k == last and not complete:
                    return int(np.count_nonzero(hit)), None
            elif complete:
                acc = hit if acc is None else np.logical_or(acc, hit, out=acc)
                continue
            else:
                count += int(np.count_nonzero(hit))
                if k == last:
                    return count, None
                np.logical_not(hit, out=hit)
            m = _gather(z, m, end, hit, other)
            z, other = other, z
        if acc is not None:
            m = _gather(z, m, self.h, acc, other)
            z = other
        if self.conjunct or complete:
            count = m
        return count, z[:, :m] if complete else None

    def _stage(self, k: int, z: np.ndarray, m: int, stream: np.random.Generator, x_buf: np.ndarray, d_buf: np.ndarray):
        """Which of the first ``m`` rows of ``z`` (h, rows) pass stage k, once
        its normals are drawn from ``stream`` into them. The states are formed
        in ``x_buf`` and tested for every row, stale ones too, so that no
        temporary's size changes from stage to stage, which fragments the
        heap; each column tested is contiguous."""
        start, end, f, m_k, stage_cs = self.stages[k]
        w, rows = end - start, z.shape[1]
        if w == 1:  # a (m, 1) draw fills the coordinate's row as it is
            stream.standard_normal(out=z[start, :m])
        else:
            d = d_buf[: m * w].reshape(m, w)
            stream.standard_normal(out=d)
            z[start:end, :m] = d.T
        x = np.dot(f, z[:end], out=x_buf[: w * rows].reshape(w, rows))
        x += m_k
        return satisfies_batch(0, 0, x.T[:, None, :], stage_cs)[:m]

    def add(self, z: np.ndarray) -> None:
        """Add the accepted head normals ``z`` (h, count) to ``gram``."""
        sums = z.sum(axis=1)
        self.gram[0, 0] += z.shape[1]
        self.gram[0, 1:] += sums
        self.gram[1:, 0] += sums
        self.gram[1:, 1:] += z @ z.T

    def tail_moments(self, tail_rng: np.random.Generator) -> Tuple[int, np.ndarray, np.ndarray]:
        """``reduce`` of the accepted rows, with the tail's part of their Gram
        matrix drawn from ``tail_rng`` given ``gram``."""
        return self.reduce(_augmented_gram(self.gram, self.mean.size - self.h, tail_rng))

    def reduce(self, gram: np.ndarray) -> Tuple[int, np.ndarray, np.ndarray]:
        """Count, mean and M2 per coordinate (flat, in coordinate order) of
        the sequences m + F z over n rows of normals Z whose augmented Gram
        matrix [1 Z]^T [1 Z] is ``gram`` (n at [0, 0], the column sums in
        row 0, Z^T Z below them).

        With zbar the column means and C = Z^T Z - n zbar zbar^T, the rows
        have mean m + F zbar and M2 diag(F C F^T); they are never built."""
        n, sums = gram[0, 0], gram[0, 1:]
        z_bar = sums / n
        c = gram[1:, 1:] - np.outer(sums, z_bar)
        # a sum of squares, whatever the rounding of the difference above
        m2 = np.maximum(np.einsum("ij,ij->i", self.factor @ c, self.factor), 0.0)
        mean = self.mean + self.factor @ z_bar
        flat_mean, flat_m2 = np.empty_like(mean), np.empty_like(m2)
        flat_mean[self.order], flat_m2[self.order] = mean, m2
        return int(n), flat_mean, flat_m2


def _gather(z: np.ndarray, m: int, end: int, keep: np.ndarray, out: np.ndarray) -> int:
    """Copy rows :end of the columns :m of ``z`` where ``keep`` holds, in
    order, to the leading columns of ``out``, row by row so that ``take``
    writes contiguously; return how many columns were kept."""
    idx = np.flatnonzero(keep)
    for j in range(end):
        np.take(z[j, :m], idx, out=out[j, : idx.size], mode="clip")
    return idx.size


def _augmented_gram(head: np.ndarray, q: int, rng: np.random.Generator) -> np.ndarray:
    """[A Z_t]^T [A Z_t] given the head Gram ``head`` = A^T A (h + 1, h + 1)
    of A = [1 z_h] over n = head[0, 0] >= 1 rows, for tail normals Z_t (n, q)
    independent of A, with the blocks that involve Z_t drawn from ``rng`` in
    their exact law given A; Z_t itself is never drawn.

    A has rank r = min(n, h + 1), and its first r columns are independent
    almost surely; the rank is taken from n, not from a factor's pivots,
    which rounding can push past it. With L the lower Cholesky factor of
    head[:r, :r] and F (h + 1, r) = [L; (L^-1 head[:r, r:])^T], F F^T = A^T A,
    A^T Z_t = F G for G (r, q) standard normal, and Z_t^T Z_t = G^T G + W,
    with W ~ Wishart_q(n - r, I) independent of G: the projections of Z_t's
    columns on the range of A and on its orthogonal complement (Anderson,
    *An Introduction to Multivariate Statistical Analysis*, 3rd ed., 2003,
    sec. 7.2). W = B B^T by Bartlett's decomposition, with B (q, min(q, n - r))
    lower trapezoidal, B_ii^2 ~ chi^2(n - r - i) and standard normals below
    the diagonal; below q degrees of freedom W is singular and B is
    trapezoidal, not triangular (Srivastava, "Singular Wishart and
    multivariate beta distributions", *Ann. Statist.* 31, 2003). What is
    read from ``rng`` depends on n, h and q alone."""
    a, n = head.shape[0], int(head[0, 0])
    r = min(n, a)
    k = min(q, n - r)
    factor = np.linalg.cholesky(head[:r, :r])
    factor = np.vstack([factor, np.linalg.solve(factor, head[:r, r:]).T])
    g = rng.standard_normal((r, q))
    bartlett = np.zeros((q, k))
    bartlett[np.diag_indices(k)] = np.sqrt(rng.chisquare(n - r - np.arange(k)))
    bartlett[np.tril_indices(q, -1, k)] = rng.standard_normal(q * k - k * (k + 1) // 2)
    cross = factor @ g
    gram = np.empty((a + q, a + q))
    gram[:a, :a] = head
    gram[:a, a:] = cross
    gram[a:, :a] = cross.T
    gram[a:, a:] = g.T @ g + bartlett @ bartlett.T
    return gram


def _stage_streams(rng: np.random.Generator, count: int) -> List[np.random.Generator]:
    """One generator per screening stage, seeded from integers drawn from
    ``rng`` (numpy 1.24 lacks ``spawn``; jumped states of nearby ``rng``
    states, as in ``oracle_pmbm``'s calls, would overlap)."""
    return [np.random.default_rng(seed) for seed in rng.integers(2**63, size=count).tolist()]


def _screened_chunks(
    td: TrajectoryDensity, n: int, rng: np.random.Generator, cs: ConstraintSet, complete: bool = False
) -> Iterator[Tuple[Pair, _Screen, int, Optional[np.ndarray]]]:
    """n i.i.d. draws of td screened on ``cs``, as (pair, screen, accepted
    count, accepted head normals (h, count) or None) chunks.

    One multinomial over the pmf, one stream per stage (``_stage_streams``),
    then each pair with a nonzero count in pmf order, at most ``DRAW_CHUNK``
    rows at a time (read per call). A pair with no active constraint keeps
    no draw and draws nothing. ``complete`` factors the whole reordered
    covariance, for ``_Screen.reduce``, and adds each chunk's accepted
    normals to its screen's Gram (``_Screen.add``) before they are yielded.
    The buffers are allocated once per call, for its largest pair, so the
    yielded normals are overwritten when the generator resumes."""
    if n == 0:
        return
    counts = rng.multinomial(n, td.pmf.probs)
    drawn, shared = [], {}
    for pair, g, c in zip(td.pmf.pairs, td.conditionals, counts.tolist()):
        idx = active_indices(cs, *pair)
        if c and idx:
            drawn.append((pair, _Screen(g, pair[0], idx, cs, complete, shared), c))
    if not drawn:
        return
    streams = _stage_streams(rng, max(len(screen.stages) for _, screen, _ in drawn))
    chunk = DRAW_CHUNK
    rows = min(chunk, max(c for _, _, c in drawn))
    h, w = (max(getattr(screen, a) for _, screen, _ in drawn) for a in ("h", "width"))
    # zeroed: a stage tests every row of its chunk, so a stale row must hold a number
    work = (np.zeros(h * rows), np.zeros(h * rows), np.empty(w * rows), np.empty(w * rows if w > 1 else 0))
    for pair, screen, c in drawn:
        for start in range(0, c, chunk):
            count, z = screen.run(min(chunk, c - start), streams, work, complete)
            if complete:
                screen.add(z)
            yield pair, screen, count, z


def _accepted(
    td: TrajectoryDensity,
    n: int,
    rng: np.random.Generator,
    cs: ConstraintSet,
    moments: Optional[_StepMoments] = None,
    tail_rng: Optional[np.random.Generator] = None,
) -> Dict[Pair, int]:
    """How many of n draws of td satisfy ``cs``, per pair. With ``moments``,
    the step moments of the accepted draws, completed from ``tail_rng``, are
    merged into it: each pair's tail statistics are drawn once, given its
    head Gram over all its chunks, so the chunk size changes no tail draw."""
    per_pair: Dict[Pair, int] = {}
    screens: Dict[Pair, _Screen] = {}  # of the pairs with accepted rows, in pmf order
    for pair, screen, count, _ in _screened_chunks(td, n, rng, cs, moments is not None):
        per_pair[pair] = per_pair.get(pair, 0) + count
        if moments is not None and count:
            screens[pair] = screen
    for (birth, _), screen in screens.items():
        moments.add(birth, *screen.tail_moments(tail_rng))
    return per_pair


def _accepted_count(td: TrajectoryDensity, n: int, rng: np.random.Generator, cs: ConstraintSet) -> int:
    """How many of n draws of td satisfy ``cs``."""
    return sum(_accepted(td, n, rng, cs).values())


def oracle_bernoulli(
    b: BernoulliTrajectory,
    constrained: ConstrainedBernoulli,
    cs: ConstraintSet,
    n: int = 200_000,
    z_threshold: float = 4.0,
    rng_seed: int = 0,
    check_moments: bool = True,
) -> OracleReport:
    """Check constrained existence, pair pmf and per-step moments by rejection.
    The engine's step means are ``constrained_marginals`` at ``_MOMENT_BUDGET``,
    seed ``rng_seed + 1``; their own standard error (``mean_se``) adds in
    quadrature to the empirical SE."""
    _check_draws("n", n)
    rng = child_rng(rng_seed, 11)
    entries: List[OracleEntry] = []

    n_exist = int(rng.binomial(n, b.r)) if b.r > 0 else 0
    moments = _StepMoments(b.density) if check_moments and constrained.density.pmf is not None else None
    per_pair = _accepted(b.density, n_exist, rng, cs, moments, child_rng(rng_seed, 11, 1))
    accepted = sum(per_pair.values())
    r_hat = accepted / n
    r_c = constrained.r
    se = math.sqrt(max(r_c * (1.0 - r_c), 0.0) / n)
    se = math.sqrt(se**2 + (b.r * constrained.report.joint_se) ** 2)
    entries.append(_entry("r_constrained", r_c, r_hat, se, z_threshold, n))

    if constrained.density.pmf is not None and accepted > 0:
        for pair, p_c in constrained.density.pmf.items():
            count = per_pair.get(pair, 0)
            if p_c * accepted < 25:
                continue  # too few expected acceptances for a meaningful z
            se_pair = math.sqrt(p_c * (1.0 - p_c) / accepted)
            entries.append(
                _entry(f"pmf[{pair}]", float(p_c), count / accepted, se_pair, z_threshold, accepted)
            )

    if check_moments and constrained.density.pmf is not None and accepted > 50:
        try:
            mm = constrained_marginals(constrained.density, _MOMENT_BUDGET, rng_seed + 1)
        except LowAcceptanceError:
            mm = None
        if mm is not None:
            emp = moments.per_step(min_count=100)
            for k, t in enumerate(mm.times):
                if t not in emp:
                    continue
                e_mean, e_se, n_t = emp[t]
                for j in range(constrained.density.dim):
                    se_m = math.sqrt(e_se[j] ** 2 + mm.mean_se[k, j] ** 2)
                    entries.append(
                        _entry(
                            f"mean[t={t},dim={j}]",
                            float(mm.means[k, j]),
                            float(e_mean[j]),
                            se_m,
                            z_threshold,
                            n_t,
                        )
                    )
    return OracleReport(entries, n, rng_seed, z_threshold)


def oracle_ppp(
    p: PppTrajectory,
    constrained: ConstrainedPpp,
    cs: ConstraintSet,
    n_runs: int = 10_000,
    z_threshold: float = 4.0,
    rng_seed: int = 0,
) -> OracleReport:
    """Check constrained intensity scale by thinning, plus Poisson dispersion
    and independence of surviving vs removed counts."""
    _check_draws("n_runs", n_runs)
    rng = child_rng(rng_seed, 13)
    counts = rng.poisson(p.mu, size=n_runs)
    total = int(counts.sum())

    # The accepted points, then a uniformly random assignment of points to runs.
    flags = np.arange(total) < _accepted_count(p.density, total, rng, cs)
    flags = flags[rng.permutation(total)]
    run_id = np.repeat(np.arange(n_runs), counts)
    surviving = np.bincount(run_id, weights=flags.astype(np.float64), minlength=n_runs)
    removed = counts - surviving

    entries: List[OracleEntry] = []
    mu_c = constrained.mu
    se = math.sqrt(mu_c / n_runs) if mu_c > 0 else 0.0
    se = math.sqrt(se**2 + (p.mu * constrained.report.joint_se) ** 2)
    entries.append(_entry("mu_constrained", mu_c, float(surviving.mean()), se, z_threshold, n_runs))

    if mu_c > 0.5:
        disp = float(surviving.var(ddof=1) / surviving.mean()) if surviving.mean() > 0 else 0.0
        entries.append(
            _entry("dispersion(var/mean)", 1.0, disp, math.sqrt(2.0 / n_runs), z_threshold, n_runs)
        )
        if removed.std() > 0 and surviving.std() > 0:
            corr = float(np.corrcoef(surviving, removed)[0, 1])
            entries.append(
                _entry("corr(surviving, removed)", 0.0, corr, 1.0 / math.sqrt(n_runs), z_threshold, n_runs)
            )
    return OracleReport(entries, n_runs, rng_seed, z_threshold)


def oracle_pmbm(
    m: PmbmDensity,
    constrained: ConstrainedPmbm,
    cs: ConstraintSet,
    n: int = 200_000,
    z_threshold: float = 4.0,
    rng_seed: int = 0,
) -> OracleReport:
    """Componentwise Bernoulli/PPP checks plus the whole-set expected cardinality.

    A track (by identity: its r enters the check) held by several global
    hypotheses is checked once, named after and seeded by its first slot."""
    _check_draws("n", n)
    entries: List[OracleEntry] = []
    rep = oracle_ppp(m.ppp, constrained.ppp, cs, min(n, 20_000), z_threshold, rng_seed)
    entries.extend(OracleEntry("ppp." + e.name, e.analytic, e.empirical, e.se, e.z, e.passed) for e in rep.entries)
    checked = set()
    for a, (h, hc) in enumerate(zip(m.hypotheses, constrained.hypotheses)):
        for i, (t, tc) in enumerate(zip(h.tracks, hc.tracks)):
            if id(t) in checked:
                continue
            checked.add(id(t))
            rep = oracle_bernoulli(
                t, tc, cs, n, z_threshold, rng_seed + 1000 * a + i, check_moments=False
            )
            entries.extend(
                OracleEntry(f"hyp[{a}].track[{i}].{e.name}", e.analytic, e.empirical, e.se, e.z, e.passed)
                for e in rep.entries
            )

    # Whole-set expected surviving cardinality.
    rng = child_rng(rng_seed, 17)
    n_card = min(n, 50_000)
    expected = constrained.ppp.mu + sum(
        hc.weight * sum(t.r for t in hc.tracks) for hc in constrained.hypotheses
    )
    weights = np.array([h.weight for h in m.hypotheses])
    hyp_pick = rng.choice(len(weights), size=n_card, p=weights / weights.sum())
    ppp_counts = rng.poisson(m.ppp.mu, size=n_card)
    total_surv = _accepted_count(m.ppp.density, int(ppp_counts.sum()), rng, cs)
    for a, h in enumerate(m.hypotheses):
        n_a = int((hyp_pick == a).sum())
        if n_a == 0:
            continue
        for t in h.tracks:
            n_exist = int(rng.binomial(n_a, t.r)) if t.r > 0 else 0
            total_surv += _accepted_count(t.density, n_exist, rng, cs)
    emp = total_surv / n_card
    # Analytic variance of one realization's surviving count: Poisson part,
    # within-hypothesis Bernoulli part, between-hypothesis spread.
    sums = np.array([sum(t.r for t in hc.tracks) for hc in constrained.hypotheses])
    w = np.array([hc.weight for hc in constrained.hypotheses])
    bern = sum(
        hc.weight * sum(t.r * (1.0 - t.r) for t in hc.tracks) for hc in constrained.hypotheses
    )
    between = float(np.sum(w * (sums - np.sum(w * sums)) ** 2))
    var_one = constrained.ppp.mu + bern + between
    # The engine's own MC error. constrain_pmbm gives each distinct component
    # its own stream, so their errors are independent and add in quadrature;
    # component k's weight is mu, or the sum of w * r over its slots.
    scale: Dict[int, List[float]] = {id(m.ppp.density): [m.ppp.mu, constrained.ppp.report.joint_se]}
    for h, hc in zip(m.hypotheses, constrained.hypotheses):
        for t, tc in zip(h.tracks, hc.tracks):
            scale.setdefault(id(t.density), [0.0, tc.report.joint_se])[0] += h.weight * t.r
    engine_se = math.sqrt(math.fsum((weight * se) ** 2 for weight, se in scale.values()))
    se = math.sqrt(max(var_one, 1e-12) / n_card + engine_se**2)
    entries.append(_entry("expected_cardinality", expected, emp, se, z_threshold, n_card))
    return OracleReport(entries, n, rng_seed, z_threshold)
