"""Brute-force verification of constrained densities.

Every constrained quantity is re-estimated by rejection: unconstrained
realizations are drawn and filtered through the trajectory-level
satisfaction test (vectorized ``satisfies_batch``), then compared with the
engine's value by a z-score at a stated threshold. No probability math is
shared with the engine.

Whether a draw is kept depends only on the coordinates that the active
constraints bound, so each draw is screened before it is paid for in full
(Devroye, *Non-Uniform Random Variate Generation*, 1986, ch. II.3). Per
(birth, death) pair the coordinates are reordered with those (the head:
step * dim + ``region.bounded_dims`` per active constraint) first and the
rest after (the tail), and the reordered covariance gets one Cholesky factor
F. A chunk of at most ``DRAW_CHUNK`` rows draws the head normals z_h
only, and ``satisfies_batch`` tests the head states m_h + F_hh z_h, placed in
coordinate-major states whose unbounded coordinates are 0. A pair whose
active constraints are all full space has an empty head and keeps every row.
Every chunk of a call is drawn, screened and added to its pair's Gram in one
workspace (``_Workspace``), allocated for the call's largest pair and freed
when the call ends, so a chunk allocates nothing larger than the test's
masks; numpy fills a given array with the normals it would return, so the
workspace changes no draw.

Only where per-step moments are checked are the accepted draws completed,
and then only as the statistics their moments need. n rows of normals
Z = [z_h z_t] with column means zbar have per-coordinate mean m + F zbar and
sum of squared deviations diag(F C F^T), C = Z^T Z - n zbar zbar^T:
everything comes from the augmented Gram matrix of [A z_t], A = [1 z_h].
Its head block A^T A is accumulated over a pair's screening chunks by a
product masked with the test's outcome, so accepted rows are never gathered.
The blocks that involve the tail normals, A^T z_t and z_t^T z_t, are then
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
O(chunk x (active steps x dim + head) + sequence dim^2), not O(n). Counting
callers draw no tail statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import Constraint, ConstraintSet, active_indices, satisfies_batch
from .engine import (
    ConstrainedBernoulli,
    ConstrainedPmbm,
    ConstrainedPpp,
    constrained_marginals,
)
from .errors import LowAcceptanceError
from .gaussian import GaussianSequence, Pair, TrajectoryDensity, _check_draws, _cholesky, _cov_blocks, child_rng
from .rfs import BernoulliTrajectory, PmbmDensity, PppTrajectory

# Budget behind the engine's step means that oracle_bernoulli checks.
_MOMENT_BUDGET = 100_000
# Most rows screened at once: memory is O(DRAW_CHUNK x head dim) however
# many draws are asked for. At 2^13 rows a workspace stays below glibc's
# mmap threshold, so its pages are reused from call to call.
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


def _head(g: GaussianSequence, birth: int, idx: Sequence[int], cs: ConstraintSet) -> np.ndarray:
    """The coordinates of ``g`` (born at ``birth``) that the active
    constraints ``idx`` of ``cs`` bound, constraint by constraint."""
    return np.concatenate(
        [(cs.constraints[i].time - birth) * g.dim + cs.constraints[i].region.bounded_dims for i in idx]
    )


class _Workspace:
    """The arrays that every screening chunk of one ``_screened_chunks`` call
    is drawn, screened and added in, allocated once, for the most rows, head
    coordinates and state coordinates of any of its pairs, and sliced per
    chunk: a chunk allocates nothing larger than its test's masks.

    ``normals`` gives a (rows, h) head-normal block for
    ``Generator.standard_normal(out=...)``, which fills it as it fills a new
    array of that shape. ``head`` gives the (h, rows) block the head states
    are formed in, which ``_Screen.add`` then reuses for the masked normals.
    ``states`` is the current pair's coordinate-major (steps * dim, rows)
    array, zeroed by ``start``; a chunk overwrites its slot rows only, so the
    others stay 0, and a pair's last, shorter chunk reads leading columns.
    The other arrays are leading slices of flat buffers, so each block is
    contiguous.

    Only the call's generator holds it: a ``_Screen`` outlives its chunks,
    until ``_accepted`` draws the tails, and never keeps it."""

    def __init__(self, rows: int, h: int, coords: int):
        self._normals = np.empty(rows * h)
        self._head = np.empty(rows * h)
        self._states = np.empty(rows * coords)
        self._weight = np.empty(rows)
        self.states: Optional[np.ndarray] = None

    def start(self, screen: _Screen, rows: int) -> None:
        """Zero the states of the pair of ``screen``, whose chunks have at most ``rows`` rows."""
        self.states = self._states[: len(screen.cs) * screen.dim * rows].reshape(-1, rows)
        self.states.fill(0.0)

    def normals(self, rows: int, h: int) -> np.ndarray:
        return self._normals[: rows * h].reshape(rows, h)

    def head(self, h: int, rows: int) -> np.ndarray:
        return self._head[: h * rows].reshape(h, rows)

    def weight(self, rows: int) -> np.ndarray:
        return self._weight[:rows]


class _Screen:
    """One pair's conditional, reordered with the coordinates that the active
    constraints bound first (the head) and the rest after (the tail), and
    the head Gram of its accepted rows.

    The head is step * dim + ``region.bounded_dims`` per active constraint,
    so a full-space constraint adds nothing to it. With F the lower Cholesky
    factor of the reordered covariance (zero columns where it is singular),
    the head m_h + F_hh z_h needs only the head normals. ``cs`` holds the
    active constraints renumbered to the head steps 0, 1, ..., and
    ``slots`` places the head among the rows of coordinate-major
    (steps * dim, rows) states whose other coordinates are 0, which
    ``satisfies_batch`` never compares. Without ``complete`` only the head is
    reordered and factored, from its covariance block ``head_cov`` when the
    caller has it: the leading block of a Cholesky factor is the factor of
    the leading block. With ``complete`` the whole reordered sequence is
    factored, from its dense covariance.

    ``gram`` is A^T A for A = [1 z_h] over the accepted head normals that
    ``add`` has seen, accumulated chunk by chunk as a product masked with the
    test's outcome, so the accepted rows are never gathered. ``screen`` and
    ``add`` work in the arrays of the caller's ``_Workspace``, which the
    screen never keeps: ``_accepted`` holds every pair's screen until the
    tail draws, and a workspace per pair would be held with it."""

    def __init__(
        self,
        g: GaussianSequence,
        birth: int,
        idx: Sequence[int],
        cs: ConstraintSet,
        complete: bool,
        head_cov: Optional[np.ndarray] = None,
    ):
        regions = [cs.constraints[i].region for i in idx]
        head = _head(g, birth, idx, cs)
        self.slots = np.concatenate([k * g.dim + r.bounded_dims for k, r in enumerate(regions)])
        self.order = np.concatenate([head, np.setdiff1d(np.arange(g.mean.size), head)]) if complete else head
        self.mean = g.mean[self.order]
        if complete:
            head_cov = g.cov[np.ix_(self.order, self.order)]
        elif head_cov is None:
            (head_cov,) = _cov_blocks([g], [head], [head])
        self.factor = _cholesky(head_cov)
        self.h = head.size
        # Contiguous, and applied as F_hh z_h^T: numpy's matmul runs a
        # transposed slice such as factor[:h, :h].T through a loop many times
        # slower than BLAS.
        self.f_hh = np.ascontiguousarray(self.factor[: self.h, : self.h])
        self.m_h = self.mean[: self.h, None]
        self.dim = g.dim
        self.cs = ConstraintSet([Constraint(k, r) for k, r in enumerate(regions)], cs.mode)
        self.gram = np.zeros((self.h + 1, self.h + 1))

    def screen(self, z_head: np.ndarray, work: Optional[_Workspace] = None) -> np.ndarray:
        """Which rows of head normals ``z_head`` (rows, h) satisfy the constraints.

        The head states are formed and placed in the arrays of ``work``,
        started on this screen (a workspace of its own when None).
        ``satisfies_batch`` reads the states through a (rows, steps, dim)
        view of the coordinate-major array, so every column it compares is
        contiguous."""
        rows, steps = z_head.shape[0], len(self.cs)
        if work is None:
            work = _Workspace(rows, self.h, steps * self.dim)
            work.start(self, rows)
        head = work.head(self.h, rows)
        np.matmul(self.f_hh, z_head.T, out=head)
        head += self.m_h
        states = work.states[:, :rows]
        states[self.slots] = head
        return satisfies_batch(0, steps - 1, states.reshape(steps, self.dim, rows).transpose(2, 0, 1), self.cs)

    def add(self, z_head: np.ndarray, acc: np.ndarray, work: _Workspace) -> None:
        """Add the rows of ``z_head`` where ``acc`` holds to ``gram``, in the
        arrays of ``work``, once its head states are read."""
        count = int(np.count_nonzero(acc))
        if not count:
            return
        rows = z_head.shape[0]
        # cast once: a float-by-bool product converts element by element
        weight = work.weight(rows)
        weight[:] = acc
        # z_h^T in one contiguous (h, rows) block, so that the masked product
        # runs along the rows, not along the h columns of each row
        masked = work.head(self.h, rows)
        np.copyto(masked, z_head.T)
        sums = masked @ weight
        masked *= weight
        self.gram[0, 0] += count
        self.gram[0, 1:] += sums
        self.gram[1:, 0] += sums
        self.gram[1:, 1:] += masked @ z_head

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


def _screened_chunks(
    td: TrajectoryDensity, n: int, rng: np.random.Generator, cs: ConstraintSet, complete: bool = False
) -> Iterator[Tuple[Pair, _Screen, np.ndarray, np.ndarray]]:
    """n i.i.d. draws of td screened on ``cs``, as (pair, screen, head
    normals, accepted mask) chunks.

    One multinomial over the pmf, then each pair with a nonzero count in pmf
    order, at most ``DRAW_CHUNK`` rows at a time (read per call).
    numpy fills normals row by row, so the chunks of a pair take the head
    normals of one draw of its whole count. A pair with no active constraint
    keeps no draw and draws nothing; one whose head is empty (every active
    constraint full space) keeps every row. ``complete`` factors the whole
    reordered covariance, for ``_Screen.reduce``, and adds each chunk's
    accepted rows to its screen's Gram (``_Screen.add``).

    Every chunk is drawn and screened in the call's one ``_Workspace``, so
    the yielded normals are overwritten when the generator resumes: a
    caller that keeps them copies them first.
    """
    if n == 0:
        return
    counts = rng.multinomial(n, td.pmf.probs)
    drawn = []
    for pair, g, c in zip(td.pmf.pairs, td.conditionals, counts.tolist()):
        idx = active_indices(cs, *pair)
        if c and idx:
            drawn.append((pair, g, c, idx))
    if not drawn:
        return
    # The head blocks of every drawn pair in one ``_cov_blocks`` pass; the
    # whole sequence's factor reads its dense covariance instead.
    heads = [_head(g, pair[0], idx, cs) for pair, g, _, idx in drawn]
    blocks = [None] * len(drawn) if complete else _cov_blocks([g for _, g, _, _ in drawn], heads, heads)
    chunk = DRAW_CHUNK
    work = _Workspace(
        min(chunk, max(c for _, _, c, _ in drawn)),
        max(head.size for head in heads),
        max(len(idx) * g.dim for _, g, _, idx in drawn),
    )
    for (pair, g, c, idx), block in zip(drawn, blocks):
        screen = _Screen(g, pair[0], idx, cs, complete, block)
        work.start(screen, min(chunk, c))
        for start in range(0, c, chunk):
            z_head = work.normals(min(chunk, c - start), screen.h)
            rng.standard_normal(out=z_head)
            acc = screen.screen(z_head, work)
            if complete:
                screen.add(z_head, acc, work)
            yield pair, screen, z_head, acc


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
    merged into it.

    Each pair's head Gram is accumulated over its screening chunks
    (``_Screen.add``), and its tail statistics are drawn once, for its whole
    accepted count, so one ``reduce`` serves the pair and the screening chunk
    size changes no tail draw."""
    per_pair: Dict[Pair, int] = {}
    screens: Dict[Pair, _Screen] = {}  # of the pairs with accepted rows, in pmf order
    for pair, screen, _, acc in _screened_chunks(td, n, rng, cs, moments is not None):
        count = int(np.count_nonzero(acc))
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
