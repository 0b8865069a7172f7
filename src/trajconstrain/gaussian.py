"""Gaussian trajectory densities over (birth, death) hypotheses.

A trajectory density is a pmf over (birth, death) pairs and, per pair, a
joint Gaussian over the stacked states (``GaussianSequence``), whose
covariance is judged once, where it enters (``_cholesky``). Also here:
marginals onto time subsets, stratified sampling and per-step moments of
mixtures. A covariance is read through ``_variances``, ``_step_covs`` and
``_cov_block``, which a fitted sequence (module ``chain``) overrides,
so this module knows nothing of chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .core import TimeWindow, Trajectory, existence_pairs

Pair = Tuple[int, int]

_PMF_TOL = 1e-12
_SYM_TOL = 1e-10
# Cholesky pivot tolerances, as fractions of the variances (``_cholesky``).
_CHOL_TOL = 1e-11
_NOT_PSD_TOL = 1e-8


def child_rng(seed: int, *keys: int) -> np.random.Generator:
    """Deterministic child generator for (seed, keys); keys must be >= 0."""
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + [int(k) for k in keys]))


@dataclass(frozen=True, eq=False)
class BirthDeathPmf:
    """Probability mass function over (birth, death) pairs; compared and
    hashed by identity, as the library dedupes densities by ``id``."""

    pairs: Tuple[Pair, ...]
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if len(self.pairs) != probs.shape[0]:
            raise ValueError("pairs/probs length mismatch")
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError("duplicate (birth, death) pairs")
        if not np.all(probs >= 0):
            raise ValueError("probabilities must be nonnegative numbers (not NaN)")
        if abs(probs.sum() - 1.0) > _PMF_TOL:
            raise ValueError(f"probabilities must sum to 1, got {probs.sum()!r}")
        for b, e in self.pairs:
            if b > e:
                raise ValueError(f"pair ({b}, {e}) violates birth <= death")
        probs.setflags(write=False)
        object.__setattr__(self, "pairs", tuple((int(b), int(e)) for b, e in self.pairs))
        object.__setattr__(self, "probs", probs)

    @classmethod
    def _valid(cls, pairs: Tuple[Pair, ...], probs: np.ndarray) -> "BirthDeathPmf":
        """A pmf whose pairs and probabilities are valid by construction
        (distinct int pairs with birth <= death, nonnegative probabilities
        summing to 1 within ``_PMF_TOL``), built without checking them
        again."""
        pmf = object.__new__(cls)
        probs.setflags(write=False)
        object.__setattr__(pmf, "pairs", pairs)
        object.__setattr__(pmf, "probs", probs)
        return pmf

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


@dataclass(frozen=True, eq=False)
class GaussianSequence:
    """Joint Gaussian over a stacked state sequence.

    Time step t of a (birth, death) hypothesis occupies coordinates
    (t - birth) * dim .. (t - birth) * dim + dim - 1.

    The constructor is where a mean and covariance from outside the library
    are judged, once: shapes, finite entries, symmetry within ``_SYM_TOL``
    (the symmetric part is kept) and PSD by ``_cholesky``, whose factor is
    kept for ``draw``; anything else raises ``ValueError``. ``_valid`` builds
    a sequence the library derives from validated parts without checking it
    again. The library reads a covariance through ``_variances``,
    ``_step_covs`` and ``_cov_block``, which a fitted sequence overrides to
    answer from its chain; ``cov`` is the whole matrix. Sequences compare
    and hash by identity, as the library dedupes them by ``id``.
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
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and cov must be finite")
        asym = np.max(np.abs(cov - cov.T), initial=0.0)
        if asym > _SYM_TOL:
            raise ValueError(f"covariance asymmetry {asym} exceeds {_SYM_TOL}")
        cov = 0.5 * (cov + cov.T)
        factor = _cholesky(cov)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_factor", factor)

    @classmethod
    def _valid(cls, mean: np.ndarray, cov: np.ndarray, dim: int) -> "GaussianSequence":
        """A sequence whose float64 mean (n,) and covariance (n, n) are valid
        by construction (n a multiple of ``dim``, every entry finite, ``cov``
        exactly symmetric and PSD), built without checking them again; its
        factor is computed on the first draw. Freezes both arrays."""
        gs = object.__new__(cls)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(gs, "mean", mean)
        object.__setattr__(gs, "cov", cov)
        object.__setattr__(gs, "dim", dim)
        return gs

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
        # Set by the constructor, or computed on the first draw of a
        # ``_valid`` sequence; kept in the instance dict, not a field, so
        # serialization ignores it.
        return _cholesky(self.cov)

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n joint samples, shape (n, length * dim)."""
        z = rng.standard_normal((n, self.mean.size))
        x = z @ self._factor.T
        x += self.mean
        return x

    def _variances(self) -> np.ndarray:
        """The variance of every coordinate, (length * dim,)."""
        return self.cov.diagonal()

    def _step_covs(self) -> np.ndarray:
        """The covariance of every step, (length, dim, dim); read-only where
        it is a view of a fitted chain, so never written in place."""
        steps = np.arange(self.length)
        return self.cov.reshape(self.length, self.dim, self.length, self.dim)[steps, :, steps, :]

    def _cov_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The covariance block at the flat coordinates ``rows`` and ``cols``."""
        return self.cov[np.ix_(rows, cols)]


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


@dataclass(eq=False)
class Stratum:
    """Weighted samples sharing one (birth, death) pair; states (n, length, dim)."""

    states: np.ndarray
    weights: np.ndarray

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


@dataclass(eq=False)
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
    return GaussianSequence._valid(gs.mean[idx], gs._cov_block(idx, idx), gs.dim)


def _check_draws(name: str, n: int) -> None:
    # A Monte Carlo frequency needs at least 2 draws for its standard error.
    if n < 2:
        raise ValueError(f"{name} must be >= 2, got {n}")


def _cholesky(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack (..., k, k) of PSD matrices: the
    library's one factor routine and one PSD rule.

    LAPACK's factors are kept when every pivot (diagonal entry squared)
    exceeds ``_CHOL_TOL`` times its variance. Otherwise, where a matrix is
    singular or not PSD, the stack is factored column by column: a pivot at
    most ``_CHOL_TOL`` times its variance gets a zero column, so a
    coordinate that earlier ones determine carries no rounding noise. A
    pivot below -``_NOT_PSD_TOL`` times its variance, or one taken as 0 with
    an entry s_ij below it where s_ij^2 > ``_NOT_PSD_TOL`` var_i var_j (a
    PSD matrix has a zero row there; Higham, "Analysis of the Cholesky
    decomposition of a semi-definite matrix", 1990), raises ``ValueError``:
    the matrix is not PSD, and truncating it would hide that. So does a
    non-finite entry, which every pivot comparison would pass over."""
    cov = np.asarray(cov, dtype=np.float64)
    if not np.isfinite(cov).all():
        raise ValueError("covariance has a non-finite entry")
    var = cov.diagonal(axis1=-2, axis2=-1)
    tol = _CHOL_TOL * var
    try:
        factor = np.linalg.cholesky(cov)
        if np.all(factor.diagonal(axis1=-2, axis2=-1) ** 2 > tol):
            return factor
    except np.linalg.LinAlgError:
        pass
    a, factor = cov.copy(), np.zeros_like(cov)
    for j in range(a.shape[-1]):
        pivot, below = a[..., j, j], a[..., j + 1 :, j]
        keep = pivot > tol[..., j]
        coupled = ~keep[..., None] & (below * below > _NOT_PSD_TOL * var[..., j, None] * var[..., j + 1 :])
        if np.any(pivot < -_NOT_PSD_TOL * var[..., j]) or np.any(coupled):
            raise ValueError(
                f"covariance is not PSD: Cholesky pivot {j} is below -{_NOT_PSD_TOL} of its variance, or 0 "
                "above a nonzero entry"
            )
        root = np.sqrt(np.where(keep, pivot, 1.0))
        col = np.where(keep[..., None], below / root[..., None], 0.0)
        factor[..., j, j] = np.where(keep, root, 0.0)
        factor[..., j + 1 :, j] = col
        a[..., j + 1 :, j + 1 :] -= col[..., :, None] * col[..., None, :]
    return factor


def alive_probability(pmf: BirthDeathPmf, predicate: Callable[[Pair], bool]) -> float:
    """Total pmf mass on pairs where the predicate holds."""
    return float(sum(p for pair, p in pmf.items() if predicate(pair)))


def stratified_draws(td: TrajectoryDensity, n: int, rng: np.random.Generator) -> Dict[Pair, np.ndarray]:
    """n i.i.d. draws of td as states (count, length, dim) per pair: one
    multinomial over the pmf, then one draw of each pair with a nonzero
    count, in pmf order; pairs drawn 0 times are left out."""
    if n == 0:
        return {}
    counts = rng.multinomial(n, td.pmf.probs)
    return {
        (b, e): g.draw(c, rng).reshape(c, e - b + 1, td.dim)
        for (b, e), g, c in zip(td.pmf.pairs, td.conditionals, counts.tolist())
        if c
    }


def sample(td: TrajectoryDensity, n: int, rng_seed: int = 0) -> SampleCloud:
    """Stratified i.i.d. sampling: draw (birth, death) from the pmf, then the sequence."""
    if n < 1:
        raise ValueError("n must be >= 1")
    draws = stratified_draws(td, n, child_rng(rng_seed))
    return SampleCloud(td.dim, {pair: Stratum(x, np.ones(x.shape[0])) for pair, x in draws.items()})


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
        (float(w), b, g.mean.reshape(-1, d), g._step_covs())
        for ((b, _), w), g in zip(td.pmf.items(), td.conditionals)
    ]
    return _step_mixture(strata, d)
