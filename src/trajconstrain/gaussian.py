"""Gaussian trajectory densities over (birth, death) hypotheses.

A trajectory density factorizes into a probability mass function over
(birth, death) pairs and, per pair, a joint Gaussian over the stacked state
sequence. This module provides marginalization onto time subsets, region
probabilities, the mean and covariance of a Gaussian restricted to product
cells, stratified sampling (one draw per pair) and per-step moments of
mixtures.

Region probabilities have one primitive, ``_pattern_batch``, over any number
of pairs (``region_probability`` is a batch of one pair). It settles what the
1-D bounds settle and takes independent single boxes as a product. Every
other pair is a problem (mean, covariance, cells), its cells built by
``_product_cells``: the one cell rule of closed-form, QMC and Monte Carlo
pairs and of views, whose refusal (a multi-box item, or too many cells)
sends a pair or view to Monte Carlo. Two correlated coordinates, and three
that are not near-singular, are in closed form (Genz's bivariate normal, and
Plackett's integral of it); the rest go to randomized quasi-Monte Carlo
(Genz's separation of variables on a shifted lattice). Restricted moments
take Tallis's formulas through the same closed form for at most three
coordinates (``_truncated_moments``), else weighted points of the same
lattice pass, which also serve the samples of a constrained density.

It needs numpy only: the normal CDF is ``_ndtr``, a vectorized port of
Cody's rational ``erfc`` (the formula of Cephes' ``ndtr``), and its inverse
``_ndtri`` a port of Wichura's AS 241; the bounds of a batch go through
``_ndtr`` in one call per distinct region.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .core import StateRegion, TimeWindow, Trajectory, existence_pairs
from .errors import DimensionMismatchError
from .kernels import pattern_codes

Pair = Tuple[int, int]

logger = logging.getLogger("trajconstrain")

INSIDE = "inside"
COMPLEMENT = "complement"

# How a pair's probability was settled: every item pinned by its 1-D bounds
# (or one pinned against the wanted pattern), the unpinned ones in closed
# form, by randomized quasi-Monte Carlo, or by Monte Carlo draws.
PINNED = "pinned"
CLOSED_FORM = "closed_form"
QMC = "qmc"
MC = "mc"

_PMF_TOL = 1e-12
_SYM_TOL = 1e-10
# A constraint whose satisfaction probability the 1-D bounds place within this
# distance of 0 or 1 is settled (pinned) without sampling.
_PIN_TOL = 1e-12
_SQRT1_2 = math.sqrt(0.5)
# A QMC pair evaluates about mc_budget // _QMC_COST lattice points, spread
# over _QMC_SHIFTS random shifts whose spread gives its standard error.
# ``_product_cells``, the one cell rule of closed-form, QMC and Monte Carlo
# pairs and of views, refuses more than _MAX_QMC_CELLS cells: a pair or view
# it refuses is settled by Monte Carlo.
_QMC_COST = 16
_QMC_SHIFTS = 10
_MAX_QMC_CELLS = 64
# Most lattice points (cells x shifts x points) a QMC step conditions at once:
# a step's temporaries are a few dozen arrays of that size.
_QMC_CHUNK = 2**13
# Cholesky pivot tolerances, as fractions of the variances (``_cholesky``).
_CHOL_TOL = 1e-12
_NOT_PSD_TOL = 1e-8
# Genz's 20-point Gauss-Legendre rule (Statistics and Computing 14, 2004),
# taken on [0, 2]: nodes 1 - x and 1 + x for each positive node x of the rule
# on [-1, 1], each with x's weight; one node a row. ``_bvn_upper`` takes
# Genz's expansion at and above |correlation| ``_BVN_FAR``.
_GL_X = (0.9931285991850949, 0.9639719272779138, 0.9122344282513259, 0.8391169718222188, 0.7463319064601508,
         0.6360536807265150, 0.5108670019508271, 0.3737060887154196, 0.2277858511416451, 0.07652652113349733)
_GL_W = (0.01761400713915212, 0.04060142980038694, 0.06267204833410906, 0.08327674157670475, 0.1019301198172404,
         0.1181945319615184, 0.1316886384491766, 0.1420961093183821, 0.1491729864726037, 0.1527533871307259)
_GL_NODES = np.concatenate((1.0 - np.array(_GL_X), 1.0 + np.array(_GL_X)))[:, None]
_GL_WEIGHTS = np.array(_GL_W + _GL_W)[:, None]
_BVN_FAR = 0.925
_TWO_PI = 2.0 * math.pi
# ``_upper_orthants`` integrates Plackett's identity for three coordinates on
# this many Gauss-Legendre nodes; pairs of three coordinates and views of at
# most three are settled in closed form only where their correlation
# determinant is at least _DET_FLOOR (``_well_conditioned``), so the
# integrand and Tallis's conditionals stay smooth.
_PLACKETT_NODES = 64
_DET_FLOOR = 0.01
# Per three-coordinate row of ``_upper_orthants``, by which of r23, r13, r12
# is the largest |r|: the coordinate order that makes it the last pair's.
_LAST_PAIR_ORDERS = np.array([[0, 1, 2], [1, 0, 2], [2, 0, 1]])
# Column of r = (r12, r13, r23) holding the correlation of coordinates i, j.
_PAIR_COLUMN = np.array([[0, 0, 1], [0, 0, 2], [1, 2, 0]])


class Settled(NamedTuple):
    """How ``_pattern_batch`` settled one pair: ``value`` is P(pattern ==
    want) or the cells, ``se`` its standard error (None for cells), ``path``
    the path that ran and ``leader`` the pair whose estimate it shares: a QMC
    pair byte-identical to an earlier one of the batch takes that pair's."""

    value: Union[float, np.ndarray]
    se: Optional[float]
    path: str
    leader: int


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
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and cov must be finite")
        if np.array_equal(cov, cov.T):
            # Exactly symmetric, as every block of a fit is: symmetrizing
            # would copy the same numbers. A view, so that freezing it leaves
            # the caller's array writeable.
            cov = cov.view()
        else:
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
        return _cholesky(self.cov)

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


def _bounded_cols(pair: Pair, dim: int, t: int, region: StateRegion) -> np.ndarray:
    """Flat coordinates, in the sequence of ``pair`` with state dim ``dim``,
    of the dimensions ``region`` bounds at time ``t`` (none for full space)."""
    return (t - pair[0]) * dim + region.bounded_dims


def _check_draws(name: str, n: int) -> None:
    # A Monte Carlo frequency needs at least 2 draws for its standard error.
    if n < 2:
        raise ValueError(f"{name} must be >= 2, got {n}")


def _bounded_masks(regions: Sequence[StateRegion], y: np.ndarray) -> np.ndarray:
    """(len(regions), n) inside masks of ``regions`` on y (n, total columns),
    whose columns are the regions' bounded coordinates side by side."""
    masks = np.empty((len(regions), y.shape[0]), dtype=bool)
    start = 0
    for k, region in enumerate(regions):
        box = region.bounded_region
        masks[k] = box.contains_batch(y[:, start : start + box.dim])
        start += box.dim
    return masks


# Cody's rational Chebyshev approximations of erf and erfc (W. J. Cody,
# Math. Comp. 23, 1969), with the coefficients of his CALERF: |x| <= 0.46875,
# 0.46875 < |x| <= 4 and |x| > 4.
_ERFC_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02, 3.20937758913846947e03,
           1.85777706184603153e-1)
_ERFC_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03, 2.84423683343917062e03)
_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01, 2.98635138197400131e02,
           8.81952221241769090e02, 1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03,
           2.15311535474403846e-8)
_ERFC_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02, 1.62138957456669019e03,
           3.29079923573345963e03, 4.36261909014324716e03, 3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1, 1.60837851487422766e-2,
           6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1, 6.05183413124413191e-2,
           2.33520497626869185e-3)
_1_SQRTPI = 5.6418958354775628695e-1
# erfc(40) underflows to 0; larger arguments are clipped to it so inf stays finite in the arithmetic.
_ERFC_BIG = 40.0


def _erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function element-wise, branch-free: each of Cody's
    three ranges is evaluated on its argument clipped into that range (so no
    range divides by 0) and the right one is selected. exp(-y^2) is taken as
    exp(-s^2) exp(-(y - s)(y + s)) with s = y rounded down to 1/16, as in
    CALERF, which keeps the relative accuracy of the far tail. The Horner
    steps run in place and each range's temporaries are dropped before the
    next, so few arrays of x's size are alive at once."""
    y = np.abs(x)
    mid = np.clip(y, 0.46875, 4.0)
    tail, den = _horner(_ERFC_C[8], mid, _ERFC_C[:7], _ERFC_D[:7])
    del mid
    tail += _ERFC_C[7]
    den += _ERFC_D[7]
    tail /= den
    far = np.clip(y, 4.0, _ERFC_BIG)
    s = far * far
    np.divide(1.0, s, out=s)
    num, den = _horner(_ERFC_P[5], s, _ERFC_P[:4], _ERFC_Q[:4])
    num += _ERFC_P[4]
    num *= s
    den += _ERFC_Q[4]
    num /= den
    del den, s
    np.subtract(_1_SQRTPI, num, out=num)
    num /= far
    np.copyto(tail, num, where=y > 4.0)
    del far, num
    big = np.minimum(y, _ERFC_BIG)
    s = np.trunc(big * 16.0) / 16.0
    tail *= np.exp(-s * s)
    big -= s
    s += np.minimum(y, _ERFC_BIG)
    big *= s
    del s
    np.negative(big, out=big)
    np.exp(big, out=big)
    tail *= big
    del big
    np.copyto(tail, 2.0 - tail, where=x < 0.0)
    s = np.minimum(y, 0.46875)
    s *= s
    num, den = _horner(_ERFC_A[4], s, _ERFC_A[:3], _ERFC_B[:3])
    del s
    num += _ERFC_A[3]
    num *= x
    den += _ERFC_B[3]
    num /= den
    np.subtract(1.0, num, out=num)
    np.copyto(tail, num, where=y <= 0.46875)
    return tail


def _horner(lead: float, r: np.ndarray, num: Sequence[float], den: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """CALERF's interleaved Horner steps, in place: from lead * r and r,
    (n + num[i]) * r and (d + den[i]) * r for each i."""
    n = lead * r
    d = r.copy()
    for a, b in zip(num, den):
        n += a
        n *= r
        d += b
        d *= r
    return n, d


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF element-wise: 0.5 erfc(-x / sqrt(2)), as Cephes' ndtr,
    with ``_erfc``."""
    x = np.asarray(x, dtype=np.float64)
    return (0.5 * _erfc(-x.ravel() * _SQRT1_2)).reshape(x.shape)


# Wichura's PPND16 (Appl. Statist. 37, 1988, algorithm AS 241): numerator and
# denominator coefficients, lowest power first, for |p - 0.5| <= 0.425 (in
# r = 0.180625 - (p - 0.5)^2), and for the tails in r = sqrt(-log(min(p,
# 1 - p))) - 1.6 when that root is at most 5, else the root - 5.
_NDTRI_A = (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3, 1.3731693765509461125e4,
            4.5921953931549871457e4, 6.7265770927008700853e4, 3.3430575583588128105e4, 2.5090809287301226727e3)
_NDTRI_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
            2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4, 5.2264952788528545610e3)
_NDTRI_C = (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0, 3.64784832476320460504e0,
            1.27045825245236838258e0, 2.41780725177450611770e-1, 2.27238449892691845833e-2, 7.74545014278341407640e-4)
_NDTRI_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
            1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4, 1.05075007164441684324e-9)
_NDTRI_E = (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0, 2.96560571828504891230e-1,
            2.65321895265761230930e-2, 1.24266094738807843860e-3, 2.71155556874348757815e-5, 2.01033439929228813265e-7)
_NDTRI_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
            7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7, 2.04426310338993978564e-15)


def _rational(num: Sequence[float], den: Sequence[float], r: np.ndarray) -> np.ndarray:
    """num(r) / den(r) by Horner's rule, in place; coefficients lowest power first."""
    n = num[-1] * r
    d = den[-1] * r
    for a, b in zip(num[-2:0:-1], den[-2:0:-1]):
        n += a
        n *= r
        d += b
        d *= r
    n += num[0]
    d += den[0]
    n /= d
    return n


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile element-wise for p in [0, 1] (AS 241,
    branch-free like ``_erfc``): -inf at 0, +inf at 1, NaN outside [0, 1]."""
    p = np.asarray(p, dtype=np.float64)
    q = p - 0.5
    central = np.clip(q, -0.425, 0.425)
    central = central * _rational(_NDTRI_A, _NDTRI_B, 0.180625 - central * central)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
    tail = _rational(_NDTRI_C, _NDTRI_D, np.clip(r, 1.6, 5.0) - 1.6)
    far = r > 5.0  # p below about 1.4e-11: rare, so evaluated only when present
    if np.any(far):
        tail = np.where(far, _rational(_NDTRI_E, _NDTRI_F, np.clip(r, 5.0, _ERFC_BIG) - 5.0), tail)
    x = np.where(np.abs(q) <= 0.425, central, np.where(q < 0.0, -tail, tail))
    return np.where(p == 0.0, -np.inf, np.where(p == 1.0, np.inf, x))


def _binomial_se(p: float, n: int) -> float:
    """Standard error of a Monte Carlo frequency p of n draws. An estimate of
    exactly 0 or 1 is moved 1/n inward, so its SE is about 1/n, not 0."""
    q = p if 0.0 < p < 1.0 else min(max(p, 1.0 / n), 1.0 - 1.0 / n)
    return math.sqrt(q * (1.0 - q) / n)


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


def _primes(n: int) -> List[int]:
    """The first n primes."""
    out: List[int] = []
    k = 2
    while len(out) < n:
        if all(k % p for p in out if p * p <= k):
            out.append(k)
        k += 1
    return out


def _qmc_points(mc_budget: int) -> int:
    """Lattice points per shift of a QMC pair: about mc_budget // 16 in all."""
    return max(mc_budget // _QMC_COST // _QMC_SHIFTS, 1)


def _lattice_coordinate(n: int, g: float, shifts: np.ndarray) -> np.ndarray:
    """The coordinate with generator g of an n-point rank-1 lattice,
    frac(i g) for i < n, randomly shifted by each of ``shifts`` (..., R) and
    baker-transformed: shape (..., R, n)."""
    x = (np.arange(n) * g)[None, :] + shifts[..., None]
    x -= np.floor(x)
    return 1.0 - np.abs(2.0 * x - 1.0)


def _standardized(
    centre: np.ndarray, sd: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The bounds (lo - centre) / sd and (hi - centre) / sd; where sd == 0,
    -inf or +inf by the side of centre they lie on (a point mass)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (lo - centre) / sd
        b = (hi - centre) / sd
    point = sd == 0.0
    if np.any(point):
        a = np.where(point, np.where(lo <= centre, -np.inf, np.inf), a)
        b = np.where(point, np.where(hi >= centre, np.inf, -np.inf), b)
    return a, b


def _conditional_step(
    centre: np.ndarray, sd: np.ndarray, lo: np.ndarray, hi: np.ndarray, out: np.ndarray, u: Optional[np.ndarray]
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """One step of the separation of variables: the mass e of a coordinate's
    admissible set ([lo, hi], or outside it where ``out``) under N(centre,
    sd^2), and, given uniforms u, the standard normal z whose point centre +
    sd z is the u-quantile of that set. Every mass and quantile is taken
    from the tail it lies in; sd == 0 is a point mass."""
    a, b = _standardized(centre, sd, lo, hi)
    # Two tails per coordinate: P(below lo) and P(above hi) outside; inside,
    # P(below lo) and P(below hi), or (a > 0) P(above lo) and P(above hi).
    upper = ~out & (a > 0.0)
    tail_a, tail_b = _ndtr(np.stack((np.where(upper, -a, a), np.where(upper | out, -b, b))))
    e = np.where(out, tail_a + tail_b, np.where(upper, tail_a - tail_b, tail_b - tail_a))
    if u is None:
        return e, None
    v = u * e
    # Inside: from the lower tail up, or (a > 0) from the upper tail down.
    # Outside: v < P(below lo) walks the lower half-line from lo down to
    # -inf, the rest the upper one from +inf down to hi. The two meet at
    # infinity, where every later mass has the same limit, so the weight is
    # continuous in u: a jump would leave the lattice estimate biased for
    # some shifts, too many to show in their spread.
    low_side = np.where(out, v < tail_a, ~upper)
    arg = np.where(out, np.where(low_side, tail_a - v, v - tail_a), np.where(upper, tail_a - v, tail_a + v))
    z = _ndtri(np.clip(arg, 0.0, 1.0))
    z = np.where(low_side, z, -z)
    return e, np.clip(z, -_ERFC_BIG, _ERFC_BIG)


def _node_sum(terms: np.ndarray) -> np.ndarray:
    """The sum over the first axis by halving (rows i and i + n // 2 are
    added, an odd last row carried), so that an element's sum takes the
    same steps whatever the other elements, as a BLAS or pairwise
    reduction's may not."""
    while terms.shape[0] > 1:
        half = terms.shape[0] // 2
        added = terms[:half] + terms[half : 2 * half]
        terms = np.concatenate((added, terms[2 * half :])) if terms.shape[0] % 2 else added
    return terms[0]


def _bvn_upper(h: np.ndarray, k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """P(X > h, Y > k) of standard normals X, Y of correlation r, element-wise
    over 1-D arrays: Genz's BVNU (Statistics and Computing 14, 2004; about
    1e-15 absolute). Below |r| = 0.925 it is Drezner and Wesolowsky's
    integral over the angle from 0 to asin(r), at and above it Genz's
    expansion in sqrt(1 - r^2), each on ``_GL_NODES``; exact at |r| = 1.
    Bounds are clipped to +-``_ERFC_BIG``, where the normal tails are 0 and
    1 and every exponential term underflows, so infinite ones give the exact
    limits. Every normal CDF is taken in one ``_ndtr`` call, and each
    element is computed on its own: its value does not depend on the
    others."""
    h, k = (np.minimum(np.maximum(x, -_ERFC_BIG), _ERFC_BIG) for x in (h, k))
    is_far = np.abs(r) >= _BVN_FAR
    near, far = np.flatnonzero(~is_far), np.flatnonzero(is_far)
    args = [-h, -k]
    if far.size:
        hf, rf = h[far], r[far]
        # Genz's expansion works on (h, sign(r) k).
        ks = np.where(rf < 0.0, -k[far], k[far])
        s2 = (1.0 - np.abs(rf)) * (1.0 + np.abs(rf))
        a = np.sqrt(s2)
        b = np.abs(hf - ks)
        one = s2 == 0.0
        args += [-b / np.where(one, 1.0, a), -np.maximum(hf, ks), ks, hf, -ks]
    cdf = _ndtr(np.concatenate(args))
    tail_h, tail_k = cdf[: h.size], cdf[h.size : 2 * h.size]
    p = np.empty(h.size)

    if near.size:
        hn, kn = h[near], k[near]
        half = np.arcsin(r[near]) / 2.0
        sn = np.sin(half * _GL_NODES)
        terms = _GL_WEIGHTS * np.exp((sn * (hn * kn) - (hn * hn + kn * kn) / 2.0) / (1.0 - sn * sn))
        p[near] = _node_sum(terms) * half / _TWO_PI + tail_h[near] * tail_k[near]

    if far.size:
        tail_b, tail_max, below_k, below_h, above_k = cdf[2 * h.size :].reshape(5, -1)
        hk, bs = hf * ks, b * b
        c, d = (4.0 - hk) / 8.0, (12.0 - hk) / 80.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            e = -(bs / s2 + hk) / 2.0
            lead = a * np.exp(e) * (1.0 - c * (bs - s2) * (1.0 - d * bs) / 3.0 + c * d * s2 * s2)
            far_p = np.where(e > -100.0, lead, 0.0)
            tail = np.exp(-hk / 2.0) * math.sqrt(_TWO_PI) * tail_b * b * (1.0 - c * bs * (1.0 - d * bs) / 3.0)
            far_p -= np.where(hk > -100.0, tail, 0.0)
            xs = (a / 2.0 * _GL_NODES) ** 2
            e = -(bs / xs + hk) / 2.0
            rs = np.sqrt(1.0 - xs)
            gap = 1.0 + c * xs * (1.0 + 5.0 * d * xs) - np.exp(-hk / 2.0 * xs / (1.0 + rs) ** 2) / rs
            terms = np.where(e > -100.0, _GL_WEIGHTS * np.exp(e) * gap, 0.0)
            far_p = np.where(one, 0.0, (a / 2.0 * _node_sum(terms) - far_p) / _TWO_PI)
        between = np.where(hf < 0.0, below_k - below_h, tail_h[far] - above_k)
        p[far] = np.where(rf > 0.0, far_p + tail_max, np.where(hf >= ks, -far_p, between - far_p))
    return np.minimum(np.maximum(p, 0.0), 1.0)


@lru_cache(maxsize=None)
def _plackett_rule() -> Tuple[np.ndarray, np.ndarray]:
    """``_PLACKETT_NODES`` Gauss-Legendre nodes and weights on [0, 1], one
    node a row, read-only; computed on first use, not at import."""
    x, w = np.polynomial.legendre.leggauss(_PLACKETT_NODES)
    rule = ((x + 1.0) / 2.0)[:, None], (w / 2.0)[:, None]
    for part in rule:
        part.setflags(write=False)
    return rule


def _upper_orthants(h: np.ndarray, r: np.ndarray, k: np.ndarray) -> np.ndarray:
    """P(X_1 > h_1, ..., X_k > h_k) of standard normals of correlations r =
    (r12, r13, r23), per row of h (n, 3) and r (n, 3) with k (n,) = 1, 2 or 3
    coordinates (columns past k are ignored).

    One coordinate is ``_ndtr`` of -h, two are ``_bvn_upper``. Three follow
    Plackett's identity along the path from (0, 0, r23) to (r12, r13, r23)
    (Genz, Statistics and Computing 14, 2004), with the coordinates first
    reordered so that r23 has the largest |r|: P(X1 > h1) P(X2 > h2, X3 >
    h3; r23) plus the integral over t in [0, 1] of r12 phi2(h1, h2; t r12)
    P(X3 > h3 | h1, h2) + r13 phi2(h1, h3; t r13) P(X2 > h2 | h1, h3), on
    ``_PLACKETT_NODES`` Gauss-Legendre nodes. The correlation determinant
    only grows towards t = 0, so where the caller keeps it at least
    ``_DET_FLOOR`` the integrand is smooth. A three-coordinate row with a
    threshold at +inf is 0, and one at -inf drops that coordinate; a
    two-coordinate row is ``_bvn_upper`` as it stands. Thresholds are
    clipped to +-``_ERFC_BIG`` as there. Every bivariate normal of the call
    is one ``_bvn_upper`` call, every other normal CDF one ``_ndtr`` call,
    and the node sums run by ``_node_sum``, so a row's value does not depend
    on the other rows."""
    h = np.minimum(np.maximum(h, -_ERFC_BIG), _ERFC_BIG)
    dim = k.copy()
    zero = np.zeros(k.size, dtype=bool)
    three = np.flatnonzero(k == 3)
    if three.size:
        # Live coordinates first; three of them with the largest |r| last.
        h3, r3 = h[three], r[three]
        live = h3 > -_ERFC_BIG
        zero[three] = np.any(h3 >= _ERFC_BIG, axis=1)
        dim[three] = live.sum(axis=1)
        last = np.argmax(np.abs(r3[:, ::-1]), axis=1)
        order = np.where((dim[three] == 3)[:, None], _LAST_PAIR_ORDERS[last], np.argsort(~live, axis=1, kind="stable"))
        h[three] = np.take_along_axis(h3, order, axis=1)
        r = r.copy()
        r[three] = r3[np.arange(three.size)[:, None], _PAIR_COLUMN[order[:, [0, 0, 1]], order[:, [1, 2, 2]]]]
    one, two, tri = (np.flatnonzero(~zero & (dim == d)) for d in (1, 2, 3))

    cdf, bvn = [-h[one, 0]], [(h[two, 0], h[two, 1], r[two, 0])]
    if tri.size:
        t, weight = _plackett_rule()
        h1, h2, h3 = h[tri].T
        s12, s13, s23 = r[tri].T
        a12, a13 = t * s12, t * s13
        q12, q13 = (1.0 - a12) * (1.0 + a12), (1.0 - a13) * (1.0 + a13)
        det = q12 - a13 * a13 - s23 * s23 + 2.0 * a12 * a13 * s23
        # X3 given (X1, X2) = (h1, h2), and X2 given (X1, X3) = (h1, h3): how
        # far each conditional mean lies above the threshold, in conditional SDs.
        above3 = (((a13 - a12 * s23) * h1 + (s23 - a12 * a13) * h2) / q12 - h3) / np.sqrt(det / q12)
        above2 = (((a12 - a13 * s23) * h1 + (s23 - a12 * a13) * h3) / q13 - h2) / np.sqrt(det / q13)
        cdf += [-h1, above3.ravel(), above2.ravel()]
        bvn.append((h2, h3, s23))
    cdf = np.concatenate(cdf)
    cdf = _ndtr(cdf) if cdf.size else cdf
    bvn = _bvn_upper(*(np.concatenate(x) for x in zip(*bvn))) if two.size or tri.size else np.empty(0)

    p = np.where(dim == 0, 1.0, 0.0)
    p[one], p[two] = cdf[: one.size], bvn[: two.size]
    if tri.size:
        tail1, cond3, cond2 = cdf[one.size : one.size + tri.size], *cdf[one.size + tri.size :].reshape(2, *a12.shape)
        terms = s12 * np.exp(-(h1 * h1 - 2.0 * a12 * h1 * h2 + h2 * h2) / (2.0 * q12)) / np.sqrt(q12) * cond3
        terms += s13 * np.exp(-(h1 * h1 - 2.0 * a13 * h1 * h3 + h3 * h3) / (2.0 * q13)) / np.sqrt(q13) * cond2
        p[tri] = tail1 * bvn[two.size :] + _node_sum(weight * terms) / _TWO_PI
    p[zero] = 0.0
    return np.minimum(np.maximum(p, 0.0), 1.0)


def _well_conditioned(cov: np.ndarray) -> np.ndarray:
    """Per covariance of a stack (P, k, k): whether every variance is
    positive and the correlation determinant is at least ``_DET_FLOOR``,
    the rule for settling three coordinates, or a view, in closed form."""
    sd = np.sqrt(cov.diagonal(axis1=1, axis2=2))
    positive = np.all(sd > 0.0, axis=1)
    sd = np.where(positive[:, None], sd, 1.0)
    return positive & (np.linalg.det(cov / (sd[:, :, None] * sd[:, None, :])) >= _DET_FLOOR)


def _cell_probabilities(
    stacks: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
) -> List[np.ndarray]:
    """P(y in the cell) of y ~ N(mean, cov), (problems, cells) per stack of
    problems of k = 1, 2 or 3 coordinates: mean (P, k), cov (P, k, k) and
    lo, hi, out (P, cells, k) product cells as ``_product_cells`` builds
    them (a cell with lo = hi = inf is empty).

    Each stack's covariances go through ``_cholesky``, the one PSD rule; a
    second coordinate it finds determined by the first has correlation +-1.
    A coordinate's set is two signed upper tails, each taken on the side its
    mass lies, as in ``_conditional_step``: inside [a, b] it is P(> a) -
    P(> b), or P(< b) - P(< a) when a <= 0; outside, P(< a) + P(> b). A
    lower tail is the upper tail of -y. So a cell is 2^k signed corners of
    ``_upper_orthants``, one call for every stack, summed by
    ``_node_sum``."""
    hs, rs, ks, plans = [], [], [], []
    for mean, cov, lo, hi, out in stacks:
        k = mean.shape[1]
        pairs = list(itertools.combinations(range(k), 2))
        factor = _cholesky(cov)
        sd = np.sqrt(cov.diagonal(axis1=1, axis2=2))
        rho = np.zeros((mean.shape[0], 3))
        for col, (i, j) in enumerate(pairs):
            scale = sd[:, i] * sd[:, j]
            with np.errstate(divide="ignore", invalid="ignore"):
                rho[:, col] = np.minimum(np.maximum(cov[:, i, j] / scale, -1.0), 1.0)
            if col == 0:
                rho[:, 0] = np.where(factor[:, 1, 1] == 0.0, np.sign(cov[:, 0, 1]), rho[:, 0])
            rho[:, col] = np.where(scale > 0.0, rho[:, col], 0.0)
        a, b = _standardized(mean[:, None, :], sd[:, None, :], lo, hi)
        upper = ~out & (a > 0.0)
        both = upper | out
        # (problem, cell, coordinate, tail): each tail's threshold, direction
        # (-1 for a lower tail) and sign; corner c takes tail combo[c, i] of
        # coordinate i, the first coordinate's slowest.
        tail = np.stack((np.where(upper, a, np.where(out, -a, -b)), np.where(both, b, -a)), axis=-1)
        way = np.stack((np.where(upper, 1.0, -1.0), np.where(both, 1.0, -1.0)), axis=-1)
        sign = np.stack((np.ones_like(a), np.where(out, 1.0, -1.0)), axis=-1)
        combo = np.array(list(itertools.product((0, 1), repeat=k)))
        dims = np.arange(k)
        h, w, s = (np.moveaxis(x[..., dims, combo], 2, 0) for x in (tail, way, sign))  # (corners, P, C, k)
        r = np.zeros(h.shape[:3] + (3,))
        for col, (i, j) in enumerate(pairs):
            r[..., col] = w[..., i] * w[..., j] * rho[:, None, col]
        padded = np.zeros(h.shape[:3] + (3,))
        padded[..., :k] = h
        hs.append(padded.reshape(-1, 3))
        rs.append(r.reshape(-1, 3))
        ks.append(np.full(h[..., 0].size, k))
        plans.append(s.prod(axis=-1))
    p = _upper_orthants(np.concatenate(hs), np.concatenate(rs), np.concatenate(ks))
    out_p, start = [], 0
    for s in plans:
        out_p.append(_node_sum(p[start : start + s.size].reshape(s.shape) * s))
        start += s.size
    return out_p


def _product_cells(
    regions: Sequence[StateRegion], sides: Sequence[Sequence[Optional[bool]]]
) -> Union[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The disjoint product cells of ``sides`` of single-box regions over
    their bounded coordinates side by side, (lo, hi, out), each (cells,
    coordinates), or the reason they are left to Monte Carlo: ``"multi-box
    item"``, or ``"over 64 cells"`` (``_MAX_QMC_CELLS``) in all.

    A side gives each region True (inside: one cell), False (outside: a box
    bounding k dims is k cells, cell j inside on dims before j, outside on
    dim j and free after it) or None (free: one cell unbounded on its dims).
    A side's cells are the product of its regions'; the sides' cells are
    concatenated in order."""
    if any(r.n_boxes > 1 for r in regions):
        return "multi-box item"
    dims = [r.bounded_dims.size for r in regions]
    if sum(math.prod(k for k, s in zip(dims, side) if s is not None and not s) for side in sides) > _MAX_QMC_CELLS:
        return f"over {_MAX_QMC_CELLS} cells"
    cells = []
    for side in sides:
        options = []
        for region, want_in in zip(regions, side):
            box = region.bounded_region
            low, high = box.lows[0], box.highs[0]
            if want_in is None:
                options.append([(np.full(box.dim, -np.inf), np.full(box.dim, np.inf), np.zeros(box.dim, dtype=bool))])
                continue
            if want_in:
                options.append([(low, high, np.zeros(box.dim, dtype=bool))])
                continue
            steps = np.arange(box.dim)
            options.append(
                [
                    (np.where(steps <= j, low, -np.inf), np.where(steps <= j, high, np.inf), steps == j)
                    for j in steps.tolist()
                ]
            )
        cells.extend([np.concatenate(part) for part in zip(*combo)] for combo in itertools.product(*options))
    return tuple(np.array(part) for part in zip(*cells))


def _lattice_pass(
    problems: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]],
    n: int,
    points: bool,
) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
    """Randomized QMC separation of variables (Genz, JCGS 1992) over the
    cells of each problem, ``n`` lattice points per cell and shift.

    A problem is (mean (k,), cov (k, k), lo, hi, out (cells, k), seed): y ~
    N(mean, cov) restricted to the disjoint product cells, cell c being the
    product over coordinates of [lo, hi], or its outside where ``out``. The
    coordinates are conditioned on one after another in the order of their
    smallest admissible mass over the cells, through one Cholesky factor;
    each step multiplies the weight by the step's mass and draws its z from
    a lattice coordinate. All problems share one Richtmyer lattice
    (generator frac(sqrt(prime_j)) for coordinate j, padded to the largest
    k); problem i's ``_QMC_SHIFTS`` random shifts come from child_rng(seed).

    Returns the per-shift estimates (problems, shifts) of the cells' total
    probability. Without ``points`` the last coordinate needs no z, so the
    lattice has k - 1 coordinates. With ``points`` it has k, and each problem
    also gets its points y = mean + L z, in its own coordinate order and
    clipped into [lo, hi] on the coordinates its cell wants inside, with
    their weights (the product of the step masses), shapes (shifts, cells x
    n, k) and (shifts, cells x n), cell after cell: a GHK draw (Hajivassiliou,
    McFadden & Ruud, J. Econometrics 1996), E[w f(y)] summed over cells
    being the integral of f over them.
    """
    # Largest problems first, so that the rows still conditioning at step j
    # are a prefix of every chunk and padding costs nothing.
    sizes = np.array([m.size for m, _, _, _, _, _ in problems])
    rank = np.argsort(-sizes, kind="stable")
    problems = [problems[i] for i in rank.tolist()]
    k = int(sizes.max())
    n_lattice = k if points else k - 1
    generator = np.sqrt(_primes(n_lattice)) % 1.0
    cells = np.array([lo.shape[0] for _, _, lo, _, _, _ in problems])
    owner = np.repeat(np.arange(len(problems)), cells)
    mean = np.zeros((len(problems), k))
    cov = np.tile(np.eye(k), (len(problems), 1, 1))
    lo = np.full((owner.size, k), -np.inf)
    hi = np.full((owner.size, k), np.inf)
    out = np.zeros((owner.size, k), dtype=bool)
    shifts = np.zeros((len(problems), max(n_lattice, 1), _QMC_SHIFTS))
    row = 0
    for i, (m, c, l, h, o, seed) in enumerate(problems):
        size = m.size
        mean[i, :size], cov[i, :size, :size] = m, c
        lo[row : row + cells[i], :size], hi[row : row + cells[i], :size], out[row : row + cells[i], :size] = l, h, o
        width = size if points else size - 1
        shifts[i, :width] = child_rng(seed).random((_QMC_SHIFTS, width)).T
        row += cells[i]

    # Smallest admissible mass over the cells first; padding stays last.
    e, _ = _conditional_step(mean[owner], np.sqrt(cov.diagonal(axis1=1, axis2=2))[owner], lo, hi, out, None)
    mass = np.ones_like(mean)
    np.minimum.at(mass, owner, e)
    padded = np.arange(k) >= sizes[rank][:, None]
    order = np.lexsort((mass, padded), axis=1)
    mean = np.take_along_axis(mean, order, axis=1)
    cov = cov[np.arange(len(problems))[:, None, None], order[:, :, None], order[:, None, :]]
    lo, hi, out = (np.take_along_axis(x, order[owner], axis=1) for x in (lo, hi, out))
    factor = _cholesky(cov)

    # The conditioning, in chunks of rows (cells) of at most _QMC_CHUNK points.
    est = np.zeros((len(problems), _QMC_SHIFTS))
    row_size = sizes[rank][owner]
    step = max(_QMC_CHUNK // (_QMC_SHIFTS * n), 1)
    ys, weights = [], []
    for start in range(0, owner.size, step):
        rows = np.arange(start, min(start + step, owner.size))
        own = owner[rows]
        fac = factor[own]
        offset = np.zeros((own.size, k, _QMC_SHIFTS, n))
        weight = np.ones((own.size, _QMC_SHIFTS, n))
        y = np.zeros((own.size, k, _QMC_SHIFTS, n)) if points else None
        for j in range(k):
            live = int(np.count_nonzero(row_size[rows] > j))
            r, o = rows[:live], own[:live]
            u = _lattice_coordinate(n, generator[j], shifts[o, j]) if j < n_lattice else None
            # The first step's centre is the same at every point: its masses
            # are computed once a row.
            centre = mean[o, j, None, None] + offset[:live, j] if j else mean[o, j, None, None]
            sd = fac[:live, j, j, None, None]
            low, high, outside = lo[r, j, None, None], hi[r, j, None, None], out[r, j, None, None]
            e, z = _conditional_step(centre, sd, low, high, outside, u)
            weight[:live] *= e
            if z is not None:
                offset[:live, j + 1 :] += fac[:live, j + 1 :, j, None, None] * z[:, None]
            if points:
                point = centre + sd * z
                y[:live, j] = np.where(outside, point, np.clip(point, low, high))
        np.add.at(est, own, weight.mean(axis=2))
        if points:
            ys.append(y)
            weights.append(weight)
    per_shift = np.empty_like(est)
    per_shift[rank] = est
    if not points:
        return per_shift, []
    y, weight = np.concatenate(ys), np.concatenate(weights)
    drawn: List[Tuple[np.ndarray, np.ndarray]] = [None] * len(problems)
    ends = np.cumsum(cells).tolist()
    for i, (size, end) in enumerate(zip(sizes[rank].tolist(), ends)):
        block = slice(end - cells[i], end)
        # (cells, k, shifts, n) -> (shifts, cells x n, k), back in the problem's order
        sorted_y = y[block, :size].transpose(2, 0, 3, 1).reshape(_QMC_SHIFTS, -1, size)
        own_y = np.empty_like(sorted_y)
        own_y[..., order[i, :size]] = sorted_y
        drawn[rank[i]] = (own_y, weight[block].transpose(1, 0, 2).reshape(_QMC_SHIFTS, -1))
    return per_shift, drawn


def _truncated_moments(
    problems: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]]
) -> List[Optional[Tuple[np.ndarray, np.ndarray]]]:
    """The mean (k,) and covariance (k, k) of y ~ N(mean, cov) restricted to
    the cells of each problem of ``_lattice_pass`` that has k <= 3
    coordinates and a covariance ``_well_conditioned`` accepts; None where
    the cells hold no mass.

    Tallis's formulas (JRSS-B 23, 1961; Manjunath & Wilhelm, 2021) for the
    standardized z ~ N(0, R), summed over the cells, as every term is linear
    in the set. A coordinate's faces are its finite bounds, signed +1 where
    its set begins and -1 where it ends; an outside coordinate is free minus
    inside, so its faces are the inside's with the opposite sign. With
    F_i(x) = phi(x) P(rest of the cell | z_i = x) and F_iq(x, w) = phi2(x,
    w; R_iq) P(rest | z_i = x, z_q = w), A_i = sum of s F_i(x), B_i = sum of
    s x F_i(x) and D_iq = sum of s s' F_iq(x, w) over the faces, M0 = P(the
    cells) gives M0 E[z] = R A and M0 E[z z'] = M0 R + R G, G_ij = R_ij B_i
    + sum over q != i of (R_jq - R_ji R_iq) D_iq. Every probability (of the
    cells, and of each rest given one or two faces) is taken in one
    ``_cell_probabilities`` call."""
    if not problems:
        return []
    groups: Dict[int, List[int]] = {}
    for i, problem in enumerate(problems):
        groups.setdefault(problem[0].size, []).append(i)
    stacks, plans = [], []

    def given(centre: np.ndarray, cov: np.ndarray, lo: np.ndarray, hi: np.ndarray, out: np.ndarray) -> None:
        # One stack for the rest (d coordinates) of each cell given each of
        # G faces, or face pairs, and each of their F positions: conditional
        # means centre (cells, G, F, d), covariances (cells, G, d, d) and the
        # rest's bounds (cells, G, d).
        n_faces, d = centre.shape[2:]
        stacks.append(
            (centre.reshape(-1, d), np.repeat(cov, n_faces, axis=1).reshape(-1, d, d))
            + tuple(np.repeat(v, n_faces, axis=1).reshape(-1, 1, d) for v in (lo, hi, out))
        )

    for k, members in groups.items():
        mean, cov = (np.array([problems[i][j] for i in members]) for j in (0, 1))
        sd = np.sqrt(cov.diagonal(axis1=1, axis2=2))
        corr = cov / (sd[:, :, None] * sd[:, None, :])
        own = np.repeat(np.arange(len(members)), [problems[i][2].shape[0] for i in members])
        lo, hi, out = (np.concatenate([problems[i][j] for i in members]) for j in (2, 3, 4))
        a, b = (lo - mean[own]) / sd[own], (hi - mean[own]) / sd[own]
        r = corr[own]
        # Faces (cell, coordinate, lower or upper bound) and their signs; an
        # infinite bound is no face.
        x = np.stack((a, b), axis=-1)
        finite = np.isfinite(x)
        sign = np.where(out[..., None], np.array([-1.0, 1.0]), np.array([1.0, -1.0])) * finite
        x = np.where(finite, x, 0.0)
        plans.append((k, members, own, corr, x, sign, len(stacks)))
        stacks.append((np.zeros((own.size, k)), r, a[:, None], b[:, None], out[:, None]))
        if k > 1:
            # The rest given z_i = x: mean R_ri x, covariance R_rr - R_ri R_ir.
            rest = np.array([[j for j in range(k) if j != i] for i in range(k)])
            slope = r[:, rest, np.arange(k)[:, None]]
            cond = r[:, rest[:, :, None], rest[:, None, :]] - slope[..., :, None] * slope[..., None, :]
            given(slope[:, :, None, :] * x[..., None], cond, a[:, rest], b[:, rest], out[:, rest])
        if k > 2:
            # The rest j given (z_i, z_q) = (x, w), for each pair i < q.
            i, q = np.array(list(itertools.combinations(range(k), 2))).T
            j = 3 - i - q
            rho = r[:, i, q]
            bi = (r[:, j, i] - rho * r[:, j, q]) / (1.0 - rho * rho)
            bq = (r[:, j, q] - rho * r[:, j, i]) / (1.0 - rho * rho)
            centre = bi[:, :, None, None] * x[:, i, :, None] + bq[:, :, None, None] * x[:, q, None, :]
            cond = (1.0 - bi * r[:, j, i] - bq * r[:, j, q])[:, :, None, None]
            given(centre.reshape(*centre.shape[:2], 4, 1), cond, a[:, j, None], b[:, j, None], out[:, j, None])

    probs = _cell_probabilities(stacks)
    moments: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(problems)
    for k, members, own, corr, x, sign, at in plans:
        n_cells, n = own.size, len(members)
        rest = probs[at + 1].reshape(n_cells, k, 2) if k > 1 else 1.0
        f = sign * np.exp(-0.5 * x * x) / math.sqrt(_TWO_PI) * rest
        total, a_sum, b_sum, d_sum = np.zeros(n), np.zeros((n, k)), np.zeros((n, k)), np.zeros((n, k, k))
        np.add.at(total, own, probs[at][:, 0])
        np.add.at(a_sum, own, f.sum(axis=2))
        np.add.at(b_sum, own, (f * x).sum(axis=2))
        for m, (i, q) in enumerate(itertools.combinations(range(k), 2)):
            rho = corr[own, i, q][:, None, None]
            xi, xq = x[:, i, :, None], x[:, q, None, :]
            phi2 = np.exp(-(xi * xi - 2.0 * rho * xi * xq + xq * xq) / (2.0 * (1.0 - rho * rho)))
            phi2 /= _TWO_PI * np.sqrt(1.0 - rho * rho)
            if k > 2:
                phi2 *= probs[at + 2].reshape(n_cells, 3, 2, 2)[:, m]
            d = np.sum(sign[:, i, :, None] * sign[:, q, None, :] * phi2, axis=(1, 2))
            np.add.at(d_sum[:, i, q], own, d)
            d_sum[:, q, i] = d_sum[:, i, q]
        first = corr @ a_sum[:, :, None]
        dr = d_sum @ corr
        g = dr + corr * (b_sum - dr.diagonal(axis1=1, axis2=2))[:, :, None]
        second = total[:, None, None] * corr + corr @ g
        with np.errstate(divide="ignore", invalid="ignore"):
            e_z = first[:, :, 0] / total[:, None]
            c_z = second / total[:, None, None] - e_z[:, :, None] * e_z[:, None, :]
        c_z = 0.5 * (c_z + c_z.transpose(0, 2, 1))
        for s, i in enumerate(members):
            if total[s] > 0.0 and np.isfinite(e_z[s]).all() and np.isfinite(c_z[s]).all():
                scale = np.sqrt(problems[i][1].diagonal())
                moments[i] = (problems[i][0] + scale * e_z[s], scale[:, None] * c_z[s] * scale[None, :])
    return moments


def _log_fallbacks(fallbacks: Dict[str, int], n: int, what: str) -> None:
    """Log at INFO, if any of ``n`` pairs fell back from their path, how many
    did (``what`` names the pairs, the path they took and the one they left)
    and why, by reason."""
    if fallbacks:
        reasons = ", ".join(f"{reason}: {count}" for reason, count in fallbacks.items())
        logger.info("%d of %d %s (%s)", sum(fallbacks.values()), n, what, reasons)


def _lattice_points(
    problems: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]], mc_budget: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The weighted points (y, w) of each problem of ``_lattice_pass``, with
    the ``_qmc_points`` points of a shift split evenly over its cells (at
    least one a cell). Problems with the same points per cell share a pass."""
    groups: Dict[int, List[int]] = {}
    for i, (_, _, lo, _, _, _) in enumerate(problems):
        groups.setdefault(max(_qmc_points(mc_budget) // lo.shape[0], 1), []).append(i)
    drawn: List[Tuple[np.ndarray, np.ndarray]] = [None] * len(problems)
    for n, members in groups.items():
        _, points = _lattice_pass([problems[i] for i in members], n, True)
        for i, p in zip(members, points):
            drawn[i] = p
    return drawn


def _pattern_batch(
    conds: Sequence[GaussianSequence],
    pairs: Sequence[Pair],
    items: Sequence[Tuple[int, StateRegion]],
    active: np.ndarray,
    want: Optional[np.ndarray],
    mc_budget: int,
    seed: Callable[[int], int],
) -> List[Settled]:
    """Probabilities of inside/outside patterns of many pairs in one pass.

    Pair p (conditional ``conds[p]`` of lifetime ``pairs[p]``) has the items
    (time, region) where ``active[p]`` is set, in item order; each such time
    must lie in the lifetime. With ``want`` (the required inside-bit of each
    (pair, item), same shape as ``active``) each pair gives P(pattern ==
    want); without it, cells, where cells[code] is the probability that
    exactly the pair's items whose bit is set in ``code`` hold. Returns a
    ``Settled`` per pair, path ``PINNED``, ``CLOSED_FORM``, ``QMC`` or
    ``MC``; only the last two have a nonzero standard error.

    1. Each region is marginalized onto its bounded coordinates only, in one
       pass per distinct region object over every (pair, item) that uses it:
       the means and SDs at columns ``_bounded_cols`` of each such (pair,
       item) are gathered into dense (pairs, boxes, bounded dims) arrays, and
       one ``_conditional_step`` call gives the masses inside and outside
       each bound.
    2. An item is pinned when its 1-D bounds settle it within ``_PIN_TOL``:
       P(inside) <= sum over boxes of min over dims of P(in the interval),
       and P(inside) >= max over boxes of 1 - sum over dims of P(outside),
       each an axis reduction of the pass. A pinned item's bit is fixed; a
       pinned item against ``want`` gives 0 at once.
    3. A pair's unpinned items are a product of their masses when each is a
       single box and their bounded coordinates are uncorrelated. Every
       other pair with unpinned items gets its problem in one loop: the
       means and covariance of those coordinates and, with ``want``, the
       cells of its wanted side by ``_product_cells``, built once per (free
       items, wanted bits). A problem byte-identical to an earlier pair's is
       that pair's, its leader's. Two coordinates, or three that
       ``_well_conditioned`` accepts (one call for the batch), are in closed
       form: one ``_cell_probabilities`` call, a stack per (cells,
       coordinates), with one ``_bvn_upper`` and one ``_ndtr`` call and
       every sum by ``_node_sum``, so a pair's bits do not depend on its
       batch. Four or more coordinates, and three near-singular ones (logged
       by ``_log_fallbacks``), go to QMC: one ``_lattice_pass`` over the
       batch's problems, about mc_budget // 16 lattice points each, the
       standard error being the spread of the per-shift estimates; a QMC
       pair reports its leader's estimate. The rest (a multi-box item, over
       64 cells, or cells without ``want``) draw ``mc_budget`` samples of
       those coordinates alone on stream child_rng(seed(p)); the sub-pattern
       codes are scattered back into the full cells. ``seed(p)`` is asked
       for only for QMC leaders and pairs that sample, once each; each
       fallback to Monte Carlo is counted by reason and logged
       (``_log_fallbacks``).
    """
    _check_draws("mc_budget", mc_budget)
    n = len(conds)
    if n == 0:
        return []
    pp, ii = np.nonzero(active)  # the (pair, item)s, pair after pair
    regions = [region for _, region in items]
    sizes = np.array([g.mean.size for g in conds])
    offset = np.cumsum(sizes) - sizes
    steps = np.array([t for t, _ in items])[ii] - np.array([b for b, _ in pairs])[pp]
    # Flat column of each (pair, item)'s step in the concatenated conditionals.
    base = offset[pp] + steps * np.array([g.dim for g in conds])[pp]
    mean = np.concatenate([g.mean for g in conds])
    var = np.concatenate([g.cov.diagonal() for g in conds])

    # Steps 1-2, one pass per distinct region object.
    passes: Dict[int, List[int]] = {}
    for i, region in enumerate(regions):
        passes.setdefault(id(region), []).append(i)
    upper, lower, q = np.empty(ii.size), np.empty(ii.size), np.empty(ii.size)
    sides = np.array([False, True])[:, None, None, None]  # inside, outside
    for its in passes.values():
        region = regions[its[0]]
        dims = region.bounded_dims
        ks = slice(None) if len(passes) == 1 else np.flatnonzero(np.isin(ii, its))
        cols = base[ks, None, None] + dims
        box = region.bounded_region
        (p_in, p_out), _ = _conditional_step(mean[cols], np.sqrt(var[cols]), box.lows, box.highs, sides, None)
        upper[ks] = p_in.min(axis=2, initial=1.0).sum(axis=1)
        lower[ks] = (1.0 - p_out.sum(axis=2)).max(axis=1)
        # A single-box item's P(inside) is the product over its dims.
        q[ks] = p_in[:, 0].prod(axis=1)
    holds = lower >= 1.0 - _PIN_TOL
    fails = ~holds & (upper <= _PIN_TOL)
    free = ~(holds | fails)
    if want is not None:
        w = want[pp, ii]
        dead = np.bincount(pp, np.where(w, fails, holds), n) > 0
        free &= ~dead[pp]

    # Step 3.
    n_free = np.bincount(pp, free, n)
    multi = np.bincount(pp, free & np.array([r.n_boxes > 1 for r in regions])[ii], n) > 0
    n_coords = np.bincount(pp, free * np.array([r.bounded_dims.size for r in regions])[ii], n)
    first = np.searchsorted(pp, np.arange(n + 1))

    def free_of(p: int) -> np.ndarray:
        return first[p] + np.flatnonzero(free[first[p] : first[p + 1]])

    def free_cols(p: int, ks: np.ndarray) -> np.ndarray:
        return np.concatenate([_bounded_cols(pairs[p], conds[p].dim, *items[i]) for i in ii[ks].tolist()])

    paths = [PINNED if nf == 0 else MC if mu else CLOSED_FORM for nf, mu in zip(n_free.tolist(), multi.tolist())]
    # The problem (m, S, cells) of each pair whose free items are single boxes
    # on two or more correlated coordinates, kept by its leader: the first
    # pair of the batch with that problem byte for byte. Uncorrelated ones
    # stay a product of their items' masses.
    fallbacks: Dict[str, int] = {}
    cells_of: Dict[tuple, Union[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
    problems: Dict[int, Tuple[np.ndarray, ...]] = {}
    leader, keys = list(range(n)), {}
    for p in np.flatnonzero((n_free > 0) & (multi | (n_coords > 1))).tolist():
        ks = free_of(p)
        cols = free_cols(p, ks)
        cov = conds[p].cov[np.ix_(cols, cols)]
        if not multi[p] and not np.any(cov - np.diag(np.diag(cov))):
            continue
        # A probability has one side, its wanted pattern; cells have no
        # closed-form or QMC path. The cells of each (free items, sides) are
        # built once.
        sides = () if want is None else (tuple(w[ks].tolist()),)
        cell_key = (tuple(ii[ks].tolist()), sides)
        if cell_key not in cells_of:
            cells_of[cell_key] = _product_cells([regions[i] for i in cell_key[0]], sides)
        cells = cells_of[cell_key]
        if want is None or isinstance(cells, str):
            reason = cells if isinstance(cells, str) else "partition cells"
            paths[p] = MC
            fallbacks[reason] = fallbacks.get(reason, 0) + 1
            continue
        m = conds[p].mean[cols]
        key = (cells[0].shape, m.tobytes(), cov.tobytes()) + tuple(c.tobytes() for c in cells)
        leader[p] = keys.setdefault(key, p)
        if leader[p] == p:
            problems[p] = (m, cov) + cells
    # Two coordinates, or three that ``_well_conditioned`` accepts, are in
    # closed form; four or more, and three near-singular ones, go to QMC.
    three = [p for p, problem in problems.items() if problem[0].size == 3]
    ok = _well_conditioned(np.array([problems[p][1] for p in three])).tolist() if three else []
    near = {p for p, good in zip(three, ok) if not good}
    qmc = {p for p, problem in problems.items() if problem[0].size > 3} | near
    paths = [QMC if leader[p] in qmc else path for p, path in enumerate(paths)]
    n_near = sum(lead in near for lead in leader)
    reasons = {"near-singular correlation": n_near} if n_near else {}
    _log_fallbacks(reasons, n, "pairs settled by QMC instead of in closed form")
    _log_fallbacks(fallbacks, n, "pairs settled by Monte Carlo instead of QMC")

    def draw_masks(p: int) -> Tuple[np.ndarray, np.ndarray]:
        ks = free_of(p)
        cols = free_cols(p, ks)
        g = conds[p]
        x = GaussianSequence(g.mean[cols], g.cov[np.ix_(cols, cols)], 1).draw(int(mc_budget), child_rng(seed(p)))
        return ks, _bounded_masks([regions[i] for i in ii[ks].tolist()], x)

    out: List[Settled] = []
    if want is not None:
        value = np.ones(n)
        np.multiply.at(value, pp[free], np.where(w, q, 1.0 - q)[free])
        value[dead] = 0.0
        # One ``_cell_probabilities`` stack per (cells, coordinates).
        stacks: Dict[Tuple[int, int], List[int]] = {}
        for p, problem in problems.items():
            if p not in qmc:
                stacks.setdefault(problem[2].shape, []).append(p)
        if stacks:
            stacked = [tuple(np.array(x) for x in zip(*(problems[p] for p in ps))) for ps in stacks.values()]
            for ps, cells in zip(stacks.values(), _cell_probabilities(stacked)):
                value[ps] = np.minimum(np.maximum(_node_sum(cells.T), 0.0), 1.0)
        settled = {}
        lattice = [p for p in problems if p in qmc]
        if lattice:
            est, _ = _lattice_pass([problems[p] + (seed(p),) for p in lattice], _qmc_points(mc_budget), False)
            prob = np.minimum(est.mean(axis=1), 1.0)
            se = est.std(axis=1, ddof=1) / math.sqrt(_QMC_SHIFTS)
            settled = dict(zip(lattice, zip(prob.tolist(), se.tolist())))
        for p, path in enumerate(paths):
            if path == MC:
                ks, masks = draw_masks(p)
                hit = np.ones(masks.shape[1], dtype=bool)
                for row, k in zip(masks, ks.tolist()):
                    hit &= row if w[k] else ~row
                v = float(hit.mean())
                out.append(Settled(v, _binomial_se(v, int(mc_budget)), MC, p))
            elif path == QMC:
                out.append(Settled(*settled[leader[p]], QMC, leader[p]))
            else:
                out.append(Settled(float(value[leader[p]]), 0.0, path, p))
        return out

    for p, path in enumerate(paths):
        ks = free_of(p)
        local = ks - first[p]
        sub = np.arange(2**ks.size)
        if path == MC:
            _, masks = draw_masks(p)
            sub_cells = np.bincount(pattern_codes(masks), minlength=sub.size) / masks.shape[1]
        else:
            sub_cells = np.ones(sub.size)
            for k, qk in enumerate(q[ks].tolist()):
                sub_cells *= np.where(sub >> k & 1, qk, 1.0 - qk)
        held = np.flatnonzero(holds[first[p] : first[p + 1]])
        full = np.full(sub.size, int(np.sum(1 << held)))
        for k, i in enumerate(local.tolist()):
            full |= (sub >> k & 1) << i
        cells = np.zeros(2 ** (first[p + 1] - first[p]))
        cells[full] = sub_cells
        out.append(Settled(cells, None, path, p))
    return out


def _pattern_probabilities(
    gs: GaussianSequence,
    pair: Pair,
    items: Sequence[Tuple[int, StateRegion]],
    mc_budget: int,
    rng_seed: int,
    want: Optional[Sequence[bool]] = None,
) -> Settled:
    """``_pattern_batch`` of one pair with every item active, on stream
    child_rng(rng_seed)."""
    gs.coords(pair, [t for t, _ in items])  # ValueError unless each time is in the pair's lifetime
    active = np.ones((1, len(items)), dtype=bool)
    wanted = None if want is None else np.array([want], dtype=bool)
    (settled,) = _pattern_batch([gs], [pair], items, active, wanted, mc_budget, lambda _: rng_seed)
    return settled


def region_probability(
    gs: GaussianSequence,
    pair: Pair,
    entries: Sequence[Tuple[int, StateRegion, str]],
    mc_budget: int = 100_000,
    rng_seed: int = 0,
) -> Tuple[float, float]:
    """Joint probability that each constrained time's state is in its region.

    Each entry is (time, region, side) with side "inside" or "complement".
    Returns (probability, standard error). Evaluated by ``_pattern_batch``
    as a batch of one pair: each region is marginalized onto its bounded
    coordinates; entries that their 1-D bounds settle within 1e-12 are
    pinned (one pinned against its side gives exactly 0, with no draws).
    The rest are a product in closed form when they are single boxes on
    uncorrelated coordinates. Otherwise ``_product_cells``, the cell rule
    of every path, cuts their wanted sides into product cells: two or three
    correlated coordinates are in closed form (Genz's bivariate normal; for
    three, Plackett's integral of it where the correlation determinant is
    at least 0.01), four or more, or three near-singular ones, by
    randomized QMC (about mc_budget // 16 lattice points; the standard
    error is the spread across random shifts). Entries it refuses (a
    multi-box entry, or over 64 cells) are drawn by plain Monte Carlo on
    their bounded coordinates. Closed form has standard error 0. A Monte
    Carlo estimate of exactly 0 or 1 reports a standard error of about
    1/mc_budget, not 0 (mc_budget >= 2).
    """
    if not entries:
        raise ValueError("entries must be nonempty")
    for t, region, side in entries:
        if side not in (INSIDE, COMPLEMENT):
            raise ValueError(f"side must be inside/complement, got {side!r}")
        if region.dim != gs.dim:
            raise DimensionMismatchError(f"region dim {region.dim} != state dim {gs.dim}")
    items = [(t, region) for t, region, _ in entries]
    want = [side == INSIDE for _, _, side in entries]
    settled = _pattern_probabilities(gs, pair, items, mc_budget, rng_seed, want)
    return settled.value, settled.se


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
