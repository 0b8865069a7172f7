import builtins
import itertools
import math

import numpy as np
import pytest

_import = builtins.__import__


def _numpy_only_import(name, globals=None, locals=None, fromlist=(), level=0):
    """``__import__`` that refuses scipy to the library's own modules. The
    library needs numpy only at run time; without this, a lazy scipy import
    on a library path passes wherever a test module has imported scipy."""
    importer = (globals or {}).get("__name__") or ""
    if level == 0 and name.split(".")[0] == "scipy" and importer.split(".")[0] == "trajconstrain":
        raise ImportError(f"{importer} imports {name}; trajconstrain needs numpy only at run time")
    return _import(name, globals, locals, fromlist, level)


builtins.__import__ = _numpy_only_import

from trajconstrain import (
    BirthDeathPmf,
    Constraint,
    ConstraintSet,
    GaussianSequence,
    StateRegion,
    TimeWindow,
    TrajectoryDensity,
    existence_pairs,
)
from trajconstrain.engine import _seed
from trajconstrain import gaussian, mvn, oracle
from trajconstrain.core import satisfies_batch
from trajconstrain.gaussian import child_rng
from trajconstrain.kernels import pattern_codes
from trajconstrain.mvn import _binomial_se, _bounded_masks, _conditional_step, _PIN_TOL


def random_gaussian_sequence(rng, pair, dim, diag=False, scale=1.0):
    b, e = pair
    n = (e - b + 1) * dim
    mean = rng.standard_normal(n) * scale
    if diag:
        cov = np.diag(rng.uniform(0.3, 2.0, n))
    else:
        a = rng.standard_normal((n, n))
        cov = a @ a.T / n + 0.4 * np.eye(n)
    return GaussianSequence(mean, cov, dim)


def random_density(rng, window=None, dim=None, diag=False):
    if window is None:
        window = TimeWindow(0, int(rng.integers(2, 8)))
    if dim is None:
        dim = int(rng.integers(1, 3))
    pairs = existence_pairs(window)
    probs = rng.dirichlet(np.ones(len(pairs)))
    conds = tuple(random_gaussian_sequence(rng, p, dim, diag=diag) for p in pairs)
    return TrajectoryDensity(BirthDeathPmf(tuple(pairs), probs), conds)


def random_region(rng, dim):
    bounds = []
    for _ in range(dim):
        kind = rng.integers(0, 4)
        if kind == 0:
            bounds.append(None)
        elif kind == 1:
            lo = float(rng.normal(0, 1.5))
            bounds.append((lo, lo + float(rng.uniform(0.5, 3.0))))
        elif kind == 2:
            bounds.append((float(rng.normal(0, 1.5)), None))
        else:
            bounds.append((None, float(rng.normal(0, 1.5))))
    return StateRegion.box(bounds)


def random_constraint_set(rng, window, dim, max_constraints=4, mode=None):
    n = int(rng.integers(1, max_constraints + 1))
    times = rng.choice(np.arange(window.alpha, window.gamma + 1), size=min(n, window.length), replace=False)
    constraints = [Constraint(int(t), random_region(rng, dim)) for t in times]
    if mode is None:
        mode = "conjunct" if rng.random() < 0.5 else "disjunct"
    return ConstraintSet(constraints, mode)


def component_seeds(m, rng_seed):
    """The seed constrain_pmbm gives each distinct density of m, keyed by id:
    the k-th in order of first appearance, the PPP first, gets stream k."""
    seeds = {}
    for td in [m.ppp.density] + [t.density for h in m.hypotheses for t in h.tracks]:
        seeds.setdefault(id(td), _seed(rng_seed, len(seeds)))
    return seeds


def _quantile(p):
    return mvn._ndtri(np.clip(p, 0.0, 1.0))


def qmc_per_pair(mean, cov, lo, hi, out, mc_budget, rng_seed):
    """Randomized QMC separation of variables for one QMC problem of
    ``mvn._pattern_batch``, cell by cell and coordinate by coordinate:
    the reference that the batch must equal bit for bit. Shares only the
    Cholesky factor and the normal CDF and quantile with the library."""
    k = mean.size
    shifts, n = mvn._QMC_SHIFTS, mvn._qmc_points(mc_budget)
    sd = np.sqrt(np.diag(cov))
    mass = np.ones(k)
    for c in range(lo.shape[0]):
        e, _ = _conditional_step(mean, sd, lo[c], hi[c], out[c], None)
        mass = np.minimum(mass, e)
    order = np.argsort(mass, kind="stable")
    mean, cov, lo, hi, out = mean[order], cov[np.ix_(order, order)], lo[:, order], hi[:, order], out[:, order]
    factor = gaussian._cholesky(cov[None])[0]
    shift = child_rng(rng_seed).random((shifts, k - 1)).T
    primes = mvn._primes(k)
    est = np.zeros(shifts)
    for c in range(lo.shape[0]):
        offset = np.zeros((k, shifts, n))
        weight = np.ones((shifts, n))
        for j in range(k):
            s = factor[j, j]
            centre = mean[j] + offset[j]
            if s > 0.0:
                a, b = (lo[c, j] - centre) / s, (hi[c, j] - centre) / s
            else:
                a = np.where(lo[c, j] <= centre, -np.inf, np.inf)
                b = np.where(hi[c, j] >= centre, np.inf, -np.inf)
            cdf_a, cdf_neg_a, cdf_b, cdf_neg_b = (mvn._ndtr(x) for x in (a, -a, b, -b))
            if out[c, j]:
                e = cdf_a + cdf_neg_b
            else:
                e = np.where(a > 0.0, cdf_neg_a - cdf_neg_b, cdf_b - cdf_a)
            weight *= e
            if j == k - 1:
                break
            x = (np.arange(n) * (math.sqrt(primes[j]) % 1.0))[None, :] + shift[j][:, None]
            x -= np.floor(x)
            v = (1.0 - np.abs(2.0 * x - 1.0)) * e
            if out[c, j]:
                # lo down to -inf, then +inf down to hi
                z = np.where(v < cdf_a, _quantile(cdf_a - v), -_quantile(v - cdf_a))
            else:
                z = np.where(a > 0.0, -_quantile(cdf_neg_a - v), _quantile(cdf_a + v))
            z = np.clip(z, -40.0, 40.0)
            for i in range(j + 1, k):
                offset[i] += factor[i, j] * z
        est += weight.mean(axis=1)
    return min(est.mean(), 1.0), est.std(ddof=1) / math.sqrt(shifts)


def product_cells(boxes):
    """(lo, hi, out) cells of single boxes (low, high, inside) side by side:
    a complement of k bounded dims is k cells, "the first dim outside is j"."""
    options = []
    for low, high, inside in boxes:
        k = low.size
        if inside:
            options.append([(low, high, [False] * k)])
        else:
            cells = []
            for j in range(k):
                lows = [low[d] if d <= j else -np.inf for d in range(k)]
                highs = [high[d] if d <= j else np.inf for d in range(k)]
                cells.append((lows, highs, [d == j for d in range(k)]))
            options.append(cells)
    cells = [tuple(np.concatenate(part) for part in zip(*combo)) for combo in itertools.product(*options)]
    return tuple(np.array([cell[i] for cell in cells]) for i in range(3))


def pattern_probabilities_per_pair(gs, pair, items, mc_budget, rng_seed, want=None):
    """The primitive one pair at a time, item by item, as it was before pairs
    were batched: the reference that the batch must equal bit for bit. A
    wanted pattern on two correlated coordinates, or on three whose
    correlation ``mvn._well_conditioned`` accepts, calls
    ``mvn._cell_probabilities`` on this pair's cells alone
    (``product_cells``), where the batch calls it on every such pair at once.
    Returns (P(pattern == want) or cells, standard error, path), the path
    "exact" (pinned or closed form), "qmc" or "mc" and the standard error
    None for cells."""
    m = len(items)
    bounded = [
        (region.lows[:, region.bounded_dims], region.highs[:, region.bounded_dims], gs.coords(pair, [t])[region.bounded_dims])
        for t, region in items
    ]
    n_boxes = [lows.shape[0] for lows, _, _ in bounded]
    starts = [0]
    for lows, _, _ in bounded:
        starts.append(starts[-1] + lows.size)
    flat_cols = np.concatenate([cols for (_, _, cols), n in zip(bounded, n_boxes) for _ in range(n)])
    (p_in, p_out), _ = _conditional_step(
        gs.mean[flat_cols],
        np.sqrt(gs.cov.diagonal()[flat_cols]),
        np.concatenate([lows.ravel() for lows, _, _ in bounded]),
        np.concatenate([highs.ravel() for _, highs, _ in bounded]),
        np.array([[False], [True]]),
        None,
    )
    box_item = np.repeat(np.arange(m), n_boxes)
    bound_box = np.repeat(np.arange(box_item.size), np.repeat([cols.size for _, _, cols in bounded], n_boxes))
    box_in = np.ones(box_item.size)
    np.minimum.at(box_in, bound_box, p_in)
    lower = np.full(m, -np.inf)
    np.maximum.at(lower, box_item, 1.0 - np.bincount(bound_box, p_out, box_item.size))
    holds = lower >= 1.0 - _PIN_TOL
    fails = ~holds & (np.bincount(box_item, box_in, m) <= _PIN_TOL)
    if want is not None and np.any(np.where(want, fails, holds)):
        return 0.0, 0.0, "exact"
    free = np.flatnonzero(~(holds | fails)).tolist()

    cols = np.concatenate([bounded[i][2] for i in free]) if free else np.empty(0, dtype=np.intp)
    cov = gs.cov[np.ix_(cols, cols)]
    single = all(n_boxes[i] == 1 for i in free)
    exact = single and not np.any(cov - np.diag(np.diag(cov)))
    if want is not None and single and not exact:
        boxes = [(bounded[i][0][0], bounded[i][1][0], want[i]) for i in free]
        if cols.size == 2 or (cols.size == 3 and mvn._well_conditioned(cov[None])[0]):
            # two or three correlated coordinates: their cells in closed form
            lo, hi, out = product_cells(boxes)
            (cells,) = mvn._cell_probabilities([(gs.mean[cols][None], cov[None], lo[None], hi[None], out[None])])
            return float(np.minimum(np.maximum(mvn._node_sum(cells[0]), 0.0), 1.0)), 0.0, "exact"
        if math.prod(low.size for low, _, inside in boxes if not inside) <= 64:
            value, se = qmc_per_pair(gs.mean[cols], cov, *product_cells(boxes), mc_budget, rng_seed)
            return value, se, "qmc"
    if exact:
        q = [math.prod(p_in[starts[i] : starts[i + 1]].tolist()) for i in free]
    else:
        x = GaussianSequence(gs.mean[cols], cov, 1).draw(int(mc_budget), child_rng(rng_seed))
        masks = _bounded_masks([items[i][1] for i in free], x)

    if want is not None:
        if exact:
            return float(np.prod([q[k] if want[i] else 1.0 - q[k] for k, i in enumerate(free)])), 0.0, "exact"
        hit = np.ones(masks.shape[1], dtype=bool)
        for k, i in enumerate(free):
            hit &= masks[k] if want[i] else ~masks[k]
        p = float(hit.mean())
        return p, _binomial_se(p, int(mc_budget)), "mc"

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
    return cells, None, "exact" if exact else "mc"


def smooth_hypothesis_per_birth(beta, eps, meas, mm, sm):
    """Kalman filter + RTS smoother of one birth over beta..eps, step by
    step, as it ran before the births of a track were smoothed in lockstep by
    associative scans: the reference that ``scenario._smooth_births`` must
    match within 1e-12 normwise relative (the scans associate the same
    products differently, so bit identity is lost). Returns the joint
    smoothed mean, covariance (cross-time blocks from the smoother gains) and
    log marginal measurement likelihood."""
    F, Q, H, R = mm.transition, mm.process_noise, sm.measurement, sm.noise
    d = mm.dim
    nu = eps - beta + 1
    means_f = np.empty((nu, d))
    covs_f = np.empty((nu, d, d))
    means_p = np.empty((nu, d))
    covs_p = np.empty((nu, d, d))
    log_lik = 0.0
    m, P = mm.birth_mean.copy(), mm.birth_cov.copy()
    for i, k in enumerate(range(beta, eps + 1)):
        if i > 0:
            m = F @ m
            P = F @ P @ F.T + Q
        means_p[i], covs_p[i] = m, P
        z = meas.get(k)
        if z is not None:
            S = H @ P @ H.T + R
            S = 0.5 * (S + S.T)
            innov = z - H @ m
            sign, logdet = np.linalg.slogdet(S)
            sol = np.linalg.solve(S, innov)
            log_lik += -0.5 * (z.size * math.log(2 * math.pi) + logdet + innov @ sol)
            K = np.linalg.solve(S, H @ P).T
            m = m + K @ innov
            P = P - K @ S @ K.T
            P = 0.5 * (P + P.T)
        means_f[i], covs_f[i] = m, P
    means_s = means_f.copy()
    covs_s = covs_f.copy()
    gains = np.empty((nu - 1, d, d)) if nu > 1 else np.empty((0, d, d))
    for i in range(nu - 2, -1, -1):
        G = np.linalg.solve(covs_p[i + 1], F @ covs_f[i]).T
        gains[i] = G
        means_s[i] = means_f[i] + G @ (means_s[i + 1] - means_p[i + 1])
        covs_s[i] = covs_f[i] + G @ (covs_s[i + 1] - covs_p[i + 1]) @ G.T
        covs_s[i] = 0.5 * (covs_s[i] + covs_s[i].T)
    joint_cov = np.zeros((nu * d, nu * d))
    joint_cov[-d:, -d:] = covs_s[-1]
    for s in range(nu - 2, -1, -1):
        here, later = slice(s * d, (s + 1) * d), slice((s + 1) * d, None)
        cross = gains[s] @ joint_cov[(s + 1) * d : (s + 2) * d, later]
        joint_cov[here, here] = covs_s[s]
        joint_cov[here, later] = cross
        joint_cov[later, here] = cross.T
    return means_s.reshape(-1), joint_cov, log_lik


def row_moments(x):
    """Count, per-column mean and M2 of the rows x (count, columns), in three
    passes over the rows (mean, centring, sum of squares): the reference for
    the oracle's reduction from the normals' Gram matrix."""
    mean = x.mean(axis=0)
    centered = x - mean
    return x.shape[0], mean, np.einsum("ij,ij->j", centered, centered)


def whole_rows(screen, z):
    """The whole sequences m + F z, (rows, length * dim) in coordinate order,
    of normals z (rows, length * dim) in the head/tail order of ``screen``
    (an ``oracle._Screen`` built with ``complete``)."""
    x = np.empty_like(z)
    x[:, screen.order] = z @ screen.factor.T + screen.mean
    return x


def screened_rows(td, n, rng, cs, tail_rng):
    """The whole sequences that ``oracle._accepted`` with moments stands for,
    as (pair, screen, normals (count, length * dim) in head/tail order,
    accepted rows (count, length * dim)) per screening chunk: each row built
    by ``whole_rows`` from the oracle's screen and the same accepted head
    normals, with explicit tail normals z_t from ``tail_rng``. The oracle
    never builds these rows: it sums the head Gram of each pair's accepted
    normals over its chunks and draws the blocks that involve z_t once per
    pair (``oracle._augmented_gram``)."""
    for pair, screen, count, z_head in oracle._screened_chunks(td, n, rng, cs, complete=True):
        if not count:
            continue
        z = np.hstack([z_head.T, tail_rng.standard_normal((count, screen.mean.size - screen.h))])
        yield pair, screen, z, whole_rows(screen, z)


def eager_accepted(td, n, rng, cs):
    """Per-pair accepted counts and per-step moments (an ``oracle._StepMoments``)
    of n draws of td under cs by whole-sequence rejection, as the oracle ran
    before it screened its draws: every draw in full from
    ``stratified_draws``, then ``satisfies_batch`` on the whole sequence, and
    the accepted rows reduced by ``row_moments``. The reference that the
    screened draws must agree with in law."""
    moments = oracle._StepMoments(td)
    per_pair = {}
    for (b, e), states in gaussian.stratified_draws(td, n, rng).items():
        acc = satisfies_batch(b, e, states, cs)
        count = int(acc.sum())
        per_pair[(b, e)] = per_pair.get((b, e), 0) + count
        if count:
            moments.add(b, *row_moments(states[acc].reshape(count, -1)))
    return per_pair, moments


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
