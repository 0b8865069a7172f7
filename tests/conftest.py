import math

import numpy as np
import pytest

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
from trajconstrain.engine import _component_seed
from trajconstrain.gaussian import _bounded, _bounded_masks, _interval_masses, _PIN_TOL, child_rng
from trajconstrain.kernels import pattern_codes


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
        seeds.setdefault(id(td), _component_seed(rng_seed, len(seeds)))
    return seeds


def pattern_probabilities_per_pair(gs, pair, items, mc_budget, rng_seed, want=None):
    """The primitive one pair at a time, item by item, as it was before pairs
    were batched: the reference that the batch must equal bit for bit.
    Returns (P(pattern == want) or cells, exact)."""
    m = len(items)
    bounded = [_bounded(gs, pair, t, region) for t, region in items]
    n_boxes = [lows.shape[0] for lows, _, _ in bounded]
    starts = [0]
    for lows, _, _ in bounded:
        starts.append(starts[-1] + lows.size)
    flat_cols = np.concatenate([cols for (_, _, cols), n in zip(bounded, n_boxes) for _ in range(n)])
    p_in, p_out = _interval_masses(
        np.concatenate([lows.ravel() for lows, _, _ in bounded]),
        np.concatenate([highs.ravel() for _, highs, _ in bounded]),
        gs.mean[flat_cols],
        np.sqrt(gs.cov.diagonal()[flat_cols]),
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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
