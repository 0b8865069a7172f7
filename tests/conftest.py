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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
