"""Trajectory values, time bookkeeping, state-space regions and constraint
semantics.

A trajectory is a (birth, death, states) tuple on discrete time steps. A
constraint pairs a time step with a region of the state space; a constraint
set combines several of them in either "conjunct" (all active constraints
must hold) or "disjunct" (at least one must hold) mode. Both modes also
require the trajectory to be alive at at least one constraint time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatchError
from .kernels import finite_bounds, points_in_boxes

CONJUNCT = "conjunct"
DISJUNCT = "disjunct"


@dataclass(frozen=True)
class TimeWindow:
    """Closed window of consecutive discrete time steps [alpha, gamma]."""

    alpha: int
    gamma: int

    def __post_init__(self):
        if self.alpha > self.gamma:
            raise ValueError(f"window requires alpha <= gamma, got ({self.alpha}, {self.gamma})")

    def steps(self) -> range:
        return range(self.alpha, self.gamma + 1)

    def __contains__(self, t: int) -> bool:
        return self.alpha <= t <= self.gamma

    @property
    def length(self) -> int:
        return self.gamma - self.alpha + 1


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Birth time, death time and the state sequence in between.

    ``states`` has shape (death - birth + 1, d).
    """

    birth: int
    death: int
    states: np.ndarray

    def __post_init__(self):
        if self.birth > self.death:
            raise ValueError(f"birth {self.birth} > death {self.death}")
        states = np.atleast_2d(np.asarray(self.states, dtype=np.float64))
        if states.shape[0] != self.length:
            raise ValueError(
                f"expected {self.length} states for lifetime {self.birth}..{self.death}, "
                f"got {states.shape[0]}"
            )
        if states.shape[1] < 1:
            raise ValueError("state dimension must be >= 1")
        states.setflags(write=False)
        object.__setattr__(self, "states", states)

    @property
    def length(self) -> int:
        return self.death - self.birth + 1

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def state_at(self, t: int) -> np.ndarray:
        if not (self.birth <= t <= self.death):
            raise ValueError(f"time {t} outside lifetime {self.birth}..{self.death}")
        return self.states[t - self.birth]

    def alive_at(self, t: int) -> bool:
        return self.birth <= t <= self.death


class StateRegion:
    """Finite union of axis-aligned boxes in R^d.

    Unbounded dimensions are stored as -inf/+inf. Membership in the
    complement is handled by negating membership; the complement set is
    never materialized.
    """

    def __init__(self, lows: np.ndarray, highs: np.ndarray):
        lows = np.atleast_2d(np.asarray(lows, dtype=np.float64))
        highs = np.atleast_2d(np.asarray(highs, dtype=np.float64))
        if lows.shape != highs.shape:
            raise ValueError("lows/highs shape mismatch")
        if lows.shape[0] < 1:
            raise ValueError("region needs at least one box")
        if np.isnan(lows).any() or np.isnan(highs).any():
            raise ValueError("region bounds must not be NaN")
        if np.any(lows == np.inf) or np.any(highs == -np.inf):
            raise ValueError("a lower bound of +inf or an upper bound of -inf leaves the region empty")
        bounded = np.isfinite(lows) | np.isfinite(highs)
        if np.any((lows >= highs) & bounded):
            raise ValueError("each bounded dimension requires lower < upper")
        self.lows = lows
        self.highs = highs
        self.lows.setflags(write=False)
        self.highs.setflags(write=False)
        # dimensions some box bounds; a full-space region bounds none
        self.bounded_dims = np.flatnonzero(bounded.any(axis=0))
        # what every membership test compares, taken once
        self._bounds = finite_bounds(lows, highs)

    @classmethod
    def full_space(cls, dim: int) -> "StateRegion":
        return cls(np.full((1, dim), -np.inf), np.full((1, dim), np.inf))

    @classmethod
    def box(cls, bounds: Sequence[Optional[Tuple[Optional[float], Optional[float]]]]) -> "StateRegion":
        """Single box from per-dimension (lower, upper) pairs; None means unbounded."""
        lows, highs = [], []
        for b in bounds:
            if b is None:
                lows.append(-np.inf)
                highs.append(np.inf)
            else:
                lo, hi = b
                lows.append(-np.inf if lo is None else float(lo))
                highs.append(np.inf if hi is None else float(hi))
        return cls(np.array([lows]), np.array([highs]))

    @classmethod
    def boxes(cls, box_list: Sequence[Sequence[Optional[Tuple[Optional[float], Optional[float]]]]]) -> "StateRegion":
        regions = [cls.box(b) for b in box_list]
        return cls(
            np.vstack([r.lows for r in regions]),
            np.vstack([r.highs for r in regions]),
        )

    @cached_property
    def bounded_region(self) -> "StateRegion":
        """The region over its bounded dimensions only, built on first use."""
        return StateRegion(self.lows[:, self.bounded_dims], self.highs[:, self.bounded_dims])

    @property
    def dim(self) -> int:
        return self.lows.shape[1]

    @property
    def n_boxes(self) -> int:
        return self.lows.shape[0]

    @property
    def is_full_space(self) -> bool:
        return bool(np.any(np.all(np.isneginf(self.lows) & np.isposinf(self.highs), axis=1)))

    def contains(self, point: np.ndarray) -> bool:
        point = np.asarray(point, dtype=np.float64).reshape(1, -1)
        if point.shape[1] != self.dim:
            raise DimensionMismatchError(f"point dim {point.shape[1]} != region dim {self.dim}")
        return bool(points_in_boxes(point, self.lows, self.highs, bounds=self._bounds)[0])

    def contains_batch(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise DimensionMismatchError(f"points shape {points.shape} incompatible with dim {self.dim}")
        return points_in_boxes(points, self.lows, self.highs, bounds=self._bounds)

    def __repr__(self):
        return f"StateRegion(dim={self.dim}, boxes={self.n_boxes})"


@dataclass(frozen=True)
class Constraint:
    """A single spatiotemporal constraint: alive at ``time`` with state in ``region``."""

    time: int
    region: StateRegion


class ConstraintSet:
    """Finite set of constraints with pairwise-distinct times and a mode.

    Duplicate times must be pre-merged by the caller via region union.
    """

    def __init__(self, constraints: Iterable[Constraint], mode: str):
        constraints = tuple(constraints)
        if not constraints:
            raise ValueError("constraint set must be nonempty")
        if mode not in (CONJUNCT, DISJUNCT):
            raise ValueError(f"mode must be '{CONJUNCT}' or '{DISJUNCT}', got {mode!r}")
        times = [c.time for c in constraints]
        if len(set(times)) != len(times):
            raise ValueError("constraint times must be pairwise distinct; merge regions first")
        dims = {c.region.dim for c in constraints}
        if len(dims) != 1:
            raise ValueError(f"all constraint regions must share one dimension, got {sorted(dims)}")
        self.constraints = constraints
        self.mode = mode

    @property
    def times(self) -> Tuple[int, ...]:
        return tuple(c.time for c in self.constraints)

    @property
    def dim(self) -> int:
        return self.constraints[0].region.dim

    def __len__(self):
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def __repr__(self):
        return f"ConstraintSet(mode={self.mode}, times={self.times})"


def existence_pairs(window: TimeWindow) -> List[Tuple[int, int]]:
    """All (birth, death) pairs with alpha <= birth <= death <= gamma, lexicographic."""
    return [
        (b, e)
        for b in range(window.alpha, window.gamma + 1)
        for e in range(b, window.gamma + 1)
    ]


def active_indices(cs: ConstraintSet, birth: int, death: int) -> Tuple[int, ...]:
    """Indices of constraints whose times fall inside the lifetime birth..death."""
    return tuple(i for i, c in enumerate(cs.constraints) if birth <= c.time <= death)


def active_constraints(traj: Trajectory, cs: ConstraintSet) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(index set, time set) of constraints active during the trajectory's lifetime."""
    idx = active_indices(cs, traj.birth, traj.death)
    return idx, tuple(cs.constraints[i].time for i in idx)


def satisfies(traj: Trajectory, cs: ConstraintSet) -> bool:
    """Mode-dependent satisfaction; False whenever no constraint time is in the lifetime."""
    if traj.dim != cs.dim:
        raise DimensionMismatchError(f"trajectory dim {traj.dim} != constraint dim {cs.dim}")
    idx = active_indices(cs, traj.birth, traj.death)
    if not idx:
        return False
    hits = (cs.constraints[i].region.contains(traj.state_at(cs.constraints[i].time)) for i in idx)
    return all(hits) if cs.mode == CONJUNCT else any(hits)


def satisfies_batch(birth: int, death: int, states: np.ndarray, cs: ConstraintSet) -> np.ndarray:
    """Vectorized ``satisfies`` over n trajectories sharing one (birth, death).

    ``states`` has shape (n, length, d). Returns (n,) bool.
    """
    states = np.asarray(states, dtype=np.float64)
    n = states.shape[0]
    if states.shape[2] != cs.dim:
        raise DimensionMismatchError(f"state dim {states.shape[2]} != constraint dim {cs.dim}")
    idx = active_indices(cs, birth, death)
    if not idx:
        return np.zeros(n, dtype=bool)
    out = None
    for i in idx:
        c = cs.constraints[i]
        hit = c.region.contains_batch(states[:, c.time - birth, :])
        if out is None:
            out = hit
        elif cs.mode == CONJUNCT:
            out &= hit
        else:
            out |= hit
    return out


def tau(traj: Trajectory, cs: ConstraintSet) -> List[Trajectory]:
    """Singleton containing the unchanged trajectory if it satisfies cs, else empty."""
    return [traj] if satisfies(traj, cs) else []


def tau_set(trajs: Iterable[Trajectory], cs: ConstraintSet) -> List[Trajectory]:
    """Subset of the input trajectories satisfying cs (empty input maps to empty)."""
    out = []
    for t in trajs:
        out.extend(tau(t, cs))
    return out


def time_window_constraints(eta: int, zeta: int, dim: int) -> ConstraintSet:
    """Disjunct full-space constraints at every step in eta..zeta.

    Equivalent to requiring the trajectory to be alive at some point in the
    window; membership depends only on lifetime overlap, never on states.
    """
    if eta > zeta:
        raise ValueError(f"require eta <= zeta, got ({eta}, {zeta})")
    full = StateRegion.full_space(dim)
    return ConstraintSet([Constraint(t, full) for t in range(eta, zeta + 1)], DISJUNCT)
