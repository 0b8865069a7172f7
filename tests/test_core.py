import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajconstrain import (
    Constraint,
    ConstraintSet,
    StateRegion,
    TimeWindow,
    Trajectory,
    active_constraints,
    existence_pairs,
    satisfies,
    satisfies_batch,
    tau,
    tau_set,
    time_window_constraints,
)
from trajconstrain.errors import DimensionMismatchError


def const_traj(birth, death, value=0.0, dim=1):
    return Trajectory(birth, death, np.full((death - birth + 1, dim), value))


class TestTimeWindow:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            TimeWindow(3, 2)

    def test_contains(self):
        w = TimeWindow(-2, 4)
        assert -2 in w and 4 in w and 5 not in w


class TestTrajectory:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory(0, 2, np.zeros((2, 1)))

    def test_state_at(self):
        t = Trajectory(3, 5, np.arange(3.0).reshape(3, 1))
        assert t.state_at(4)[0] == 1.0
        with pytest.raises(ValueError):
            t.state_at(6)


class TestStateRegion:
    def test_box_membership(self):
        r = StateRegion.box([(-1, 1), (0, None)])
        assert r.contains([0.0, 5.0])
        assert not r.contains([0.0, -0.1])
        assert not r.contains([2.0, 5.0])

    def test_union_of_boxes(self):
        r = StateRegion.boxes([[(-2, -1)], [(1, 2)]])
        assert r.contains([-1.5]) and r.contains([1.5])
        assert not r.contains([0.0])

    def test_full_space(self):
        r = StateRegion.full_space(2)
        assert r.is_full_space
        assert r.contains([1e9, -1e9])

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            StateRegion.box([(1, 1)])

    @pytest.mark.parametrize(
        "bound",
        [(float("nan"), 1.0), (0.0, float("nan")), (float("nan"), None), (float("inf"), None), (None, float("-inf"))],
    )
    def test_nan_or_empty_bound_rejected(self, bound):
        # NaN would read as unbounded in the engine and as a half-line in
        # contains; an infinite bound on the wrong side describes an empty set
        with pytest.raises(ValueError):
            StateRegion.box([bound, (0.0, 1.0)])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            StateRegion.box([(-1, 1)]).contains([0.0, 0.0])

    def test_bounded_region_built_once(self):
        # the boxes over the dims some box bounds, one object per region
        r = StateRegion.boxes([[None, (0.0, 1.0), (None, 2.0)], [None, (3.0, 4.0), None]])
        box = r.bounded_region
        assert box is r.bounded_region
        np.testing.assert_array_equal(box.lows, [[0.0, -np.inf], [3.0, -np.inf]])
        np.testing.assert_array_equal(box.highs, [[1.0, 2.0], [4.0, np.inf]])
        assert StateRegion.full_space(2).bounded_region.dim == 0


class TestExistencePairs:
    def test_single_step(self):
        assert existence_pairs(TimeWindow(0, 0)) == [(0, 0)]

    def test_window_0_2(self):
        # brute-force oracle: all beta <= eps within the window
        expected = [(b, e) for b in range(3) for e in range(3) if b <= e]
        assert existence_pairs(TimeWindow(0, 2)) == sorted(expected)
        assert len(expected) == 6

    def test_window_0_100_count(self):
        pairs = existence_pairs(TimeWindow(0, 100))
        assert len(pairs) == 101 * 102 // 2 == 5151
        assert len(set(pairs)) == 5151


class TestActiveConstraints:
    def cs_at(self, times, dim=1, mode="conjunct"):
        return ConstraintSet([Constraint(t, StateRegion.full_space(dim)) for t in times], mode)

    def test_containment(self):
        idx, ts = active_constraints(const_traj(0, 10), self.cs_at([5, 20]))
        assert idx == (0,) and ts == (5,)

    def test_disjoint(self):
        idx, ts = active_constraints(const_traj(0, 10), self.cs_at([20, 30]))
        assert idx == () and ts == ()

    def test_window_derived(self):
        cs = time_window_constraints(45, 55, 1)
        idx, ts = active_constraints(const_traj(45, 55), cs)
        assert len(idx) == 11 and ts == tuple(range(45, 56))


class TestSatisfies:
    def test_single_constraint_both_modes(self):
        traj = const_traj(0, 10)
        for mode in ("conjunct", "disjunct"):
            cs = ConstraintSet([Constraint(5, StateRegion.box([(-1, 1)]))], mode)
            assert satisfies(traj, cs)

    def test_conjunct_vs_disjunct(self):
        traj = const_traj(0, 10)
        items = [
            Constraint(5, StateRegion.box([(-1, 1)])),
            Constraint(7, StateRegion.box([(10, 20)])),
        ]
        assert not satisfies(traj, ConstraintSet(items, "conjunct"))
        assert satisfies(traj, ConstraintSet(items, "disjunct"))

    def test_no_active_times_fails_both_modes(self):
        traj = const_traj(0, 10)
        for mode in ("conjunct", "disjunct"):
            cs = ConstraintSet([Constraint(11, StateRegion.full_space(1))], mode)
            assert not satisfies(traj, cs)

    def test_dim_mismatch(self):
        cs = ConstraintSet([Constraint(0, StateRegion.full_space(2))], "conjunct")
        with pytest.raises(DimensionMismatchError):
            satisfies(const_traj(0, 1, dim=1), cs)


class TestTau:
    def test_satisfying_unchanged(self):
        traj = const_traj(0, 10)
        cs = ConstraintSet([Constraint(5, StateRegion.box([(-1, 1)]))], "conjunct")
        out = tau(traj, cs)
        assert out == [traj]
        assert out[0] is traj

    def test_non_satisfying_empty(self):
        traj = const_traj(0, 10, value=5.0)
        cs = ConstraintSet([Constraint(5, StateRegion.box([(-1, 1)]))], "conjunct")
        assert tau(traj, cs) == []

    def test_full_space_inside_lifetime(self):
        traj = const_traj(0, 10, value=99.0)
        cs = ConstraintSet([Constraint(5, StateRegion.full_space(1))], "conjunct")
        assert tau(traj, cs) == [traj]


class TestTauSet:
    def test_empty(self):
        cs = time_window_constraints(0, 1, 1)
        assert tau_set([], cs) == []

    def test_fig1b_style_window_filter(self):
        # seven trajectories, four overlapping the window 45..55
        trajs = [
            const_traj(0, 20),
            const_traj(10, 44),
            const_traj(40, 50),
            const_traj(45, 55),
            const_traj(50, 100),
            const_traj(55, 80),
            const_traj(56, 99),
        ]
        cs = time_window_constraints(45, 55, 1)
        kept = tau_set(trajs, cs)
        assert kept == [t for t in trajs if t.birth <= 55 and t.death >= 45]
        assert len(kept) == 4

    def test_none_satisfy(self):
        cs = ConstraintSet([Constraint(5, StateRegion.box([(10, 11)]))], "conjunct")
        assert tau_set([const_traj(0, 10), const_traj(2, 7)], cs) == []


class TestTimeWindowConstraints:
    def test_structure(self):
        cs = time_window_constraints(45, 55, 2)
        assert cs.mode == "disjunct"
        assert len(cs) == 11
        assert all(c.region.is_full_space for c in cs)
        assert cs.times == tuple(range(45, 56))

    def test_single_step(self):
        cs = time_window_constraints(5, 5, 1)
        assert len(cs) == 1 and cs.times == (5,)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            time_window_constraints(6, 5, 1)

    def test_matches_lifetime_overlap(self, rng):
        cs = time_window_constraints(3, 6, 1)
        for _ in range(200):
            b = int(rng.integers(0, 10))
            e = int(rng.integers(b, 10))
            traj = const_traj(b, e, value=float(rng.normal()))
            overlap = not (e < 3 or b > 6)
            assert satisfies(traj, cs) == overlap


class TestConstraintSetValidation:
    def test_duplicate_times_rejected(self):
        full = StateRegion.full_space(1)
        with pytest.raises(ValueError):
            ConstraintSet([Constraint(1, full), Constraint(1, full)], "conjunct")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSet([], "conjunct")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            ConstraintSet([Constraint(0, StateRegion.full_space(1))], "both")


@st.composite
def traj_and_constraints(draw):
    b = draw(st.integers(-5, 5))
    e = draw(st.integers(b, b + 6))
    vals = draw(
        st.lists(st.floats(-10, 10), min_size=e - b + 1, max_size=e - b + 1)
    )
    traj = Trajectory(b, e, np.array(vals).reshape(-1, 1))
    n = draw(st.integers(1, 4))
    times = draw(
        st.lists(st.integers(-8, 12), min_size=n, max_size=n, unique=True)
    )
    items = []
    for t in times:
        lo = draw(st.floats(-12, 11))
        hi = lo + draw(st.floats(0.5, 8))
        items.append(Constraint(t, StateRegion.box([(lo, hi)])))
    return traj, items


@given(traj_and_constraints())
@settings(max_examples=150, deadline=None)
def test_conjunct_implies_disjunct(tc):
    traj, items = tc
    if satisfies(traj, ConstraintSet(items, "conjunct")):
        assert satisfies(traj, ConstraintSet(items, "disjunct"))


@given(traj_and_constraints())
@settings(max_examples=100, deadline=None)
def test_single_element_modes_agree(tc):
    traj, items = tc
    first = items[:1]
    assert satisfies(traj, ConstraintSet(first, "conjunct")) == satisfies(
        traj, ConstraintSet(first, "disjunct")
    )


@given(traj_and_constraints(), traj_and_constraints())
@settings(max_examples=60, deadline=None)
def test_tau_set_additive_over_disjoint_union(tc1, tc2):
    traj1, items = tc1
    traj2, _ = tc2
    cs = ConstraintSet(items, "disjunct")
    union = tau_set([traj1, traj2], cs)
    assert union == tau_set([traj1], cs) + tau_set([traj2], cs)


@given(traj_and_constraints(), st.sampled_from(["conjunct", "disjunct"]))
@settings(max_examples=100, deadline=None)
def test_batch_matches_scalar_satisfies(tc, mode):
    traj, items = tc
    cs = ConstraintSet(items, mode)
    batch = satisfies_batch(traj.birth, traj.death, traj.states[None, :, :], cs)
    assert bool(batch[0]) == satisfies(traj, cs)
