import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trajconstrain.kernels import (
    pattern_codes,
    pattern_codes_numpy,
    points_in_boxes,
    points_in_boxes_numpy,
)


class TestPointsInBoxes:
    def test_basic_box(self):
        pts = np.array([[0.5, 0.5], [1.5, 0.5], [-0.1, 0.0]])
        lows = np.array([[0.0, 0.0]])
        highs = np.array([[1.0, 1.0]])
        expected = np.array([True, False, False])
        np.testing.assert_array_equal(points_in_boxes(pts, lows, highs), expected)
        np.testing.assert_array_equal(points_in_boxes_numpy(pts, lows, highs), expected)

    def test_union_and_unbounded(self):
        pts = np.array([[0.0], [10.0], [-10.0], [3.0]])
        lows = np.array([[-1.0], [5.0]])
        highs = np.array([[1.0], [np.inf]])
        expected = np.array([True, True, False, False])
        np.testing.assert_array_equal(points_in_boxes(pts, lows, highs), expected)

    def test_boundary_closed(self):
        pts = np.array([[1.0], [-1.0]])
        lows = np.array([[-1.0]])
        highs = np.array([[1.0]])
        assert points_in_boxes(pts, lows, highs).all()

    @given(
        arrays(np.float64, (20, 3), elements=st.floats(-5, 5)),
        arrays(np.float64, (4, 3), elements=st.floats(-5, 2)),
        arrays(np.float64, (4, 3), elements=st.floats(0.1, 4)),
    )
    @settings(max_examples=50, deadline=None)
    def test_jitted_matches_numpy(self, pts, lows, widths):
        highs = lows + widths
        np.testing.assert_array_equal(
            points_in_boxes(pts, lows, highs), points_in_boxes_numpy(pts, lows, highs)
        )


    def test_finite_bounds_only_matches_all_dims_formula(self):
        # reference: the formula that compares every dimension, inf bounds included
        rng = np.random.default_rng(3)
        for trial in range(200):
            n, k, nb = int(rng.integers(1, 300)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
            pts = rng.normal(0, 2, (n, k))
            lows = rng.normal(-1, 1, (nb, k))
            highs = lows + rng.uniform(0.1, 3, (nb, k))
            lows[rng.random((nb, k)) < 0.4] = -np.inf
            highs[rng.random((nb, k)) < 0.4] = np.inf
            # put some coordinates exactly on a finite bound (boxes are closed)
            for i, j in zip(rng.integers(0, n, 5), rng.integers(0, k, 5)):
                bound = (lows if rng.random() < 0.5 else highs)[int(rng.integers(0, nb)), j]
                if np.isfinite(bound):
                    pts[i, j] = bound
            expected = np.zeros(n, dtype=bool)
            for b in range(nb):
                expected |= np.all((pts >= lows[b]) & (pts <= highs[b]), axis=1)
            np.testing.assert_array_equal(points_in_boxes_numpy(pts, lows, highs), expected)


class TestPatternCodes:
    def test_known_patterns(self):
        masks = np.array([[True, False, True, False], [True, True, False, False]])
        np.testing.assert_array_equal(pattern_codes(masks), [3, 2, 1, 0])
        np.testing.assert_array_equal(pattern_codes_numpy(masks), [3, 2, 1, 0])

    def test_single_row(self):
        masks = np.array([[False, True]])
        np.testing.assert_array_equal(pattern_codes(masks), [0, 1])

    @given(arrays(np.bool_, (5, 40)))
    @settings(max_examples=50, deadline=None)
    def test_jitted_matches_numpy(self, masks):
        np.testing.assert_array_equal(pattern_codes(masks), pattern_codes_numpy(masks))

    def test_codes_cover_range(self):
        rng = np.random.default_rng(0)
        masks = rng.random((3, 10_000)) < 0.5
        codes = pattern_codes(masks)
        assert codes.min() >= 0 and codes.max() <= 7
        assert set(np.unique(codes)) == set(range(8))
