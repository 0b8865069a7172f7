"""Hot numeric kernels, in numpy: box-union membership and inside-pattern encoding.

The end-to-end benchmark is ``perfbench/`` at the repository root.
"""

import numpy as np

# No jitted build exists; perfbench/run.py still reports this flag.
NUMBA_ENABLED = False


def points_in_boxes(points, lows, highs):
    """Union-of-boxes membership mask.

    points: (n, k) float array; lows/highs: (nb, k) with +-inf marking
    unbounded dimensions. Returns (n,) bool, True where the point lies in
    at least one closed box. Only finite bounds are compared, so a box that
    bounds one coordinate of a k-dim state reads one column.
    """
    inside_any = np.zeros(points.shape[0], dtype=np.bool_)
    for b in range(lows.shape[0]):
        inside = np.ones(points.shape[0], dtype=np.bool_)
        for j in np.flatnonzero(np.isfinite(lows[b])):
            inside &= points[:, j] >= lows[b, j]
        for j in np.flatnonzero(np.isfinite(highs[b])):
            inside &= points[:, j] <= highs[b, j]
        inside_any |= inside
    return inside_any


def pattern_codes(masks):
    """Encode per-entry boolean masks into integer bit patterns.

    masks: (m, n) bool, one row per constraint entry. Returns (n,) int64
    where bit t is set iff masks[t] is True for that sample.
    """
    codes = np.zeros(masks.shape[1], dtype=np.int64)
    for t in range(masks.shape[0]):
        codes |= masks[t].astype(np.int64) << t
    return codes
