"""Hot numeric kernels, in numpy: box-union membership and inside-pattern encoding.

The end-to-end benchmark is ``perfbench/`` at the repository root.
"""

import numpy as np

# No jitted build exists; perfbench/run.py still reports this flag.
NUMBA_ENABLED = False


def finite_bounds(lows, highs):
    """Per box of (nb, k) ``lows``/``highs``, its finite bounds as
    (column, bound, is lower) triples, lower bounds first: what
    ``points_in_boxes`` compares. An empty tuple is a box that bounds
    nothing, which holds every point."""
    return tuple(
        tuple((int(j), float(lo[j]), True) for j in np.flatnonzero(np.isfinite(lo)))
        + tuple((int(j), float(hi[j]), False) for j in np.flatnonzero(np.isfinite(hi)))
        for lo, hi in zip(lows, highs)
    )


def points_in_boxes(points, lows, highs, *, bounds=None):
    """Union-of-boxes membership mask.

    points: (n, k) float array; lows/highs: (nb, k) with +-inf marking
    unbounded dimensions. Returns (n,) bool, True where the point lies in
    at least one closed box. Only finite bounds are compared, so a box that
    bounds one coordinate of a k-dim state reads one column. ``bounds`` is
    ``finite_bounds(lows, highs)``, taken from them when not given.
    """
    if bounds is None:
        bounds = finite_bounds(lows, highs)
    inside_any = None
    for box in bounds:
        inside = None
        for j, bound, lower in box:
            hit = points[:, j] >= bound if lower else points[:, j] <= bound
            if inside is None:
                inside = hit
            else:
                inside &= hit
        if inside is None:  # a box that bounds nothing holds every point
            return np.ones(points.shape[0], dtype=np.bool_)
        if inside_any is None:
            inside_any = inside
        else:
            inside_any |= inside
    return np.zeros(points.shape[0], dtype=np.bool_) if inside_any is None else inside_any


def pattern_codes(masks):
    """Encode per-entry boolean masks into integer bit patterns.

    masks: (m, n) bool, one row per constraint entry. Returns (n,) int64
    where bit t is set iff masks[t] is True for that sample.
    """
    codes = np.zeros(masks.shape[1], dtype=np.int64)
    for t in range(masks.shape[0]):
        codes |= masks[t].astype(np.int64) << t
    return codes
