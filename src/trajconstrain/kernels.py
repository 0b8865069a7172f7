"""Hot numeric kernels: box-union membership and inside-pattern encoding.

Both kernels exist in two variants: a numba ``@njit`` build (default) and a
pure-numpy fallback. Set ``TRAJCONSTRAIN_NO_NUMBA=1`` in the environment to
force the numpy path; the fallback is also selected automatically when numba
is not importable. No speedup of the numba build has been measured; the
end-to-end benchmark is ``perfbench/`` at the repository root.
"""

import os

import numpy as np

_DISABLE = os.environ.get("TRAJCONSTRAIN_NO_NUMBA", "").lower() in ("1", "true", "yes")

try:
    if _DISABLE:
        raise ImportError("numba disabled via TRAJCONSTRAIN_NO_NUMBA")
    from numba import njit

    NUMBA_ENABLED = True
except ImportError:
    NUMBA_ENABLED = False


def points_in_boxes_numpy(points, lows, highs):
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


def pattern_codes_numpy(masks):
    """Encode per-entry boolean masks into integer bit patterns.

    masks: (m, n) bool, one row per constraint entry. Returns (n,) int64
    where bit t is set iff masks[t] is True for that sample.
    """
    codes = np.zeros(masks.shape[1], dtype=np.int64)
    for t in range(masks.shape[0]):
        codes |= masks[t].astype(np.int64) << t
    return codes


if NUMBA_ENABLED:

    @njit(cache=True)
    def _points_in_boxes_jit(points, lows, highs):  # pragma: no cover - jitted
        n, k = points.shape
        nb = lows.shape[0]
        out = np.zeros(n, dtype=np.bool_)
        for i in range(n):
            for b in range(nb):
                ok = True
                for j in range(k):
                    v = points[i, j]
                    if v < lows[b, j] or v > highs[b, j]:
                        ok = False
                        break
                if ok:
                    out[i] = True
                    break
        return out

    @njit(cache=True)
    def _pattern_codes_jit(masks):  # pragma: no cover - jitted
        m, n = masks.shape
        codes = np.zeros(n, dtype=np.int64)
        for t in range(m):
            for i in range(n):
                if masks[t, i]:
                    codes[i] |= np.int64(1) << t
        return codes

    def points_in_boxes(points, lows, highs):
        points = np.ascontiguousarray(points, dtype=np.float64)
        lows = np.ascontiguousarray(lows, dtype=np.float64)
        highs = np.ascontiguousarray(highs, dtype=np.float64)
        return _points_in_boxes_jit(points, lows, highs)

    def pattern_codes(masks):
        return _pattern_codes_jit(np.ascontiguousarray(masks))

else:
    points_in_boxes = points_in_boxes_numpy
    pattern_codes = pattern_codes_numpy
