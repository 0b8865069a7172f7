"""Fitted conditionals as RTS smoother chains.

A fitted track keeps each birth's smoother chain (``_Chain``) instead of
dense covariances; its (birth, death) conditionals are ``_ChainSequence``s
over the chain's leading steps, whose accessors read the chain.
``_cov_blocks`` gives the covariance blocks of many sequences, dense or
fitted, the fitted ones in one ``_chain_blocks`` pass of column scans: one
column Cov(x_s, x_a) per column step a of a request.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .gaussian import GaussianSequence


class _Chain:
    """One birth's RTS smoother chain, from its birth to its track's last
    death, read-only: means (n, d), step covariances P_s (n, d, d), their
    diagonals (n * d,) and gains G_s (n - 1, d, d). Cov(x_s, x_t) = G_s ...
    G_{t-1} P_t for s < t (Rauch, Tung & Striebel, AIAA J. 3, 1965), so the
    chain fixes the joint covariance in O(n d^2) memory; ``joint`` is that
    dense covariance (n d, n d), built once, on first access. The (birth,
    death) conditionals of the birth are its leading steps (``leading``)."""

    def __init__(self, means: np.ndarray, steps: np.ndarray, gains: np.ndarray):
        self.means, self.steps, self.gains = means, steps, gains
        self.variances = steps.diagonal(axis1=1, axis2=2).ravel()
        for part in (means, steps, gains, self.variances):
            part.setflags(write=False)

    def leading(self, length: int) -> _ChainSequence:
        """The conditional over the first ``length`` steps, sharing the
        chain's arrays."""
        gs = object.__new__(_ChainSequence)
        object.__setattr__(gs, "mean", self.means[:length].reshape(-1))
        object.__setattr__(gs, "dim", self.means.shape[1])
        object.__setattr__(gs, "_chain", self)
        return gs

    @cached_property
    def joint(self) -> np.ndarray:
        # Block row by block row from the last: row s is G_s times row s + 1
        # from column s + 1 on, mirrored into the column.
        n, d = self.means.shape
        joint = np.zeros((n * d, n * d))
        joint[-d:, -d:] = self.steps[-1]
        for s in range(n - 2, -1, -1):
            here, later = slice(s * d, (s + 1) * d), slice((s + 1) * d, None)
            cross = self.gains[s] @ joint[(s + 1) * d : (s + 2) * d, later]
            joint[here, here] = self.steps[s]
            joint[here, later] = cross
            joint[later, here] = cross.T
        joint.setflags(write=False)
        return joint


class _ChainSequence(GaussianSequence):
    """A fitted conditional: the leading steps of a ``_Chain``, whose
    accessors read the chain; ``cov`` is the leading block of its ``joint``."""

    @cached_property
    def cov(self) -> np.ndarray:
        return self._chain.joint[: self.mean.size, : self.mean.size]

    def _variances(self) -> np.ndarray:
        return self._chain.variances[: self.mean.size]

    def _step_covs(self) -> np.ndarray:
        return self._chain.steps[: self.length]

    def _cov_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        (block,) = _cov_blocks([self], [rows], [cols])
        return block

    def __repr__(self) -> str:
        return f"{type(self).__name__}(mean={self.mean!r}, dim={self.dim}, steps of a smoother chain={self.length})"


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of the integer array ``keys``."""
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def _gain_products(gains: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """G_lo @ ... @ G_{hi-1} of ``gains`` (M, d, d) for each range lo < hi:
    the ranges, padded with identities to one power-of-two width, are
    multiplied pairwise level by level. A product with an identity is exact,
    so a range's product takes the same steps whatever the other ranges."""
    span = int((hi - lo).max(initial=1))
    if span == 1:
        return gains[lo]
    idx = lo[:, None] + np.arange(1 << (span - 1).bit_length())
    x = gains[np.minimum(idx, gains.shape[0] - 1)]
    x[idx >= hi[:, None]] = np.eye(gains.shape[1])
    while x.shape[1] > 1:
        x = x[:, 0::2] @ x[:, 1::2]
    return x[:, 0]


def _chain_blocks(chains: Sequence[_Chain], rows: Sequence[np.ndarray], cols: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Cov(rows, cols) of each request (``chains[k]``, of one state dim, and
    the flat coordinates ``rows[k]`` and ``cols[k]``) from its chain, every
    request in one pass.

    A request reads its chain at its points, the steps p_0 < ... < p_{n-1}
    of its rows and columns, with U_i = G_{p_i} ... G_{p_{i+1} - 1}
    (``_gain_products``) between them. Each column step a = p_q (an anchor)
    gets one column Cov(x_{p_i}, x_a) over the points from inclusive
    Hillis-Steele scans, laid out side by side and padded with identities:
    one back from a, U_i ... U_{q-1} P_a for i <= q, and one on from a,
    P_{p_i} (U_q ... U_{i-1})' for i > q. At each later anchor of its
    request, a column takes the transpose of that anchor's column at a, so
    a block over the same rows and columns is exactly symmetric; each
    request's block is then one gather. Requests whose rows are their
    columns (``rows[k] is cols[k]`` for every k) have no other points and
    scan back only."""
    d, n_req = chains[0].steps.shape[1], len(chains)
    # Every chain's steps and gains in one array, by distinct chain.
    distinct = {id(c): c for c in chains}
    order = {key: i for i, key in enumerate(distinct)}
    which = np.array([order[id(c)] for c in chains])
    sizes = np.array([c.steps.shape[0] for c in distinct.values()])
    step_at = np.cumsum(sizes) - sizes
    steps = np.concatenate([c.steps for c in distinct.values()])
    gains = np.concatenate([c.gains for c in distinct.values()])

    # Steps as sorted keys request * span + step: the anchors, and the points.
    span = int(sizes.max())
    square = all(r is c for r, c in zip(rows, cols))
    n_cols = np.array([c.size for c in cols])
    flat_cols = np.concatenate(cols)
    col_key = np.repeat(np.arange(n_req) * span, n_cols) + flat_cols // d
    anchors = points = _distinct(col_key)
    flat_rows, row_key, n_rows = flat_cols, col_key, n_cols
    if not square:
        flat_rows = np.concatenate(rows)
        n_rows = np.array([r.size for r in rows])
        row_key = np.repeat(np.arange(n_req) * span, n_rows) + flat_rows // d
        points = _distinct(np.concatenate((row_key, anchors)))
    p_req, a_req = points // span, anchors // span
    n_pts = np.bincount(p_req, minlength=n_req)
    p_first = np.cumsum(n_pts) - n_pts
    # Each point's place in ``steps``; its gain's in ``gains`` is less by its chain's index.
    p_at = step_at[which[p_req]] + points % span
    a_pt = np.searchsorted(points, anchors)
    q = a_pt - p_first[a_req]
    inner = np.flatnonzero(p_req[:-1] == p_req[1:])
    lo, u = p_at[inner] - which[p_req[inner]], np.zeros((points.size, d, d))
    u[inner] = _gain_products(gains, lo, lo + points[inner + 1] - points[inner])

    # The scans: one row back from each anchor, [P_a, U_{q-1}, ..., U_0], and
    # one on from each anchor with points after it, [U_q', ..., U_{n-2}'].
    fwd = q[:0] if square else np.flatnonzero(n_pts[a_req] - 1 - q)
    on = n_pts[a_req[fwd]] - 1 - q[fwd]
    n_a, j = anchors.size, np.arange(max(int(q.max()) + 1, int(on.max(initial=0))))
    pad = np.empty((n_a + fwd.size, j.size, d, d))
    pad[:] = np.eye(d)
    ra, rj = np.nonzero(j <= q[:, None])
    pad[ra, rj] = u[a_pt[ra] - rj]
    pad[:n_a, 0] = steps[p_at[a_pt]]
    if fwd.size:
        fa, fj = np.nonzero(j < on[:, None])
        pad[n_a + fa, fj] = u[a_pt[fwd[fa]] + fj].swapaxes(-1, -2)
    off = 1
    while off < j.size:
        pad[:, off:] = pad[:, off:] @ pad[:, :-off]
        off *= 2
    col = np.empty((n_a, int(n_pts.max()), d, d))
    col[ra, q[ra] - rj] = pad[ra, rj]
    if fwd.size:
        f = fwd[fa]
        col[f, q[f] + 1 + fj] = steps[p_at[a_pt[f] + 1 + fj]] @ pad[n_a + fa, fj]
    # Each anchor's column at every later anchor b of its request: b's column at it, transposed.
    m = np.bincount(a_req, minlength=n_req)
    later = np.arange(n_a)[:, None] + np.arange(1, int(m.max()))
    a, b = np.nonzero(later < np.cumsum(m)[a_req, None])
    b = later[a, b]
    col[a, q[b]] = col[b, q[a]].swapaxes(-1, -2)

    # Each coordinate's anchor or point and dim; one gather per shape of request.
    col_at, col_dim, row_dim = np.searchsorted(anchors, col_key), flat_cols % d, flat_rows % d
    row_at = q[col_at] if square else np.searchsorted(points, row_key) - p_first[row_key // span]
    shapes: Dict[Tuple[int, int], List[int]] = {}
    for k, shape in enumerate(zip(n_rows.tolist(), n_cols.tolist())):
        shapes.setdefault(shape, []).append(k)
    out: List[np.ndarray] = [None] * n_req
    for (nr, nc), ks in shapes.items():
        ri = (np.cumsum(n_rows) - n_rows)[ks, None] + np.arange(nr)
        ci = (np.cumsum(n_cols) - n_cols)[ks, None] + np.arange(nc)
        got = col[col_at[ci][:, None, :], row_at[ri][:, :, None], row_dim[ri][:, :, None], col_dim[ci][:, None, :]]
        for k, block in zip(ks, got):
            out[k] = block
    return out


def _cov_blocks(
    seqs: Sequence[GaussianSequence], rows: Sequence[Optional[np.ndarray]], cols: Sequence[np.ndarray]
) -> List[np.ndarray]:
    """The covariance block of each sequence at the flat coordinates
    ``rows[k]`` (None: every coordinate) and ``cols[k]``, in the order
    given. A dense sequence indexes its ``cov``; the fitted ones are one
    ``_chain_blocks`` pass, whose requests on one chain with the same
    columns and every row share the rows of the longest."""
    out: List[Optional[np.ndarray]] = [None] * len(seqs)
    todo: Dict[tuple, Tuple[_Chain, Optional[np.ndarray], np.ndarray, List[Tuple[int, int]]]] = {}
    for k, (g, r, c) in enumerate(zip(seqs, rows, cols)):
        if not isinstance(g, _ChainSequence):
            out[k] = g.cov[:, c] if r is None else g._cov_block(r, c)
            continue
        if not c.size or r is not None and not r.size:
            out[k] = np.zeros((g.mean.size if r is None else r.size, c.size))
            continue
        cols_key = c.tobytes()
        key = (id(g._chain), None if r is None else cols_key if r is c else r.tobytes(), cols_key)
        entry = todo.setdefault(key, (g._chain, r, c, []))
        entry[3].append((k, g.mean.size))
    if todo:
        reqs = list(todo.values())
        full = [np.arange(max(n for _, n in ks)) if r is None else r for _, r, _, ks in reqs]
        blocks = _chain_blocks([ch for ch, _, _, _ in reqs], full, [c for _, _, c, _ in reqs])
        for (_, r, _, ks), block in zip(reqs, blocks):
            for k, n in ks:
                out[k] = block[:n] if r is None else block
    return out
