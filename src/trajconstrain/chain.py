"""Fitted conditionals as RTS smoother chains.

A fitted track keeps each birth's smoother chain (``_Chain``) instead of
dense covariances; its (birth, death) conditionals are ``_ChainSequence``s
over the chain's leading steps, whose accessors read the chain.
``_cov_blocks`` gives the covariance blocks of many sequences, dense or
fitted, the fitted ones in one ``_chain_blocks`` pass.
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


def _run_scans(x: np.ndarray, run: np.ndarray, pos: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Inclusive products of the matrices ``x`` (n, d, d) within runs:
    x_i @ ... @ x_{end of its run} and x_{start of its run} @ ... @ x_i,
    x_i being at position ``pos[i]`` of run ``run[i]``. The runs are laid
    out side by side, padded with identities, once as they are and once
    reversed and transposed, and one Hillis-Steele scan takes the prefixes
    of both: a product to the end of a run is the transposed prefix of the
    reversed run."""
    d = x.shape[1]
    n_runs = int(run.max()) + 1
    back = np.bincount(run, minlength=n_runs)[run] - 1 - pos  # position in the reversed run
    pad = np.broadcast_to(np.eye(d), (2 * n_runs, int(pos.max()) + 1, d, d)).copy()
    pad[run, pos] = x
    pad[n_runs + run, back] = x.swapaxes(1, 2)
    off = 1
    while off < pad.shape[1]:
        pad[:, off:] = pad[:, :-off] @ pad[:, off:]
        off *= 2
    return pad[n_runs + run, back].swapaxes(1, 2), pad[run, pos]


def _chain_blocks(chains: Sequence[_Chain], rows: Sequence[np.ndarray], cols: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Cov(rows, cols) of each request (``chains[k]``, of one state dim, and
    the flat coordinates ``rows[k]`` and ``cols[k]``) from its chain, every
    request in one pass.

    The steps of a request's columns are its anchors a_0 < ... < a_{m-1},
    padded to the most any request has. With T_j = G_{a_j} ... G_{a_{j+1} -
    1} (``_gain_products``), Cov(a_j, a_i) = T_j Cov(a_{j+1}, a_i) for j < i,
    from Cov(a_i, a_i) = P_{a_i} one anchor further at a time, mirrored
    below the diagonal, so a block over the same rows and columns is exactly
    symmetric. A row step r between anchors a_j and a_{j+1} takes from scans
    of the gains within the runs between anchors (``_run_scans``) the
    product S_r to a_{j+1} and Pf_r from a_j: Cov(r, a_i) = S_r Cov(a_{j+1},
    a_i) for i > j, and Cov(a_i, r)' for i <= j, with Cov(a_j, r) = Pf_r
    P_r and Cov(a_i, r) = T_i Cov(a_{i+1}, r) one anchor further at a time.
    Requests whose rows are their columns (``rows[k] is cols[k]`` for
    every k) skip the rows."""
    d = chains[0].steps.shape[1]
    n_req = len(chains)
    # Every chain's steps and gains in one array, by distinct chain.
    distinct = {id(c): c for c in chains}
    order = {key: i for i, key in enumerate(distinct)}
    which = np.array([order[id(c)] for c in chains])
    sizes = np.array([c.steps.shape[0] for c in distinct.values()])
    step_at = np.cumsum(sizes) - sizes
    steps = np.concatenate([c.steps for c in distinct.values()])
    gains = np.concatenate([c.gains for c in distinct.values()])

    # Steps as sorted keys request * span + step.
    span = int(sizes.max())
    square = all(r is c for r, c in zip(rows, cols))
    n_cols = np.array([c.size for c in cols])
    flat_cols = np.concatenate(cols)
    col_key = np.repeat(np.arange(n_req) * span, n_cols) + flat_cols // d
    anchors = _distinct(col_key)
    a_req = anchors // span
    m = np.bincount(a_req, minlength=n_req)
    a_first = np.cumsum(m) - m
    a_idx = np.arange(anchors.size) - a_first[a_req]
    width = int(m.max())
    # Each step's place in ``steps``; its gain's in ``gains`` is less by its chain's index.
    at = step_at[which[a_req]] + anchors % span

    # T_j, the gains from each anchor to the next of its request, and the anchor blocks.
    nxt = np.flatnonzero(a_req[:-1] == a_req[1:])
    t = np.zeros((n_req, width, d, d))
    flat_rows, row_key, free = flat_cols, col_key, anchors[:0]
    if not square:
        flat_rows = np.concatenate(rows)
        row_key = np.repeat(np.arange(n_req) * span, [r.size for r in rows]) + flat_rows // d
        row_steps = _distinct(row_key)
        free = row_steps[anchors[np.minimum(np.searchsorted(anchors, row_steps), anchors.size - 1)] != row_steps]
    if free.size:
        # Points: the free rows and the anchors. U: the gains from each point
        # to the next of its request; a run starts at each anchor and at
        # each request's first point, and ends before the next anchor.
        points = _distinct(np.concatenate((free, anchors)))
        p_req = points // span
        p_at = step_at[which[p_req]] + points % span
        u = np.broadcast_to(np.eye(d), (points.size, d, d)).copy()
        inner = np.flatnonzero(p_req[:-1] == p_req[1:])
        lo = p_at[inner] - which[p_req[inner]]
        u[inner] = _gain_products(gains, lo, lo + points[inner + 1] - points[inner])
        a_point = np.searchsorted(points, anchors)
        starts = np.concatenate(([True], p_req[1:] != p_req[:-1]))
        starts[a_point] = True
        run = np.cumsum(starts) - 1
        s_to, s_from = _run_scans(u, run, np.arange(points.size) - np.flatnonzero(starts)[run])
        t[a_req[nxt], a_idx[nxt]] = s_to[a_point[nxt]]
    else:
        lo = at[nxt] - which[a_req[nxt]]
        t[a_req[nxt], a_idx[nxt]] = _gain_products(gains, lo, lo + anchors[nxt + 1] - anchors[nxt])
    cov = np.zeros((n_req, width, width, d, d))
    cov[a_req, a_idx, a_idx] = steps[at]
    for gap in range(1, width):
        j = np.arange(width - gap)
        cov[:, j, j + gap] = t[:, j] @ cov[:, j + 1, j + gap]
        cov[:, j + gap, j] = cov[:, j, j + gap].swapaxes(-1, -2)
    blocks = cov.reshape(n_req * width, width, d, d)

    if free.size:
        # The free rows' blocks, after the anchors'.
        f = np.searchsorted(points, free)
        owner = p_req[f]
        prev = np.searchsorted(anchors, free) - a_first[owner] - 1  # the anchor before, -1 if none
        ahead = s_to[f, None] @ cov[owner, np.minimum(prev + 1, width - 1)]
        # Cov(a_i, r) for i <= prev: Pf_r, the run's inclusive prefix at the
        # point before (which holds a_prev), times P_r, then T_i times the next.
        behind = np.zeros((free.size, width, d, d))
        back = np.flatnonzero(prev >= 0)
        behind[back, prev[back]] = s_from[f[back] - 1] @ steps[p_at[f[back]]]
        for gap in range(1, width):
            sel = back[prev[back] >= gap]
            i = prev[sel] - gap
            behind[sel, i] = t[owner[sel], i] @ behind[sel, i + 1]
        later = np.arange(width) > prev[:, None]
        blocks = np.concatenate((blocks, np.where(later[..., None, None], ahead, behind.swapaxes(-1, -2))))

    # Each coordinate's row of ``blocks`` (an anchor's, or a free row's after
    # them), anchor and dim within; one gather per shape of request.
    hit = np.searchsorted(anchors, col_key)
    col_at, col_dim = a_idx[hit], flat_cols % d
    row_at, row_dim = a_req[hit] * width + col_at, col_dim
    if not square:
        hit = np.minimum(np.searchsorted(anchors, row_key), anchors.size - 1)
        row_at, row_dim = a_req[hit] * width + a_idx[hit], flat_rows % d
        if free.size:
            row_at = np.where(anchors[hit] == row_key, row_at, n_req * width + np.searchsorted(free, row_key))
    n_rows = n_cols if square else np.array([r.size for r in rows])
    shapes: Dict[Tuple[int, int], List[int]] = {}
    for k, shape in enumerate(zip(n_rows.tolist(), n_cols.tolist())):
        shapes.setdefault(shape, []).append(k)
    out: List[np.ndarray] = [None] * n_req
    for (nr, nc), ks in shapes.items():
        ri = (np.cumsum(n_rows) - n_rows)[ks, None] + np.arange(nr)
        ci = (np.cumsum(n_cols) - n_cols)[ks, None] + np.arange(nc)
        got = blocks[row_at[ri][:, :, None], col_at[ci][:, None, :], row_dim[ri][:, :, None], col_dim[ci][:, None, :]]
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
