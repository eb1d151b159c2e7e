"""Linear-algebra kernels for gradient subspace projection.

Vectors are 1-D float64 arrays of length ``d``.  k gradients in R^d arrive
as a factored ``net.PerSampleGrads``; a dense ``(d, k)`` matrix enters as
``PerSampleGrads.columns``.  ``project_out_span`` is the one projection
kernel.  Everything here is plain numpy and free of hidden state, so results are
bit-reproducible for identical inputs.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "default_drop_tol",
    "kept_columns",
    "project_out_span",
]


# Gram-route floor on a squared residual, relative to the column's squared
# norm: an exact duplicate column reads about eps * norm^2 there, not 0.  On
# 6,450 planted matrices, duplicates read at most 12 * eps, from a scalar
# Schur row and from LAPACK's pivots alike: a margin above 5x.
_GRAM_FLOOR = 64.0 * np.finfo(np.float64).eps
# Columns per LAPACK block of _cholesky_keep; one block covers k = 64.
_BLOCK = 64


def default_drop_tol(dim: int) -> float:
    """Default rank tolerance for a span of vectors of length ``dim``."""
    return 1e-10 * math.sqrt(dim)


def _keep_block(s: np.ndarray, floor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(idx, t)``: the in-order drop rule on one symmetric block ``s``.

    ``idx`` lists the kept positions and ``t`` is the upper triangle with
    ``t^T t = s[idx][:, idx]``.  One LAPACK Cholesky settles a block without
    drops.  Otherwise the columns before the first pivot at or below its
    floor are exact and that column is dropped; a failed factorization,
    which names no column, is split in half.  Either way the rest is the
    Schur complement against the kept head, factored the same way, so each
    drop costs O(log b) small LAPACK calls.
    """
    b = floor.shape[0]
    if b == 0:
        return np.zeros(0, dtype=np.intp), np.zeros((0, 0))
    try:
        low = np.linalg.cholesky(s)
        bad = np.flatnonzero(np.diagonal(low) ** 2 <= floor)
        if bad.size == 0:
            return np.arange(b), low.T
        rest = int(bad[0]) + 1   # the columns before are exact, and LAPACK has their rows
        head, head_t, x = np.arange(rest - 1), low[:rest - 1, :rest - 1].T, low[rest:, :rest - 1].T
    except np.linalg.LinAlgError:
        if b == 1:
            return np.zeros(0, dtype=np.intp), np.zeros((0, 0))
        rest = b // 2
        head, head_t = _keep_block(s[:rest, :rest], floor[:rest])
        # the head's rows over the rest: a forward substitution with head_t^T, run
        # backwards as an upper-triangular solve, which LU factors without pivoting
        x = np.linalg.solve(head_t.T[::-1, ::-1], s[head[::-1], rest:])[::-1]
    tail, tail_t = _keep_block(s[rest:, rest:] - x.T @ x, floor[rest:])
    m = head.size
    t = np.zeros((m + tail.size, m + tail.size))
    t[:m, :m], t[:m, m:], t[m:, m:] = head_t, x[:, tail], tail_t
    return np.concatenate([head, rest + tail]), t


def _cholesky_keep(gram: np.ndarray, dim: int) -> np.ndarray:
    """In-order Cholesky of ``gram`` under the drop rule of ``project_out_span``.

    Returns the (k, r) inverse W of the kept triangle scattered into the kept
    rows; r is the number of columns kept.  A column whose squared norm is
    within its floor is dropped up front, since its residual cannot exceed
    it.  The rest is factored left-looking in blocks of ``_BLOCK`` columns:
    one gemm gives the block's rows of the triangle against the kept columns
    before it, the block's Schur complement goes to ``_keep_block``, and W
    grows by the inverse of the block's triangle.  Past ``dim`` kept
    columns the span is all of R^d, so later columns are not visited.
    """
    norm2, tol = np.diag(gram), default_drop_tol(dim)
    floor = np.maximum((tol * np.maximum(np.sqrt(norm2), 1.0)) ** 2, _GRAM_FLOOR * norm2)
    live = np.flatnonzero(norm2 > floor)
    g, floor, n = gram[np.ix_(live, live)], floor[live], live.size
    w = np.zeros((n, min(n, dim)))
    m = 0
    for b0 in range(0, n, _BLOCK):
        if m == w.shape[1]:
            break
        b1 = min(b0 + _BLOCK, n)
        x = w[:b0, :m].T @ g[:b0, b0:b1]   # the kept rows of the triangle over this block
        idx, t = _keep_block(g[b0:b1, b0:b1] - x.T @ x, floor[b0:b1])
        room = w.shape[1] - m
        idx, t = idx[:room], t[:room, :room]
        t_inv = np.linalg.inv(t)
        w[:b0, m:m + idx.size] = -(w[:b0, :m] @ x[:, idx]) @ t_inv
        w[b0 + idx, m:m + idx.size] = t_inv
        m += idx.size
    out = np.zeros((gram.shape[0], m))
    out[live] = w[:, :m]
    return out


def kept_columns(gram: np.ndarray, dim: int) -> np.ndarray:
    """Indices of the columns ``project_out_span`` keeps of a G with Gram ``gram`` in R^dim."""
    return np.flatnonzero(_cholesky_keep(gram, dim).any(axis=1))


def project_out_span(v: np.ndarray, grads) -> tuple[np.ndarray, int]:
    """``(v_perp, rank)``: ``v`` minus its projection onto the span of a factored G.

    A Cholesky over ``G^T G`` visits the columns left to right and drops a
    column whose residual against the kept columns before it has norm at most
    ``tol * max(norm(column), 1)``, with the fixed ``tol = default_drop_tol(d)``,
    or squared norm at most the Gram roundoff floor ``64 * eps *
    norm(column)^2``; so near-dependent columns are
    discarded deterministically (earlier columns win), and at most d are
    kept.  ``rank`` counts the columns kept, at most ``min(k, d)``, not the
    span's dimension: a roundoff residual just above the floor counts too
    (with k = 30 in d = 14 or 26 it read above ``np.linalg.matrix_rank`` of
    G in 5 of 12 cases, once by two).  With W the inverse of the kept triangle,
    ``v -= G W W^T G^T v`` runs twice ("twice is enough", in k-space).  G is
    never formed.

    Both sweeps read the same W, so each is only bounded to shrink the part
    of ``v`` left in the span by ``eps * cond(G)^2``, leaving it along the
    weakest singular directions.  On planted spans with singular values over
    six decades two sweeps left 2.0e-10 of ``|v|``, and more gain little: a
    route that reads G only through ``G^T x`` and ``G c`` cannot go below
    about ``eps / sigma_min(G)`` (a third left 1.4e-11, a fourth no less).
    Desk spans, though far past ``eps * cond(G)^2 ~ 1`` (cond(G) up to
    1.2e10), keep only roundoff: at most 6.1e-16 of ``|v|`` over 1,304
    projected steps.  The tests pin that, and max |cos| at roundoff, the
    ``G^T v_perp ~ 0`` the paper's first-order invariance needs.

    Parameters
    ----------
    v : (d,) vector to project.
    grads : ``net.PerSampleGrads`` spanning the subspace to remove.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ValueError(f"v must be a 1-D vector with at least one entry, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("v contains non-finite entries")
    if grads.dim != v.shape[0]:
        raise ValueError(f"dimension mismatch: v has length {v.shape[0]}, grads have dim {grads.dim}")
    gram = grads.gram()
    if not np.all(np.isfinite(gram)):
        raise ValueError("grads contain non-finite entries")
    w = _cholesky_keep(gram, grads.dim)
    out = v - grads.matvec(w @ (w.T @ grads.rmatvec(v)))   # rank 0: v - 0.0 is v, bit for bit
    out -= grads.matvec(w @ (w.T @ grads.rmatvec(out)))
    return out, w.shape[1]
