"""Linear-algebra kernels for gradient subspace projection.

Vectors are 1-D float64 arrays of length ``d``.  k gradients in R^d arrive
as a factored ``net.PerSampleGrads``; a dense ``(d, k)`` matrix enters as
``PerSampleGrads.columns``.  ``project_out_span`` is the one projection
kernel; ``least_squares_residual`` is its independent test oracle.
Everything here is plain numpy and free of hidden state, so results are
bit-reproducible for identical inputs.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "default_drop_tol",
    "project_out_span",
    "least_squares_residual",
]


# Gram-route floor on a squared residual, relative to the column's squared
# norm: an exact duplicate column reads about eps * norm^2 there, not 0.
_GRAM_FLOOR = 64.0 * np.finfo(np.float64).eps


def default_drop_tol(dim: int) -> float:
    """Default rank tolerance for a span of vectors of length ``dim``."""
    return 1e-10 * math.sqrt(dim)


def _check_vector(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ValueError(f"{name} must be a 1-D vector with at least one entry, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _check_matrix(g, name: str) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] < 1 or g.shape[1] < 1:
        raise ValueError(f"{name} must be a (d, k) matrix with d, k >= 1, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError(f"{name} contains non-finite entries")
    return g


def _cholesky_keep(gram: np.ndarray, tol: float, dim: int) -> np.ndarray:
    """In-order Cholesky of ``gram`` under the drop rule of ``project_out_span``.

    Returns the (k, r) inverse of the kept triangle scattered into the kept rows.
    """
    norm2 = np.diag(gram)
    floor = np.maximum((tol * np.maximum(np.sqrt(norm2), 1.0)) ** 2, _GRAM_FLOOR * norm2)
    r = np.zeros_like(gram)
    kept: list[int] = []
    for j in range(gram.shape[0]):
        if len(kept) == dim:   # the span is all of R^d; later columns add only roundoff
            break
        s = gram[j, j:] - r[:j, j] @ r[:j, j:]   # Schur residual row of column j
        if s[0] > floor[j]:
            r[j, j:] = s / math.sqrt(s[0])
            kept.append(j)
    w = np.zeros((gram.shape[0], len(kept)))
    w[kept] = np.linalg.inv(r[np.ix_(kept, kept)])
    return w


def project_out_span(v: np.ndarray, grads, tol: float | None = None) -> tuple[np.ndarray, int]:
    """``(v_perp, rank)``: ``v`` minus its projection onto the span of a factored G.

    A Cholesky over ``G^T G`` visits the columns left to right and drops a
    column whose residual against the kept columns before it has norm at most
    ``tol * max(norm(column), 1)``, or squared norm at most the Gram roundoff
    floor ``64 * eps * norm(column)^2``; so near-dependent columns are
    discarded deterministically (earlier columns win), and at most d are
    kept.  With W the inverse of the kept triangle, ``v -= G W W^T G^T v``
    runs twice ("twice is enough", in k-space).  G is never formed.

    Parameters
    ----------
    v : (d,) vector to project.
    grads : ``net.PerSampleGrads`` spanning the subspace to remove.
    tol : positive rank tolerance; defaults to ``default_drop_tol(d)``.
    """
    v = _check_vector(v, "v")
    if grads.dim != v.shape[0]:
        raise ValueError(f"dimension mismatch: v has length {v.shape[0]}, grads have dim {grads.dim}")
    if tol is None:
        tol = default_drop_tol(grads.dim)
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    gram = grads.gram()
    if not np.all(np.isfinite(gram)):
        raise ValueError("grads contain non-finite entries")
    w = _cholesky_keep(gram, tol, grads.dim)
    out = v.copy()
    for _ in range(2):   # rank 0 subtracts exact zeros: v comes back bit for bit
        out -= grads.matvec(w @ (w.T @ grads.rmatvec(out)))
    return out, w.shape[1]


def least_squares_residual(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Residual of the least-squares fit of ``v`` by the columns of ``g``.

    Solves the normal equations ``(g^T g + 1e-12 I) c = g^T v`` and returns
    ``v - g c``.  This is an oracle for ``project_out_span`` that shares no
    code with it: for full-rank ``g`` the two agree up to roundoff.
    """
    v = _check_vector(v, "v")
    g = _check_matrix(g, "g")
    if g.shape[0] != v.shape[0]:
        raise ValueError(f"dimension mismatch: v has length {v.shape[0]}, g has {g.shape[0]} rows")
    gram = g.T @ g + 1e-12 * np.eye(g.shape[1])
    coef = np.linalg.solve(gram, g.T @ v)
    return v - g @ coef
