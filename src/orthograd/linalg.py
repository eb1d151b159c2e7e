"""Linear-algebra kernels for gradient subspace projection.

Vectors are 1-D float64 arrays of length ``d``.  k gradients are either a
dense ``(d, k)`` array, one per column, or a factored ``net.PerSampleGrads``
(the unlearning steps' route).  Everything here is plain numpy and free of
hidden state, so results are bit-reproducible for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OrthonormalBasis",
    "default_drop_tol",
    "qr_orthonormal_basis",
    "project_onto_complement",
    "project_out_span",
    "least_squares_residual",
    "cosine",
]


# Gram-route floor on a squared residual, relative to the column's squared
# norm: an exact duplicate column reads about eps * norm^2 there, not 0.
_GRAM_FLOOR = 64.0 * np.finfo(np.float64).eps
_BLOCK_SIZE = 1 << 14   # entries per row block of the in-place second pass


def default_drop_tol(dim: int) -> float:
    """Default rank tolerance for a basis over vectors of length ``dim``."""
    return 1e-10 * math.sqrt(dim)


@dataclass(frozen=True)
class OrthonormalBasis:
    """Orthonormal basis of the span of a set of column vectors.

    ``q`` has shape ``(d, r)`` with orthonormal columns; ``r`` may be zero
    when every input column was dropped as numerically dependent (or the
    input had no columns).  ``drop_tol`` records the tolerance used when the
    basis was built.
    """

    q: np.ndarray
    drop_tol: float

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    @property
    def rank(self) -> int:
        return self.q.shape[1]


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


def _cholesky_keep(gram: np.ndarray, tol: float) -> np.ndarray:
    """In-order Cholesky of ``gram`` under the drop rule of qr_orthonormal_basis.

    Returns the (k, r) inverse of the kept triangle scattered into the kept rows.
    """
    norm2 = np.diag(gram)
    floor = np.maximum((tol * np.maximum(np.sqrt(norm2), 1.0)) ** 2, _GRAM_FLOOR * norm2)
    r = np.zeros_like(gram)
    kept: list[int] = []
    for j in range(gram.shape[0]):
        s = gram[j, j:] - r[:j, j] @ r[:j, j:]   # Schur residual row of column j
        if s[0] > floor[j]:
            r[j, j:] = s / math.sqrt(s[0])
            kept.append(j)
    w = np.zeros((gram.shape[0], len(kept)))
    w[kept] = np.linalg.inv(r[np.ix_(kept, kept)])
    return w


def qr_orthonormal_basis(g: np.ndarray, tol: float | None = None) -> OrthonormalBasis:
    """Orthonormal basis for the column span of ``g``.

    CholeskyQR2 with an in-order rank drop.  A Cholesky over the Gram matrix
    ``g^T g`` visits the columns left to right and drops a column whose
    residual against the kept columns before it has norm at most
    ``tol * max(norm(column), 1)``, or squared norm at most the Gram roundoff
    floor ``64 * eps * norm(column)^2``; so near-dependent columns are
    discarded deterministically (earlier columns win).  ``q1 = g R^-1``
    spans the kept columns.  A second pass of the same rule over ``q1``,
    applied in place in row blocks, restores orthogonality to roundoff
    ("twice is enough") and drops what the first pass kept beyond ``d``.

    Parameters
    ----------
    g : (d, k) array, columns are the vectors to span.
    tol : positive rank tolerance; defaults to ``default_drop_tol(d)``.
    """
    g = _check_matrix(g, "g")
    d = g.shape[0]
    if tol is None:
        tol = default_drop_tol(d)
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")

    q = g @ _cholesky_keep(g.T @ g, tol)
    w = _cholesky_keep(q.T @ q, tol)
    rows = max(1, _BLOCK_SIZE // max(1, q.shape[1]))
    for start in range(0, d, rows):
        q[start:start + rows, :w.shape[1]] = q[start:start + rows] @ w
    return OrthonormalBasis(q=q[:, :w.shape[1]], drop_tol=float(tol))


def project_onto_complement(v: np.ndarray, basis: OrthonormalBasis) -> np.ndarray:
    """Component of ``v`` orthogonal to every basis vector.

    Returns ``v - sum_i <v, q_i> q_i``.  The subtraction is applied twice to
    keep the residual inner products at roundoff level even when ``v`` lies
    almost entirely inside the span.  A rank-0 basis returns ``v`` unchanged.
    """
    v = _check_vector(v, "v")
    if basis.dim != v.shape[0]:
        raise ValueError(f"dimension mismatch: v has length {v.shape[0]}, basis has dim {basis.dim}")
    if basis.rank == 0:
        return v.copy()
    q = basis.q
    out = v - q @ (q.T @ v)
    out -= q @ (q.T @ out)
    return out


def project_out_span(v: np.ndarray, grads, tol: float | None = None) -> tuple[np.ndarray, int]:
    """``(v_perp, rank)``: ``v`` minus its projection onto the span of a factored G.

    A Cholesky over ``G^T G`` keeps columns by the drop rule of ``qr_orthonormal_basis``
    (the rank can read above d on roundoff when k > d); with W its kept inverse,
    ``v -= G W W^T G^T v`` runs twice ("twice is enough", in k-space).  G is never formed.
    """
    v = _check_vector(v, "v")
    if grads.dim != v.shape[0]:
        raise ValueError(f"dimension mismatch: v has length {v.shape[0]}, grads have dim {grads.dim}")
    if tol is None:
        tol = default_drop_tol(grads.dim)
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    w = _cholesky_keep(grads.gram(), tol)
    out = v.copy()
    for _ in range(2):   # rank 0 subtracts exact zeros: v comes back bit for bit
        out -= grads.matvec(w @ (w.T @ grads.rmatvec(out)))
    return out, w.shape[1]


def least_squares_residual(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Residual of the least-squares fit of ``v`` by the columns of ``g``.

    Solves the normal equations ``(g^T g + 1e-12 I) c = g^T v`` and returns
    ``v - g c``.  This is an independent oracle for the QR projection path:
    for full-rank ``g`` the two agree up to roundoff, but no code is shared.
    """
    v = _check_vector(v, "v")
    g = _check_matrix(g, "g")
    if g.shape[0] != v.shape[0]:
        raise ValueError(f"dimension mismatch: v has length {v.shape[0]}, g has {g.shape[0]} rows")
    gram = g.T @ g + 1e-12 * np.eye(g.shape[1])
    coef = np.linalg.solve(gram, g.T @ v)
    return v - g @ coef


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of the angle between two vectors; 0.0 if either has zero norm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)
