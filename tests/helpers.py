"""Shared probes used by the module and acceptance test suites."""

from __future__ import annotations

import numpy as np

from orthograd.net import Batch, ParamVector, mean_loss_and_grad


def gram_schmidt_basis(g: np.ndarray, tol: float) -> tuple[np.ndarray, list[int]]:
    """Reference oracle for ``linalg.project_out_span``: modified Gram-Schmidt.

    Visits the columns left to right with two orthogonalization sweeps per
    column ("twice is enough") and drops a column whose residual norm is at
    most ``tol * max(norm(column), 1)``, the kernel's tolerance rule.  It
    works on the columns, not on their Gram matrix, so it needs no roundoff
    floor and shares no code with the kernel.  Returns the (d, r)
    orthonormal basis and the indices of the kept columns.
    """
    accepted: list[np.ndarray] = []
    kept: list[int] = []
    for j in range(g.shape[1]):
        v = g[:, j].copy()
        orig_norm = float(np.linalg.norm(v))
        for _ in range(2):
            for q in accepted:
                v -= (q @ v) * q
        res_norm = float(np.linalg.norm(v))
        if res_norm <= tol * max(orig_norm, 1.0):
            continue
        accepted.append(v / res_norm)
        kept.append(j)
    q_mat = np.column_stack(accepted) if accepted else np.zeros((g.shape[0], 0))
    return q_mat, kept


def project_off(v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``v`` minus its projection onto the orthonormal columns of ``q``, subtracted twice."""
    out = v - q @ (q.T @ v)
    return out - q @ (q.T @ out)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of the angle between two vectors; 0.0 if either has zero norm."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)


def check_factors_against_dense(grads, dense: np.ndarray, mean_grad: np.ndarray,
                                seed: int) -> None:
    """Assert that a factored per-sample matrix acts as its dense form ``dense``.

    Gram, column norms, ``G^T x``, ``G c`` and the mean must each match the
    dense computation within 1e-12 of the largest entry of the dense result.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=dense.shape[0])
    c = rng.normal(size=dense.shape[1])
    pairs = {
        "gram": (grads.gram(), dense.T @ dense),
        "sq_norms": (grads.sq_norms(), np.einsum("ij,ij->j", dense, dense)),
        "rmatvec": (grads.rmatvec(x), dense.T @ x),
        "matvec": (grads.matvec(c), dense @ c),
        "mean": (grads.mean(), mean_grad),
    }
    for name, (got, want) in pairs.items():
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


def sample_loss(params: ParamVector, x: np.ndarray, y: int) -> float:
    """Cross-entropy of a single sample."""
    loss, _ = mean_loss_and_grad(params, Batch(x[None, :], np.array([y])))
    return loss


def loss_change_ratios(params: ParamVector, batch: Batch, direction: np.ndarray,
                       eps: float = 1e-3) -> np.ndarray:
    """Per-sample |loss(theta + eps v) - loss(theta)| / same at eps/2.

    A ratio near 4 means the loss change along ``direction`` is second order
    (the first-order term vanished); near 2 means first order dominates.
    """
    v = direction / np.linalg.norm(direction)
    ratios = np.empty(batch.size)
    for i in range(batch.size):
        x, y = batch.inputs[i], int(batch.labels[i])
        base = sample_loss(params, x, y)
        d_full = sample_loss(ParamVector(params.flat + eps * v, params.spec), x, y) - base
        d_half = sample_loss(ParamVector(params.flat + 0.5 * eps * v, params.spec), x, y) - base
        ratios[i] = abs(d_full) / abs(d_half)
    return ratios
