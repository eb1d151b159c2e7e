"""The projection kernel against hand-solved and independent oracles."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import (
    cholesky_keep_reference, cosine, gram_schmidt_basis, least_squares_residual, project_off,
)
from orthograd.linalg import _cholesky_keep, default_drop_tol, project_out_span
from orthograd.net import PerSampleGrads

# Hand-solved oracle, frozen: fit v=(1,1,1) by columns (1,0,0) and (1,1,0).
# Normal equations G^T G c = G^T v:  [[1,1],[1,2]] c = [1,2]  ->  c = (0, 1),
# residual v - G c = (0, 0, 1).
HAND_G = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
HAND_V = np.array([1.0, 1.0, 1.0])
HAND_RESIDUAL = np.array([0.0, 0.0, 1.0])


def project(v, g):
    """``project_out_span`` against the columns of a dense (d, k) matrix."""
    return project_out_span(v, PerSampleGrads.columns(g))


def test_least_squares_residual_hand_case():
    res = least_squares_residual(HAND_V, HAND_G)
    assert np.allclose(res, HAND_RESIDUAL, atol=1e-9)


def test_projection_hand_case():
    perp, rank = project(HAND_V, HAND_G)
    assert rank == 2
    assert np.allclose(perp, HAND_RESIDUAL, atol=1e-12)


def test_identity_columns_give_identity_basis():
    # orthonormal columns make the kept inverse the identity, so exactly
    # their coordinates are removed
    v = np.array([1.0, -2.0, 3.0])
    perp, rank = project(v, np.eye(3))
    assert rank == 3
    assert np.array_equal(perp, np.zeros(3))
    perp, rank = project(v, np.eye(3)[:, :2])
    assert rank == 2
    assert np.array_equal(perp, [0.0, 0.0, 3.0])


def test_duplicate_column_dropped():
    g = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    perp, rank = project(np.array([2.0, -1.0, 0.5]), g)
    assert rank == 1
    assert np.allclose(perp, [0.0, -1.0, 0.5], atol=1e-12)


def test_near_duplicate_column_dropped_below_tol():
    rng = np.random.default_rng(5)
    col = rng.normal(size=50)
    g = np.column_stack([col, col * (1.0 + 1e-14)])
    _, rank = project(rng.normal(size=50), g)
    assert rank == 1


def test_zero_matrix_gives_rank_zero_and_projection_passthrough():
    v = np.array([1.0, -2.0, 3.0, 0.5])
    out, rank = project(v, np.zeros((4, 3)))
    assert rank == 0
    assert np.array_equal(out, v)
    assert out is not v  # value passthrough, not aliasing


def test_default_tolerance_scales_with_dimension():
    assert default_drop_tol(100) == pytest.approx(1e-10 * 10.0)


def test_projection_matches_least_squares_oracle_randomized():
    # the kernel and the normal-equations oracle both start from G^T G and
    # share its squared condition number; modified Gram-Schmidt on the
    # columns themselves is the independent route, held to roundoff
    rng = np.random.default_rng(42)
    worst = 0.0
    worst_gs = 0.0
    for _ in range(300):
        d = int(rng.integers(5, 120))
        k = int(rng.integers(1, min(d, 24) + 1))
        g = rng.normal(size=(d, k))
        v = rng.normal(size=d)
        a, _ = project(v, g)
        b = least_squares_residual(v, g)
        q_gs, _ = gram_schmidt_basis(g, default_drop_tol(d))
        c = project_off(v, q_gs)
        denom = max(1.0, float(np.linalg.norm(v)))
        worst = max(worst, float(np.linalg.norm(a - b)) / denom)
        worst_gs = max(worst_gs, float(np.linalg.norm(a - c)) / denom)
    assert worst <= 1e-7
    assert worst_gs <= 1e-12


def test_basis_orthonormality_randomized():
    # an orthonormal span basis, read through the projection: the operator
    # the kernel applies, built column by column from the unit vectors, is
    # the orthogonal projector I - Q Q^T of the Gram-Schmidt oracle
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(10, 200))
        k = int(rng.integers(1, 16))
        g = rng.normal(size=(d, k))
        grads = PerSampleGrads.columns(g)
        columns = [project_out_span(e, grads) for e in np.eye(d)]
        p = np.column_stack([perp for perp, _ in columns])
        q_ref, _ = gram_schmidt_basis(g, default_drop_tol(d))
        assert all(rank == k for _, rank in columns)
        assert np.abs(p - (np.eye(d) - q_ref @ q_ref.T)).max() <= 1e-10
        assert np.abs(p @ p - p).max() <= 1e-10


def test_projection_in_span_vanishes():
    rng = np.random.default_rng(11)
    g = rng.normal(size=(40, 6))
    coef = rng.normal(size=6)
    v = g @ coef
    out, _ = project(v, g)
    assert np.linalg.norm(out) <= 1e-10 * np.linalg.norm(v)


def test_projection_idempotent_and_linear():
    rng = np.random.default_rng(13)
    grads = PerSampleGrads.columns(rng.normal(size=(60, 8)))
    proj = lambda x: project_out_span(x, grads)[0]
    v = rng.normal(size=60)
    w = rng.normal(size=60)
    pv = proj(v)
    scale = np.linalg.norm(v)
    assert np.linalg.norm(proj(pv) - pv) <= 1e-10 * scale
    left = proj(2.0 * v - 3.0 * w)
    right = 2.0 * pv - 3.0 * proj(w)
    assert np.linalg.norm(left - right) <= 1e-10 * np.linalg.norm(left + 1e-30)


def test_column_scaling_leaves_projection_unchanged():
    rng = np.random.default_rng(17)
    g = rng.normal(size=(50, 5))
    v = rng.normal(size=50)
    base, _ = project(v, g)
    for c in (0.5, 2.0, 10.0, 1e3):
        scaled, _ = project(v, c * g)
        assert np.linalg.norm(scaled - base) <= 1e-10 * max(1.0, np.linalg.norm(v))


def test_residual_orthogonal_to_retained_columns():
    rng = np.random.default_rng(19)
    g = rng.normal(size=(80, 10))
    v = rng.normal(size=80)
    out, _ = project(v, g)
    for i in range(g.shape[1]):
        assert abs(cosine(out, g[:, i])) <= 1e-8


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        project(np.ones(2), np.array([[np.nan, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        PerSampleGrads.columns(np.zeros(3))  # not a matrix
    eye = PerSampleGrads.columns(np.eye(3))
    with pytest.raises(ValueError):
        project_out_span(np.ones(4), eye)
    with pytest.raises(ValueError):
        project_out_span(np.array([1.0, np.inf, 0.0]), eye)
    with pytest.raises(ValueError):
        least_squares_residual(np.ones(4), np.eye(3))


# ---------------------------------------------------------------------------
# the kernel's drop rule against the Gram-Schmidt oracle


def kept_columns(g):
    """Indices the kernel keeps: the drop rule is in order, so column j is kept
    exactly when it raises the rank of the prefix g[:, :j+1]."""
    d = g.shape[0]
    ranks = [0] + [project(np.zeros(d), g[:, :j + 1])[1] for j in range(g.shape[1])]
    return [j for j in range(g.shape[1]) if ranks[j + 1] > ranks[j]]


def planted_matrix(rng, d, k):
    """Gaussian columns of mixed scale with planted degenerate columns."""
    g = rng.normal(size=(d, k)) * rng.choice([1e-3, 1.0, 1e3], size=k)
    for j in range(1, k):
        u = rng.random()
        if u < 0.1:
            g[:, j] = 0.0                                       # zero column
        elif u < 0.2:
            g[:, j] = g[:, rng.integers(0, j)]                  # exact duplicate
        elif u < 0.3:
            g[:, j] = g[:, rng.integers(0, j)] * (1.0 + 1e-14)  # near-duplicate
        elif u < 0.4:
            v = rng.normal(size=d)
            g[:, j] = 1e-8 * v / np.linalg.norm(v)              # independent, norm 1e-8
    return g


def test_kernel_keeps_oracle_columns_on_planted_matrices():
    rng = np.random.default_rng(23)
    v_rng = np.random.default_rng(24)
    matrices_with_drops = 0
    for _ in range(150):
        d = int(rng.integers(20, 200))
        k = int(rng.integers(2, 20))
        g = planted_matrix(rng, d, k)
        tol = default_drop_tol(d)
        q_ref, kept_ref = gram_schmidt_basis(g, tol)
        v = v_rng.normal(size=d)
        perp, rank = project(v, g)
        assert kept_columns(g) == kept_ref
        assert rank == len(kept_ref)
        # orthogonal to the oracle's kept columns, and the same span
        assert np.abs(q_ref.T @ perp).max(initial=0.0) <= 1e-12 * np.linalg.norm(v)
        assert np.linalg.norm(perp - project_off(v, q_ref)) <= 1e-8 * np.linalg.norm(v)
        matrices_with_drops += len(kept_ref) < k
    assert matrices_with_drops > 50


def test_kernel_keeps_the_reference_loop_columns():
    # the blocked LAPACK kernel against the column-by-column loop it replaced,
    # on planted matrices within one block and across several (k > 64, some k > d):
    # the same kept columns, so the same rank, and the same span
    rng = np.random.default_rng(43)
    multi_block = 0
    for i in range(190):
        d = int(rng.integers(20, 200))
        k = int(rng.integers(2, 20)) if i < 150 else int(rng.integers(65, 300))
        g = planted_matrix(rng, d, k)
        gram = PerSampleGrads.columns(g).gram()
        tol = default_drop_tol(d)
        w_ref, kept_ref = cholesky_keep_reference(gram, tol, d)
        w = _cholesky_keep(gram, d)
        assert np.flatnonzero(w.any(axis=1)).tolist() == kept_ref
        assert w.shape == w_ref.shape
        q, q_ref = g @ w, g @ w_ref
        assert np.abs(q @ q.T - q_ref @ q_ref.T).max() <= 1e-8
        multi_block += len(kept_ref) > 64
    assert multi_block >= 20


def test_kernel_orthonormal_to_roundoff_on_ill_conditioned_columns():
    # every column is kept, and the residual is orthogonal to each of them;
    # what remains inside the span lies along the weakest singular
    # directions, where two k-space sweeps leave about (eps * cond^2)^2 of it
    rng = np.random.default_rng(29)
    x_rng = np.random.default_rng(30)
    for _ in range(50):
        d = int(rng.integers(50, 400))
        k = int(rng.integers(2, 40))
        # singular values spread over six decades
        u, _ = np.linalg.qr(rng.normal(size=(d, k)))
        v, _ = np.linalg.qr(rng.normal(size=(k, k)))
        g = (u * np.logspace(0, -6, k)) @ v.T
        x = x_rng.normal(size=d)
        perp, rank = project(x, g)
        assert rank == k
        assert max(abs(cosine(perp, g[:, j])) for j in range(k)) <= 1e-12
        assert np.linalg.norm(perp - project_off(x, u)) <= 1e-8 * np.linalg.norm(x)


def test_more_columns_than_dimensions_saturates_the_space():
    # the whole space is spanned: every unit vector projects to zero
    rng = np.random.default_rng(31)
    for _ in range(100):
        d = int(rng.integers(1, 30))
        k = d + int(rng.integers(1, 30))
        grads = PerSampleGrads.columns(rng.normal(size=(d, k)))
        for e in np.eye(d):
            perp, rank = project_out_span(e, grads)
            assert rank == d
            assert np.linalg.norm(perp) <= 1e-12


def test_fortran_ordered_input_gives_the_same_basis():
    rng = np.random.default_rng(37)
    g = planted_matrix(rng, 120, 16)
    v = rng.normal(size=120)
    perp_c, rank_c = project(v, np.ascontiguousarray(g))
    perp_f, rank_f = project(v, np.asfortranarray(g))
    assert rank_f == rank_c
    assert np.abs(perp_f - perp_c).max() <= 1e-12 * np.linalg.norm(v)


def test_columns_below_tolerance_give_rank_zero():
    # the absolute rule: a column whose norm is at most tol is dropped, one
    # just above it is kept
    tol = default_drop_tol(5)
    v = np.arange(5.0)
    perp, rank = project(v, np.full((5, 3), 1e-12))
    assert rank == 0
    assert np.array_equal(perp, v)
    col = np.zeros((5, 1))
    col[0] = 0.5 * tol
    assert project(v, col)[1] == 0
    col[0] = 2.0 * tol
    assert project(v, col)[1] == 1


# ---------------------------------------------------------------------------
# the projection against the Gram-Schmidt oracle


def test_project_out_span_matches_gram_schmidt_on_planted_matrices():
    rng = np.random.default_rng(41)
    for _ in range(150):
        d = int(rng.integers(20, 200))
        k = int(rng.integers(2, 20))
        g = planted_matrix(rng, d, k)
        v = rng.normal(size=d)
        perp, rank = project(v, g)
        q_ref, kept = gram_schmidt_basis(g, default_drop_tol(d))
        ref = project_off(v, q_ref)
        assert rank == len(kept)
        assert np.linalg.norm(perp - ref) <= 1e-12 * np.linalg.norm(v)
        assert np.abs(q_ref.T @ perp).max(initial=0.0) <= 1e-12 * np.linalg.norm(perp)


def test_project_out_span_with_more_columns_than_dimensions():
    # at most d columns are kept: once the span is all of R^d the kernel
    # stops, so later columns cannot add a roundoff rank
    rng = np.random.default_rng(31)
    for _ in range(100):
        d = int(rng.integers(1, 30))
        k = d + int(rng.integers(1, 30))
        v = rng.normal(size=d)
        perp, rank = project(v, rng.normal(size=(d, k)))
        assert rank == d
        assert np.linalg.norm(perp) <= 1e-12 * np.linalg.norm(v)


def test_project_out_span_rank_zero_passthrough_and_validation():
    v = np.arange(5.0)
    perp, rank = project(v, np.full((5, 3), 1e-12))
    assert rank == 0
    assert np.array_equal(perp, v)
    assert perp is not v
    eye = PerSampleGrads.columns(np.eye(3))
    with pytest.raises(ValueError):
        project_out_span(np.ones(4), eye)
    with pytest.raises(ValueError):
        project_out_span(np.array([1.0, np.nan, 0.0]), eye)
    for v in (np.ones((3, 1)), np.zeros(0)):
        with pytest.raises(ValueError) as err:
            project_out_span(v, eye)
        assert str(err.value) == f"v must be a 1-D vector with at least one entry, got shape {v.shape}"
