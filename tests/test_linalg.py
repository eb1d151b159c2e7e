"""Projection kernels against hand-solved and independent oracles."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import gram_schmidt_basis
from orthograd.linalg import (
    OrthonormalBasis, cosine, default_drop_tol, least_squares_residual,
    project_onto_complement, project_out_span, qr_orthonormal_basis,
)
from orthograd.net import PerSampleGrads

# Hand-solved oracle, frozen: fit v=(1,1,1) by columns (1,0,0) and (1,1,0).
# Normal equations G^T G c = G^T v:  [[1,1],[1,2]] c = [1,2]  ->  c = (0, 1),
# residual v - G c = (0, 0, 1).
HAND_G = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
HAND_V = np.array([1.0, 1.0, 1.0])
HAND_RESIDUAL = np.array([0.0, 0.0, 1.0])


def test_least_squares_residual_hand_case():
    res = least_squares_residual(HAND_V, HAND_G)
    assert np.allclose(res, HAND_RESIDUAL, atol=1e-9)


def test_projection_hand_case():
    basis = qr_orthonormal_basis(HAND_G)
    assert basis.rank == 2
    res = project_onto_complement(HAND_V, basis)
    assert np.allclose(res, HAND_RESIDUAL, atol=1e-12)


def test_identity_columns_give_identity_basis():
    basis = qr_orthonormal_basis(np.eye(3), tol=1e-10)
    assert basis.rank == 3
    assert np.array_equal(basis.q, np.eye(3))


def test_duplicate_column_dropped():
    g = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    basis = qr_orthonormal_basis(g)
    assert basis.rank == 1
    assert np.allclose(basis.q[:, 0], [1.0, 0.0, 0.0])


def test_near_duplicate_column_dropped_below_tol():
    rng = np.random.default_rng(5)
    col = rng.normal(size=50)
    g = np.column_stack([col, col * (1.0 + 1e-14)])
    basis = qr_orthonormal_basis(g)
    assert basis.rank == 1


def test_zero_matrix_gives_rank_zero_and_projection_passthrough():
    basis = qr_orthonormal_basis(np.zeros((4, 3)))
    assert basis.rank == 0
    v = np.array([1.0, -2.0, 3.0, 0.5])
    out = project_onto_complement(v, basis)
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
        a = project_onto_complement(v, qr_orthonormal_basis(g))
        b = least_squares_residual(v, g)
        q_gs, _ = gram_schmidt_basis(g, default_drop_tol(d))
        c = project_onto_complement(v, OrthonormalBasis(q=q_gs, drop_tol=default_drop_tol(d)))
        denom = max(1.0, float(np.linalg.norm(v)))
        worst = max(worst, float(np.linalg.norm(a - b)) / denom)
        worst_gs = max(worst_gs, float(np.linalg.norm(a - c)) / denom)
    assert worst <= 1e-7
    assert worst_gs <= 1e-12


def test_basis_orthonormality_randomized():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(10, 200))
        k = int(rng.integers(1, 16))
        basis = qr_orthonormal_basis(rng.normal(size=(d, k)))
        gram = basis.q.T @ basis.q
        assert np.abs(gram - np.eye(basis.rank)).max() <= 1e-10


def test_projection_in_span_vanishes():
    rng = np.random.default_rng(11)
    g = rng.normal(size=(40, 6))
    coef = rng.normal(size=6)
    v = g @ coef
    basis = qr_orthonormal_basis(g)
    out = project_onto_complement(v, basis)
    assert np.linalg.norm(out) <= 1e-10 * np.linalg.norm(v)


def test_projection_idempotent_and_linear():
    rng = np.random.default_rng(13)
    g = rng.normal(size=(60, 8))
    basis = qr_orthonormal_basis(g)
    v = rng.normal(size=60)
    w = rng.normal(size=60)
    pv = project_onto_complement(v, basis)
    scale = np.linalg.norm(v)
    assert np.linalg.norm(project_onto_complement(pv, basis) - pv) <= 1e-10 * scale
    left = project_onto_complement(2.0 * v - 3.0 * w, basis)
    right = 2.0 * pv - 3.0 * project_onto_complement(w, basis)
    assert np.linalg.norm(left - right) <= 1e-10 * np.linalg.norm(left + 1e-30)


def test_column_scaling_leaves_projection_unchanged():
    rng = np.random.default_rng(17)
    g = rng.normal(size=(50, 5))
    v = rng.normal(size=50)
    base = project_onto_complement(v, qr_orthonormal_basis(g))
    for c in (0.5, 2.0, 10.0, 1e3):
        scaled = project_onto_complement(v, qr_orthonormal_basis(c * g))
        assert np.linalg.norm(scaled - base) <= 1e-10 * max(1.0, np.linalg.norm(v))


def test_residual_orthogonal_to_retained_columns():
    rng = np.random.default_rng(19)
    g = rng.normal(size=(80, 10))
    v = rng.normal(size=80)
    basis = qr_orthonormal_basis(g)
    out = project_onto_complement(v, basis)
    for i in range(g.shape[1]):
        assert abs(cosine(out, g[:, i])) <= 1e-8


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        qr_orthonormal_basis(np.array([[np.nan, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        qr_orthonormal_basis(np.zeros((3, 2)), tol=0.0)
    with pytest.raises(ValueError):
        qr_orthonormal_basis(np.zeros(3))  # not a matrix
    basis = qr_orthonormal_basis(np.eye(3))
    with pytest.raises(ValueError):
        project_onto_complement(np.ones(4), basis)
    with pytest.raises(ValueError):
        project_onto_complement(np.array([1.0, np.inf, 0.0]), basis)
    with pytest.raises(ValueError):
        least_squares_residual(np.ones(4), np.eye(3))


def test_cosine_zero_norm_convention():
    assert cosine(np.zeros(3), np.ones(3)) == 0.0
    assert cosine(np.ones(2), np.ones(2)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# the CholeskyQR2 kernel against the Gram-Schmidt oracle


def kept_columns(g, tol):
    """Indices the kernel keeps: the drop rule is in order, so column j is kept
    exactly when it raises the rank of the prefix g[:, :j+1]."""
    ranks = [0] + [qr_orthonormal_basis(g[:, :j + 1], tol=tol).rank for j in range(g.shape[1])]
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
    matrices_with_drops = 0
    for _ in range(150):
        d = int(rng.integers(20, 200))
        k = int(rng.integers(2, 20))
        g = planted_matrix(rng, d, k)
        tol = default_drop_tol(d)
        q_ref, kept_ref = gram_schmidt_basis(g, tol)
        basis = qr_orthonormal_basis(g)
        assert kept_columns(g, tol) == kept_ref
        assert basis.rank == len(kept_ref)
        assert np.abs(basis.q.T @ basis.q - np.eye(basis.rank)).max() <= 1e-12
        assert np.abs(basis.q - q_ref).max() <= 1e-8   # same kept columns, same order
        matrices_with_drops += len(kept_ref) < k
    assert matrices_with_drops > 50


def test_kernel_orthonormal_to_roundoff_on_ill_conditioned_columns():
    rng = np.random.default_rng(29)
    for _ in range(50):
        d = int(rng.integers(50, 400))
        k = int(rng.integers(2, 40))
        # singular values spread over six decades
        u, _ = np.linalg.qr(rng.normal(size=(d, k)))
        v, _ = np.linalg.qr(rng.normal(size=(k, k)))
        g = (u * np.logspace(0, -6, k)) @ v.T
        basis = qr_orthonormal_basis(g)
        assert basis.rank == k
        assert np.abs(basis.q.T @ basis.q - np.eye(k)).max() <= 1e-12
        assert np.abs(basis.q.T @ g - np.triu(basis.q.T @ g)).max() <= 1e-9


def test_more_columns_than_dimensions_saturates_the_space():
    rng = np.random.default_rng(31)
    for _ in range(100):
        d = int(rng.integers(1, 30))
        k = d + int(rng.integers(1, 30))
        g = rng.normal(size=(d, k))
        basis = qr_orthonormal_basis(g)
        assert basis.rank == d
        assert np.abs(basis.q.T @ basis.q - np.eye(d)).max() <= 1e-12
        v = rng.normal(size=d)
        assert np.linalg.norm(project_onto_complement(v, basis)) <= 1e-12 * np.linalg.norm(v)


def test_fortran_ordered_input_gives_the_same_basis():
    rng = np.random.default_rng(37)
    g = planted_matrix(rng, 120, 16)
    basis_c = qr_orthonormal_basis(np.ascontiguousarray(g))
    basis_f = qr_orthonormal_basis(np.asfortranarray(g))
    assert basis_f.rank == basis_c.rank
    assert np.abs(basis_f.q - basis_c.q).max() <= 1e-12


def test_columns_below_tolerance_give_rank_zero():
    g = np.full((5, 3), 1e-12)
    basis = qr_orthonormal_basis(g)
    assert basis.rank == 0
    assert basis.q.shape == (5, 0)
    v = np.arange(5.0)
    assert np.array_equal(project_onto_complement(v, basis), v)


# ---------------------------------------------------------------------------
# the factored projection against the dense routes


def as_factored(g):
    """A dense (d, k) matrix as one factored block: column i is 1 (x) g[:, i]."""
    return PerSampleGrads(g.shape[0], [(0, np.ones((g.shape[1], 1)), g.T.copy())])


def test_project_out_span_matches_gram_schmidt_on_planted_matrices():
    rng = np.random.default_rng(41)
    for _ in range(150):
        d = int(rng.integers(20, 200))
        k = int(rng.integers(2, 20))
        g = planted_matrix(rng, d, k)
        v = rng.normal(size=d)
        perp, rank = project_out_span(v, as_factored(g))
        q_ref, kept = gram_schmidt_basis(g, default_drop_tol(d))
        ref = project_onto_complement(v, OrthonormalBasis(q=q_ref, drop_tol=default_drop_tol(d)))
        assert rank == len(kept)
        assert np.linalg.norm(perp - ref) <= 1e-12 * np.linalg.norm(v)
        assert np.abs(q_ref.T @ perp).max(initial=0.0) <= 1e-12 * np.linalg.norm(perp)


def test_project_out_span_with_more_columns_than_dimensions():
    # the Gram route can keep a column or two beyond d on roundoff, so only
    # the projection is pinned, not the rank
    rng = np.random.default_rng(31)
    for _ in range(100):
        d = int(rng.integers(1, 30))
        k = d + int(rng.integers(1, 30))
        v = rng.normal(size=d)
        perp, rank = project_out_span(v, as_factored(rng.normal(size=(d, k))))
        assert rank >= d
        assert np.linalg.norm(perp) <= 1e-12 * np.linalg.norm(v)


def test_project_out_span_rank_zero_passthrough_and_validation():
    v = np.arange(5.0)
    perp, rank = project_out_span(v, as_factored(np.full((5, 3), 1e-12)))
    assert rank == 0
    assert np.array_equal(perp, v)
    assert perp is not v
    with pytest.raises(ValueError):
        project_out_span(np.ones(4), as_factored(np.eye(3)))
    with pytest.raises(ValueError):
        project_out_span(np.array([1.0, np.nan, 0.0]), as_factored(np.eye(3)))
    with pytest.raises(ValueError):
        project_out_span(np.ones(3), as_factored(np.eye(3)), tol=0.0)
