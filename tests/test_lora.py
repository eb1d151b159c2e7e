"""Adapter attach/merge fidelity and adapter-space gradients."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from helpers import (
    adapter_mean_grad_reference, check_factors_against_dense, merge_reference, random_batch,
)
from orthograd.lora import AdaptedModel, LoraAdapterSet, attach_lora
from orthograd.net import NetworkSpec, ParamVector, init_params


def make_base(sizes=(4, 8, 3), activation="tanh", seed=0):
    return init_params(NetworkSpec(sizes, activation), seed)


def test_adapter_dimension_arithmetic():
    base = make_base((4, 8, 3))
    model = attach_lora(base, rank=2, scale=1.0, seed=0)
    # rank * (n_in + n_out) summed over both weight layers
    assert model.dim == 2 * (4 + 8) + 2 * (8 + 3)
    # each weight layer's A then B, in network order, contiguous from 0; param_dim is
    # where they end and equals the closed formula
    for sizes, rank in [((4, 8, 3), 2), ((4, 8, 3), 3), ((5, 7, 6, 3), 2), ((5, 7, 6, 3), 1),
                        ((20, 128, 128, 10), 8)]:
        adapters = LoraAdapterSet(NetworkSpec(sizes), rank, 1.0)
        off = 0
        for (a_off, a_shape, b_off, b_shape), n_in, n_out in zip(adapters.layout, sizes,
                                                                 sizes[1:]):
            assert (a_off, a_shape, b_off, b_shape) == (
                off, (rank, n_in), off + rank * n_in, (n_out, rank))
            off += rank * (n_in + n_out)
        assert len(adapters.layout) == len(sizes) - 1
        assert off == adapters.param_dim == sum(rank * (a + b) for a, b in zip(sizes, sizes[1:]))
    # layout, param_dim and multiplier are derived, not fields: dataclasses.replace derives
    # them afresh
    assert [f.name for f in dataclasses.fields(LoraAdapterSet)] == ["spec", "rank", "scale"]
    adapters = LoraAdapterSet(NetworkSpec((4, 8, 3)), 2, 6.0)
    one, fresh = dataclasses.replace(adapters, rank=1), LoraAdapterSet(adapters.spec, 1, 6.0)
    assert (one.layout, one.param_dim) == (fresh.layout, fresh.param_dim) == (
        ((0, (1, 4), 4, (8, 1)), (12, (1, 8), 20, (3, 1))), 23)
    assert (adapters.multiplier, one.multiplier) == (3.0, one.scale)


def test_effective_multiplier():
    base = make_base((16, 32, 10))
    model = attach_lora(base, rank=8, scale=32.0, seed=0)
    assert model.adapters.multiplier == 4.0


def test_attach_is_zero_delta_bitwise():
    base = make_base((5, 10, 4), "relu", seed=3)
    model = attach_lora(base, rank=3, scale=16.0, seed=7)
    for l in range(base.spec.n_layers):
        assert np.all(model.b[l] == 0.0)
        assert not np.all(model.a[l] == 0.0)
    x = np.random.default_rng(11).normal(size=(6, 5))
    assert np.array_equal(model.forward(x), base.forward(x))
    merged = model.merged()
    assert np.array_equal(merged.flat, base.flat)


def test_hand_rank_one_merge_delta():
    # 2x2 layer, rank 1, scale 1: A = [[1, 0]], B = [[0], [1]]
    # output-major update B A = [[0, 0], [1, 0]]
    base = make_base((2, 2), "relu", seed=1)
    adapters = LoraAdapterSet(spec=base.spec, rank=1, scale=1.0)
    theta = np.array([1.0, 0.0, 0.0, 1.0])  # A block then B block
    model = AdaptedModel(base, adapters, theta)
    assert np.array_equal(model.b[0] @ model.a[0], np.array([[0.0, 0.0], [1.0, 0.0]]))
    merged = model.merged()
    gain = merged.layers[0][:-1] - base.layers[0][:-1]
    assert np.array_equal(gain, np.array([[0.0, 0.0], [1.0, 0.0]]).T)


def test_merge_matches_adapted_forward():
    base = make_base((6, 12, 5, 3), seed=4)
    model = attach_lora(base, rank=2, scale=8.0, seed=5)
    rng = np.random.default_rng(6)
    g = rng.normal(size=model.dim)
    model = model.apply_update(g, 0.05)   # move off the zero-delta point
    x = rng.normal(size=(10, 6))
    adapted_logits = model.forward(x)
    merged_logits = model.merged().forward(x)
    scale = max(1.0, float(np.abs(adapted_logits).max()))
    assert np.abs(adapted_logits - merged_logits).max() <= 1e-10 * scale


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_merged_equals_reference_fold_bitwise(activation):
    # merged() writes the cached adapted weights into a copy of the base; the
    # fold it replaced added the scaled B A to the base weights in place
    base = make_base((6, 12, 5, 3), activation, seed=15)
    before = base.flat.copy()
    model = attach_lora(base, rank=2, scale=8.0, seed=16)
    rng = np.random.default_rng(17)
    for _ in range(5):
        model = model.apply_update(rng.normal(size=model.dim), 0.05)
        assert np.array_equal(model.merged().flat, merge_reference(base, model).flat)
    assert np.array_equal(base.flat, before)


def test_mean_grad_matches_finite_differences_in_adapter_space():
    base = make_base((3, 6, 2), "tanh", seed=8)
    model = attach_lora(base, rank=2, scale=4.0, seed=9)
    rng = np.random.default_rng(10)
    model = model.apply_update(rng.normal(size=model.dim), 0.1)
    batch = random_batch(base.spec, 5, 12)
    _, analytic = model.mean_loss_and_grad(batch)

    eps = 1e-5
    fd = np.empty(model.dim)
    for i in range(model.dim):
        up = model.theta.copy()
        up[i] += eps
        lp, _ = AdaptedModel(base, model.adapters, up).mean_loss_and_grad(batch)
        up[i] = model.theta[i] - eps
        lm, _ = AdaptedModel(base, model.adapters, up).mean_loss_and_grad(batch)
        fd[i] = (lp - lm) / (2 * eps)
    rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))
    assert rel.max() <= 1e-5


def test_mean_grad_matches_the_hand_derived_chain_rule():
    # the mean gradient is the row sum of the factor blocks, (m delta B)^T a and
    # delta^T (m a A^T); the reference associates it as (a^T delta) B instead
    worst = 0.0
    for sizes in ((6, 3), (6, 12, 3), (6, 12, 8, 3)):
        spec = NetworkSpec(sizes, "tanh")
        for seed in range(4):
            base = init_params(spec, seed)
            for rank in (1, 2, 3):
                model = attach_lora(base, rank=rank, scale=8.0, seed=seed + 10)
                model = model.apply_update(
                    np.random.default_rng(seed + 20).normal(size=model.dim), 0.1)
                batch = random_batch(spec, 9, seed + 30)
                want = adapter_mean_grad_reference(model, batch)
                got = model.mean_loss_and_grad(batch)[1]
                worst = max(worst, float(np.abs(got - want).max() / np.abs(want).max()))
    assert worst <= 1e-13


def test_per_sample_adapter_columns_average_to_mean():
    base = make_base((5, 9, 4), seed=14)
    model = attach_lora(base, rank=3, scale=6.0, seed=15)
    rng = np.random.default_rng(16)
    model = model.apply_update(rng.normal(size=model.dim), 0.02)
    batch = random_batch(base.spec, 21, 17)
    _, mean_grad = model.mean_loss_and_grad(batch)
    cols = model.per_sample_factors(batch).dense()
    assert cols.shape == (model.dim, 21)
    assert np.abs(cols.mean(axis=1) - mean_grad).max() <= 1e-12


def test_per_sample_adapter_factors_act_as_the_dense_matrix():
    # one to three weight layers; saturated models (weights scaled 31x) give
    # exactly-zero per-sample gradients
    zero_columns = 0
    for activation in ("relu", "tanh"):
        for sizes in ((6, 4), (6, 9, 4), (6, 12, 9, 4)):
            for saturate in (False, True):
                base = make_base(sizes, activation, seed=30)
                if saturate:
                    base = ParamVector(31.0 * base.flat, base.spec)
                model = attach_lora(base, rank=3, scale=6.0, seed=31)
                model = model.apply_update(np.random.default_rng(32).normal(size=model.dim),
                                           0.05)
                batch = random_batch(base.spec, 10, 33)
                dense = model.per_sample_factors(batch).dense()
                for i in range(len(batch)):   # each column is that sample's own gradient
                    _, g = model.mean_loss_and_grad(batch.subset([i]))
                    assert np.abs(dense[:, i] - g).max() <= 1e-12 * max(1.0, np.abs(g).max())
                zero_columns += int(np.count_nonzero(~dense.any(axis=0)))
                _, mean_grad = model.mean_loss_and_grad(batch)
                check_factors_against_dense(model.per_sample_factors(batch), dense, mean_grad, 34)
    assert zero_columns > 0


def test_biases_never_adapted():
    base = make_base((4, 7, 3), seed=20)
    model = attach_lora(base, rank=2, scale=2.0, seed=21)
    model = model.apply_update(np.ones(model.dim), 0.3)
    merged = model.merged()
    for l in range(base.spec.n_layers):
        assert np.array_equal(merged.layers[l][-1], base.layers[l][-1])


def test_attach_validation():
    base = make_base((4, 8, 3))
    with pytest.raises(ValueError):
        attach_lora(base, rank=0, scale=1.0)
    with pytest.raises(ValueError):
        attach_lora(base, rank=5, scale=1.0)   # rank > min(4, 8) at layer 0
    with pytest.raises(ValueError):
        attach_lora(base, rank=1, scale=-1.0)
    adapters = LoraAdapterSet(base.spec, rank=2, scale=1.0)
    with pytest.raises(ValueError) as err:
        AdaptedModel(base, adapters, np.zeros(adapters.param_dim + 1))
    assert str(err.value) == (f"adapter vector has shape ({adapters.param_dim + 1},), "
                              f"expected ({adapters.param_dim},)")
    relu = LoraAdapterSet(NetworkSpec((4, 8, 3), "relu"), rank=2, scale=1.0)   # same length
    with pytest.raises(ValueError,
                       match="^base parameters and adapters disagree on the architecture$"):
        AdaptedModel(base, relu, np.zeros(relu.param_dim))


def test_attach_deterministic_in_seed():
    base = make_base((4, 8, 3))
    a = attach_lora(base, rank=2, scale=4.0, seed=100)
    b = attach_lora(base, rank=2, scale=4.0, seed=100)
    c = attach_lora(base, rank=2, scale=4.0, seed=101)
    assert np.array_equal(a.theta, b.theta)
    assert not np.array_equal(a.theta, c.theta)


def test_reused_effective_layers_equal_recomputed_bitwise():
    # the merged vector is built once per model and shared by every pass; every read,
    # and every updated model, must see exactly what a fresh fold gives, and no pass
    # may write into it
    base = make_base((6, 12, 5, 3), "relu", seed=12)
    model = attach_lora(base, rank=2, scale=8.0, seed=13)
    rng = np.random.default_rng(14)
    for _ in range(3):
        model = model.apply_update(rng.normal(size=model.dim), 0.05)
        merged = model.merged()
        assert merged is model.merged()
        for l in range(base.spec.n_layers):
            delta = model.adapters.multiplier * (model.b[l] @ model.a[l])
            fresh = np.vstack((base.layers[l][:-1] + delta.T, base.layers[l][-1]))
            assert np.array_equal(merged.layers[l], fresh)
        before = merged.flat.copy()
        batch = random_batch(model.spec, 5, 15)
        model.forward(batch.inputs)
        model.mean_loss_and_grad(batch)
        model.per_sample_factors(batch)
        assert merged.flat.tobytes() == before.tobytes()


def test_rank_must_be_an_integer():
    # a float rank would give a float param_dim (38.0), and attach_lora would die inside NumPy
    spec = NetworkSpec((4, 6, 3))
    for rank in (2.0, 2.5, True):
        with pytest.raises(ValueError, match=f"^rank must be an integer, got {rank}$"):
            LoraAdapterSet(spec, rank, 4.0)
    with pytest.raises(ValueError, match=r"^rank must be an integer, got 2\.5$"):
        attach_lora(init_params(spec, 0), rank=2.5, scale=4.0)
    assert LoraAdapterSet(spec, np.int64(2), 4.0).param_dim == 38   # NumPy integers pass
    with pytest.raises(ValueError, match="^rank must be >= 1, got 0$"):
        LoraAdapterSet(spec, 0, 4.0)
    for scale in (0, -1, np.inf, np.nan):
        with pytest.raises(ValueError, match=f"^scale must be positive and finite, got {scale}$"):
            LoraAdapterSet(spec, 2, scale)


def test_adapted_model_is_a_frozen_value():
    # a new theta set on a model would reach coords but not the merged weights every pass
    # runs on; like ParamVector, the model cannot be changed after it is made
    base = make_base((4, 8, 3), "relu", seed=40)
    model = attach_lora(base, rank=2, scale=4.0, seed=41)
    model = model.apply_update(np.random.default_rng(42).normal(size=model.dim), 0.1)
    model.forward(random_batch(model.spec, 3, 43).inputs)
    for target, name, value in ((model, "theta", np.zeros(model.dim)),
                                (model, "coords", np.zeros(model.dim)),
                                (model, "base", base), (base, "flat", np.zeros(base.dim))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(target, name, value)
    assert model.coords is model.theta and model.dim == model.theta.shape[0]
    for view in (*model.a, *model.b):
        assert np.shares_memory(view, model.theta)
    assert [v.shape for v in model.a] == [(2, 4), (2, 8)]
    assert [v.shape for v in model.b] == [(8, 2), (3, 2)]
    assert model.merged() is model.merged()
    # a value holding arrays compares by identity: == neither raises nor compares elements
    twin = make_base((4, 8, 3), "relu", seed=40)
    assert base == base and base != twin and model == model
    assert len({base, twin, model}) == 3
