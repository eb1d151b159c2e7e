"""Network engine: gradients against finite differences, layout, checkpoints."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import (
    check_factors_against_dense, edit_metadata, forward_reference, pretrain_reference,
)
from orthograd import net
from orthograd.data import Dataset, gen_gaussian_blobs, partition_train_test
from orthograd.lora import attach_lora
from orthograd.net import (
    NetworkSpec, ParamVector, evaluate_accuracy, init_params, load_checkpoint,
    pretrain, save_checkpoint, _chunk_rows,
)


def finite_difference_grad(params: ParamVector, batch: Dataset, eps: float = 1e-5) -> np.ndarray:
    """Independent oracle: central differences on the mean loss, coordinate-wise."""
    grad = np.empty(params.dim)
    base = params.flat
    for i in range(params.dim):
        bumped = base.copy()
        bumped[i] += eps
        lp, _ = ParamVector(bumped, params.spec).mean_loss_and_grad(batch)
        bumped[i] = base[i] - eps
        lm, _ = ParamVector(bumped, params.spec).mean_loss_and_grad(batch)
        grad[i] = (lp - lm) / (2.0 * eps)
    return grad


def random_batch(spec: NetworkSpec, k: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(k, spec.in_dim)),
                   rng.integers(0, spec.n_classes, size=k), spec.n_classes)


def test_param_dim_arithmetic():
    assert NetworkSpec((3, 4, 2)).param_dim == 3 * 4 + 4 + 4 * 2 + 2
    assert NetworkSpec((20, 64, 10)).param_dim == 20 * 64 + 64 + 64 * 10 + 10
    spec = NetworkSpec((5, 7, 6, 3))
    offsets = [slot[0] for slot in spec.layout()]
    assert offsets == sorted(offsets)
    total = sum(shape[0] * shape[1] for _, shape in spec.layout())
    assert total == spec.param_dim
    # each layer's (n_in + 1, n_out) block, weight rows then bias row, contiguous from 0;
    # param_dim is where they end and equals the closed formula
    for sizes in [(3, 4, 2), (1, 1), (5, 7, 6, 3), (20, 128, 128, 10)]:
        spec = NetworkSpec(sizes)
        params = ParamVector(np.arange(spec.param_dim, dtype=np.float64), spec)
        off = 0
        for l, ((b_off, b_shape), n_in, n_out) in enumerate(zip(spec.layout(), sizes[:-1],
                                                                sizes[1:], strict=True)):
            assert (b_off, b_shape) == (off, (n_in + 1, n_out))
            assert params.weights(l).ravel().tolist() == list(range(off, off + n_in * n_out))
            assert params.biases(l).tolist() == list(range(off + n_in * n_out,
                                                           off + (n_in + 1) * n_out))
            off += n_in * n_out + n_out
        assert off == spec.param_dim == sum(a * b + b for a, b in zip(sizes, sizes[1:]))


def test_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec((4,))
    with pytest.raises(ValueError):
        NetworkSpec((4, 0, 2))
    with pytest.raises(ValueError):
        NetworkSpec((4, 3), activation="sigmoid")


def test_init_params_statistics_and_determinism():
    spec = NetworkSpec((1000, 1000), activation="relu")
    p = init_params(spec, seed=0)
    w = p.weights(0)
    assert abs(float(w.var()) - 0.002) <= 0.1 * 0.002  # 2 / fan_in
    assert np.all(p.biases(0) == 0.0)
    q = init_params(spec, seed=0)
    assert np.array_equal(p.flat, q.flat)
    r = init_params(spec, seed=1)
    assert not np.array_equal(p.flat, r.flat)

    tanh_spec = NetworkSpec((500, 200), activation="tanh")
    tw = init_params(tanh_spec, seed=2).weights(0)
    assert abs(float(tw.var()) - 1.0 / 500) <= 0.1 / 500


@pytest.mark.parametrize("sizes,activation,seed", [
    ((3, 4, 2), "tanh", 0),
    ((3, 4, 2), "relu", 1),
    ((5, 7, 6, 3), "tanh", 2),
])
def test_mean_grad_matches_finite_differences(sizes, activation, seed):
    spec = NetworkSpec(sizes, activation)
    params = init_params(spec, seed)
    batch = random_batch(spec, 6, seed + 100)
    _, analytic = params.mean_loss_and_grad(batch)
    fd = finite_difference_grad(params, batch)
    rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))
    assert rel.max() <= 1e-5


def test_per_sample_columns_average_to_mean_grad():
    spec = NetworkSpec((6, 12, 4), "relu")
    params = init_params(spec, 3)
    for k in (1, 2, 17, 64):
        batch = random_batch(spec, k, 50 + k)
        _, mean_grad = params.mean_loss_and_grad(batch)
        cols = params.per_sample_factors(batch).dense()
        assert cols.shape == (spec.param_dim, k)
        gap = np.abs(cols.mean(axis=1) - mean_grad)
        assert gap.max() <= 1e-12 * max(1.0, float(np.abs(mean_grad).max()))


def test_per_sample_column_is_single_sample_gradient():
    spec = NetworkSpec((4, 5, 3), "tanh")
    params = init_params(spec, 9)
    batch = random_batch(spec, 5, 77)
    cols = params.per_sample_factors(batch).dense()
    for i in range(len(batch)):
        _, g = params.mean_loss_and_grad(batch.subset([i]))
        assert np.abs(cols[:, i] - g).max() <= 1e-12


def test_per_sample_factors_act_as_the_dense_matrix():
    # odd seeds scale the weights up 31x: the softmax saturates on some
    # samples, whose per-sample gradients are then exactly zero
    zero_columns = 0
    for activation in ("relu", "tanh"):
        spec = NetworkSpec((6, 12, 9, 4), activation)
        for seed in range(4):
            params = init_params(spec, seed)
            if seed % 2:
                params = params.apply_update(-30.0 * params.flat, 1.0)
            batch = random_batch(spec, 11, 60 + seed)
            dense = params.per_sample_factors(batch).dense()
            zero_columns += int(np.count_nonzero(~dense.any(axis=0)))
            _, mean_grad = params.mean_loss_and_grad(batch)
            check_factors_against_dense(params.per_sample_factors(batch), dense, mean_grad, seed)
    assert zero_columns > 0


def test_zero_params_loss_is_ln_c_exactly():
    spec = NetworkSpec((5, 3), "relu")
    zero = ParamVector(np.zeros(spec.param_dim), spec)
    for k in (1, 2, 4, 8):
        batch = random_batch(spec, k, k)
        loss, _ = zero.mean_loss_and_grad(batch)
        assert loss == float(np.log(3.0))


def test_loss_invariant_under_batch_duplication():
    spec = NetworkSpec((4, 6, 3), "tanh")
    params = init_params(spec, 21)
    batch = random_batch(spec, 9, 22)
    doubled = batch.subset(np.tile(np.arange(len(batch)), 2))
    l1, g1 = params.mean_loss_and_grad(batch)
    l2, g2 = params.mean_loss_and_grad(doubled)
    assert abs(l1 - l2) <= 1e-12 * max(1.0, abs(l1))
    assert np.abs(g1 - g2).max() <= 1e-12


def test_softmax_stability_extreme_logits():
    spec = NetworkSpec((2, 2), "relu")
    flat = np.array([1000.0, -1000.0, 0.0, 0.0, 0.0, 0.0])
    params = ParamVector(flat, spec)
    batch = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0, 1]), 2)
    loss, grad = params.mean_loss_and_grad(batch)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grad))


def test_evaluate_accuracy_hand_built_separator():
    # single affine layer whose weight columns point at each class cluster
    spec = NetworkSpec((2, 3), "relu")
    flat = np.zeros(spec.param_dim)
    params = ParamVector(flat, spec)
    params.weights(0)[:] = np.array([[1.0, 0.0, -1.0],
                                     [0.0, 1.0, -1.0]])

    class Points:
        inputs = np.array([[2.0, 0.0], [3.0, 1.0], [0.0, 2.0],
                           [1.0, 3.0], [-2.0, -2.0], [-3.0, -1.0]])
        labels = np.array([0, 0, 1, 1, 2, 2])

    assert evaluate_accuracy(params, Points) == 100.0


def test_evaluate_accuracy_ties_choose_lowest_class():
    spec = NetworkSpec((3, 4), "relu")
    zero = ParamVector(np.zeros(spec.param_dim), spec)

    class Points:
        inputs = np.zeros((4, 3))
        labels = np.array([0, 0, 1, 2])

    assert evaluate_accuracy(zero, Points) == 50.0


def test_apply_update_is_descent_step():
    spec = NetworkSpec((3, 2), "relu")
    params = init_params(spec, 5)
    g = np.arange(spec.param_dim, dtype=float)
    out = params.apply_update(g, 0.5)
    assert np.array_equal(out.flat, params.flat - 0.5 * g)
    with pytest.raises(ValueError):
        params.apply_update(np.zeros(3), 0.1)


def test_batch_validation_errors():
    # every public gradient entry point checks its batch against the network (a Dataset
    # checks its own label shape and range); the engine pass does not
    spec = NetworkSpec((3, 4, 2), "relu")
    params = init_params(spec, 0)
    adapted = attach_lora(params, rank=1, scale=2.0, seed=1)
    bad = {
        "batch has no rows": Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2),
        "batch inputs have 5 features, network expects 3":
            Dataset(np.zeros((2, 5)), np.array([0, 1]), 2),
        r"batch labels must lie in \[0, 2\), got range \[0, 2\]":   # a 3-class dataset
            Dataset(np.zeros((2, 3)), np.array([0, 2]), 3),
        "batch inputs contain non-finite values":
            Dataset(np.full((2, 3), np.nan), np.array([0, 1]), 2),
    }
    for grad_fn in (params.mean_loss_and_grad, params.per_sample_factors,
                    adapted.mean_loss_and_grad, adapted.per_sample_factors):
        for message, batch in bad.items():
            with pytest.raises(ValueError, match=message):
                grad_fn(batch)


class _ArrayData:
    def __init__(self, inputs, labels):
        self.inputs = inputs
        self.labels = labels


def test_pretrain_zero_epochs_returns_init():
    spec = NetworkSpec((4, 6, 3), "relu")
    rng = np.random.default_rng(8)
    ds = _ArrayData(rng.normal(size=(30, 4)), rng.integers(0, 3, size=30))
    out = pretrain(spec, ds, epochs=0, batch_size=8, eta=0.1, seed=4)
    assert np.array_equal(out.flat, init_params(spec, 4).flat)


def test_pretrain_deterministic_and_learns():
    spec = NetworkSpec((2, 8, 2), "relu")
    rng = np.random.default_rng(12)
    x = np.vstack([rng.normal(size=(40, 2)) + [3, 0], rng.normal(size=(40, 2)) - [3, 0]])
    y = np.array([0] * 40 + [1] * 40)
    ds = _ArrayData(x, y)
    a = pretrain(spec, ds, epochs=40, batch_size=16, eta=0.1, seed=0)
    b = pretrain(spec, ds, epochs=40, batch_size=16, eta=0.1, seed=0)
    assert np.array_equal(a.flat, b.flat)
    assert evaluate_accuracy(a, ds) >= 95.0


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_pretrain_matches_reference_loop_bitwise(activation, monkeypatch):
    # 37 rows: batches of 8 leave a partial last batch of 5; 37 and 50 are one batch
    spec = NetworkSpec((4, 9, 7, 3), activation)
    rng = np.random.default_rng(40)
    x = rng.normal(size=(37, 4))
    y = rng.integers(0, 3, size=37)
    inits = []    # (the init pretrain received, a copy of its values)
    checks = []
    check_batch = net._check_batch

    def recording_init(*args):
        init = init_params(*args)
        inits.append((init, init.flat.copy()))
        return init

    def counting_check(*args):
        checks.append(1)
        return check_batch(*args)

    monkeypatch.setattr(net, "init_params", recording_init)
    monkeypatch.setattr(net, "_check_batch", counting_check)
    datasets = (_ArrayData(x, y), _ArrayData(x.astype(np.float32), y),
                _ArrayData(np.rint(3.0 * x).astype(int), y))
    for ds in datasets:
        for batch_size in (8, 37, 50):
            for epochs in (0, 1, 4):
                checks.clear()
                got = pretrain(spec, ds, epochs=epochs, batch_size=batch_size, eta=0.2, seed=5)
                assert len(checks) == 1   # the whole dataset, once; no batch is checked again
                want = pretrain_reference(spec, ds, epochs, batch_size, 0.2, 5)
                assert got.flat.dtype == np.float64
                assert np.array_equal(got.flat, want.flat)
                init, init_values = inits[-1]
                assert np.array_equal(init.flat, init_values)   # trained a copy, not the init
                assert got.flat is not init.flat


def test_pretrain_that_diverges_is_an_error(monkeypatch):
    # a relu net at eta = 1e10 ends with every parameter NaN; the check runs once, after
    # the loop, so every batch still takes its step
    train, _ = partition_train_test(gen_gaussian_blobs(3, 5, 52, spread=1.0, seed=7), 40)
    spec = NetworkSpec((5, 12, 3), "relu")
    passes = []
    engine_pass = net._engine_pass
    monkeypatch.setattr(net, "_engine_pass", lambda *args: passes.append(1) or engine_pass(*args))
    with pytest.raises(ValueError, match=r"^training diverged to non-finite parameters at "
                                         r"eta = 10000000000\.0$"):
        pretrain(spec, train, epochs=25, batch_size=16, eta=1e10, seed=0)
    assert len(passes) == 25 * 8   # 120 rows in batches of 16
    assert np.all(np.isfinite(pretrain(spec, train, epochs=25, batch_size=16, eta=0.1,
                                       seed=0).flat))


@pytest.mark.parametrize("case", ["nan_in_late_row", "label_out_of_range", "wrong_feature_count"])
def test_pretrain_checks_every_row_before_any_update(case, monkeypatch):
    spec = NetworkSpec((4, 6, 3), "relu")
    rng = np.random.default_rng(9)
    x = rng.normal(size=(40, 4))
    y = rng.integers(0, 3, size=40)
    if case == "nan_in_late_row":   # drawn by the last batch of the first epoch
        x[np.random.default_rng([2, 1]).permutation(40)[-1], 1] = np.nan
    elif case == "label_out_of_range":
        y[-1] = 3
    else:
        x = x[:, :3]
    passes = []
    monkeypatch.setattr(net, "_engine_pass", lambda *args, **kw: passes.append(1))
    with pytest.raises(ValueError):
        pretrain(spec, _ArrayData(x, y), epochs=3, batch_size=8, eta=0.1, seed=2)
    assert passes == []


def test_checkpoint_round_trip_bit_exact(tmp_path):
    spec = NetworkSpec((5, 9, 4), "tanh")
    params = init_params(spec, 31)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, seed=31)
    loaded, meta = load_checkpoint(path)
    assert loaded.spec == spec
    assert meta["seed"] == 31
    assert meta["d"] == spec.param_dim
    assert np.array_equal(loaded.flat, params.flat)
    # byte-identical re-save
    first = path.read_bytes()
    save_checkpoint(path, loaded, seed=31)
    assert path.read_bytes() == first


def test_checkpoint_rejects_corruption(tmp_path):
    spec = NetworkSpec((3, 2), "relu")
    params = init_params(spec, 1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, seed=1)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])  # truncate one value
    with pytest.raises(ValueError):
        load_checkpoint(path)
    path.write_bytes(b"NOT-A-CKPT v9\n" + blob.split(b"\n", 1)[1])
    with pytest.raises(ValueError):
        load_checkpoint(path)
    for bad in (np.inf, -np.inf, np.nan):   # the last value, as a float64 of the right length
        path.write_bytes(blob[:-8] + np.array([bad], dtype="<f8").tobytes())
        with pytest.raises(ValueError, match=r"model.ckpt: payload holds non-finite values$"):
            load_checkpoint(path)


@pytest.mark.parametrize("key", ["layer_sizes", "activation", "seed", "d"])
def test_checkpoint_missing_metadata_key_names_file_and_key(tmp_path, key):
    params = init_params(NetworkSpec((3, 2), "relu"), 1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, seed=1)
    line = next(l for l in path.read_bytes().split(b"\n") if l.startswith(key.encode() + b" = "))
    edit_metadata(path, line, None)
    with pytest.raises(ValueError, match=f"model.ckpt: checkpoint \\[model\\] metadata missing {key}$"):
        load_checkpoint(path)
    edit_metadata(path, b"[model]", b"[other]")
    with pytest.raises(ValueError, match=r"model.ckpt: checkpoint missing \[model\] metadata"):
        load_checkpoint(path)


def test_checkpoint_metadata_syntax_error_names_the_file_once(tmp_path):
    # the metadata parser's message already starts with the file and line; it comes back
    # as a plain ValueError, a corrupt file like any other, without the loader's prefix.
    # The line is the file's own, header line included
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(NetworkSpec((3, 2), "relu"), 1), seed=1)
    edit_metadata(path, b"seed = 1", b"seed 1")   # line 5
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert type(err.value) is ValueError
    assert str(err.value) == f"{path}:5: expected 'key = value' or '[section]', got 'seed 1'"


# A (2, 2) relu model's checkpoint, byte for byte: the header, the [model] keys in
# order, a blank line, then the six parameters as little-endian float64.
_CHECKPOINT_BYTES = (
    b"ORTHOGRAD-CKPT v1\n[model]\nlayer_sizes = 2,2\nactivation = relu\nseed = 7\nd = 6\n\n"
    + bytes.fromhex("000000000000e03f"    # 0.5
                    "000000000000f4bf"    # -1.25
                    "9a9999999999b93f"    # 0.1
                    "0000000000000000"    # 0.0
                    "0000000000000840"    # 3.0
                    "000000000000e8bf")   # -0.75
)


def test_checkpoint_bytes_are_pinned(tmp_path):
    flat = np.array([0.5, -1.25, 0.1, 0.0, 3.0, -0.75])
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ParamVector(flat, NetworkSpec((2, 2), "relu")), seed=7)
    assert path.read_bytes() == _CHECKPOINT_BYTES
    # a file of these bytes loads bit for bit, and saving it again gives the same bytes
    path.write_bytes(_CHECKPOINT_BYTES)
    loaded, meta = load_checkpoint(path)
    assert loaded.spec == NetworkSpec((2, 2), "relu") and meta == {"seed": 7, "d": 6}
    assert loaded.flat.tobytes() == flat.tobytes()
    save_checkpoint(path, loaded, seed=meta["seed"])
    assert path.read_bytes() == _CHECKPOINT_BYTES


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_chunked_logits_match_one_unchunked_pass(activation):
    # evaluation runs in row chunks of c rows; every split point must give the
    # logits and the accuracy of one pass over all rows
    spec = NetworkSpec((6, 40, 24, 3), activation)
    c = _chunk_rows(spec)
    assert c == 256 * 1024 // (8 * 40)
    base = init_params(spec, 3)
    adapted = attach_lora(base, rank=2, scale=8.0, seed=4)
    adapted = adapted.apply_update(np.random.default_rng(5).normal(size=adapted.dim), 0.1)
    rng = np.random.default_rng(6)
    for n in (1, c - 1, c, c + 1, 3 * c + 7):
        x = rng.normal(size=(n, spec.in_dim))
        y = rng.integers(0, spec.n_classes, size=n)
        for layers, got, params in (
                ([base.layer(l) for l in range(spec.n_layers)], base.forward(x), base),
                (adapted.effective_layers, adapted.forward(x), adapted.merged())):
            want = forward_reference(layers, activation, x)
            assert got.shape == want.shape == (n, spec.n_classes)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            want_acc = 100.0 * np.count_nonzero(np.argmax(want, axis=1) == y) / n
            assert evaluate_accuracy(params, Dataset(x, y, spec.n_classes)) == want_acc
