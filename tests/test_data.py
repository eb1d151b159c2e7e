"""Blob generation, CSV IO, and split construction."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import save_csv_dataset
from orthograd.data import (
    Dataset, gen_gaussian_blobs, load_csv_dataset, make_unlearn_split,
    partition_train_test,
)
from orthograd.net import NetworkSpec, evaluate_accuracy, pretrain


def test_blobs_shapes_counts_and_determinism():
    ds = gen_gaussian_blobs(4, 6, 25, spread=1.0, seed=3)
    assert ds.inputs.shape == (100, 6)
    assert ds.labels.shape == (100,)
    assert np.bincount(ds.labels).tolist() == [25, 25, 25, 25]
    again = gen_gaussian_blobs(4, 6, 25, spread=1.0, seed=3)
    assert np.array_equal(ds.inputs, again.inputs)
    other = gen_gaussian_blobs(4, 6, 25, spread=1.0, seed=4)
    assert not np.array_equal(ds.inputs, other.inputs)


def test_blobs_class_mean_separation():
    for seed in (0, 1, 2):
        spread = 1.5
        ds = gen_gaussian_blobs(10, 20, 200, spread=spread, seed=seed)
        means = np.stack([ds.inputs[ds.labels == c].mean(axis=0) for c in range(10)])
        dists = [np.linalg.norm(means[i] - means[j])
                 for i in range(10) for j in range(i + 1, 10)]
        # empirical means drift from the true means by ~spread/sqrt(200)
        assert min(dists) >= 4.0 * spread - 1.0


def test_blobs_linearly_separable_at_default_spread():
    full = gen_gaussian_blobs(10, 20, 260, spread=1.0, seed=7)
    train, test = partition_train_test(full, 200)
    model = pretrain(NetworkSpec((20, 10)), train, epochs=60, batch_size=32,
                     eta=0.1, seed=0)
    assert evaluate_accuracy(model, test) >= 95.0


def test_partition_train_test_counts():
    ds = gen_gaussian_blobs(3, 4, 50, seed=0)
    train, test = partition_train_test(ds, 30)
    assert np.bincount(train.labels).tolist() == [30, 30, 30]
    assert np.bincount(test.labels).tolist() == [20, 20, 20]
    with pytest.raises(ValueError):
        partition_train_test(ds, 50)


def test_csv_round_trip_exact(tmp_path):
    ds = gen_gaussian_blobs(3, 5, 20, seed=9)
    path = tmp_path / "blobs.csv"
    save_csv_dataset(path, ds)
    loaded = load_csv_dataset(path, n_features=5, n_classes=3)
    assert np.array_equal(loaded.inputs, ds.inputs)
    assert np.array_equal(loaded.labels, ds.labels)


def test_csv_errors_name_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,1.5,0\n0.1,0.2,0.3,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.csv:2.*fields"):
        load_csv_dataset(path, n_features=2, n_classes=2)

    path.write_text("0.5,1.5,0\n0.1,x,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.csv:2.*non-numeric"):
        load_csv_dataset(path, n_features=2, n_classes=2)

    path.write_text("0.5,1.5,0\n0.1,0.2,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.csv:2.*label 2 out of range"):
        load_csv_dataset(path, n_features=2, n_classes=2)

    # '#' lines are skipped but counted, and a file that is not UTF-8 text names itself
    path.write_text("# x1,x2,label\n0.5,1.5,0\n0.1,0.2,0.3,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.csv:3.*fields"):
        load_csv_dataset(path, n_features=2, n_classes=2)
    path.write_bytes(b"0.5,1.5,0\n# donn\xe9es\n")
    with pytest.raises(ValueError, match=r"bad\.csv: cannot read dataset file: 'utf-8' codec"):
        load_csv_dataset(path, n_features=2, n_classes=2)

    with pytest.raises(FileNotFoundError, match="missing"):
        load_csv_dataset(tmp_path / "missing.csv", n_features=2, n_classes=2)


def _train_test(seed=0):
    full = gen_gaussian_blobs(5, 8, 60, seed=seed)
    return partition_train_test(full, 40)


def test_random_split_disjoint_and_sized():
    train, test = _train_test()
    splits = make_unlearn_split(train, test, mode="random", retain_size=50,
                                seed=1, fraction=0.05)
    n = len(train)
    assert len(splits.unlearn) == int(np.ceil(0.05 * n))
    assert len(splits.retain) == 50
    assert np.array_equal(splits.test.inputs, test.inputs)
    assert np.array_equal(splits.test.labels, test.labels)

    def rows(ds):
        return {tuple(row) for row in ds.inputs}

    assert rows(splits.unlearn).isdisjoint(rows(splits.retain))


def test_random_split_deterministic_and_unlearn_fixed_across_retain_sizes():
    train, test = _train_test()
    a = make_unlearn_split(train, test, mode="random", retain_size=40, seed=5)
    b = make_unlearn_split(train, test, mode="random", retain_size=40, seed=5)
    assert np.array_equal(a.unlearn.inputs, b.unlearn.inputs)
    assert np.array_equal(a.retain.inputs, b.retain.inputs)
    big = make_unlearn_split(train, test, mode="random", retain_size=120, seed=5)
    assert np.array_equal(a.unlearn.inputs, big.unlearn.inputs)


def test_class_split_completeness():
    train, test = _train_test()
    splits = make_unlearn_split(train, test, mode="class", retain_size=60,
                                seed=2, class_label=3)
    assert np.all(splits.unlearn.labels == 3)
    assert len(splits.unlearn) == int(np.sum(train.labels == 3))
    assert not np.any(splits.retain.labels == 3)
    assert not np.any(splits.test.labels == 3)
    assert len(splits.test) == len(test) - int(np.sum(test.labels == 3))


def test_split_validation():
    train, test = _train_test()
    with pytest.raises(ValueError):
        make_unlearn_split(train, test, mode="random", retain_size=0, seed=0)
    with pytest.raises(ValueError):
        make_unlearn_split(train, test, mode="random", retain_size=10**6, seed=0)
    with pytest.raises(ValueError):
        make_unlearn_split(train, test, mode="random", retain_size=10, seed=0, fraction=1.5)
    with pytest.raises(ValueError):
        make_unlearn_split(train, test, mode="class", retain_size=10, seed=0, class_label=9)
    with pytest.raises(ValueError):
        make_unlearn_split(train, test, mode="nearest", retain_size=10, seed=0)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1]), 2)       # length mismatch
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)       # label range
