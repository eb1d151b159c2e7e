"""Blob generation, CSV IO, and split construction."""

from __future__ import annotations

import os

import numpy as np
import pytest

from helpers import blobs_reference, save_csv_dataset, unlearn_split_reference
from orthograd.data import (
    Dataset, gen_gaussian_blobs, load_csv_dataset, make_unlearn_split,
    partition_train_test, write_atomic,
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
    # bit for bit the per-class loop the one draw replaced
    for shape in ((2, 3, 1), (3, 5, 7), (4, 6, 25), (10, 20, 13)):
        for seed in (0, 1, 7):
            for spread in (1e-3, 0.5, 1.0, 3.0):
                got = gen_gaussian_blobs(*shape, spread=spread, seed=seed)
                want = blobs_reference(*shape, spread=spread, seed=seed)
                assert got.inputs.tobytes() == want.inputs.tobytes()
                assert np.array_equal(got.labels, want.labels)


@pytest.mark.parametrize("args, message", [
    ((1, 4, 10), r"need at least 2 classes, got 1"),
    ((3, 0, 10), r"dim and per_class must be >= 1, got 0, 10"),
    ((3, 4, 0), r"dim and per_class must be >= 1, got 4, 0"),
    ((3, 1, 10), r"degenerate class directions \(duplicate unit vectors\)"),   # 1-D has two
])
def test_blobs_reject_shapes_they_cannot_draw(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        gen_gaussian_blobs(*args, seed=0)


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
    for bad in (0, -1):   # -1 would slice from the end, keeping all but one point per class
        with pytest.raises(ValueError, match=f"^train_per_class must be >= 1, got {bad}$"):
            partition_train_test(ds, bad)


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

    path.write_text("0.5,1.5,0\n0.1,0.2,one\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.csv:2: label must be an integer, got 'one'$"):
        load_csv_dataset(path, n_features=2, n_classes=2)
    path.write_text("# x1,x2,label\n\n", encoding="utf-8")   # no data lines
    with pytest.raises(ValueError, match=r"bad\.csv: dataset is empty$"):
        load_csv_dataset(path, n_features=2, n_classes=2)


def _train_test(seed=0):
    full = gen_gaussian_blobs(5, 8, 60, seed=seed)
    return partition_train_test(full, 40)


def _check_split_against_reference(train, test, mode, retain_size, seed, **kwargs):
    splits = make_unlearn_split(train, test, mode=mode, retain_size=retain_size, seed=seed,
                                **kwargs)
    unlearn_idx, retain_idx = unlearn_split_reference(train, mode, retain_size, seed, **kwargs)
    for got, idx in ((splits.unlearn, unlearn_idx), (splits.retain, retain_idx)):
        want = train.subset(idx)
        assert got.inputs.tobytes() == want.inputs.tobytes()
        assert np.array_equal(got.labels, want.labels)


def _shuffled(ds, seed=9):
    """``ds`` with its rows out of class order."""
    return ds.subset(np.random.default_rng(seed).permutation(len(ds)))


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
    # bit for bit the per-mode pool it replaced, on grouped and ungrouped rows
    for data_seed in (0, 3):
        grouped, held_out = _train_test(data_seed)
        for rows_in in (grouped, _shuffled(grouped)):
            for seed in (0, 1, 5):
                for fraction, retain_size in ((0.05, 1), (0.05, 50), (0.3, 140), (0.5, 100)):
                    _check_split_against_reference(rows_in, held_out, "random", retain_size,
                                                   seed, fraction=fraction)


def test_random_split_deterministic_and_unlearn_fixed_across_retain_sizes():
    train, test = _train_test()
    a = make_unlearn_split(train, test, mode="random", retain_size=40, seed=5)
    b = make_unlearn_split(train, test, mode="random", retain_size=40, seed=5)
    assert np.array_equal(a.unlearn.inputs, b.unlearn.inputs)
    assert np.array_equal(a.retain.inputs, b.retain.inputs)
    # in both modes D_u and the test view are bit-identical at every retain size, so a
    # sweep shares one pretrained reference; class mode's test view is a fresh subset each time
    for mode, kwargs, sizes in (("random", {}, (1, 40, 120, 190)),
                                ("class", {"class_label": 3}, (1, 40, 120, 160))):
        first = make_unlearn_split(train, test, mode=mode, retain_size=sizes[0], seed=5, **kwargs)
        for size in sizes[1:]:
            other = make_unlearn_split(train, test, mode=mode, retain_size=size, seed=5, **kwargs)
            assert len(other.retain) == size
            for name in ("unlearn", "test"):
                got, want = getattr(other, name), getattr(first, name)
                assert got.inputs.tobytes() == want.inputs.tobytes()
                assert got.labels.tobytes() == want.labels.tobytes()


def test_class_split_completeness():
    train, test = _train_test()
    splits = make_unlearn_split(train, test, mode="class", retain_size=60,
                                seed=2, class_label=3)
    assert np.all(splits.unlearn.labels == 3)
    assert len(splits.unlearn) == int(np.sum(train.labels == 3))
    assert not np.any(splits.retain.labels == 3)
    assert not np.any(splits.test.labels == 3)
    assert len(splits.test) == len(test) - int(np.sum(test.labels == 3))
    # bit for bit the per-mode pool it replaced, on grouped and ungrouped rows
    for rows_in in (train, _shuffled(train), _shuffled(train, 4)):
        for class_label in (0, 3, 4):
            for seed, retain_size in ((0, 1), (2, 60), (7, 160)):
                _check_split_against_reference(rows_in, test, "class", retain_size, seed,
                                               class_label=class_label)


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
    wider = Dataset(test.inputs, test.labels, 6)
    no_rows = np.array([], dtype=np.int64)
    for empty_train, empty_test in ((train.subset(no_rows), test), (train, test.subset(no_rows))):
        with pytest.raises(ValueError, match="^train and test sets must be non-empty$"):
            make_unlearn_split(empty_train, empty_test, mode="random", retain_size=10, seed=0)
    with pytest.raises(ValueError, match="^train and test disagree on the number of classes$"):
        make_unlearn_split(train, wider, mode="random", retain_size=10, seed=0)
    no_class_3 = train.subset(np.flatnonzero(train.labels != 3))
    with pytest.raises(ValueError, match="^training set has no points of class 3$"):
        make_unlearn_split(no_class_3, test, mode="class", retain_size=10, class_label=3)
    only_class_3 = test.subset(np.flatnonzero(test.labels == 3))
    with pytest.raises(ValueError,
                       match="^test set would be empty after removing the forgotten class$"):
        make_unlearn_split(train, only_class_3, mode="class", retain_size=10, class_label=3)
    # D_u that takes every training row: ceil(0.9999 * 200) = 200, or only the forgotten class
    everything = "^the unlearn set takes every training row, leaving none to retain$"
    with pytest.raises(ValueError, match=everything):
        make_unlearn_split(train, test, mode="random", retain_size=10, fraction=0.9999)
    with pytest.raises(ValueError, match=everything):
        make_unlearn_split(train.subset(np.flatnonzero(train.labels == 3)), test,
                           mode="class", retain_size=10, class_label=3)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1]), 2)       # length mismatch
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)       # label range
    with pytest.raises(ValueError, match=r"^inputs must be 2-D, got shape \(4,\)$"):
        Dataset(np.zeros(4), np.zeros(4, dtype=int), 2)
    with pytest.raises(ValueError, match="^n_classes must be >= 1, got 0$"):
        Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 0)
    # the constructor is where rows are typed: float32 or integer features become float64,
    # and labels int64, with their values kept
    x = np.array([[0.5, -1.25], [3.0, 2.0]])
    for inputs in (x.astype(np.float32), np.array([[1, -2], [3, 4]]), x):
        ds = Dataset(inputs, np.array([1, 0], dtype=np.int32), 2)
        assert ds.inputs.dtype == np.float64 and ds.labels.dtype == np.int64
        assert np.array_equal(ds.inputs, inputs) and ds.labels.tolist() == [1, 0]


def test_dataset_rejects_labels_and_class_counts_int64_would_truncate():
    x = np.zeros((3, 2))
    with pytest.raises(ValueError,
                       match="^labels must be integers, got float64 values int64 would truncate$"):
        Dataset(x, [0.9, 1.5, 2.99], 3)   # would load as [0, 1, 2]
    for labels in ([0.0, 1.0, np.nan], [0.0, 1.0, np.inf], [0.0, 1.0, 1e30]):   # no cast warning
        with pytest.raises(ValueError,
                           match="^labels must be integers, got float64 values int64 would truncate$"):
            Dataset(x, labels, 3)
    with pytest.raises(ValueError, match=r"^n_classes must be an integer, got 2\.5$"):
        Dataset(x, [0, 1, 2], 2.5)
    # no int(): OverflowError at inf, ValueError at NaN; True == 1 would make one class
    for n_classes in (np.inf, np.nan, True, np.True_):
        with pytest.raises(ValueError, match=f"^n_classes must be an integer, got {n_classes}$"):
            Dataset(x, [0, 1, 2], n_classes)
    for labels, n_classes in (([0.0, 1.0, 2.0], 3), ([0, 1, 2], 3.0), ([0, 1, 2], np.int64(3))):
        ds = Dataset(x, labels, n_classes)
        assert ds.labels.tolist() == [0, 1, 2] and ds.labels.dtype == np.int64
        assert ds.n_classes == 3 and type(ds.n_classes) is int


def test_subset_takes_integer_row_indices_only():
    # a boolean mask would become rows 0 and 1, and a float array would be truncated
    d = Dataset(np.arange(10.0).reshape(5, 2), np.array([0, 1, 0, 1, 0]), 2)
    for indices, dtype in [(d.labels == 1, "bool"), (np.array([1.0, 3.5]), "float64")]:
        with pytest.raises(ValueError, match=f"^subset takes integer row indices, got dtype {dtype}$"):
            d.subset(indices)
    picked = d.subset(np.array([3, 1], dtype=np.int32))
    assert picked.labels.tolist() == [1, 1] and picked.inputs[:, 0].tolist() == [6.0, 2.0]
    assert np.array_equal(d.subset([4, 0]).inputs, d.inputs[[4, 0]])
    assert len(d.subset([])) == 0
    # -1 would pick the last row, and 5 raise NumPy's bare IndexError
    for indices, bad in [([-1], -1), ([0, 5], 5), ([2, -5, 9], -5), (np.array([7], dtype=np.uint8), 7)]:
        with pytest.raises(ValueError, match=f"^subset index {bad} is out of range for 5 rows$"):
            d.subset(indices)


def test_write_atomic_makes_missing_directories(tmp_path):
    path = tmp_path / "a" / "b" / "out.bin"
    write_atomic(path, b"first")
    assert path.read_bytes() == b"first"
    assert [p.name for p in path.parent.iterdir()] == ["out.bin"]


def test_write_atomic_replaces_an_existing_file_whole(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"a longer old content\n" * 100)
    write_atomic(path, b"new")
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_write_atomic_failed_rename_keeps_the_old_bytes(tmp_path, monkeypatch):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")

    def failing_replace(src, dst):
        raise OSError("cannot rename")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="cannot rename"):
        write_atomic(path, b"new")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]   # no .out.bin.<pid>.tmp
