"""Datasets and unlearn/retain/test splits, and the text layer under the library.

A Dataset is a pair of arrays (float64 features, int64 labels) plus the
class count.  Splits carve one training set
into the unlearn set D_u and retain set D_r, keeping them disjoint; for
class forgetting the test set is partitioned as well so the test metric
never sees the forgotten class.

The text layer reads text files, replaces files atomically, and holds the text form of
each value type (``_VALUE_TYPES``) and the section syntax of experiment config files and
of the metadata block embedded in checkpoint files.  Layout rules:

* a section starts with ``[name]`` on its own line
* entries are ``key = value`` lines inside a section
* blank lines and lines starting with ``#`` are ignored
* keys are case-sensitive and may not repeat within a section

``parse_sections_text`` reports errors with the offending line number so config
typos are easy to find.  ``format_sections`` emits a canonical rendering
(stable ordering, single spaces around ``=``) so writers are byte-stable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "Splits",
    "gen_gaussian_blobs",
    "partition_train_test",
    "load_csv_dataset",
    "make_unlearn_split",
    "ConfigError", "read_text", "content_lines", "parse_sections_text", "format_sections",
    "write_atomic", "read_value", "write_value", "check_integer", "check_positive",
]


class ConfigError(ValueError):
    """Raised for malformed or invalid configuration input."""


def check_integer(name: str, value, least=None) -> None:
    """Reject a count or seed that is not an integer (2.5, 2.0 or True; a NumPy integer passes),
    which fails deep inside ``range`` or NumPy, or that is below ``least`` when one is given."""
    if type(value) is bool or not hasattr(value, "__index__"):   # bool is an int, True no count
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def check_positive(name: str, value) -> None:
    """Reject a rate or scale that is not positive and finite: 0, a negative, inf or NaN."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def read_text(path, what: str) -> str:
    """The UTF-8 text of the ``what`` file at ``path``, less a leading byte-order mark: a
    FileNotFoundError if it is missing, else a ValueError for any fault (a directory, no
    permission, not UTF-8); each names it."""
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise FileNotFoundError(f"{what} file not found: {p}") from None
    except (OSError, UnicodeDecodeError) as exc:   # an OSError's own text repeats the path
        raise ValueError(f"{p}: cannot read {what} file: {getattr(exc, 'strerror', exc)}") from None


def content_lines(text: str):
    """``(line number from 1, stripped line)`` of each line neither blank nor a ``#`` comment;
    only a newline character ends a line, so the numbers match an editor's."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_sections_text(text: str, source: str = "<config>") -> dict[str, dict[str, str]]:
    """Parse config text into ``{section: {key: value}}`` preserving order."""
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    current_name = ""
    for lineno, line in content_lines(text):
        if line.startswith("[") and line.endswith("]"):
            current_name = line[1:-1].strip()
            if not current_name:
                raise ConfigError(f"{source}:{lineno}: empty section name")
            if current_name in sections:
                raise ConfigError(f"{source}:{lineno}: duplicate section [{current_name}]")
            current = {}
            sections[current_name] = current
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value' or '[section]', got {line!r}")
        if current is None:
            raise ConfigError(f"{source}:{lineno}: entry before any [section] header")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in current:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} in section [{current_name}]")
        current[key] = value
    return sections


def format_sections(sections) -> str:
    """Render sections in canonical compact form (insertion order, no blank
    lines, ``key = value``); no trailing newline."""
    lines: list[str] = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        for key, value in entries.items():
            lines.append(f"{key} = {value}")
    return "\n".join(lines)


def write_atomic(path, data: bytes) -> None:
    """Replace ``path`` by ``data`` via a temporary file in its directory, made if missing, and
    ``os.replace``, so a reader sees the old file or the new one; on failure it is removed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)   # before the try: its failure leaves no file
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _seed(value: str) -> int:
    if int(value) < 0:
        raise ValueError(value)
    return int(value)


def _finite(value: str) -> float:
    if not math.isfinite(float(value)):   # inf, nan, and literals that overflow to inf
        raise ValueError(value)
    return float(value)


Seed = int   # a field annotated Seed holds a random seed, which is never negative

# the one text form of each value type a config key, a record field or checkpoint metadata
# can have, by its annotation: (parse, write, what a bad value should have been); a parse
# rejects a bad value with ValueError or KeyError, and reads back what write gives
_VALUE_TYPES = {
    "str": (str, str, None),
    "int": (int, str, "an integer"),
    "float": (_finite, "{:.6g}".format, "a finite number"),
    "bool": ({"true": True, "false": False}.__getitem__, lambda v: "true" if v else "false",
             "'true' or 'false'"),
    "tuple[int, ...]": (lambda v: tuple(int(part) for part in v.split(",")),
                        lambda v: ",".join(map(str, v)), "comma-separated integers"),
    "Seed": (_seed, str, "a non-negative integer"),
}


def write_value(value, type_name: str) -> str:
    return _VALUE_TYPES[type_name][1](value)


def read_value(value: str, type_name: str, key: str, source: str):
    parse, _, expects = _VALUE_TYPES[type_name]
    try:
        return parse(value)
    except (ValueError, KeyError):
        raise ConfigError(f"{source}: key {key!r} expects {expects}, got {value!r}") from None


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=np.float64)
        given = np.asarray(self.labels)
        if given.dtype.kind in "iu":
            y = given.astype(np.int64, copy=False)
        else:   # NaN, inf and huge floats cast, without a warning, to values rejected below
            with np.errstate(invalid="ignore"):
                y = given.astype(np.int64)
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "labels", y)
        if x.ndim != 2:
            raise ValueError(f"inputs must be 2-D, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ValueError(f"labels must have shape ({x.shape[0]},), got {y.shape}")
        if given.dtype.kind not in "iu" and not np.array_equal(y, given):   # integers: no scan
            raise ValueError(f"labels must be integers, got {given.dtype} values int64 would truncate")
        n = self.n_classes   # 3.0 and np.int64(3) pass; True is no count of classes
        if type(n) in (bool, np.bool_) or not np.isfinite(float(n)) or int(n) != n:
            raise ValueError(f"n_classes must be an integer, got {n}")
        object.__setattr__(self, "n_classes", int(n))
        check_integer("n_classes", self.n_classes, 1)
        if x.shape[0] > 0 and (y.min() < 0 or y.max() >= self.n_classes):
            raise ValueError(f"labels out of range [0, {self.n_classes})")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def subset(self, indices) -> "Dataset":
        """The rows at integer ``indices`` in ``[0, len)``; a boolean mask, a float array or an
        index out of that range is a ValueError."""
        idx = np.asarray(indices)
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"subset takes integer row indices, got dtype {idx.dtype}")
        if idx.size and not 0 <= idx.min() <= idx.max() < len(self):   # one scan each
            bad = idx.min() if idx.min() < 0 else idx.max()
            raise ValueError(f"subset index {bad} is out of range for {len(self)} rows")
        idx = idx.astype(np.int64, copy=False)
        return Dataset(self.inputs[idx], self.labels[idx], self.n_classes)


@dataclass(frozen=True)
class Splits:
    """Unlearn/retain/test partition of an experiment.

    ``test`` is what the test-accuracy metric sees; in class mode it already
    excludes the forgotten class.
    """

    unlearn: Dataset
    retain: Dataset
    test: Dataset
    mode: str                       # "random" or "class"


def gen_gaussian_blobs(n_classes: int, dim: int, per_class: int,
                       spread: float = 1.0, seed: int = 0) -> Dataset:
    """Isotropic Gaussian class clusters with controlled separation.

    Class means are random unit directions rescaled so the minimum pairwise
    distance is 4 * spread; samples are mean + N(0, spread^2 I).  Points are
    grouped by class (all of class 0 first, then class 1, ...), which keeps
    deterministic train/test partitioning trivial.
    """
    for name, value in (("n_classes", n_classes), ("dim", dim), ("per_class", per_class)):
        check_integer(name, value)
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    if dim < 1 or per_class < 1:
        raise ValueError(f"dim and per_class must be >= 1, got {dim}, {per_class}")
    if not (spread > 0):
        raise ValueError(f"spread must be positive, got {spread}")

    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(n_classes, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    min_dist = min(
        float(np.linalg.norm(directions[i] - directions[j]))
        for i in range(n_classes) for j in range(i + 1, n_classes))
    if min_dist <= 0:
        raise ValueError("degenerate class directions (duplicate unit vectors)")
    with np.errstate(over="ignore", invalid="ignore"):   # a spread past float64: reported below
        inputs = rng.normal(0.0, spread, size=(n_classes, per_class, dim))
        inputs += directions[:, None] * (4.0 * spread / min_dist)
    if not np.all(np.isfinite(inputs)):
        raise ValueError(f"spread {spread} overflows the float64 range")
    return Dataset(inputs.reshape(-1, dim), np.repeat(np.arange(n_classes), per_class), n_classes)


def partition_train_test(data: Dataset, train_per_class: int) -> tuple[Dataset, Dataset]:
    """Split a class-grouped dataset into train/test by per-class position."""
    check_integer("train_per_class", train_per_class, 1)
    counts = np.bincount(data.labels, minlength=data.n_classes)
    if np.any(counts <= train_per_class):
        raise ValueError(
            f"every class needs more than {train_per_class} points, got counts {counts.tolist()}")
    train_idx, test_idx = [], []
    for c in range(data.n_classes):
        members = np.flatnonzero(data.labels == c)
        train_idx.append(members[:train_per_class])
        test_idx.append(members[train_per_class:])
    return data.subset(np.concatenate(train_idx)), data.subset(np.concatenate(test_idx))


def load_csv_dataset(path, n_features: int, n_classes: int) -> Dataset:
    """Load ``f1,...,fn,label`` lines of finite features; errors carry the 1-based line number."""
    p = Path(path)
    rows, labels = [], []
    for lineno, line in content_lines(read_text(p, "dataset")):
        fields = line.split(",")
        if len(fields) != n_features + 1:
            raise ValueError(
                f"{p}:{lineno}: expected {n_features + 1} fields "
                f"({n_features} features + label), got {len(fields)}")
        try:
            feats = [float(f) for f in fields[:-1]]
        except ValueError:
            raise ValueError(f"{p}:{lineno}: non-numeric feature value") from None
        if not all(map(math.isfinite, feats)):
            raise ValueError(f"{p}:{lineno}: non-finite feature value")
        try:
            label = int(fields[-1])
        except ValueError:
            raise ValueError(f"{p}:{lineno}: label must be an integer, got {fields[-1]!r}") from None
        if not 0 <= label < n_classes:
            raise ValueError(f"{p}:{lineno}: label {label} out of range [0, {n_classes})")
        rows.append(feats)
        labels.append(label)
    if not rows:
        raise ValueError(f"{p}: dataset is empty")
    return Dataset(np.array(rows), np.array(labels, dtype=np.int64), n_classes)


def make_unlearn_split(train: Dataset, test: Dataset, mode: str, retain_size: int,
                       seed: int = 0, fraction: float = 0.05,
                       class_label: int = -1) -> Splits:
    """Build disjoint D_u / D_r plus the matching test view.

    random mode: D_u is a uniform sample of ceil(fraction * N) training
    points.  class mode: D_u is every training point of ``class_label``, and
    test points of the class leave the test view.  In both modes D_r is a
    uniform sample of the training points outside D_u.

    The unlearn set is drawn before the retain set, so for a fixed seed D_u
    is identical across different ``retain_size`` values.
    """
    if train.n_classes != test.n_classes:
        raise ValueError("train and test disagree on the number of classes")
    if len(train) == 0 or len(test) == 0:
        raise ValueError("train and test sets must be non-empty")
    rng = np.random.default_rng(seed)
    n = len(train)

    if mode == "random":
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
        n_u = math.ceil(fraction * n)
        unlearn_idx = np.sort(rng.choice(n, size=n_u, replace=False))
        test_view = test
    elif mode == "class":
        if not 0 <= class_label < train.n_classes:
            raise ValueError(f"class_label {class_label} out of range [0, {train.n_classes})")
        unlearn_idx = np.flatnonzero(train.labels == class_label)
        if unlearn_idx.size == 0:
            raise ValueError(f"training set has no points of class {class_label}")
        test_keep = np.flatnonzero(test.labels != class_label)
        if test_keep.size == 0:
            raise ValueError("test set would be empty after removing the forgotten class")
        test_view = test.subset(test_keep)
    else:
        raise ValueError(f"mode must be 'random' or 'class', got {mode!r}")

    pool = np.setdiff1d(np.arange(n), unlearn_idx, assume_unique=True)
    if pool.size == 0:
        raise ValueError("the unlearn set takes every training row, leaving none to retain")
    check_integer("retain_size", retain_size)
    if not 1 <= retain_size <= pool.size:
        raise ValueError(f"retain_size must lie in [1, {pool.size}], got {retain_size}")
    retain_idx = np.sort(rng.choice(pool, size=retain_size, replace=False))

    return Splits(
        unlearn=train.subset(unlearn_idx),
        retain=train.subset(retain_idx),
        test=test_view,
        mode=mode,
    )
