"""Flat key=value configuration format with bracketed section headers.

The same text format is reused for experiment config files and for the
metadata block embedded in checkpoint files.  Layout rules:

* a section starts with ``[name]`` on its own line
* entries are ``key = value`` lines inside a section
* blank lines and lines starting with ``#`` are ignored
* keys are case-sensitive and may not repeat within a section

``parse_sections`` reports errors with the offending line number so config
typos are easy to find.  ``format_sections`` emits a canonical rendering
(stable ordering, single spaces around ``=``) so writers are byte-stable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "ConfigError",
    "parse_sections",
    "format_sections",
    "parse_sections_text",
    "write_atomic",
    "ExperimentConfig",
    "load_experiment_config",
    "METHOD_NAMES",
]


class ConfigError(ValueError):
    """Raised for malformed or invalid configuration input."""


def parse_sections_text(text: str, source: str = "<config>") -> dict[str, dict[str, str]]:
    """Parse config text into ``{section: {key: value}}`` preserving order."""
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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


def parse_sections(path) -> dict[str, dict[str, str]]:
    """Parse a config file; missing files raise ConfigError naming the path."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    return parse_sections_text(text, source=str(p))


def write_atomic(path, data: bytes) -> None:
    """Replace ``path`` by ``data`` via a temporary file beside it and ``os.replace``, so a
    reader sees the old file or the new one; on failure the temporary file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def format_sections(sections) -> str:
    """Render sections in canonical compact form (insertion order, no blank
    lines, ``key = value``); no trailing newline."""
    lines: list[str] = []
    items = sections.items() if isinstance(sections, dict) else sections
    for name, entries in items:
        lines.append(f"[{name}]")
        for key, value in entries.items():
            lines.append(f"{key} = {value}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# experiment configuration


METHOD_NAMES = (
    "orthograd_per_sample",
    "orthograd_mean",
    "neggrad",
    "neggrad_plus",
    "finetune",
)

def _section(sections, name: str, source: str) -> dict[str, str]:
    if name not in sections:
        raise ConfigError(f"{source}: missing required section [{name}]")
    return sections[name]


def _get(table: dict[str, str], key: str, source: str, section: str, default=None):
    if key in table:
        return table[key]
    if default is None:
        raise ConfigError(f"{source}: missing key {key!r} in section [{section}]")
    return default


def _to_int(value: str, key: str, source: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{source}: key {key!r} expects an integer, got {value!r}") from None


def _to_float(value: str, key: str, source: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{source}: key {key!r} expects a number, got {value!r}") from None


def _to_bool(value: str, key: str, source: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise ConfigError(f"{source}: key {key!r} expects 'true' or 'false', got {value!r}")


def _to_int_list(value: str, key: str, source: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in value.split(","))
    except ValueError:
        raise ConfigError(f"{source}: key {key!r} expects comma-separated integers, got {value!r}") from None


# the [unlearn] keys and their converters; a key a config leaves out keeps the
# default of its UnlearnConfig field or StoppingRule threshold
_UNLEARN_KEYS = {
    "alpha": _to_float, "eta": _to_float, "unlearn_batch": _to_int, "retain_batch": _to_int,
    "max_epochs": _to_int, "use_lora": _to_bool, "lora_rank": _to_int,
    "lora_scale": _to_float, "seed": _to_int, "stop_threshold": _to_float,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully parsed experiment description.

    ``unlearn_overrides`` maps method name to raw per-method key overrides
    from ``[unlearn.<method>]`` sections; ``method_settings`` applies them on
    top of the ``unlearn`` base table and converts the values.
    """

    source: str

    # dataset
    dataset_kind: str           # "blobs" or "csv"
    classes: int
    dim: int
    per_class: int = 0          # blobs only
    test_per_class: int = 0     # blobs only
    spread: float = 1.0
    dataset_seed: int = 0
    train_path: str = ""        # csv only
    test_path: str = ""         # csv only

    # network
    layer_sizes: tuple[int, ...] = ()
    activation: str = "relu"

    # pretrain
    pretrain_epochs: int = 0
    pretrain_batch: int = 64
    pretrain_eta: float = 0.1
    pretrain_seed: int = 0

    # splits
    split_mode: str = "random"  # "random" or "class"
    fraction: float = 0.05
    class_label: int = -1
    retain_size: int = 0
    split_seed: int = 0

    # unlearn base settings (strings resolved later per method)
    unlearn_base: dict = field(default_factory=dict)
    unlearn_overrides: dict = field(default_factory=dict)

    # paths (resolved relative to the config file directory)
    checkpoint_path: str = ""
    results_path: str = ""
    runs_dir: str = ""

    def method_settings(self, method: str) -> dict:
        """The typed keys of ``[unlearn]`` merged with ``[unlearn.<method>]``."""
        table = {**self.unlearn_base, **self.unlearn_overrides.get(method, {})}
        return {key: _UNLEARN_KEYS[key](value, key, self.source) for key, value in table.items()}


def load_experiment_config(path) -> ExperimentConfig:
    p = Path(path)
    source = str(p)
    sections = parse_sections(p)

    known_toplevel = {"dataset", "network", "pretrain", "splits", "unlearn", "paths"}
    for name in sections:
        if name in known_toplevel:
            continue
        if name.startswith("unlearn."):
            method = name[len("unlearn."):]
            if method not in METHOD_NAMES:
                raise ConfigError(
                    f"{source}: unknown method {method!r} in section [{name}]; "
                    f"expected one of {', '.join(METHOD_NAMES)}")
            continue
        raise ConfigError(f"{source}: unknown section [{name}]")

    ds = _section(sections, "dataset", source)
    kind = _get(ds, "kind", source, "dataset")
    if kind not in ("blobs", "csv"):
        raise ConfigError(f"{source}: dataset kind must be 'blobs' or 'csv', got {kind!r}")
    classes = _to_int(_get(ds, "classes", source, "dataset"), "classes", source)
    dim = _to_int(_get(ds, "dim", source, "dataset"), "dim", source)

    per_class = test_per_class = 0
    spread = 1.0
    dataset_seed = 0
    train_path = test_path = ""
    if kind == "blobs":
        per_class = _to_int(_get(ds, "per_class", source, "dataset"), "per_class", source)
        test_per_class = _to_int(_get(ds, "test_per_class", source, "dataset"), "test_per_class", source)
        spread = _to_float(_get(ds, "spread", source, "dataset", default="1.0"), "spread", source)
        dataset_seed = _to_int(_get(ds, "seed", source, "dataset", default="0"), "seed", source)
    else:
        train_path = _get(ds, "train_path", source, "dataset")
        test_path = _get(ds, "test_path", source, "dataset")

    nw = _section(sections, "network", source)
    layer_sizes = _to_int_list(_get(nw, "layer_sizes", source, "network"), "layer_sizes", source)
    activation = _get(nw, "activation", source, "network", default="relu")

    pt = _section(sections, "pretrain", source)
    pretrain_epochs = _to_int(_get(pt, "epochs", source, "pretrain"), "epochs", source)
    pretrain_batch = _to_int(_get(pt, "batch_size", source, "pretrain", default="64"), "batch_size", source)
    pretrain_eta = _to_float(_get(pt, "eta", source, "pretrain", default="0.1"), "eta", source)
    pretrain_seed = _to_int(_get(pt, "seed", source, "pretrain", default="0"), "seed", source)

    sp = _section(sections, "splits", source)
    split_mode = _get(sp, "mode", source, "splits")
    if split_mode not in ("random", "class"):
        raise ConfigError(f"{source}: splits mode must be 'random' or 'class', got {split_mode!r}")
    fraction = _to_float(_get(sp, "fraction", source, "splits", default="0.05"), "fraction", source)
    class_label = _to_int(_get(sp, "class_label", source, "splits", default="-1"), "class_label", source)
    if split_mode == "class" and class_label < 0:
        raise ConfigError(f"{source}: splits mode 'class' requires a class_label")
    retain_size = _to_int(_get(sp, "retain_size", source, "splits"), "retain_size", source)
    split_seed = _to_int(_get(sp, "seed", source, "splits", default="0"), "seed", source)

    un = _section(sections, "unlearn", source)
    for key in un:
        if key not in _UNLEARN_KEYS:
            raise ConfigError(f"{source}: unknown key {key!r} in section [unlearn]")
    overrides = {}
    for name, table in sections.items():
        if not name.startswith("unlearn."):
            continue
        for key in table:
            if key not in _UNLEARN_KEYS:
                raise ConfigError(f"{source}: unknown key {key!r} in section [{name}]")
        overrides[name[len("unlearn."):]] = dict(table)

    pa = _section(sections, "paths", source)
    checkpoint_path = _get(pa, "checkpoint", source, "paths")
    results_path = _get(pa, "results", source, "paths")
    runs_dir = _get(pa, "runs_dir", source, "paths", default="runs")

    return ExperimentConfig(
        source=source,
        dataset_kind=kind, classes=classes, dim=dim,
        per_class=per_class, test_per_class=test_per_class, spread=spread,
        dataset_seed=dataset_seed, train_path=train_path, test_path=test_path,
        layer_sizes=layer_sizes, activation=activation,
        pretrain_epochs=pretrain_epochs, pretrain_batch=pretrain_batch,
        pretrain_eta=pretrain_eta, pretrain_seed=pretrain_seed,
        split_mode=split_mode, fraction=fraction, class_label=class_label,
        retain_size=retain_size, split_seed=split_seed,
        unlearn_base=dict(un), unlearn_overrides=overrides,
        checkpoint_path=checkpoint_path, results_path=results_path, runs_dir=runs_dir,
    )
