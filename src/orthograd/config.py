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
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

from . import data

__all__ = [
    "ConfigError",
    "parse_sections",
    "format_sections",
    "parse_sections_text",
    "write_atomic",
    "ExperimentConfig",
    "load_experiment_config",
    "usage_errors",
]


class ConfigError(ValueError):
    """Raised for malformed or invalid configuration input."""


@contextmanager
def usage_errors(where: str):
    """A library ``ValueError`` raised inside, as a ``ConfigError`` that first names ``where``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


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
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        for key, value in entries.items():
            lines.append(f"{key} = {value}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# experiment configuration


def _seed(value: str) -> int:
    if int(value) < 0:
        raise ValueError(value)
    return int(value)


Seed = int   # a field annotated Seed holds a random seed, which is never negative

# each value type a key or a results field can have, by its annotation: (parse, what a
# bad value should have been); a parse rejects a bad value with ValueError or KeyError
_VALUE_TYPES = {
    "str": (str, None),
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "bool": ({"true": True, "false": False}.__getitem__, "'true' or 'false'"),
    "tuple[int, ...]": (lambda v: tuple(int(part) for part in v.split(",")),
                        "comma-separated integers"),
    "Seed": (_seed, "a non-negative integer"),
}


def _convert(value: str, type_name: str, key: str, source: str):
    parse, expects = _VALUE_TYPES[type_name]
    try:
        return parse(value)
    except (ValueError, KeyError):
        raise ConfigError(f"{source}: key {key!r} expects {expects}, got {value!r}") from None


def _unlearn_keys() -> dict[str, str]:
    """The ``[unlearn]`` keys with their types: ``UnlearnConfig``'s settings plus the
    ``StoppingRule`` threshold; a key left out keeps its field's or threshold's default."""
    from .unlearn import UnlearnConfig   # here: unlearn imports net, net imports config
    keys = {f.name: f.type for f in fields(UnlearnConfig) if f.name not in ("method", "stopping")}
    return {**keys, "stop_threshold": "float"}


# the keys of every other section: key -> its ExperimentConfig field, whose annotation is
# the key's type.  A key is required exactly when its field has no default, or when the
# dataset kind or split mode requires it (_OWN_KEYS); a key of another kind or mode is rejected
_SECTION_KEYS = {
    "dataset": {
        "kind": "dataset_kind", "classes": "classes",
        "dim": "dim", "per_class": "per_class",
        "test_per_class": "test_per_class", "spread": "spread",
        "seed": "dataset_seed", "train_path": "train_path",
        "test_path": "test_path",
    },
    "network": {"layer_sizes": "layer_sizes", "activation": "activation"},
    "pretrain": {
        "epochs": "pretrain_epochs", "batch_size": "pretrain_batch",
        "eta": "pretrain_eta", "seed": "pretrain_seed",
    },
    "splits": {
        "mode": "split_mode", "fraction": "fraction",
        "class_label": "class_label", "retain_size": "retain_size",
        "seed": "split_seed",
    },
    "paths": {
        "checkpoint": "checkpoint_path", "results": "results_path",
        "runs_dir": "runs_dir",
    },
}
# section -> (the key that selects, {each value it takes: (the keys it requires, the keys
# it allows), which apply under that value only})
_OWN_KEYS = {
    "dataset": ("kind", {"blobs": (("per_class", "test_per_class"), ("spread", "seed")),
                         "csv": (("train_path", "test_path"), ())}),
    "splits": ("mode", {"random": ((), ("fraction",)), "class": (("class_label",), ())}),
}


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Fully parsed experiment description, and the parts of a run it builds.

    A field's default is the value of a config key left out (see ``_SECTION_KEYS``).
    ``unlearn_base`` and ``unlearn_overrides`` hold the raw ``[unlearn]`` and
    ``[unlearn.<method>]`` tables, which ``unlearn_config`` converts.
    """

    source: str

    # dataset
    dataset_kind: str           # "blobs" or "csv"
    classes: int
    dim: int
    per_class: int = 0          # blobs only
    test_per_class: int = 0     # blobs only
    spread: float = 1.0
    dataset_seed: Seed = 0
    train_path: str = ""        # csv only
    test_path: str = ""         # csv only

    # network
    layer_sizes: tuple[int, ...]
    activation: str = "relu"

    # pretrain
    pretrain_epochs: int
    pretrain_batch: int = 64
    pretrain_eta: float = 0.1
    pretrain_seed: Seed = 0

    # splits
    split_mode: str             # "random" or "class"
    fraction: float = 0.05
    class_label: int = -1       # class mode only
    retain_size: int
    split_seed: Seed = 0

    # unlearn base settings (strings resolved later per method)
    unlearn_base: dict = field(default_factory=dict)
    unlearn_overrides: dict = field(default_factory=dict)

    # paths (resolved relative to the config file directory)
    checkpoint_path: str
    results_path: str
    runs_dir: str = "runs"

    def resolve(self, relpath: str) -> Path:
        """A path from the config, relative to the config file's directory."""
        return Path(self.source).parent / relpath   # an absolute relpath stays as it is

    def network_spec(self):
        """The ``[network]`` architecture, as a ``net.NetworkSpec``."""
        from . import net   # here: net imports config
        with usage_errors(f"{self.source}: network"):
            return net.NetworkSpec(self.layer_sizes, self.activation)

    def datasets(self) -> tuple[data.Dataset, data.Dataset]:
        """The train and test sets of ``[dataset]``; a malformed CSV file is a runtime error."""
        if self.dataset_kind == "csv":
            return (data.load_csv_dataset(self.resolve(self.train_path), self.dim, self.classes),
                    data.load_csv_dataset(self.resolve(self.test_path), self.dim, self.classes))
        with usage_errors(f"{self.source}: dataset"):
            full = data.gen_gaussian_blobs(self.classes, self.dim,
                                           self.per_class + self.test_per_class,
                                           spread=self.spread, seed=self.dataset_seed)
            return data.partition_train_test(full, self.per_class)

    def splits(self, train, test, retain_size: int | None = None) -> data.Splits:
        """The ``[splits]`` of ``train`` and ``test``; a ``retain_size`` given here comes from
        ``--retain-sizes``, and is applied once the file's splits are built, so an error in
        it names that flag, not the file."""
        def build(size):
            return data.make_unlearn_split(
                train, test, mode=self.split_mode, retain_size=size, seed=self.split_seed,
                fraction=self.fraction, class_label=self.class_label)

        with usage_errors(f"{self.source}: splits"):
            splits = build(self.retain_size)
        if retain_size is None:
            return splits
        with usage_errors("--retain-sizes"):
            return build(retain_size)

    def unlearn_config(self, method, seed: int | None = None, a_ref: float = 0.0):
        """``method``'s ``UnlearnConfig``: ``[unlearn.<method>]`` over ``[unlearn]``; a random
        forget stops at the pretrained test accuracy ``a_ref``.  A ``seed`` given here comes
        from ``--seed-list``, and an error in it names that flag."""
        from .lora import LoraAdapterSet
        from .unlearn import StoppingRule, UnlearnConfig
        types = _unlearn_keys()
        table = {**self.unlearn_base, **self.unlearn_overrides.get(method.value, {})}
        settings = {key: _convert(value, types[key], key, self.source) for key, value in table.items()}
        threshold = settings.pop("stop_threshold", None)
        rule = (StoppingRule.random_forget(target=a_ref, threshold=threshold)
                if self.split_mode == "random" else StoppingRule.class_forget(threshold=threshold))
        spec = self.network_spec()
        with usage_errors(f"{self.source}: {method.value} settings"):
            ucfg = UnlearnConfig(method=method, stopping=rule, **settings)
            if ucfg.use_lora:   # the adapter shapes run_unlearning will attach
                LoraAdapterSet(spec, ucfg.lora_rank, ucfg.lora_scale, tuple(range(spec.n_layers)))
        with usage_errors("--seed-list"):   # the file's values passed above, so only a seed fails
            return ucfg if seed is None else replace(ucfg, seed=seed)


def load_experiment_config(path) -> ExperimentConfig:
    """The experiment at ``path``, with every value checked that needs no data, including
    the pretraining schedule, the network against the dataset and each method's
    ``UnlearnConfig``."""
    from . import net
    from .unlearn import MethodKind
    source = str(Path(path))
    sections = parse_sections(path)
    methods, unlearn_keys = [m.value for m in MethodKind], _unlearn_keys()
    for name, table in sections.items():
        if name.startswith("unlearn."):
            method = name[len("unlearn."):]
            if method not in methods:
                raise ConfigError(
                    f"{source}: unknown method {method!r} in section [{name}]; "
                    f"expected one of {', '.join(methods)}")
        elif name != "unlearn" and name not in _SECTION_KEYS:
            raise ConfigError(f"{source}: unknown section [{name}]")
        for key in table:
            if key not in _SECTION_KEYS.get(name, unlearn_keys):
                raise ConfigError(f"{source}: unknown key {key!r} in section [{name}]")

    for name in (*_SECTION_KEYS, "unlearn"):
        if name not in sections:
            raise ConfigError(f"{source}: missing required section [{name}]")
    config_fields = {f.name: f for f in fields(ExperimentConfig)}
    values = {}
    for name, keys in _SECTION_KEYS.items():
        table = sections[name]
        for key, attr in keys.items():
            if key in table:
                values[attr] = _convert(table[key], config_fields[attr].type, key, source)
            elif config_fields[attr].default is MISSING:
                raise ConfigError(f"{source}: missing key {key!r} in section [{name}]")
    cfg = ExperimentConfig(
        source=source, **values, unlearn_base=dict(sections["unlearn"]),
        unlearn_overrides={name[len("unlearn."):]: dict(table) for name, table in sections.items()
                           if name.startswith("unlearn.")})

    for name, (selector, own_keys) in _OWN_KEYS.items():
        value = sections[name][selector]
        if value not in own_keys:
            raise ConfigError(f"{source}: {name} {selector} must be "
                              f"{' or '.join(map(repr, own_keys))}, got {value!r}")
        for other, (required, allowed) in own_keys.items():
            for key in required + allowed:
                if other != value and key in sections[name]:
                    raise ConfigError(f"{source}: key {key!r} in section [{name}] applies "
                                      f"only to {selector} = {other}, not {value}")
                if other == value and key in required and key not in sections[name]:
                    raise ConfigError(f"{source}: missing key {key!r} in section [{name}]")
    if cfg.resolve(cfg.checkpoint_path).resolve() == cfg.resolve(cfg.results_path).resolve():
        raise ConfigError(f"{source}: [paths] checkpoint and results name the same file "
                          f"{cfg.results_path!r}")
    with usage_errors(f"{source}: pretrain"):
        net.check_schedule(cfg.pretrain_epochs, cfg.pretrain_batch, cfg.pretrain_eta)
    spec = cfg.network_spec()
    if spec.in_dim != cfg.dim or spec.n_classes != cfg.classes:
        raise ConfigError(f"{source}: network ends {spec.in_dim}->{spec.n_classes}, "
                          f"dataset needs {cfg.dim}->{cfg.classes}")
    for method in MethodKind:
        cfg.unlearn_config(method)
    return cfg
