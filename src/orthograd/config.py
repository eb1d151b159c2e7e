"""The checked experiment builder: ``load_experiment_config`` reads a config file into an
``ExperimentConfig`` after checking every value that needs no data; the config then builds
the parts of a run.  The file's section syntax and value types are ``data``'s."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

from . import data, net
from .data import ConfigError, Seed, parse_sections_text, read_value
from .lora import LoraAdapterSet
from .unlearn import MethodKind, StoppingRule, UnlearnConfig

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_experiment_config",
    "usage_errors",
]


@contextmanager
def usage_errors(where: str):
    """A library ``ValueError`` raised inside, as a ``ConfigError`` that first names ``where``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


# the [unlearn] keys with their types: UnlearnConfig's settings plus the StoppingRule
# threshold; a key left out keeps its field's or threshold's default
_UNLEARN_KEYS = {**{f.name: f.type for f in fields(UnlearnConfig)
                    if f.name not in ("method", "stopping")}, "stop_threshold": "float"}

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
        table = {**self.unlearn_base, **self.unlearn_overrides.get(method.value, {})}
        settings = {key: read_value(value, _UNLEARN_KEYS[key], key, self.source)
                    for key, value in table.items()}
        threshold = settings.pop("stop_threshold", None)
        rule = (StoppingRule.random_forget(target=a_ref, threshold=threshold)
                if self.split_mode == "random" else StoppingRule.class_forget(threshold=threshold))
        spec = self.network_spec()
        with usage_errors(f"{self.source}: {method.value} settings"):
            ucfg = UnlearnConfig(method=method, stopping=rule, **settings)
            if ucfg.use_lora:   # the adapter shapes run_unlearning will attach
                LoraAdapterSet(spec, ucfg.lora_rank, ucfg.lora_scale)
        with usage_errors("--seed-list"):   # the file's values passed above, so only a seed fails
            return ucfg if seed is None else replace(ucfg, seed=seed)


def load_experiment_config(path) -> ExperimentConfig:
    """The experiment at ``path``, with every value checked that needs no data, including
    the pretraining schedule, the network against the dataset and each method's
    ``UnlearnConfig``."""
    source = str(Path(path))
    try:
        text = data.read_text(path, "config")
    except (FileNotFoundError, ValueError) as exc:   # a file that cannot be read is a usage error
        raise ConfigError(str(exc)) from None
    sections = parse_sections_text(text, source)
    methods = [m.value for m in MethodKind]
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
            if key not in _SECTION_KEYS.get(name, _UNLEARN_KEYS):
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
                values[attr] = read_value(table[key], config_fields[attr].type, key, source)
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
