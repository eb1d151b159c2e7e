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


def _key(section: str, name: str, default=MISSING, only: str = "", required: bool = False):
    """The field that key ``name`` of ``[section]`` sets; a key left out keeps ``default``, and
    is required if there is none.  A key of one dataset kind or split mode (``only``) is
    rejected under another, and is required under its own if ``required``."""
    return field(default=default, metadata={"section": section, "key": name, "only": only,
                                            "required": required})


# the key of a section whose value, a dataset kind or split mode, its ``only`` keys follow
_SELECTORS = {"dataset": "kind", "splits": "mode"}


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Fully parsed experiment description, and the parts of a run it builds.

    Every field but ``source``, the file's path, and the two unlearn tables is set by the
    config key its ``_key`` names.  ``unlearn_base`` and ``unlearn_overrides`` hold the raw
    ``[unlearn]`` and ``[unlearn.<method>]`` tables, which ``unlearn_config`` converts.
    """

    source: str
    dataset_kind: str = _key("dataset", "kind")
    classes: int = _key("dataset", "classes")
    dim: int = _key("dataset", "dim")
    per_class: int = _key("dataset", "per_class", 0, "blobs", required=True)
    test_per_class: int = _key("dataset", "test_per_class", 0, "blobs", required=True)
    spread: float = _key("dataset", "spread", 1.0, "blobs")
    dataset_seed: Seed = _key("dataset", "seed", 0, "blobs")
    train_path: str = _key("dataset", "train_path", "", "csv", required=True)
    test_path: str = _key("dataset", "test_path", "", "csv", required=True)
    layer_sizes: tuple[int, ...] = _key("network", "layer_sizes")
    activation: str = _key("network", "activation", "relu")
    pretrain_epochs: int = _key("pretrain", "epochs")
    pretrain_batch: int = _key("pretrain", "batch_size", 64)
    pretrain_eta: float = _key("pretrain", "eta", 0.1)
    pretrain_seed: Seed = _key("pretrain", "seed", 0)
    split_mode: str = _key("splits", "mode")
    fraction: float = _key("splits", "fraction", 0.05, "random")
    class_label: int = _key("splits", "class_label", -1, "class", required=True)
    retain_size: int = _key("splits", "retain_size")
    split_seed: Seed = _key("splits", "seed", 0)
    unlearn_base: dict = field(default_factory=dict)
    unlearn_overrides: dict = field(default_factory=dict)
    checkpoint_path: str = _key("paths", "checkpoint")
    results_path: str = _key("paths", "results")
    runs_dir: str = _key("paths", "runs_dir", "runs")

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
    keys = {}   # section -> key -> the field it sets, in field order
    for f in fields(ExperimentConfig):
        if f.metadata:
            keys.setdefault(f.metadata["section"], {})[f.metadata["key"]] = f
    methods = [m.value for m in MethodKind]
    for name, table in sections.items():
        if name.startswith("unlearn."):
            method = name[len("unlearn."):]
            if method not in methods:
                raise ConfigError(
                    f"{source}: unknown method {method!r} in section [{name}]; "
                    f"expected one of {', '.join(methods)}")
        elif name != "unlearn" and name not in keys:
            raise ConfigError(f"{source}: unknown section [{name}]")
        for key in table:
            if key not in keys.get(name, _UNLEARN_KEYS):
                raise ConfigError(f"{source}: unknown key {key!r} in section [{name}]")

    for name in (*keys, "unlearn"):
        if name not in sections:
            raise ConfigError(f"{source}: missing required section [{name}]")
    values = {}
    for name, section_keys in keys.items():
        for key, f in section_keys.items():
            if key in sections[name]:
                values[f.name] = read_value(sections[name][key], f.type, key, source)
            elif f.default is MISSING:
                raise ConfigError(f"{source}: missing key {key!r} in section [{name}]")
    cfg = ExperimentConfig(
        source=source, **values, unlearn_base=dict(sections["unlearn"]),
        unlearn_overrides={name[len("unlearn."):]: dict(table) for name, table in sections.items()
                           if name.startswith("unlearn.")})

    for name, selector in _SELECTORS.items():
        table, value = sections[name], sections[name][selector]
        own = dict.fromkeys(f.metadata["only"] for f in keys[name].values() if f.metadata["only"])
        if value not in own:
            raise ConfigError(f"{source}: {name} {selector} must be "
                              f"{' or '.join(map(repr, own))}, got {value!r}")
        for key, f in keys[name].items():
            only = f.metadata["only"]
            if only and only != value and key in table:
                raise ConfigError(f"{source}: key {key!r} in section [{name}] applies "
                                  f"only to {selector} = {only}, not {value}")
            if only == value and f.metadata["required"] and key not in table:
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
