"""Command-line entry points: pretrain, unlearn, compare.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import data, net
from .config import ConfigError, ExperimentConfig, load_experiment_config, write_atomic
from .evaluation import (
    RunRecord, emit_records, evaluate_splits, parse_records, render_sweep,
    render_table, upsert_records, uis,
)
from .lora import LoraAdapterSet
from .unlearn import MethodKind, StoppingRule, UnlearnConfig, run_unlearning

USAGE_EXIT = 2
RUNTIME_EXIT = 1


def _resolve(cfg: ExperimentConfig, relpath: str) -> Path:
    base = Path(cfg.source).parent
    p = Path(relpath)
    return p if p.is_absolute() else base / p


def _build_dataset(cfg: ExperimentConfig) -> tuple[data.Dataset, data.Dataset]:
    if cfg.dataset_kind == "blobs":
        full = data.gen_gaussian_blobs(
            cfg.classes, cfg.dim, cfg.per_class + cfg.test_per_class,
            spread=cfg.spread, seed=cfg.dataset_seed)
        return data.partition_train_test(full, cfg.per_class)
    train = data.load_csv_dataset(_resolve(cfg, cfg.train_path), cfg.dim, cfg.classes)
    test = data.load_csv_dataset(_resolve(cfg, cfg.test_path), cfg.dim, cfg.classes)
    return train, test


def _build_splits(cfg: ExperimentConfig, train, test, retain_size: int | None = None):
    """Splits from the config; a ``retain_size`` given here comes from ``--retain-sizes``,
    and an error in it names that flag, where an error in a config value names the file."""
    try:
        return data.make_unlearn_split(
            train, test, mode=cfg.split_mode,
            retain_size=cfg.retain_size if retain_size is None else retain_size,
            seed=cfg.split_seed, fraction=cfg.fraction, class_label=cfg.class_label)
    except ValueError as exc:
        # make_unlearn_split's retain-size message, and no other, starts with that name
        where = ("--retain-sizes" if retain_size is not None and str(exc).startswith("retain_size")
                 else f"{cfg.source}: splits")
        raise ConfigError(f"{where}: {exc}") from None


def _unlearn_config(cfg: ExperimentConfig, method: MethodKind, settings: dict, seed: int,
                    a_p_test: float, spec: net.NetworkSpec, seed_flag: bool) -> UnlearnConfig:
    """A run's settings; an error in a seed from ``--seed-list`` (``seed_flag``) names the flag."""
    fields = dict(settings, seed=seed)
    extra = {"threshold": fields.pop("stop_threshold")} if "stop_threshold" in fields else {}
    if cfg.split_mode == "random":
        rule = StoppingRule.random_forget(target=a_p_test, **extra)
    else:
        rule = StoppingRule.class_forget(**extra)
    try:
        ucfg = UnlearnConfig(method=method, stopping=rule, **fields)
        if ucfg.use_lora:   # the adapter shapes run_unlearning will attach
            LoraAdapterSet(spec, ucfg.lora_rank, ucfg.lora_scale, tuple(range(spec.n_layers)))
    except ValueError as exc:
        # UnlearnConfig's seed message, and no other, starts with that name
        where = ("--seed-list" if seed_flag and str(exc).startswith("seed")
                 else f"{cfg.source}: {method.value} settings")
        raise ConfigError(f"{where}: {exc}") from None
    return ucfg


def _network_spec(cfg: ExperimentConfig) -> net.NetworkSpec:
    """The ``[network]`` spec, checked on its own and against the ``[dataset]`` it reads."""
    try:
        spec = net.NetworkSpec(cfg.layer_sizes, cfg.activation)
    except ValueError as exc:
        raise ConfigError(f"{cfg.source}: invalid network ({exc})") from None
    if spec.in_dim != cfg.dim or spec.n_classes != cfg.classes:
        raise ConfigError(
            f"{cfg.source}: network ends {spec.in_dim}->{spec.n_classes}, "
            f"dataset needs {cfg.dim}->{cfg.classes}")
    return spec


def _architecture(spec: net.NetworkSpec) -> str:
    return f"{'-'.join(str(s) for s in spec.layer_sizes)} ({spec.activation})"


def _original_record(cfg: ExperimentConfig, report, n_retain: int) -> RunRecord:
    return RunRecord(
        method="original", seed=cfg.pretrain_seed, epoch=0,
        A_u=report.A_u, A_r=report.A_r, A_test=report.A_test,
        uis=0.0, stop_epoch=0, stopped_early=False, n_retain=n_retain)


def cmd_pretrain(args) -> int:
    cfg = load_experiment_config(args.config)
    spec = _network_spec(cfg)
    train, test = _build_dataset(cfg)
    splits = _build_splits(cfg, train, test)   # a bad split setting fails before any training
    params = net.pretrain(spec, train, epochs=cfg.pretrain_epochs,
                          batch_size=cfg.pretrain_batch, eta=cfg.pretrain_eta,
                          seed=cfg.pretrain_seed)

    ckpt_path = _resolve(cfg, cfg.checkpoint_path)
    ckpt_path.parent.mkdir(parents=True, exist_ok=True)
    net.save_checkpoint(ckpt_path, params, seed=cfg.pretrain_seed)

    report = evaluate_splits(params, splits)
    train_acc = net.evaluate_accuracy(params, train)

    results_path = _resolve(cfg, cfg.results_path)
    results_path.parent.mkdir(parents=True, exist_ok=True)
    existing = parse_records(results_path) if results_path.exists() else []
    emit_records(upsert_records(existing, [_original_record(cfg, report, splits.n_retain)]),
                 results_path)

    print(f"pretrained {_architecture(spec)} for {cfg.pretrain_epochs} epochs")
    print(f"train accuracy {train_acc:.2f}  test accuracy {report.A_test:.2f}")
    print(f"checkpoint written to {ckpt_path}")
    return 0


def _parse_methods(raw: str) -> list[MethodKind]:
    if raw == "all":
        return list(MethodKind)
    try:
        return [MethodKind(raw)]
    except ValueError:
        raise ConfigError(f"unknown method {raw!r}; expected 'all' or one of "
                          + ", ".join(m.value for m in MethodKind)) from None


def _parse_int_csv(raw: str, what: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part != ""]
    except ValueError:
        raise ConfigError(f"{what} expects comma-separated integers, got {raw!r}") from None
    if not values:
        raise ConfigError(f"{what} must list at least one value")
    return values


def cmd_unlearn(args) -> int:
    cfg = load_experiment_config(args.config)
    ckpt_path = _resolve(cfg, cfg.checkpoint_path)
    if not ckpt_path.exists():
        raise ConfigError(f"checkpoint not found: {ckpt_path} (run 'orthograd pretrain' first)")
    pretrained, _meta = net.load_checkpoint(ckpt_path)
    spec = _network_spec(cfg)
    if pretrained.spec != spec:
        raise ConfigError(f"{cfg.source}: [network] is {_architecture(spec)}, but checkpoint "
                          f"{ckpt_path} holds {_architecture(pretrained.spec)}")

    methods = _parse_methods(args.method)
    settings = {m: cfg.method_settings(m.value) for m in methods}
    seeds = {m: (_parse_int_csv(args.seed_list, "--seed-list") if args.seed_list
                 else [settings[m].get("seed", UnlearnConfig.seed)]) for m in methods}
    sizes = (_parse_int_csv(args.retain_sizes, "--retain-sizes")
             if args.retain_sizes else [None])   # None: the config's retain_size

    train, test = _build_dataset(cfg)
    runs = []   # every run's config is built, and so checked, before the first run writes
    for size in sizes:   # splits and the pretrained reference depend only on the retain size
        splits = _build_splits(cfg, train, test, retain_size=size)
        a_p_test = evaluate_splits(pretrained, splits).A_test
        runs += [(splits, a_p_test,
                  _unlearn_config(cfg, method, settings[method], seed, a_p_test, spec,
                                  bool(args.seed_list)))
                 for method in methods for seed in seeds[method]]

    runs_dir = _resolve(cfg, cfg.runs_dir)
    runs_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for splits, a_p_test, ucfg in runs:
        method, seed, size = ucfg.method, ucfg.seed, splits.n_retain
        result = run_unlearning(pretrained, splits, ucfg)
        final = result.trace[-1]
        records.append(RunRecord(
            method=method.value, seed=seed, epoch=final.epoch,
            A_u=final.A_u, A_r=final.A_r, A_test=final.A_test,
            uis=uis(a_p_test, final.A_test, final.A_u),
            stop_epoch=result.stop_epoch, stopped_early=result.stopped_early,
            n_retain=size))

        stem = f"{method.value}-nr{size}-s{seed}"
        net.save_checkpoint(runs_dir / f"unlearned-{stem}.ckpt", result.params, seed=seed)
        trace_lines = [
            f"epoch={r.epoch} A_u={r.A_u:.6g} A_r={r.A_r:.6g} A_test={r.A_test:.6g}"
            for r in result.trace
        ]
        write_atomic(runs_dir / f"trace-{stem}.txt", ("\n".join(trace_lines) + "\n").encode("utf-8"))

    results_path = _resolve(cfg, cfg.results_path)
    results_path.parent.mkdir(parents=True, exist_ok=True)
    existing = parse_records(results_path) if results_path.exists() else []
    emit_records(upsert_records(existing, records), results_path)

    for rec in sorted(records, key=RunRecord.sort_key):
        early = "stopped" if rec.stopped_early else "epoch cap"
        print(f"{rec.method:<22} seed={rec.seed} n_retain={rec.n_retain} "
              f"A_u={rec.A_u:.2f} A_test={rec.A_test:.2f} uis={rec.uis:.3f} "
              f"({early} at {rec.stop_epoch})")
    print(f"{len(records)} records written to {results_path}")
    return 0


def cmd_compare(args) -> int:
    try:
        records = parse_records(args.results)
    except (FileNotFoundError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    print(render_sweep(records) if args.sweep else render_table(records))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthograd",
        description="Gradient-orthogonalization unlearning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pre = sub.add_parser("pretrain", help="train the base classifier and write its checkpoint")
    p_pre.add_argument("config", help="experiment config file")

    p_un = sub.add_parser("unlearn", help="run unlearning methods against a checkpoint")
    p_un.add_argument("config", help="experiment config file")
    p_un.add_argument("--method", default="all",
                      help="method name or 'all' (default: all)")
    p_un.add_argument("--seed-list", default="",
                      help="comma-separated run seeds (default: config seed)")
    p_un.add_argument("--retain-sizes", default="",
                      help="comma-separated retain sizes for a sweep (default: config value)")

    p_cmp = sub.add_parser("compare", help="summarize a results file")
    p_cmp.add_argument("results", help="results file written by 'unlearn'")
    p_cmp.add_argument("--sweep", action="store_true",
                       help="group by retain size instead of aggregating")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"pretrain": cmd_pretrain, "unlearn": cmd_unlearn, "compare": cmd_compare}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"orthograd: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ValueError, OSError) as exc:
        print(f"orthograd: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
