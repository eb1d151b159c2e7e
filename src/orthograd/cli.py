"""Command-line entry points: pretrain, unlearn, compare.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration failure.  ``pretrain``
and ``unlearn`` read the results file once, before any work, and rewrite it as each run ends.
"""

from __future__ import annotations

import argparse
import sys

from . import net
from .config import ConfigError, load_experiment_config, usage_errors, write_atomic
from .evaluation import (
    RunRecord, emit_records, evaluate_splits, parse_records, render_table, upsert_records, uis,
)
from .unlearn import MethodKind, run_unlearning

USAGE_EXIT = 2
RUNTIME_EXIT = 1


def _architecture(spec: net.NetworkSpec) -> str:
    return f"{'-'.join(str(s) for s in spec.layer_sizes)} ({spec.activation})"


def cmd_pretrain(args) -> int:
    cfg = load_experiment_config(args.config)
    results_path = cfg.resolve(cfg.results_path)
    results = parse_records(results_path) if results_path.exists() else []
    spec = cfg.network_spec()
    train, test = cfg.datasets()
    splits = cfg.splits(train, test)   # a bad split setting fails before any training
    with usage_errors(f"{cfg.source}: pretrain"):   # so does a dataset pretrain rejects
        params = net.pretrain(spec, train, epochs=cfg.pretrain_epochs,
                              batch_size=cfg.pretrain_batch, eta=cfg.pretrain_eta,
                              seed=cfg.pretrain_seed)

    ckpt_path = cfg.resolve(cfg.checkpoint_path)
    ckpt_path.parent.mkdir(parents=True, exist_ok=True)
    net.save_checkpoint(ckpt_path, params, seed=cfg.pretrain_seed)

    report = evaluate_splits(params, splits)
    train_acc = net.evaluate_accuracy(params, train)

    results_path.parent.mkdir(parents=True, exist_ok=True)
    emit_records(upsert_records(results, [RunRecord(
        method="original", seed=cfg.pretrain_seed, A_u=report.A_u, A_r=report.A_r,
        A_test=report.A_test, uis=0.0, stop_epoch=0, stopped_early=False,
        n_retain=splits.n_retain)]), results_path)

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
    for i, value in enumerate(values):   # a repeat would run twice but keep one results row
        if value in values[:i]:
            raise ConfigError(f"{what} repeats {value}")
    return values


def cmd_unlearn(args) -> int:
    cfg = load_experiment_config(args.config)
    results_path = cfg.resolve(cfg.results_path)
    results = parse_records(results_path) if results_path.exists() else []
    ckpt_path = cfg.resolve(cfg.checkpoint_path)
    if not ckpt_path.exists():
        raise ConfigError(f"checkpoint not found: {ckpt_path} (run 'orthograd pretrain' first)")
    pretrained, _meta = net.load_checkpoint(ckpt_path)
    spec = cfg.network_spec()
    if pretrained.spec != spec:
        raise ConfigError(f"{cfg.source}: [network] is {_architecture(spec)}, but checkpoint "
                          f"{ckpt_path} holds {_architecture(pretrained.spec)}")

    methods = _parse_methods(args.method)
    # None: each method's configured seed, or the config's retain_size
    seeds = _parse_int_csv(args.seed_list, "--seed-list") if args.seed_list else [None]
    sizes = _parse_int_csv(args.retain_sizes, "--retain-sizes") if args.retain_sizes else [None]

    train, test = cfg.datasets()
    runs = []   # every run's config is built, and so checked, before the first run writes
    for size in sizes:   # splits and the pretrained reference depend only on the retain size
        splits = cfg.splits(train, test, retain_size=size)
        a_p_test = evaluate_splits(pretrained, splits).A_test
        runs += [(splits, a_p_test, cfg.unlearn_config(method, seed, a_p_test))
                 for method in methods for seed in seeds]

    runs_dir = cfg.resolve(cfg.runs_dir)
    runs_dir.mkdir(parents=True, exist_ok=True)
    results_path.parent.mkdir(parents=True, exist_ok=True)
    records = []   # each run writes its checkpoint, trace and results row as it ends
    for splits, a_p_test, ucfg in runs:
        method, seed, size = ucfg.method, ucfg.seed, splits.n_retain
        with usage_errors(f"{cfg.source}: {method.value} seed={seed}"):   # e.g. a diverging run
            result = run_unlearning(pretrained, splits, ucfg)
        final = result.trace[-1]
        records.append(RunRecord(
            method=method.value, seed=seed, A_u=final.A_u, A_r=final.A_r, A_test=final.A_test,
            uis=uis(a_p_test, final.A_test, final.A_u),
            stop_epoch=result.stop_epoch, stopped_early=result.stopped_early,
            n_retain=size))

        stem = f"{method.value}-nr{size}-s{seed}"
        net.save_checkpoint(runs_dir / f"unlearned-{stem}.ckpt", result.params, seed=seed)
        trace_lines = [
            f"epoch={epoch} A_u={r.A_u:.6g} A_r={r.A_r:.6g} A_test={r.A_test:.6g}"
            for epoch, r in enumerate(result.trace)
        ]
        write_atomic(runs_dir / f"trace-{stem}.txt", ("\n".join(trace_lines) + "\n").encode("utf-8"))
        results = upsert_records(results, records[-1:])
        emit_records(results, results_path)

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
    print(render_table(records))
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
