"""Command-line entry points: pretrain, unlearn, compare.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration failure.  ``pretrain``
and ``unlearn`` read the results file once, before any work, and rewrite it as each run ends.
Each command returns its report, which ``main`` prints once every file is written, so a
reader that closes stdout early ends the command quietly with 0.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import net
from .config import load_experiment_config, usage_errors
from .data import ConfigError, write_atomic
from .evaluation import (
    RunRecord, emit_records, evaluate_splits, format_record, parse_records, render_table, uis,
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
    net.save_checkpoint(ckpt_path, params, seed=cfg.pretrain_seed)

    report = evaluate_splits(params, splits)
    train_acc = net.evaluate_accuracy(params, train)
    emit_records(results_path, results, [RunRecord(
        method="original", seed=cfg.pretrain_seed, A_u=report.A_u, A_r=report.A_r,
        A_test=report.A_test, uis=0.0, stop_epoch=0, stopped_early=False,
        n_retain=len(splits.retain))])

    return (f"pretrained {_architecture(spec)} for {cfg.pretrain_epochs} epochs\n"
            f"train accuracy {train_acc:.2f}  test accuracy {report.A_test:.2f}\n"
            f"checkpoint written to {ckpt_path}")


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

    methods = list(MethodKind) if args.method == "all" else [MethodKind(args.method)]
    # None: each method's configured seed, or the config's retain_size
    seeds = _parse_int_csv(args.seed_list, "--seed-list") if args.seed_list else [None]
    sizes = _parse_int_csv(args.retain_sizes, "--retain-sizes") if args.retain_sizes else [None]

    # every input is built, and so checked, before the first run writes; D_u and the test
    # view do not depend on the retain size, so neither does the pretrained reference
    train, test = cfg.datasets()
    splits = cfg.splits(train, test)
    sweep = [splits if size is None else cfg.splits(train, test, size) for size in sizes]
    a_p_test = net.evaluate_accuracy(pretrained, splits.test)
    if not a_p_test > 0.0:   # the impact score divides by it: fail before any run
        raise ValueError(f"pretrained test accuracy must be positive, got {a_p_test} "
                         f"(checkpoint {ckpt_path})")
    ucfgs = [cfg.unlearn_config(method, seed, a_p_test) for method in methods for seed in seeds]

    runs_dir = cfg.resolve(cfg.runs_dir)
    records = []   # each run writes its checkpoint, trace and results row as it ends
    for splits, ucfg in [(s, u) for s in sweep for u in ucfgs]:
        method, seed, size = ucfg.method, ucfg.seed, len(splits.retain)
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
        trace_lines = [f"epoch={epoch} {format_record(r)}" for epoch, r in enumerate(result.trace)]
        write_atomic(runs_dir / f"trace-{stem}.txt", ("\n".join(trace_lines) + "\n").encode("utf-8"))
        results = emit_records(results_path, results, records[-1:])

    lines = []
    for rec in sorted(records, key=RunRecord.sort_key):
        early = "stopped" if rec.stopped_early else "epoch cap"
        lines.append(f"{rec.method:<22} seed={rec.seed} n_retain={rec.n_retain} "
                     f"A_u={rec.A_u:.2f} A_test={rec.A_test:.2f} uis={rec.uis:.3f} "
                     f"({early} at {rec.stop_epoch})")
    return "\n".join(lines + [f"{len(records)} records written to {results_path}"])


def cmd_compare(args) -> int:
    try:
        records = parse_records(args.results)
    except (FileNotFoundError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return render_table(records)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthograd",
        description="Gradient-orthogonalization unlearning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pre = sub.add_parser("pretrain", help="train the base classifier and write its checkpoint")
    p_pre.add_argument("config", help="experiment config file")

    p_un = sub.add_parser("unlearn", help="run unlearning methods against a checkpoint")
    p_un.add_argument("config", help="experiment config file")
    p_un.add_argument("--method", default="all", choices=[*(m.value for m in MethodKind), "all"],
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
        report = handlers[args.command](args)
        try:   # every file is written by now, so a reader that left early is no failure
            print(report)
            sys.stdout.flush()   # a buffered write fails here, not at interpreter exit
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ConfigError as exc:
        print(f"orthograd: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ValueError, OSError) as exc:
        print(f"orthograd: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
