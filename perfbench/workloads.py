"""The benchmark's workloads: set-up, the timed phase, and output checks.

Every workload follows the same protocol, driven by ``harness.measure``:

* ``prepare()``   untimed, untraced preparation (temporary files);
* ``setup()``     the timed set-up, returning a ``Unit``;
* ``check_setup(unit)``  untimed checks on a set-up;
* ``phase(seed)`` the timed phase, returning one ``Unit`` per checked run;
* ``check(units)``       untimed checks that fill in each unit's results;
* ``close()``     removes what ``prepare`` made.

All calls into orthograd go through module attributes (``unlearn.run_unlearning``,
``net.pretrain``), never through names imported into this file, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from orthograd import cli, config, data, evaluation, net, unlearn

RANDOM_LORA_RUNS = 6       # unlearn seeds per random-lora run
CLI_METHODS = ("neggrad", "neggrad_plus", "finetune", "orthograd_mean")
CLI_SEEDS = 2              # --seed-list length per CLI unlearn command

_SETTING_TYPES = {
    "alpha": float, "eta": float, "unlearn_batch": int, "retain_batch": int,
    "max_epochs": int, "use_lora": lambda s: s == "true", "lora_rank": int,
    "lora_scale": float,
}


@dataclass
class Unit:
    """One checked piece of work: a set-up, an unlearning run or a command."""

    label: str
    problems: list[str] = field(default_factory=list)
    stop_epoch: int = 0
    steps: int = 0
    a_test: float = math.nan
    a_retain: float = math.nan
    uis: float = math.nan
    fingerprint: str = ""
    notes: list[str] = field(default_factory=list)   # observations that are not failures
    is_run: bool = True        # an unlearning run, as opposed to a command
    raw: object = None         # the program's output until ``check`` reads it


def fingerprint(flat) -> str:
    """sha256 of the parameter bytes: equal iff the arithmetic was identical."""
    return hashlib.sha256(np.ascontiguousarray(flat, dtype=np.float64).tobytes()).hexdigest()


def _guarded(unit: Unit, fn, *args):
    """Call ``fn``; an exception becomes a problem of ``unit``, not a crash."""
    try:
        return fn(*args)
    except Exception as exc:   # counted in failed_share; the traceback goes to stderr
        traceback.print_exc(file=sys.stderr)
        unit.problems.append(f"raised {type(exc).__name__}: {exc}")
        return None


def _check_params(unit: Unit, flat) -> None:
    if not np.all(np.isfinite(flat)):
        unit.problems.append("final parameters are not finite")
    unit.fingerprint = fingerprint(flat)


def _method_config(cfg, method: str, a_ref: float) -> unlearn.UnlearnConfig:
    """UnlearnConfig from the [unlearn] table plus the method's overrides.

    ``a_ref`` is the pretrained test accuracy, the random-forget target.
    """
    table = {**cfg.unlearn_base, **cfg.unlearn_overrides.get(method, {})}
    extra = {"threshold": float(table["stop_threshold"])} if "stop_threshold" in table else {}
    if cfg.split_mode == "random":
        stopping = unlearn.StoppingRule.random_forget(target=a_ref, **extra)
    else:
        stopping = unlearn.StoppingRule.class_forget(**extra)
    kwargs = {key: conv(table[key]) for key, conv in _SETTING_TYPES.items() if key in table}
    return unlearn.UnlearnConfig(method=unlearn.MethodKind(method), stopping=stopping, **kwargs)


def _run_seeds(seed: int, count: int) -> list[int]:
    """The unlearn seeds of one benchmark seed: a block of ``count`` consecutive ones."""
    return [seed * count + j for j in range(count)]


class ApiWorkload:
    """Pretrain from a bundled config, then ``run_unlearning`` per seed."""

    def __init__(self, root: Path, config_name: str, runs_per_seed: int):
        self.config_path = root / "configs" / config_name
        self.runs_per_seed = runs_per_seed
        self.method = "orthograd_per_sample"
        self.world = None

    def prepare(self) -> None:
        pass

    def close(self) -> None:
        self.world = None

    def setup(self) -> Unit:
        """Data generation and pretraining, as the CLI's pretrain does them."""
        cfg = config.load_experiment_config(self.config_path)
        full = data.gen_gaussian_blobs(cfg.classes, cfg.dim, cfg.per_class + cfg.test_per_class,
                                       spread=cfg.spread, seed=cfg.dataset_seed)
        train, test = data.partition_train_test(full, cfg.per_class)
        params = net.pretrain(net.NetworkSpec(cfg.layer_sizes, cfg.activation), train,
                              epochs=cfg.pretrain_epochs, batch_size=cfg.pretrain_batch,
                              eta=cfg.pretrain_eta, seed=cfg.pretrain_seed)
        splits = data.make_unlearn_split(train, test, mode=cfg.split_mode,
                                         retain_size=cfg.retain_size, seed=cfg.split_seed,
                                         fraction=cfg.fraction, class_label=cfg.class_label)
        a_ref = evaluation.evaluate_splits(params, splits).A_test
        ucfg = _method_config(cfg, self.method, a_ref)
        self.world = (params, splits, a_ref, ucfg)
        return Unit("pretrain", is_run=False, raw=params)

    def check_setup(self, unit: Unit) -> None:
        _check_params(unit, unit.raw.flat)
        unit.raw = None

    def phase(self, seed: int) -> list[Unit]:
        params, splits, _, ucfg = self.world
        units = []
        for s in _run_seeds(seed, self.runs_per_seed):
            unit = Unit(f"{self.method} seed={s}")
            unit.raw = _guarded(unit, unlearn.run_unlearning, params, splits,
                                dataclasses.replace(ucfg, seed=s))
            units.append(unit)
        return units

    def check(self, units: list[Unit]) -> None:
        _, splits, a_ref, ucfg = self.world
        steps_per_epoch = math.ceil(len(splits.unlearn) / ucfg.unlearn_batch)
        for unit in units:
            res, unit.raw = unit.raw, None
            if res is None:
                continue
            final = res.trace[-1]
            unit.stop_epoch = res.stop_epoch
            unit.steps = res.stop_epoch * steps_per_epoch
            unit.a_test, unit.a_retain = final.A_test, final.A_r
            unit.uis = evaluation.uis(a_ref, final.A_test, final.A_u)
            _check_params(unit, res.params.flat)
            met = [unlearn.stopping_check(report, ucfg.stopping) for report in res.trace]
            stop = met.index(True) if True in met else ucfg.max_epochs
            if (res.stop_epoch, res.stopped_early, len(res.trace)) != (stop, True in met, stop + 1):
                unit.problems.append("stop epoch disagrees with the stopping rule on the trace")
            if not res.stopped_early and splits.mode == "random":
                # a statistical outcome, not a fault: a few seeds need more epochs than the cap
                unit.notes.append(f"reached the {ucfg.max_epochs}-epoch cap before the target")
            if splits.mode == "class":
                if not res.stopped_early:
                    unit.problems.append(f"did not stop early within {ucfg.max_epochs} epochs")
                if not final.A_u < 1.0:
                    unit.problems.append(f"forgotten-class accuracy {final.A_u} is not below 1%")
                if not final.A_test >= a_ref - 5.0:
                    unit.problems.append(f"test accuracy {final.A_test} fell more than "
                                         f"5 points below {a_ref}")


class CliWorkload:
    """``orthograd pretrain`` as set-up; baseline ``unlearn`` commands and ``compare``."""

    def __init__(self, root: Path, out_dir: Path):
        self.source_config = root / "configs" / "blobs_random.cfg"
        self.out_dir = out_dir
        self.workdir = None

    def prepare(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=self.out_dir))
        self.config_path = self.workdir / self.source_config.name
        shutil.copyfile(self.source_config, self.config_path)
        cfg = config.load_experiment_config(self.config_path)
        self.results_path = self.workdir / cfg.results_path
        self.runs_dir = self.workdir / cfg.runs_dir
        self.checkpoint_path = self.workdir / cfg.checkpoint_path
        self.retain_size = cfg.retain_size
        n_u = math.ceil(cfg.fraction * cfg.classes * cfg.per_class)
        ucfgs = {m: _method_config(cfg, m, a_ref=0.0) for m in CLI_METHODS}
        self.steps_per_epoch = {m: math.ceil(n_u / c.unlearn_batch) for m, c in ucfgs.items()}
        self.max_epochs = {m: c.max_epochs for m, c in ucfgs.items()}

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None

    def _command(self, unit: Unit, argv: list[str]) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = _guarded(unit, cli.main, argv)
        if rc is not None and rc != 0:
            unit.problems.append(f"'orthograd {argv[0]}' returned {rc}")
        return out.getvalue()

    def setup(self) -> Unit:
        unit = Unit("orthograd pretrain", is_run=False)
        self._command(unit, ["pretrain", str(self.config_path)])
        return unit

    def check_setup(self, unit: Unit) -> None:
        records = _guarded(unit, evaluation.parse_records, self.results_path) or []
        if not any(r.method == "original" for r in records):
            unit.problems.append("results file has no 'original' record")
        loaded = _guarded(unit, net.load_checkpoint, self.checkpoint_path)
        if loaded is not None:
            _check_params(unit, loaded[0].flat)

    def phase(self, seed: int) -> list[Unit]:
        seeds = _run_seeds(seed, CLI_SEEDS)
        units = []
        for method in CLI_METHODS:
            runs = [Unit(f"{method} seed={s}") for s in seeds]
            command = Unit("")
            self._command(command, ["unlearn", str(self.config_path), "--method", method,
                                    "--seed-list", ",".join(str(s) for s in seeds)])
            for unit in runs:
                unit.problems.extend(command.problems)
            units.extend(runs)
        compare = Unit("orthograd compare", is_run=False)
        compare.raw = self._command(compare, ["compare", str(self.results_path)])
        units.append(compare)
        return units

    def check(self, units: list[Unit]) -> None:
        *runs, compare = units
        records = _guarded(compare, evaluation.parse_records, self.results_path) or []
        expected = 1 + len(runs)
        if len(records) != expected:
            compare.problems.append(f"results file has {len(records)} records, expected {expected}")
        table = compare.raw or ""
        compare.raw = None
        missing = [m for m in CLI_METHODS if m not in table]
        if missing:
            compare.problems.append(f"compare output lacks {', '.join(missing)}")
        by_key = {(r.method, r.seed, r.n_retain): r for r in records}
        for unit in runs:
            method, seed_text = unit.label.split(" seed=")
            seed = int(seed_text)
            rec = by_key.get((method, seed, self.retain_size))
            if rec is None:
                unit.problems.append("no record in the results file")
                continue
            unit.stop_epoch = rec.stop_epoch
            unit.steps = rec.stop_epoch * self.steps_per_epoch[method]
            unit.a_test, unit.a_retain, unit.uis = rec.A_test, rec.A_r, rec.uis
            if not 1 <= rec.stop_epoch <= self.max_epochs[method]:
                unit.problems.append(f"stop epoch {rec.stop_epoch} outside 1..{self.max_epochs[method]}")
            ckpt = self.runs_dir / f"unlearned-{method}-nr{self.retain_size}-s{seed}.ckpt"
            loaded = _guarded(unit, net.load_checkpoint, ckpt)
            if loaded is not None:
                _check_params(unit, loaded[0].flat)


WORKLOADS = ("random-lora", "class-full", "cli-baselines")


def make_workload(name: str, root: Path, out_dir: Path):
    if name == "random-lora":
        return ApiWorkload(root, "blobs_random.cfg", RANDOM_LORA_RUNS)
    if name == "class-full":
        return ApiWorkload(root, "blobs_class.cfg", 1)
    if name == "cli-baselines":
        return CliWorkload(root, out_dir)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
