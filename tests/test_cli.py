"""Command-line workflow: exit codes, determinism, record plumbing."""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from helpers import edit_metadata, save_csv_dataset
from orthograd import cli, evaluation, net
from orthograd.cli import main
from orthograd.config import (
    _UNLEARN_KEYS, ConfigError, ExperimentConfig, load_experiment_config,
)
from orthograd.data import (
    format_sections, gen_gaussian_blobs, parse_sections_text, partition_train_test,
)
from orthograd.evaluation import parse_records
from orthograd.net import load_checkpoint

TINY_CONFIG = """\
[dataset]
kind = blobs
classes = 3
dim = 5
per_class = 40
test_per_class = 12
spread = 1.0
seed = 7

[network]
layer_sizes = 5,12,3
activation = relu

[pretrain]
epochs = 25
batch_size = 16
eta = 0.1
seed = 0

[splits]
mode = random
fraction = 0.1
retain_size = 40
seed = 1

[unlearn]
alpha = 0.9
eta = 0.05
unlearn_batch = 8
retain_batch = 8
max_epochs = 3
seed = 2

[unlearn.orthograd_per_sample]
use_lora = true
lora_rank = 2
lora_scale = 8

[paths]
checkpoint = out/pretrained.ckpt
results = out/results.txt
runs_dir = out/runs
"""


@pytest.fixture()
def workdir(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TINY_CONFIG, encoding="utf-8")
    return tmp_path, cfg


def test_config_parsing_round_trip(workdir):
    _, cfg_path = workdir
    cfg = load_experiment_config(cfg_path)
    assert cfg.layer_sizes == (5, 12, 3)
    assert cfg.unlearn_overrides["orthograd_per_sample"]["use_lora"] == "true"
    assert cfg.retain_size == 40


def test_config_with_a_byte_order_mark_loads_like_one_without(workdir):
    tmp_path, cfg_path = workdir
    bom_path = tmp_path / "bom.cfg"
    bom_path.write_text(TINY_CONFIG, encoding="utf-8-sig")
    assert bom_path.read_bytes().startswith(b"\xef\xbb\xbf")
    bom_cfg = load_experiment_config(bom_path)
    assert dataclasses.replace(bom_cfg, source=str(cfg_path)) == load_experiment_config(cfg_path)


def test_config_errors_name_lines():
    with pytest.raises(ConfigError, match=":2"):
        parse_sections_text("[a]\nnot a pair\n", source="cfg")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_sections_text("[a]\nx = 1\nx = 2\n", source="cfg")
    with pytest.raises(ConfigError, match="before any"):
        parse_sections_text("x = 1\n", source="cfg")
    # only a newline ends a line: a line of form feeds, separators and the like is blank
    with pytest.raises(ConfigError, match="^cfg:3: expected"):
        parse_sections_text("[a]\n\x0b\x0c\x1c\x85\u2028\u2029\nx\n", source="cfg")


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    rc = main(["pretrain", str(tmp_path / "absent.cfg")])
    assert rc == 2
    assert "absent.cfg" in capsys.readouterr().err
    # so is a config that cannot be read as UTF-8 text: one Latin-1 byte, or a directory
    latin1, directory = tmp_path / "latin1.cfg", tmp_path / "dir.cfg"
    latin1.write_bytes(TINY_CONFIG.replace("[network]", "# r\xe9seau\n[network]").encode("latin-1"))
    directory.mkdir()
    for path, reason in [(latin1, "'utf-8' codec can't decode byte 0xe9"),
                         (directory, "Is a directory")]:
        for argv in (["pretrain"], ["unlearn", "--method", "neggrad"]):
            assert main([*argv, str(path)]) == 2
            assert capsys.readouterr().err.startswith(
                f"orthograd: {path}: cannot read config file: {reason}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir.cfg", "latin1.cfg"]


def test_bad_config_key_is_usage_error(workdir, capsys):
    tmp_path, cfg_path = workdir
    cfg_path.write_text(TINY_CONFIG + "\n[unlearn.warp]\neta = 1\n", encoding="utf-8")
    rc = main(["pretrain", str(cfg_path)])
    assert rc == 2
    assert "warp" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["dataset", "network", "pretrain", "splits", "unlearn",
                                     "paths"])
def test_unknown_key_in_any_section_is_usage_error(workdir, capsys, section):
    tmp_path, cfg_path = workdir
    cfg_path.write_text(TINY_CONFIG.replace(f"[{section}]\n", f"[{section}]\nbatch_sise = 16\n"),
                        encoding="utf-8")
    assert main(["pretrain", str(cfg_path)]) == 2
    assert (f"exp.cfg: unknown key 'batch_sise' in section [{section}]"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_left_out_keys_take_the_field_defaults(workdir):
    _, cfg_path = workdir
    # TINY_CONFIG's optional keys; [unlearn] loses its eta and seed as well
    optional = ("spread", "seed", "activation", "batch_size", "eta", "fraction", "runs_dir")
    lines = [l for l in TINY_CONFIG.splitlines() if l.split(" = ")[0] not in optional]
    cfg_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = load_experiment_config(cfg_path)
    for f in dataclasses.fields(ExperimentConfig):
        if f.default is not dataclasses.MISSING and f.name not in ("per_class", "test_per_class"):
            assert getattr(cfg, f.name) == f.default, f.name
    assert cfg.runs_dir == "runs"


def _csv_config(tmp_path) -> str:
    """TINY_CONFIG's dataset as CSV files under ``data/``, and a config that reads them."""
    train, test = partition_train_test(gen_gaussian_blobs(3, 5, 52, spread=1.0, seed=7), 40)
    (tmp_path / "data").mkdir()
    save_csv_dataset(tmp_path / "data" / "train.csv", train)
    save_csv_dataset(tmp_path / "data" / "test.csv", test)
    dataset = ("[dataset]\nkind = csv\nclasses = 3\ndim = 5\n"
               "train_path = data/train.csv\ntest_path = data/test.csv\n")
    return dataset + TINY_CONFIG[TINY_CONFIG.index("[network]"):]


@pytest.mark.parametrize("kind, key", [("blobs", "per_class"), ("csv", "train_path"),
                                       ("class", "class_label")])
def test_kind_specific_key_is_required(tmp_path, capsys, kind, key):
    config = _csv_config(tmp_path) if kind == "csv" else TINY_CONFIG
    section = "splits" if kind == "class" else "dataset"
    if kind == "class":   # a class forget that names no class; fraction is random mode's own
        config = config.replace("mode = random\nfraction = 0.1", "mode = class")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("\n".join(l for l in config.splitlines() if not l.startswith(key + " ")),
                        encoding="utf-8")
    assert main(["pretrain", str(cfg_path)]) == 2
    assert f"exp.cfg: missing key '{key}' in section [{section}]" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, section, key, applies", [
    ("kind = blobs", "kind = blobs\ntrain_path = nowhere.csv", "dataset", "train_path",
     "kind = csv, not blobs"),
    ("kind = csv", "kind = csv\nseed = 7", "dataset", "seed", "kind = blobs, not csv"),
    ("mode = random", "mode = random\nclass_label = 2", "splits", "class_label",
     "mode = class, not random"),
    ("mode = random", "mode = class\nclass_label = 2", "splits", "fraction",  # TINY_CONFIG's own
     "mode = random, not class"),
], ids=["blobs-train_path", "csv-seed", "random-class_label", "class-fraction"])
def test_key_of_another_kind_or_mode_is_usage_error(tmp_path, capsys, old, new, section, key,
                                                    applies):
    config = _csv_config(tmp_path) if old == "kind = csv" else TINY_CONFIG
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(config.replace(old, new), encoding="utf-8")
    assert main(["pretrain", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        f"orthograd: {cfg_path}: key '{key}' in section [{section}] applies only to {applies}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new, message", [
    ("[paths]", "[extra]\nx = 1\n\n[paths]", "{cfg}: unknown section [extra]"),
    (TINY_CONFIG[TINY_CONFIG.index("[paths]"):], "", "{cfg}: missing required section [paths]"),
    ("[unlearn]\n", "[unlearn]\n = 3\n", "{cfg}:27: empty key"),
    ("[unlearn]\n", "[ ]\n", "{cfg}:26: empty section name"),
    ("kind = blobs", "kind = sqlite", "{cfg}: dataset kind must be 'blobs' or 'csv', got 'sqlite'"),
    ("mode = random", "mode = stratified",
     "{cfg}: splits mode must be 'random' or 'class', got 'stratified'"),
], ids=["unknown-section", "missing-section", "empty-key", "empty-section-name", "unknown-kind",
        "unknown-mode"])
def test_malformed_config_layout_is_usage_error_naming_the_file(workdir, capsys, old, new,
                                                                message):
    tmp_path, cfg_path = workdir
    cfg_path.write_text(TINY_CONFIG.replace(old, new), encoding="utf-8")
    assert main(["pretrain", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"orthograd: {message.format(cfg=cfg_path)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def test_csv_dataset_runs_like_the_blobs_it_holds(tmp_path):
    # the CSV files hold TINY_CONFIG's blobs exactly, so every output must match
    # the blobs run byte for byte; the paths resolve against the config's directory,
    # and blank and '#' lines are skipped
    blobs_dir, csv_dir = tmp_path / "blobs", tmp_path / "csv"
    blobs_dir.mkdir()
    csv_dir.mkdir()
    (blobs_dir / "exp.cfg").write_text(TINY_CONFIG, encoding="utf-8")
    (csv_dir / "exp.cfg").write_text(_csv_config(csv_dir), encoding="utf-8")
    train = csv_dir / "data" / "train.csv"
    lines = train.read_text(encoding="utf-8").splitlines()   # 40 rows of each class
    lines[40:40] = ["", "  # class 1"]
    lines.insert(0, "# x1,x2,x3,x4,x5,label")
    train.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for d in (blobs_dir, csv_dir):
        assert main(["pretrain", str(d / "exp.cfg")]) == 0
        assert main(["unlearn", str(d / "exp.cfg"), "--method", "neggrad",
                     "--seed-list", "0,1"]) == 0
    outputs = sorted(p.relative_to(blobs_dir / "out") for p in (blobs_dir / "out").rglob("*")
                     if p.is_file())
    assert len(outputs) == 6   # checkpoint, results, two unlearned checkpoints, two traces
    assert outputs == sorted(p.relative_to(csv_dir / "out") for p in (csv_dir / "out").rglob("*")
                             if p.is_file())
    for rel in outputs:
        assert (csv_dir / "out" / rel).read_bytes() == (blobs_dir / "out" / rel).read_bytes()


def test_non_finite_csv_feature_is_runtime_error_before_any_write(tmp_path, capsys):
    # both commands read the dataset before they write; unlearn runs against a
    # checkpoint pretrained on the file before its third line was spoiled
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_csv_config(tmp_path), encoding="utf-8")
    train = tmp_path / "data" / "train.csv"
    good = train.read_text(encoding="utf-8")
    lines = good.splitlines()
    lines[2] = "nan" + lines[2][lines[2].index(","):]
    bad = "\n".join(lines) + "\n"
    message = f"orthograd: {train}:3: non-finite feature value"

    train.write_text(bad, encoding="utf-8")
    assert main(["pretrain", str(cfg_path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    train.write_bytes(good.encode("utf-8") + b"# donn\xe9es\n")   # a Latin-1 byte
    assert main(["pretrain", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith(
        f"orthograd: {train}: cannot read dataset file: 'utf-8' codec can't decode byte 0xe9")
    assert not (tmp_path / "out").exists()

    train.write_text(good, encoding="utf-8")
    assert main(["pretrain", str(cfg_path)]) == 0
    written = {p: p.read_bytes() for p in (tmp_path / "out").rglob("*")}
    train.write_text(bad, encoding="utf-8")
    capsys.readouterr()
    assert main(["unlearn", str(cfg_path), "--method", "neggrad"]) == 1
    assert message in capsys.readouterr().err
    assert {p: p.read_bytes() for p in (tmp_path / "out").rglob("*")} == written


def test_each_method_runs_at_its_own_configured_seed(workdir):
    tmp_path, cfg_path = workdir
    cfg_path.write_text(TINY_CONFIG + "\n[unlearn.neggrad]\nseed = 5\n", encoding="utf-8")
    assert main(["pretrain", str(cfg_path)]) == 0
    assert main(["unlearn", str(cfg_path), "--method", "all"]) == 0
    seeds = {r.method: r.seed for r in parse_records(tmp_path / "out" / "results.txt")
             if r.method != "original"}
    assert seeds == {"finetune": 2, "neggrad": 5, "neggrad_plus": 2, "orthograd_mean": 2,
                     "orthograd_per_sample": 2}


# one malformed value of each type in each section that has a key of that type, and a
# non-finite value for every float key: (section, key, value, what the key expects)
MALFORMED_VALUES = [
    ("dataset", "classes", "three", "an integer"),
    ("dataset", "spread", "wide", "a finite number"),
    ("network", "layer_sizes", "5,a,3", "comma-separated integers"),
    ("pretrain", "epochs", "2.5", "an integer"),
    ("pretrain", "eta", "fast", "a finite number"),
    ("splits", "retain_size", "forty", "an integer"),
    ("splits", "fraction", "1/10", "a finite number"),
    ("unlearn", "max_epochs", "3.0", "an integer"),
    ("unlearn", "alpha", "0,9", "a finite number"),
    ("unlearn", "use_lora", "yes", "'true' or 'false'"),
    ("unlearn.neggrad", "seed", "two", "an integer"),
    ("unlearn.neggrad", "eta", "abc", "a finite number"),
    ("unlearn.neggrad", "use_lora", "True", "'true' or 'false'"),
    ("unlearn.finetune", "lora_rank", "two", "an integer"),
    ("dataset", "seed", "-3", "a non-negative integer"),
    ("pretrain", "seed", "-1", "a non-negative integer"),
    ("splits", "seed", "-1", "a non-negative integer"),
    ("dataset", "spread", "inf", "a finite number"),
    ("pretrain", "eta", "inf", "a finite number"),
    ("splits", "fraction", "nan", "a finite number"),
    ("unlearn", "alpha", "nan", "a finite number"),
    ("unlearn", "eta", "1e999", "a finite number"),   # overflows to inf
    ("unlearn", "stop_threshold", "nan", "a finite number"),
    ("unlearn.orthograd_per_sample", "lora_scale", "-inf", "a finite number"),
]


def test_malformed_unlearn_value_is_usage_error(workdir, capsys):
    # a malformed value in any section exits 2 naming the file, key and value, and writes
    # nothing; both commands check every section, whichever method unlearn runs
    tmp_path, cfg_path = workdir
    assert main(["pretrain", str(cfg_path)]) == 0
    written = {p: p.read_bytes() for p in (tmp_path / "out").rglob("*") if p.is_file()}
    for section, key, value, expects in MALFORMED_VALUES:
        sections = parse_sections_text(TINY_CONFIG)
        sections.setdefault(section, {})[key] = value
        cfg_path.write_text(format_sections(sections) + "\n", encoding="utf-8")
        commands = [["unlearn", str(cfg_path), "--method", "all"], ["pretrain", str(cfg_path)],
                    ["unlearn", str(cfg_path), "--method", "neggrad"]]
        for argv in commands:
            capsys.readouterr()
            assert main(argv) == 2, (section, key, argv[0])
            assert capsys.readouterr().err == (
                f"orthograd: {cfg_path}: key {key!r} expects {expects}, got {value!r}\n")
            assert {p: p.read_bytes() for p in (tmp_path / "out").rglob("*")
                    if p.is_file()} == written


def _float_keys() -> set[tuple[str, str]]:
    """Every (section, key) of TINY_CONFIG whose value is a float, by the config's types."""
    key_types = {(f.metadata["section"], f.metadata["key"]): f.type
                 for f in dataclasses.fields(ExperimentConfig) if f.metadata}

    def key_type(section, key):   # an [unlearn] or [unlearn.<method>] key is UnlearnConfig's
        return key_types.get((section, key)) or _UNLEARN_KEYS[key]

    return {(section, key) for section, table in parse_sections_text(TINY_CONFIG).items()
            for key in table if key_type(section, key) == "float"}


def _config_mutants():
    """TINY_CONFIG with one change each, and whether it must be rejected: a key left out or
    set to -1, 0 or a word, a float key set to inf or nan (rejected), an unknown key in a
    section, or an unknown [unlearn.<method>] section (rejected)."""
    float_keys = _float_keys()
    assert len(float_keys) == 6   # spread, both etas, fraction, alpha, lora_scale
    for section, table in parse_sections_text(TINY_CONFIG).items():
        for key in [*table, "bogus"]:
            values = [None, "-1", "0", "two"] if key in table else ["1"]
            non_finite = ["inf", "nan"] if (section, key) in float_keys else []
            for value in values + non_finite:
                sections = parse_sections_text(TINY_CONFIG)
                if value is None:
                    del sections[section][key]
                else:
                    sections[section][key] = value
                yield sections, value in non_finite
    yield {**parse_sections_text(TINY_CONFIG), "unlearn.warp": {"eta": "1"}}, True


def test_config_mutants_exit_0_or_usage_error_before_any_write(workdir, capsys):
    # each command runs, or exits 2 naming the config before it writes; none exits 1,
    # and a non-finite float always exits 2.
    # Each mutant starts in a copy of one pretrained directory, so unlearn has a checkpoint
    base, _ = workdir
    assert main(["pretrain", str(base / "exp.cfg")]) == 0
    for i, (sections, rejected) in enumerate(_config_mutants()):
        shutil.copytree(base / "out", base / f"m{i}" / "out")
        cfg_path = base / f"m{i}" / "exp.cfg"
        cfg_path.write_text(format_sections(sections) + "\n", encoding="utf-8")
        for argv in (["pretrain", str(cfg_path)], ["unlearn", str(cfg_path), "--method", "all"]):
            before = {p: p.read_bytes() for p in cfg_path.parent.rglob("*") if p.is_file()}
            capsys.readouterr()
            rc = main(argv)
            err = capsys.readouterr().err
            assert rc in ((2,) if rejected else (0, 2)), (argv[0], sections, err)
            if rc == 2:
                assert err.startswith(f"orthograd: {cfg_path}: "), (argv[0], sections, err)
                assert {p: p.read_bytes() for p in cfg_path.parent.rglob("*")
                        if p.is_file()} == before


@pytest.mark.parametrize("old, new, named", [
    ("test_per_class = 12", "test_per_class = 0", "dataset: every class needs more than 40"),
    ("spread = 1.0", "spread = 0", "dataset: spread must be positive, got 0.0"),
    ("spread = 1.0", "spread = 1e308", "dataset: spread 1e+308 overflows"),
    ("epochs = 25", "epochs = -1", "pretrain: epochs must be >= 0, got -1"),
    ("batch_size = 16", "batch_size = 0", "pretrain: batch_size must be >= 1, got 0"),
    ("eta = 0.1", "eta = -1", "pretrain: eta must be positive and finite, got -1.0"),
], ids=["test_per_class", "spread", "spread_overflow", "epochs", "batch_size", "eta"])
def test_out_of_range_dataset_or_pretrain_value_is_usage_error(workdir, capsys, old, new, named):
    tmp_path, cfg_path = workdir
    cfg_path.write_text(TINY_CONFIG.replace(old, new), encoding="utf-8")
    assert main(["pretrain", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"orthograd: {cfg_path}: {named}")
    assert not (tmp_path / "out").exists()
    # unlearn rejects the same file, against a checkpoint pretrained from the good one
    cfg_path.write_text(TINY_CONFIG, encoding="utf-8")
    assert main(["pretrain", str(cfg_path)]) == 0
    cfg_path.write_text(TINY_CONFIG.replace(old, new), encoding="utf-8")
    written = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(["unlearn", str(cfg_path), "--method", "neggrad"]) == 2
    assert capsys.readouterr().err.startswith(f"orthograd: {cfg_path}: {named}")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == written


def test_pretrain_that_diverges_is_usage_error_before_any_write(workdir, capsys):
    # eta = 1e10 is in range, but training at it ends with every parameter NaN
    tmp_path, cfg_path = workdir
    cfg_path.write_text(TINY_CONFIG.replace("eta = 0.1", "eta = 1e10"), encoding="utf-8")
    assert main(["pretrain", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (f"orthograd: {cfg_path}: pretrain: training diverged to "
                                       f"non-finite parameters at eta = 10000000000.0 "
                                       f"(largest input magnitude 7.39)\n")
    assert not (tmp_path / "out").exists()


def test_pretrain_that_diverges_on_huge_inputs_names_their_magnitude(workdir, capsys):
    # eta = 0.1 trains the same rows at spread = 1.0; the message gives the input scale too
    tmp_path, cfg_path = workdir
    cfg_path.write_text(TINY_CONFIG.replace("spread = 1.0", "spread = 1e150"), encoding="utf-8")
    assert main(["pretrain", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (f"orthograd: {cfg_path}: pretrain: training diverged to "
                                       f"non-finite parameters at eta = 0.1 "
                                       f"(largest input magnitude 7.39e+150)\n")
    assert not (tmp_path / "out").exists()


def test_diverging_unlearn_run_is_usage_error_keeping_the_runs_before_it(workdir, capsys):
    # class mode; orthograd_mean, the second run of --method all, diverges at eta = 1e200.
    # The first run keeps its checkpoint, trace and results row; the failed run writes none
    # of its own files, and no later run starts
    tmp_path, cfg_path = workdir
    text = TINY_CONFIG.replace("mode = random\nfraction = 0.1", "mode = class\nclass_label = 1")
    cfg_path.write_text(text.replace("[unlearn.orthograd_per_sample]",
                                     "[unlearn.orthograd_mean]\neta = 1e200\n\n"
                                     "[unlearn.orthograd_per_sample]"), encoding="utf-8")
    assert main(["pretrain", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["unlearn", str(cfg_path), "--method", "all"]) == 2
    assert capsys.readouterr().err == (f"orthograd: {cfg_path}: orthograd_mean seed=2: "
                                       "unlearning diverged to non-finite values at epoch 1\n")
    assert sorted(p.name for p in (tmp_path / "out" / "runs").iterdir()) == [
        "trace-orthograd_per_sample-nr40-s2.txt", "unlearned-orthograd_per_sample-nr40-s2.ckpt"]
    records = parse_records(tmp_path / "out" / "results.txt")
    assert [(r.method, r.seed) for r in records] == [("original", 0), ("orthograd_per_sample", 2)]


def test_unlearn_whose_first_run_diverges_leaves_no_runs_dir(workdir, capsys):
    # each writer makes its own directory, so a command that fails before its first write
    # leaves none behind; the results file pretrain wrote stays as it was
    tmp_path, cfg_path = workdir
    text = TINY_CONFIG.replace("mode = random\nfraction = 0.1", "mode = class\nclass_label = 1")
    cfg_path.write_text(text + "\n[unlearn.orthograd_mean]\neta = 1e200\n", encoding="utf-8")
    assert main(["pretrain", str(cfg_path)]) == 0
    written = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(["unlearn", str(cfg_path), "--method", "orthograd_mean"]) == 2
    assert capsys.readouterr().err == (f"orthograd: {cfg_path}: orthograd_mean seed=2: "
                                       "unlearning diverged to non-finite values at epoch 1\n")
    assert not (tmp_path / "out" / "runs").exists()
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == written


@pytest.mark.parametrize("method, table, named", [
    ("neggrad", "alpha = 1.5", "alpha must lie in [0, 1], got 1.5"),
    ("finetune", "use_lora = true\nlora_rank = 4", "rank 4 exceeds"),   # the last layer is 12 -> 3
])
def test_out_of_range_unlearn_value_is_usage_error_before_any_run(workdir, capsys, method, table,
                                                                   named):
    # other methods run before these; none may write before the value is rejected
    tmp_path, cfg_path = workdir
    assert main(["pretrain", str(cfg_path)]) == 0
    results = (tmp_path / "out" / "results.txt").read_bytes()
    cfg_path.write_text(TINY_CONFIG + f"\n[unlearn.{method}]\n{table}\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["unlearn", str(cfg_path), "--method", "all", "--seed-list", "0,1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "exp.cfg" in err and f"{method} settings" in err and named in err
    assert not (tmp_path / "out" / "runs").exists()
    assert (tmp_path / "out" / "results.txt").read_bytes() == results


@pytest.mark.parametrize("argv, table, message", [
    (["--method", "neggrad", "--seed-list", "3,-1"], "", "--seed-list: seed must be >= 0, got -1"),
    (["--method", "all"], "\n[unlearn.neggrad]\nseed = -1\n",
     "{cfg}: neggrad settings: seed must be >= 0, got -1"),
    (["--method", "neggrad", "--seed-list", "x"], "",
     "--seed-list expects comma-separated integers, got 'x'"),
    (["--method", "neggrad", "--seed-list", ","], "", "--seed-list must list at least one value"),
], ids=["flag", "config", "flag-not-integers", "flag-no-value"])
def test_negative_unlearn_seed_is_usage_error_before_any_run(workdir, capsys, argv, table,
                                                             message):
    # seed 3, or the methods before neggrad, may not write before the negative seed is rejected;
    # neither may a run when the flag lists no seed or a seed that is no integer
    tmp_path, cfg_path = workdir
    assert main(["pretrain", str(cfg_path)]) == 0
    results = (tmp_path / "out" / "results.txt").read_bytes()
    cfg_path.write_text(TINY_CONFIG + table, encoding="utf-8")
    capsys.readouterr()
    assert main(["unlearn", str(cfg_path), *argv]) == 2
    assert capsys.readouterr().err == f"orthograd: {message.format(cfg=cfg_path)}\n"
    assert not (tmp_path / "out" / "runs").exists()
    assert (tmp_path / "out" / "results.txt").read_bytes() == results


def test_out_of_range_split_value_is_usage_error_before_any_training(workdir, capsys,
                                                                     monkeypatch):
    tmp_path, cfg_path = workdir
    cfg_path.write_text(TINY_CONFIG.replace("retain_size = 40", "retain_size = 9000"),
                        encoding="utf-8")
    monkeypatch.setattr(net, "pretrain", lambda *a, **kw: pytest.fail("pretrained"))
    rc = main(["pretrain", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "exp.cfg" in err and "retain_size must lie in [1, 108], got 9000" in err
    assert not (tmp_path / "out").exists()
    cfg_path.write_text(TINY_CONFIG.replace("mode = random\nfraction = 0.1",
                                            "mode = class\nclass_label = -1"), encoding="utf-8")
    assert main(["pretrain", str(cfg_path)]) == 2
    assert "exp.cfg: splits: class_label -1 out of range [0, 3)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    monkeypatch.undo()

    cfg_path.write_text(TINY_CONFIG, encoding="utf-8")
    assert main(["pretrain", str(cfg_path)]) == 0
    capsys.readouterr()
    # a value from the command line names the flag, not the file
    rc = main(["unlearn", str(cfg_path), "--method", "neggrad", "--retain-sizes", "20,9000"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--retain-sizes: retain_size must lie in [1, 108], got 9000" in err
    assert "exp.cfg" not in err
    # the same value from the file names the file
    cfg_path.write_text(TINY_CONFIG.replace("retain_size = 40", "retain_size = 9000"),
                        encoding="utf-8")
    rc = main(["unlearn", str(cfg_path), "--method", "neggrad"])
    assert rc == 2
    assert "exp.cfg: splits: retain_size must lie in [1, 108], got 9000" in capsys.readouterr().err
    # the file's retain size is checked even when the flag replaces it
    rc = main(["unlearn", str(cfg_path), "--method", "neggrad", "--retain-sizes", "20"])
    assert rc == 2
    assert "exp.cfg: splits: retain_size must lie in [1, 108], got 9000" in capsys.readouterr().err
    # a bad file value still names the file when the flag sets the retain size
    cfg_path.write_text(TINY_CONFIG.replace("fraction = 0.1", "fraction = 1.5"), encoding="utf-8")
    rc = main(["unlearn", str(cfg_path), "--method", "neggrad", "--retain-sizes", "20"])
    assert rc == 2
    assert "exp.cfg: splits: fraction must lie in (0, 1), got 1.5" in capsys.readouterr().err
    assert not (tmp_path / "out" / "runs").exists()


def test_retain_size_zero_from_the_flag_is_usage_error(workdir, capsys):
    # 0 is a retain size like any other, not a stand-in for the config's retain_size
    tmp_path, cfg_path = workdir
    assert main(["pretrain", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["unlearn", str(cfg_path), "--method", "neggrad", "--retain-sizes", "0"]) == 2
    assert capsys.readouterr().err == (
        "orthograd: --retain-sizes: retain_size must lie in [1, 108], got 0\n")
    assert not (tmp_path / "out" / "runs").exists()


@pytest.mark.parametrize("flag, value, repeated", [("--seed-list", "1,1,", 1),
                                                  ("--retain-sizes", "40,20,40", 40)])
def test_repeated_flag_value_is_usage_error_before_any_run(workdir, capsys, flag, value,
                                                           repeated):
    # a repeated run would print twice but keep one results row
    tmp_path, cfg_path = workdir
    assert main(["pretrain", str(cfg_path)]) == 0
    results = (tmp_path / "out" / "results.txt").read_bytes()
    capsys.readouterr()
    assert main(["unlearn", str(cfg_path), "--method", "neggrad", flag, value]) == 2
    assert capsys.readouterr().err == f"orthograd: {flag} repeats {repeated}\n"
    assert not (tmp_path / "out" / "runs").exists()
    assert (tmp_path / "out" / "results.txt").read_bytes() == results


@pytest.mark.parametrize("results", ["out/pretrained.ckpt", "out/../out/./pretrained.ckpt"])
def test_checkpoint_and_results_in_one_file_is_usage_error(workdir, capsys, results):
    # pretrain would write the checkpoint and then read it back as a results file
    tmp_path, cfg_path = workdir
    cfg_path.write_text(TINY_CONFIG.replace("results = out/results.txt", f"results = {results}"),
                        encoding="utf-8")
    for argv in (["pretrain"], ["unlearn", "--method", "neggrad"]):
        assert main([*argv, str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"orthograd: {cfg_path}: [paths] checkpoint and results name the same file "
            f"{results!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


@pytest.mark.parametrize("prefix", ["unlearned-", "trace-", "results"])
def test_failed_rename_keeps_the_previous_output(workdir, capsys, monkeypatch, prefix):
    # each output is written to a temporary file and renamed over the old one;
    # when the rename fails, the old bytes stay and the temporary file goes.
    # Spread only rescales the inputs (the blobs overlap as at 1.0): 3.0 triples them and
    # so the effective step size, so that neggrad runs epochs and its rate shows in every output.
    tmp_path, cfg_path = workdir
    config = TINY_CONFIG.replace("spread = 1.0", "spread = 3.0")
    cfg_path.write_text(config, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["pretrain", str(cfg_path)]) == 0
    assert main(["unlearn", str(cfg_path), "--method", "neggrad", "--seed-list", "0"]) == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    target = next(p for p in before if p.name.startswith(prefix))
    cfg_path.write_text(config + "\n[unlearn.neggrad]\neta = 0.5\n", encoding="utf-8")
    real_replace = os.replace

    def failing_replace(src, dst):
        if os.path.basename(dst).startswith(prefix):
            raise OSError(f"cannot rename onto {dst}")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    capsys.readouterr()
    assert main(["unlearn", str(cfg_path), "--method", "neggrad", "--seed-list", "0"]) == 1
    assert "cannot rename" in capsys.readouterr().err
    assert target.read_bytes() == before[target]
    assert sorted(p for p in out.rglob("*") if p.is_file()) == sorted(before)
    monkeypatch.undo()
    assert main(["unlearn", str(cfg_path), "--method", "neggrad", "--seed-list", "0"]) == 0
    assert target.read_bytes() != before[target]   # the failed write would have changed it


@pytest.mark.parametrize("old, new", [("layer_sizes = 5,12,3", "layer_sizes = 5,16,3"),
                                      ("activation = relu", "activation = tanh")],
                         ids=["layer_sizes", "activation"])
def test_unlearn_with_another_network_than_the_checkpoint_is_usage_error(workdir, capsys,
                                                                         old, new):
    tmp_path, cfg_path = workdir
    assert main(["pretrain", str(cfg_path)]) == 0
    results = (tmp_path / "out" / "results.txt").read_bytes()
    cfg_path.write_text(TINY_CONFIG.replace(old, new), encoding="utf-8")
    capsys.readouterr()
    rc = main(["unlearn", str(cfg_path), "--method", "neggrad"])
    err = capsys.readouterr().err
    assert rc == 2
    want = "5-16-3 (relu)" if "16" in new else "5-12-3 (tanh)"
    assert (f"exp.cfg: [network] is {want}, but checkpoint "
            f"{tmp_path / 'out' / 'pretrained.ckpt'} holds 5-12-3 (relu)") in err
    assert not (tmp_path / "out" / "runs").exists()
    assert (tmp_path / "out" / "results.txt").read_bytes() == results


@pytest.mark.parametrize("command", ["pretrain", "unlearn"])
def test_dataset_the_network_cannot_read_is_usage_error(workdir, capsys, command):
    # both commands check [dataset] against [network] before they write anything
    tmp_path, cfg_path = workdir
    if command == "unlearn":
        assert main(["pretrain", str(cfg_path)]) == 0
    written = sorted(tmp_path.rglob("*"))
    results = (tmp_path / "out" / "results.txt").read_bytes() if command == "unlearn" else None
    cfg_path.write_text(TINY_CONFIG.replace("dim = 5", "dim = 6"), encoding="utf-8")
    capsys.readouterr()
    rc = main([command, str(cfg_path)] + (["--method", "neggrad"] if command == "unlearn" else []))
    assert rc == 2
    assert "exp.cfg: network ends 5->3, dataset needs 6->3" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == written
    if results is not None:
        assert (tmp_path / "out" / "results.txt").read_bytes() == results


def test_unlearn_without_checkpoint_is_usage_error(workdir, capsys):
    _, cfg_path = workdir
    rc = main(["unlearn", str(cfg_path), "--method", "finetune"])
    assert rc == 2
    assert "pretrain" in capsys.readouterr().err


def test_checkpoint_missing_a_metadata_key_is_runtime_error(workdir, capsys):
    tmp_path, cfg_path = workdir
    assert main(["pretrain", str(cfg_path)]) == 0
    capsys.readouterr()
    ckpt = tmp_path / "out" / "pretrained.ckpt"
    d_line = next(l for l in ckpt.read_bytes().split(b"\n") if l.startswith(b"d = "))
    edit_metadata(ckpt, d_line, None)
    rc = main(["unlearn", str(cfg_path), "--method", "neggrad"])
    assert rc == 1
    assert "pretrained.ckpt: checkpoint [model] metadata missing d" in capsys.readouterr().err
    assert not (tmp_path / "out" / "runs").exists()


@pytest.mark.parametrize("old, new, wording", [
    (b"layer_sizes = 5,12,3", b"layer_sizes = 5,x,3",
     "key 'layer_sizes' expects comma-separated integers, got '5,x,3'"),
    (b"layer_sizes = 5,12,3", b"layer_sizes = 5,0,3",
     "layer sizes must be positive, got (5, 0, 3)"),
    (b"seed = 0", b"seed = zz", "key 'seed' expects an integer, got 'zz'"),
    (b"activation = relu", b"activation = gelu",
     "activation must be one of ('relu', 'tanh'), got 'gelu'"),
    (None, None, "payload of 885 bytes is not a whole number of float64 values"),
], ids=["layer_sizes-x", "layer_sizes-0", "seed-zz", "activation-gelu", "truncated-payload"])
def test_malformed_checkpoint_value_is_runtime_error_naming_the_file(workdir, capsys, old, new,
                                                                     wording):
    tmp_path, cfg_path = workdir
    assert main(["pretrain", str(cfg_path)]) == 0
    capsys.readouterr()
    ckpt = tmp_path / "out" / "pretrained.ckpt"
    if old is None:   # 111 values, 888 bytes, cut by 3
        ckpt.write_bytes(ckpt.read_bytes()[:-3])
    else:
        edit_metadata(ckpt, old, new)
    assert main(["unlearn", str(cfg_path), "--method", "neggrad"]) == 1
    assert capsys.readouterr().err == f"orthograd: {ckpt}: {wording}\n"
    assert not (tmp_path / "out" / "runs").exists()


@pytest.mark.parametrize("old, new, where", [
    (b"seed = 0", b"seed 0", ":5: expected 'key = value' or '[section]', got 'seed 0'"),
    (b"[model]", b"[model]\n[model]", ":3: duplicate section [model]"),
], ids=["syntax", "duplicate-section"])
def test_checkpoint_metadata_syntax_error_is_runtime_error_naming_the_line(workdir, capsys, old,
                                                                            new, where):
    # a corrupt checkpoint, not a config fault: exit 1, naming the file's own line once
    tmp_path, cfg_path = workdir
    assert main(["pretrain", str(cfg_path)]) == 0
    capsys.readouterr()
    ckpt = tmp_path / "out" / "pretrained.ckpt"
    edit_metadata(ckpt, old, new)
    assert main(["unlearn", str(cfg_path), "--method", "neggrad"]) == 1
    assert capsys.readouterr().err == f"orthograd: {ckpt}{where}\n"
    assert not (tmp_path / "out" / "runs").exists()


def test_non_finite_checkpoint_value_is_runtime_error_before_any_write(workdir, capsys):
    tmp_path, cfg_path = workdir
    assert main(["pretrain", str(cfg_path)]) == 0
    ckpt = tmp_path / "out" / "pretrained.ckpt"
    blob = ckpt.read_bytes()   # 111 values; the first one becomes inf
    sep = blob.index(b"\n\n") + 2
    ckpt.write_bytes(blob[:sep] + np.array([np.inf], dtype="<f8").tobytes() + blob[sep + 8:])
    written = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(["unlearn", str(cfg_path), "--method", "neggrad"]) == 1
    assert capsys.readouterr().err == f"orthograd: {ckpt}: payload holds non-finite values\n"
    assert not (tmp_path / "out" / "runs").exists()
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == written


def test_pretrain_unlearn_compare_workflow(workdir, capsys):
    tmp_path, cfg_path = workdir
    assert main(["pretrain", str(cfg_path)]) == 0
    ckpt = tmp_path / "out" / "pretrained.ckpt"
    assert ckpt.exists()
    params, meta = load_checkpoint(ckpt)
    assert params.spec.layer_sizes == (5, 12, 3)
    assert meta["seed"] == 0

    results = tmp_path / "out" / "results.txt"
    records = parse_records(results)
    assert [r.method for r in records] == ["original"]

    assert main(["unlearn", str(cfg_path), "--method", "all",
                 "--seed-list", "0,1"]) == 0
    records = parse_records(results)
    methods = sorted({r.method for r in records})
    assert methods == ["finetune", "neggrad", "neggrad_plus", "original",
                       "orthograd_mean", "orthograd_per_sample"]
    per_method = [r for r in records if r.method == "neggrad"]
    assert [r.seed for r in per_method] == [0, 1]

    runs = list((tmp_path / "out" / "runs").glob("unlearned-*.ckpt"))
    assert len(runs) == 10  # 5 methods x 2 seeds
    traces = list((tmp_path / "out" / "runs").glob("trace-*.txt"))
    assert len(traces) == 10

    capsys.readouterr()
    assert main(["compare", str(results)]) == 0
    table = capsys.readouterr().out
    assert "original" in table and "neggrad_plus" in table
    assert "±" in table


def test_trace_has_one_line_per_epoch_run_numbered_from_0(workdir):
    # spread only rescales the inputs (the blobs overlap as at 1.0): 3.0 triples them and
    # so the effective step size, so that neggrad runs epochs before it stops
    tmp_path, cfg_path = workdir
    cfg_path.write_text(TINY_CONFIG.replace("spread = 1.0", "spread = 3.0"), encoding="utf-8")
    assert main(["pretrain", str(cfg_path)]) == 0
    assert main(["unlearn", str(cfg_path), "--method", "neggrad", "--seed-list", "0"]) == 0
    rec = next(r for r in parse_records(tmp_path / "out" / "results.txt")
               if r.method == "neggrad")
    assert rec.stop_epoch >= 1
    trace = (tmp_path / "out" / "runs" / "trace-neggrad-nr40-s0.txt").read_text(encoding="utf-8")
    assert ([line.split()[0] for line in trace.splitlines()]
            == [f"epoch={e}" for e in range(rec.stop_epoch + 1)])
    # every line: the three accuracies in a fixed order at %.6g, the last one the row's
    for line in trace.splitlines():
        tokens = [token.partition("=") for token in line.split()]
        assert [(key, sep) for key, sep, _ in tokens] == [
            ("epoch", "="), ("A_u", "="), ("A_r", "="), ("A_test", "=")]
        assert all(v == f"{float(v):.6g}" for _, _, v in tokens[1:])
    assert trace.endswith(f"A_u={rec.A_u:.6g} A_r={rec.A_r:.6g} A_test={rec.A_test:.6g}\n")


def test_method_filter_and_unknown_method(workdir, capsys):
    tmp_path, cfg_path = workdir
    assert main(["pretrain", str(cfg_path)]) == 0
    assert main(["unlearn", str(cfg_path), "--method", "neggrad"]) == 0
    records = parse_records(tmp_path / "out" / "results.txt")
    assert sorted({r.method for r in records}) == ["neggrad", "original"]
    rc = main(["unlearn", str(cfg_path), "--method", "gradient_surgery"])
    assert rc == 2
    assert "gradient_surgery" in capsys.readouterr().err


def test_rerun_is_byte_identical(workdir):
    tmp_path, cfg_path = workdir
    assert main(["pretrain", str(cfg_path)]) == 0
    ckpt = tmp_path / "out" / "pretrained.ckpt"
    results = tmp_path / "out" / "results.txt"
    first_ckpt = ckpt.read_bytes()

    assert main(["unlearn", str(cfg_path), "--method", "orthograd_per_sample",
                 "--seed-list", "0"]) == 0
    first_results = results.read_bytes()
    run_files = sorted((tmp_path / "out" / "runs").iterdir())
    first_runs = {p.name: p.read_bytes() for p in run_files}

    assert main(["pretrain", str(cfg_path)]) == 0
    assert main(["unlearn", str(cfg_path), "--method", "orthograd_per_sample",
                 "--seed-list", "0"]) == 0
    assert ckpt.read_bytes() == first_ckpt
    assert results.read_bytes() == first_results
    for p in sorted((tmp_path / "out" / "runs").iterdir()):
        assert p.read_bytes() == first_runs[p.name]


def test_retain_size_sweep_records_and_summary(workdir, capsys):
    tmp_path, cfg_path = workdir
    assert main(["pretrain", str(cfg_path)]) == 0
    assert main(["unlearn", str(cfg_path), "--method", "neggrad",
                 "--seed-list", "0", "--retain-sizes", "20,40"]) == 0
    records = [r for r in parse_records(tmp_path / "out" / "results.txt")
               if r.method == "neggrad"]
    assert sorted(r.n_retain for r in records) == [20, 40]

    capsys.readouterr()
    assert main(["compare", str(tmp_path / "out" / "results.txt")]) == 0
    lines = capsys.readouterr().out.splitlines()
    # one row per (method, retain size), the reference first; each row has every column
    assert lines[0].split() == ["method", "n_retain", "n", "A_u", "A_r", "A_test", "UIS"]
    assert [l.split()[:3] for l in lines[1:]] == [
        ["original", "40", "1"], ["neggrad", "20", "1"], ["neggrad", "40", "1"]]
    assert [l.count("±") for l in lines[1:]] == [3, 4, 4]


def test_compare_on_malformed_results_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "results.txt"
    bad.write_text("methodx\n", encoding="utf-8")
    assert main(["compare", str(bad)]) == 2
    assert main(["compare", str(tmp_path / "none.txt")]) == 2
    # a file that cannot be read as UTF-8 text names itself: one Latin-1 byte, or a directory
    bad.write_bytes(b"# r\xe9sultats\n")
    for path, reason in [(bad, "'utf-8' codec can't decode byte 0xe9"), (tmp_path, "Is a directory")]:
        capsys.readouterr()
        assert main(["compare", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"orthograd: {path}: cannot read results file: {reason}")
    # an empty file is not malformed: it holds no records
    bad.write_text("", encoding="utf-8")
    assert main(["compare", str(bad)]) == 0
    assert capsys.readouterr().out == "(no records)\n"


def test_module_entry_point_returns_the_exit_code_to_the_shell(workdir):
    # ``python -m orthograd.cli`` runs ``sys.exit(main())``: 0, 2 and 1 reach the caller
    tmp_path, cfg_path = workdir
    assert main(["pretrain", str(cfg_path)]) == 0
    results = tmp_path / "out" / "results.txt"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "orthograd.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    done = run("compare", str(results))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split("\n")[1].split()[0] == "original"
    done = run("compare", str(tmp_path / "none.txt"))
    assert done.returncode == 2
    assert done.stderr == f"orthograd: results file not found: {tmp_path / 'none.txt'}\n"
    results.write_text("not-a-record\n", encoding="utf-8")
    done = run("pretrain", str(cfg_path))
    assert done.returncode == 1
    assert done.stderr == f"orthograd: {results}:1: expected key=value tokens, got 'not-a-record'\n"


def test_closed_stdout_ends_a_command_quietly(workdir):
    # the reader of the pipe is gone before the command starts, so its first print fails
    tmp_path, cfg_path = workdir
    assert main(["pretrain", str(cfg_path)]) == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-W", "error", "-m", "orthograd.cli", "compare",
                               str(tmp_path / "out" / "results.txt")], env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, "")


def test_broken_pipe_writing_a_file_is_runtime_error(workdir, capsys, monkeypatch):
    # only stdout's reader may leave quietly: the results file is the command's output
    tmp_path, cfg_path = workdir

    def broken(path, data):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(evaluation, "write_atomic", broken)
    assert main(["pretrain", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "orthograd: [Errno 32] Broken pipe\n")


def test_malformed_results_file_fails_pretrain_before_any_training(workdir, capsys,
                                                                  monkeypatch):
    tmp_path, cfg_path = workdir
    results = tmp_path / "out" / "results.txt"
    results.parent.mkdir()
    results.write_text("# results\nnot-a-record\n", encoding="utf-8")
    monkeypatch.setattr(net, "pretrain", lambda *a, **kw: pytest.fail("pretrained"))
    assert main(["pretrain", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        f"orthograd: {results}:2: expected key=value tokens, got 'not-a-record'\n")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["results.txt"]
    results.write_bytes(b"# r\xe9sultats\n")   # a Latin-1 byte
    assert main(["pretrain", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith(
        f"orthograd: {results}: cannot read results file: 'utf-8' codec can't decode byte 0xe9")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["results.txt"]


def test_malformed_results_file_fails_unlearn_before_any_run(workdir, capsys):
    # a row missing fields, then the pretrain row with one value malformed, which names its
    # key, or with a key repeated, then the pretrain row repeated; pretrain fails on each
    # before it writes, and compare too
    tmp_path, cfg_path = workdir
    assert main(["pretrain", str(cfg_path)]) == 0
    results = tmp_path / "out" / "results.txt"
    good = results.read_text(encoding="utf-8")

    def with_value(token):
        key = token.partition("=")[0]
        return " ".join(token if t.startswith(f"{key}=") else t for t in good.split())

    for line, message in [
        ("method=neggrad seed=0", "record missing fields ['A_u', 'A_r', 'A_test', 'uis', "
                                  "'stop_epoch', 'stopped_early', 'n_retain']"),
        (with_value("seed=x"), "key 'seed' expects an integer, got 'x'"),
        (with_value("stopped_early=maybe"),
         "key 'stopped_early' expects 'true' or 'false', got 'maybe'"),
        (with_value("A_u=nan"), "key 'A_u' expects a finite number, got 'nan'"),
        (good.strip() + " seed=7", "repeats key 'seed'"),
        (good.strip(), "repeats the run of line 1 (method=original n_retain=40 seed=0)"),
    ]:
        results.write_text(good + line + "\n", encoding="utf-8")
        written = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        capsys.readouterr()
        for argv, rc in [(["unlearn", str(cfg_path), "--method", "all", "--seed-list", "0,1"], 1),
                         (["pretrain", str(cfg_path)], 1), (["compare", str(results)], 2)]:
            assert main(argv) == rc
            assert capsys.readouterr().err == f"orthograd: {results}:2: {message}\n"
        assert not (tmp_path / "out" / "runs").exists()
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == written


def test_unlearn_reads_the_results_file_once(workdir, monkeypatch):
    # ten runs, one read: each run's row is merged into the records read at the start
    tmp_path, cfg_path = workdir
    assert main(["pretrain", str(cfg_path)]) == 0
    calls = []

    def counting(path):
        calls.append(path)
        return parse_records(path)

    monkeypatch.setattr(cli, "parse_records", counting)
    assert main(["unlearn", str(cfg_path), "--method", "all", "--seed-list", "0,1"]) == 0
    assert calls == [tmp_path / "out" / "results.txt"]
    assert len(parse_records(calls[0])) == 11


def test_pretrained_model_with_no_test_accuracy_fails_before_any_run(workdir, capsys,
                                                                    monkeypatch):
    # an untrained network that scores 0 on the held-out class-2 test rows: the impact
    # score divides by that accuracy, so unlearn fails before the first run, not after it
    tmp_path, cfg_path = workdir
    cfg_path.write_text(TINY_CONFIG.replace("epochs = 25", "epochs = 0")
                        .replace("mode = random\nfraction = 0.1", "mode = class\nclass_label = 2"),
                        encoding="utf-8")
    assert main(["pretrain", str(cfg_path)]) == 0
    assert "test accuracy 0.00" in capsys.readouterr().out
    written = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    monkeypatch.setattr(cli, "run_unlearning", lambda *a, **kw: pytest.fail("a run started"))
    assert main(["unlearn", str(cfg_path), "--method", "neggrad"]) == 1
    ckpt = tmp_path / "out" / "pretrained.ckpt"
    assert capsys.readouterr().err == (
        f"orthograd: pretrained test accuracy must be positive, got 0.0 (checkpoint {ckpt})\n")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == written
