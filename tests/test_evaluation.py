"""Impact score arithmetic and the results-file format."""

from __future__ import annotations

import re

import numpy as np
import pytest

from orthograd import net
from orthograd.data import Dataset, Splits
from orthograd.evaluation import (
    AccuracyReport, RunRecord, emit_records, evaluate_splits, format_record, parse_records,
    render_table, uis,
)
from orthograd.net import NetworkSpec, ParamVector, evaluate_accuracy

# Published reference points for the score: an unlearned model at
# (A_test, A_u) = (78.22, 81.04) against reference 81.06 scores ~0.018,
# and (75.47, 80.41) scores ~0.038.
REFERENCE_CASES = [
    (81.06, 78.22, 81.04, 0.018),
    (81.06, 75.47, 80.41, 0.038),
]


@pytest.mark.parametrize("a_p,a_t,a_u,expected", REFERENCE_CASES)
def test_uis_reference_values(a_p, a_t, a_u, expected):
    assert uis(a_p, a_t, a_u) == pytest.approx(expected, abs=1e-3)


def test_uis_basic_properties():
    assert uis(90.0, 90.0, 90.0) == 0.0
    # symmetric in the two drift terms
    assert uis(80.0, 70.0, 75.0) == uis(80.0, 75.0, 70.0)
    # scale covariance: percent vs fraction gives the same score
    assert uis(80.0, 70.0, 75.0) == pytest.approx(uis(0.80, 0.70, 0.75))
    # one-sided drift
    assert uis(80.0, 80.0, 60.0) == pytest.approx(20.0 / 160.0)
    with pytest.raises(ValueError):
        uis(0.0, 10.0, 10.0)
    with pytest.raises(ValueError):
        uis(-5.0, 10.0, 10.0)


def _record(method="orthograd_per_sample", seed=0, uis_value=0.02, n_retain=500):
    return RunRecord(method=method, seed=seed, A_u=96.4123456,
                     A_r=99.2, A_test=95.8, uis=uis_value, stop_epoch=7,
                     stopped_early=True, n_retain=n_retain)


def test_record_format_fixed_order_and_six_digits():
    line = format_record(_record())
    assert line.startswith("method=orthograd_per_sample seed=0 A_u=")
    assert "A_u=96.4123" in line          # 6 significant digits
    assert "stopped_early=true" in line
    assert line.split()[-1] == "n_retain=500"


def test_record_round_trip(tmp_path):
    rec = _record(uis_value=0.0176412534)
    emit_records(tmp_path / "results.txt", [rec])
    [parsed] = parse_records(tmp_path / "results.txt")
    # numeric fields survive at print precision; re-formatting is stable
    assert format_record(parsed) == format_record(rec)
    assert parsed.uis == float(f"{rec.uis:.6g}")
    assert parsed.stopped_early is rec.stopped_early


def test_emit_is_sorted_and_byte_identical(tmp_path):
    records = [
        _record(method="neggrad", seed=1),
        _record(method="finetune", seed=0),
        _record(method="neggrad", seed=0),
        _record(method="finetune", seed=2),
    ]
    path = tmp_path / "results.txt"
    emit_records(path, records)
    first = path.read_bytes()
    methods = [r.method for r in parse_records(path)]
    seeds = [r.seed for r in parse_records(path)]
    assert methods == ["finetune", "finetune", "neggrad", "neggrad"]
    assert seeds == [0, 2, 0, 1]
    emit_records(path, list(reversed(records)))
    assert path.read_bytes() == first


def test_emit_replaces_same_key(tmp_path):
    old = [_record(seed=0, uis_value=0.5), _record(seed=1, uis_value=0.5)]
    new = [_record(seed=0, uis_value=0.1)]
    path = tmp_path / "results.txt"
    merged = emit_records(path, old, new)
    by_seed = {r.seed: r for r in merged}
    assert len(merged) == 2
    assert by_seed[0].uis == 0.1
    assert by_seed[1].uis == 0.5
    assert [format_record(r) for r in parse_records(path)] == [format_record(r) for r in merged]


def test_parse_errors(tmp_path):
    path = tmp_path / "results.txt"
    path.write_text("method=finetune seed=0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing fields"):
        parse_records(path)
    path.write_text("not-a-record\n", encoding="utf-8")
    with pytest.raises(ValueError, match="key=value"):
        parse_records(path)
    with pytest.raises(FileNotFoundError):
        parse_records(tmp_path / "absent.txt")
    row = format_record(_record(method="neggrad", seed=0))
    path.write_text(f"{row}\n# again\n{row.replace('uis=', 'uis=1')}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:3: repeats the run of line 1 (method=neggrad n_retain=500 seed=0)")):
        parse_records(path)


def test_table_reprints_reference_scores():
    records = [
        _record(method="orthograd_per_sample", seed=0,
                uis_value=uis(81.06, 78.22, 81.04)),
        _record(method="neggrad_plus", seed=0,
                uis_value=uis(81.06, 75.47, 80.41)),
        RunRecord(method="original", seed=0, A_u=94.26, A_r=99.9,
                  A_test=81.06, uis=0.0, stop_epoch=0, stopped_early=False,
                  n_retain=500),
    ]
    table = render_table(records)
    lines = table.splitlines()
    assert lines[1].startswith("original")        # reference row first
    assert " 0.018 " in table
    assert " 0.038 " in table
    assert "-" in lines[1]                        # no score for the reference


def test_table_single_record_zero_std():
    table = render_table([_record(seed=0)])
    assert "±  0.00" in table or "± 0.00" in table


def test_sweep_table_groups_by_retain_size():
    # a size is its own experiment: each gets a full row, never a mean over sizes
    records = [
        _record(method="neggrad", seed=s, uis_value=0.054 + size / 1e5, n_retain=size)
        for s in (0, 1) for size in (100, 500, 2000)
    ] + [
        _record(method="orthograd_per_sample", seed=s, uis_value=0.01, n_retain=size)
        for s in (0, 1) for size in (100, 500, 2000)
    ] + [_record(method="original", n_retain=500)]
    lines = render_table(records).splitlines()
    assert lines[0].split() == ["method", "n_retain", "n", "A_u", "A_r", "A_test", "UIS"]
    assert lines[1].split() == ["original", "500", "1", "96.41", "±", "0.00", "99.20", "±",
                                "0.00", "95.80", "±", "0.00", "-"]
    neggrad_rows = [l.split() for l in lines if l.startswith("neggrad ")]
    assert [row[:3] for row in neggrad_rows] == [["neggrad", size, "2"]
                                                 for size in ("100", "500", "2000")]
    assert [row[3:] for row in neggrad_rows] == [
        ["96.41", "±", "0.00", "99.20", "±", "0.00", "95.80", "±", "0.00", uis_cell, "±", "0.000"]
        for uis_cell in ("0.055", "0.059", "0.074")]
    assert len(lines) == 1 + 1 + 3 + 3


# Records in the format written while each record also stored its final epoch, a copy
# of stop_epoch; the table is the one `orthograd compare` printed for them then.
EARLIER_RECORDS = """\
method=neggrad seed=0 epoch=17 A_u=95.6 A_r=98.4 A_test=95.1 uis=0.00883576 stop_epoch=17 stopped_early=true n_retain=500
method=neggrad seed=1 epoch=17 A_u=95.6 A_r=98.4 A_test=95 uis=0.00935551 stop_epoch=17 stopped_early=true n_retain=500
method=original seed=0 epoch=0 A_u=100 A_r=100 A_test=96.2 uis=0 stop_epoch=0 stopped_early=false n_retain=500
method=orthograd_per_sample seed=0 epoch=19 A_u=96 A_r=100 A_test=94.9 uis=0.00779626 stop_epoch=19 stopped_early=true n_retain=100
method=orthograd_per_sample seed=0 epoch=29 A_u=95.6 A_r=100 A_test=94.8 uis=0.010395 stop_epoch=29 stopped_early=true n_retain=500
method=orthograd_per_sample seed=1 epoch=26 A_u=96.4 A_r=100 A_test=94.9 uis=0.00779626 stop_epoch=26 stopped_early=true n_retain=500
"""
EARLIER_TABLE = """\
method                 n_retain   n             A_u             A_r          A_test              UIS
original                    500   1  100.00 ±  0.00  100.00 ±  0.00   96.20 ±  0.00                -
neggrad                     500   2   95.60 ±  0.00   98.40 ±  0.00   95.05 ±  0.05    0.009 ± 0.000
orthograd_per_sample        100   1   96.00 ±  0.00  100.00 ±  0.00   94.90 ±  0.00    0.008 ± 0.000
orthograd_per_sample        500   2   96.00 ±  0.40  100.00 ±  0.00   94.85 ±  0.05    0.009 ± 0.001"""


def test_results_file_of_the_earlier_format_parses_and_tables_alike(tmp_path):
    path = tmp_path / "results.txt"
    path.write_text(EARLIER_RECORDS, encoding="utf-8")
    records = parse_records(path)
    assert render_table(records) == EARLIER_TABLE
    # rewriting the file drops the epoch key and changes nothing else
    emit_records(path, records)
    assert path.read_text(encoding="utf-8") == re.sub(r" epoch=\d+", "", EARLIER_RECORDS)


# ---------------------------------------------------------------------------
# per-epoch evaluation: exact on every row


def _linear_splits(rows, labels):
    sets = [Dataset(np.array(r, dtype=float), l, 2) for r, l in zip(rows, labels)]
    return Splits(*sets, "random")


def _evaluator(splits):
    score = net.RowScorer(splits.unlearn, splits.retain, splits.test)
    return lambda model: AccuracyReport(*score(model))


def _three_accuracies(model, splits):
    return AccuracyReport(*(evaluate_accuracy(model, s)
                            for s in (splits.unlearn, splits.retain, splits.test)))


def test_a_planted_near_tie_is_never_pinned():
    # one linear layer, logits = inputs: the unlearn row's two logits differ by 5e-10, under
    # the slack, and a bias change of 1e-9 flips it while every other row stays pinned
    spec = NetworkSpec((2, 2), "relu")
    identity = ParamVector(np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]), spec)
    splits = _linear_splits([[[1.0, 1.0 + 5e-10]], [[3.0, 0.0], [0.0, 3.0], [4.0, 1.0]],
                             [[0.0, 2.0], [5.0, 0.0], [1.0, 6.0]]],
                            [[1], [0, 1, 0], [1, 0, 1]])
    evaluate = _evaluator(splits)
    assert evaluate(identity) == AccuracyReport(100.0, 100.0, 100.0)
    flipped = ParamVector(identity.flat + np.array([0.0, 0.0, 0.0, 0.0, 1e-9, 0.0]), spec)
    report = evaluate(flipped)
    assert report == _three_accuracies(flipped, splits) == AccuracyReport(0.0, 100.0, 100.0)


def test_an_overflowing_bound_pins_nothing_and_raises_nothing():
    # weights near 1e160 overflow the spectral bound and inputs near 1e160 the row norms, while
    # the logits stay finite: under the epoch loop's error state nothing raises, and every row
    # is forwarded; a change of 1e150 on inputs near 1e100 overflows the bound's recursion
    identity = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    rows = np.array([[2.0, 1.0], [1.0, 3.0], [4.0, 0.0]])
    for weight_scale, row_scale in ((1e160, 1.0), (1.0, 1e160)):
        model = ParamVector(weight_scale * identity, NetworkSpec((2, 2), "relu"))
        moved = ParamVector(model.flat * (1.0 + 1e-12), model.spec)
        splits = _linear_splits([row_scale * rows[i:i + 1] for i in range(3)], [[0], [1], [0]])
        scorer = net.RowScorer(splits.unlearn, splits.retain, splits.test)
        evaluate = _evaluator(splits)
        with np.errstate(over="raise", invalid="raise"):
            scorer.predict(model)
            assert np.all(scorer.bounds(moved) == np.inf)
            assert evaluate(model) == evaluate(moved) == _three_accuracies(moved, splits)
    spec = NetworkSpec((2, 2, 2), "relu")
    model = ParamVector(np.concatenate([identity, identity]), spec)
    scorer = net.RowScorer(Dataset(1e100 * rows, [0, 1, 0], 2))
    with np.errstate(over="raise", invalid="raise"):
        scorer.predict(model)
        assert np.all(scorer.bounds(ParamVector(model.flat + 1e150, spec)) == np.inf)


def test_evaluate_splits_rejects_an_empty_set():
    spec = NetworkSpec((2, 2), "relu")
    model = ParamVector(np.zeros(spec.param_dim), spec)
    one = [[[1.0, 0.0]]] * 3
    for empty in range(3):
        rows = [r if i != empty else np.zeros((0, 2)) for i, r in enumerate(one)]
        labels = [[0] if i != empty else [] for i in range(3)]
        with pytest.raises(ValueError, match="^cannot evaluate accuracy on an empty dataset$"):
            evaluate_splits(model, _linear_splits(rows, labels))
