"""Impact score arithmetic and the results-file format."""

from __future__ import annotations

import numpy as np
import pytest

from orthograd.evaluation import (
    RunRecord, emit_records, format_record, parse_record_line, parse_records, render_table,
    uis, upsert_records,
)

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
    return RunRecord(method=method, seed=seed, epoch=7, A_u=96.4123456,
                     A_r=99.2, A_test=95.8, uis=uis_value, stop_epoch=7,
                     stopped_early=True, n_retain=n_retain)


def test_record_format_fixed_order_and_six_digits():
    line = format_record(_record())
    assert line.startswith("method=orthograd_per_sample seed=0 epoch=7 ")
    assert "A_u=96.4123" in line          # 6 significant digits
    assert "stopped_early=true" in line
    assert line.split()[-1] == "n_retain=500"


def test_record_round_trip():
    rec = _record(uis_value=0.0176412534)
    parsed = parse_record_line(format_record(rec))
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
    emit_records(records, path)
    first = path.read_bytes()
    methods = [r.method for r in parse_records(path)]
    seeds = [r.seed for r in parse_records(path)]
    assert methods == ["finetune", "finetune", "neggrad", "neggrad"]
    assert seeds == [0, 2, 0, 1]
    emit_records(list(reversed(records)), path)
    assert path.read_bytes() == first


def test_upsert_replaces_same_key():
    old = [_record(seed=0, uis_value=0.5), _record(seed=1, uis_value=0.5)]
    new = [_record(seed=0, uis_value=0.1)]
    merged = upsert_records(old, new)
    by_seed = {r.seed: r for r in merged}
    assert len(merged) == 2
    assert by_seed[0].uis == 0.1
    assert by_seed[1].uis == 0.5


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


def test_table_reprints_reference_scores():
    records = [
        _record(method="orthograd_per_sample", seed=0,
                uis_value=uis(81.06, 78.22, 81.04)),
        _record(method="neggrad_plus", seed=0,
                uis_value=uis(81.06, 75.47, 80.41)),
        RunRecord(method="original", seed=0, epoch=0, A_u=94.26, A_r=99.9,
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
