"""Unlearning metrics and the structured results file.

The unlearning impact score (UIS) measures how far an unlearned model has
drifted from the pretrained reference: with accuracies in percent,

    uis = (|A_p_test - A_u_test| / A_p_test + |A_p_test - A_u_u| / A_p_test) / 2

where ``A_p_test`` is the pretrained model's test accuracy, ``A_u_test`` the
unlearned model's test accuracy, and ``A_u_u`` the unlearned model's accuracy
on the unlearn set.  Zero means the unlearned model kept test accuracy and
the unlearn set still scores like the reference; large values mean damage.

Result files hold one ``key=value`` record per line with 6-significant-digit
numbers and a fixed key order, so identical runs emit identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import net
from .config import _VALUE_TYPES, write_atomic
from .data import Splits

__all__ = [
    "uis",
    "AccuracyReport",
    "RunRecord",
    "evaluate_splits",
    "format_record",
    "parse_record_line",
    "parse_records",
    "emit_records",
    "render_table",
]


def uis(a_p_test: float, a_u_test: float, a_u_u: float) -> float:
    """Unlearning impact score; accuracies in percent, reference must be > 0."""
    if not a_p_test > 0.0:
        raise ValueError(f"pretrained test accuracy must be positive, got {a_p_test}")
    return (abs(a_p_test - a_u_test) + abs(a_p_test - a_u_u)) / a_p_test / 2.0


@dataclass(frozen=True)
class AccuracyReport:
    """Accuracies (percent) of one model snapshot on one split family."""

    A_u: float      # unlearn set
    A_r: float      # retain set
    A_test: float   # test set (class mode: forgotten class excluded)


def evaluate_splits(params, splits: Splits) -> AccuracyReport:
    """Accuracy of a model in any space on the unlearn, retain, and test sets."""
    return AccuracyReport(
        A_u=net.evaluate_accuracy(params, splits.unlearn),
        A_r=net.evaluate_accuracy(params, splits.retain),
        A_test=net.evaluate_accuracy(params, splits.test),
    )


# ---------------------------------------------------------------------------
# results file


@dataclass(frozen=True)
class RunRecord:
    """One line of the results file; its fields, in order, are the record's keys.  Other
    keys on a line are ignored, so files that also hold ``epoch`` still parse."""

    method: str
    seed: int
    A_u: float
    A_r: float
    A_test: float
    uis: float
    stop_epoch: int
    stopped_early: bool
    n_retain: int

    def sort_key(self):
        return (self.method, self.n_retain, self.seed)


# the text form of each field type; a value is parsed back as a config value of that type
_FIELD_FORMAT = {"str": str, "int": str, "float": "{:.6g}".format,
                 "bool": lambda v: "true" if v else "false"}
_RECORD_TEXT = {f.name: (_FIELD_FORMAT[f.type], _VALUE_TYPES[f.type][0]) for f in fields(RunRecord)}


def format_record(rec: RunRecord) -> str:
    return " ".join(f"{k}={fmt(getattr(rec, k))}" for k, (fmt, _) in _RECORD_TEXT.items())


def parse_record_line(line: str, source: str = "<records>", lineno: int = 0) -> RunRecord:
    where = f"{source}:{lineno}" if lineno else source
    entries = {}
    for token in line.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"{where}: expected key=value tokens, got {token!r}")
        entries[key] = value
    missing = [k for k in _RECORD_TEXT if k not in entries]
    if missing:
        raise ValueError(f"{where}: record missing fields {missing}")
    try:
        return RunRecord(**{k: parse(entries[k]) for k, (_, parse) in _RECORD_TEXT.items()})
    except (ValueError, KeyError) as exc:
        raise ValueError(f"{where}: malformed record field ({exc})") from None


def parse_records(path) -> list[RunRecord]:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"results file not found: {p}")
    records = []
    for lineno, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        records.append(parse_record_line(line, source=str(p), lineno=lineno))
    return records


def emit_records(records, path) -> None:
    """Write records sorted by (method, n_retain, seed), atomically; byte-deterministic."""
    ordered = sorted(records, key=RunRecord.sort_key)
    text = "\n".join(format_record(r) for r in ordered)
    write_atomic(path, (text + "\n" if text else "").encode("utf-8"))


def upsert_records(existing, new) -> list[RunRecord]:
    """Replace records that share (method, n_retain, seed), keep the rest."""
    table = {r.sort_key(): r for r in existing}
    for r in new:
        table[r.sort_key()] = r
    return list(table.values())


# ---------------------------------------------------------------------------
# summary tables (cmd_compare)


def _mean_std(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())  # population std: one run -> 0.00


def render_table(records) -> str:
    """One row per (method, n_retain), ``original`` first: the seed count, then the accuracy
    columns and UIS as mean +/- std over seeds."""
    if not records:
        return "(no records)"
    lines = [f"{'method':<22} {'n_retain':>8} {'n':>3}  {'A_u':>14}  {'A_r':>14}  {'A_test':>14}"
             f"  {'UIS':>15}"]
    for _, method, size in sorted({(r.method != "original", r.method, r.n_retain) for r in records}):
        group = [r for r in records if r.method == method and r.n_retain == size]
        cells = []
        for field in ("A_u", "A_r", "A_test"):
            m, s = _mean_std([getattr(r, field) for r in group])
            cells.append(f"{m:6.2f} ± {s:5.2f}")
        if method == "original":
            uis_cell = "-"
        else:
            m, s = _mean_std([r.uis for r in group])
            uis_cell = f"{m:6.3f} ± {s:5.3f}"
        lines.append(f"{method:<22} {size:>8} {len(group):>3}  "
                     + "  ".join(f"{c:>14}" for c in cells) + f"  {uis_cell:>15}")
    return "\n".join(lines)
