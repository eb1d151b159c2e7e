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
from .data import ConfigError, Splits, content_lines, read_text, read_value, write_atomic, write_value

__all__ = [
    "uis", "AccuracyReport", "RunRecord", "evaluate_splits", "format_record", "parse_records",
    "emit_records", "render_table",
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
    return AccuracyReport(*net.RowScorer(splits.unlearn, splits.retain, splits.test)(params))


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


def format_record(rec) -> str:
    """A record dataclass as ``key=value`` tokens in field order, each written by its type."""
    return " ".join(f"{f.name}={write_value(getattr(rec, f.name), f.type)}" for f in fields(rec))


def parse_records(path) -> list[RunRecord]:
    """The records of a results file in line order; a file holds one row per run, so a line
    that repeats the (method, n_retain, seed) of an earlier one is an error."""
    source, first = str(Path(path)), {}
    for lineno, line in content_lines(read_text(path, "results")):
        where, entries = f"{source}:{lineno}", {}
        for token in line.split():
            key, sep, value = token.partition("=")
            if not sep:
                raise ValueError(f"{where}: expected key=value tokens, got {token!r}")
            if key in entries:
                raise ValueError(f"{where}: repeats key {key!r}")
            entries[key] = value
        missing = [f.name for f in fields(RunRecord) if f.name not in entries]
        if missing:
            raise ValueError(f"{where}: record missing fields {missing}")
        try:
            rec = RunRecord(**{f.name: read_value(entries[f.name], f.type, f.name, where)
                               for f in fields(RunRecord)})
        except ConfigError as exc:   # a results file is data: a bad value is a runtime error
            raise ValueError(str(exc)) from None
        if rec.sort_key() in first:
            raise ValueError(f"{where}: repeats the run of line {first[rec.sort_key()][0]}"
                             f" (method={rec.method} n_retain={rec.n_retain} seed={rec.seed})")
        first[rec.sort_key()] = lineno, rec
    return [rec for _, rec in first.values()]


def emit_records(path, existing, new=()) -> list[RunRecord]:
    """Put each ``new`` record in place of the ``existing`` one with its (method, n_retain, seed),
    write all sorted by that key, atomically and byte-deterministically, and return them."""
    table = {r.sort_key(): r for r in existing}
    table.update((r.sort_key(), r) for r in new)
    ordered = [table[key] for key in sorted(table)]
    text = "\n".join(format_record(r) for r in ordered)
    write_atomic(path, (text + "\n" if text else "").encode("utf-8"))
    return ordered


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
