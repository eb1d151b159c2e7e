"""Timing, tracing and metric assembly for one workload.

Untraced mode (``trace=False``) sets up ``SETUP_REPEATS`` times and reports
the median, then repeats the timed phase until ``seconds`` have passed (at
least once) and reports the median phase time.  Every repeat must give the
same parameter fingerprints.

Traced mode sets up once under the tracer, runs the phase once untraced and
once traced, and reports the per-layer metrics of the traced spans plus the
difference between the two phase times (``trace_overhead_s``, which also
holds the observers' own work, such as recomputing the orthogonality check).
Tracing must not change the arithmetic: each run's traced fingerprint must
equal its untraced one.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from tracer import Tracer

SETUP_REPEATS = 3
# Per-sample orthogonality, checked on every orthograd_per_sample step of the
# traced run: |cos(g_u_perp, g_i)| <= COS_LIMIT for every retain gradient g_i
# whose norm exceeds ZERO_GRAD_NORM.  Smaller columns are zero gradients of
# saturated samples; their direction is roundoff and qr_orthonormal_basis
# drops them by its absolute tolerance, so no cosine bound holds for them.
# They are counted (unlearn.zero_grad_columns), and StepDiagnostics.max_abs_cos,
# which includes them, is reported unchanged as unlearn.max_abs_cos.
COS_LIMIT = 1e-6
ZERO_GRAD_NORM = 1e-6

# Counts that repeat exactly for a given program and seed; later changes can
# claim on them.  "computed" values come from array shapes, not measurement.
EXACT_COUNTS = {
    "unlearn.steps": "counted: calls of orthograd_step and baseline_step",
    "epochs_to_stop": "read from the outputs: sum of stop epochs",
    "linalg.basis_flops": "computed from array shapes: 4*d*k*rank per basis call",
    "net.per_sample_bytes": "computed from array shapes: d*k*8 per per-sample matrix",
}

# (module, attribute, span name); every alias in the package is wrapped
TRACED_FUNCTIONS = (
    ("config", "load_experiment_config", "config.load"),
    ("data", "gen_gaussian_blobs", "data.blobs"),
    ("data", "partition_train_test", "data.split"),
    ("data", "make_unlearn_split", "data.split"),
    ("net", "pretrain", "net.pretrain"),
    ("net", "mean_loss_and_grad", "net.mean_grad"),
    ("net", "per_sample_grads", "net.per_sample"),
    ("net", "save_checkpoint", "net.checkpoint"),
    ("net", "load_checkpoint", "net.checkpoint"),
    ("lora", "attach_lora", "lora.attach"),
    ("lora", "merge_lora", "lora.merge"),
    ("linalg", "qr_orthonormal_basis", "linalg.basis"),
    ("linalg", "project_onto_complement", "linalg.project"),
    ("linalg", "cosine", "linalg.cosine"),
    ("unlearn", "orthograd_step", "unlearn.step"),
    ("unlearn", "baseline_step", "unlearn.step"),
    ("unlearn", "run_unlearning", "unlearn.run"),
    ("evaluation", "evaluate_splits", "evaluation.evaluate"),
    ("evaluation", "parse_records", "evaluation.records"),
    ("evaluation", "emit_records", "evaluation.records"),
    ("evaluation", "upsert_records", "evaluation.records"),
    ("cli", "main", "cli.main"),
)
# (module, class, method, span name); looked up through the class by callers
TRACED_METHODS = (
    ("lora", "AdaptedModel", "per_sample_grads", "lora.per_sample"),
    ("lora", "AdaptedModel", "mean_loss_and_grad", "lora.mean_grad"),
)


@dataclass
class LayerCounts:
    """Counts kept by the observers at the traced boundaries."""

    basis_flops: int = 0
    basis_offered: int = 0
    basis_kept: int = 0
    per_sample_bytes: int = 0
    checkpoint_bytes: int = 0
    max_abs_cos: float = 0.0          # from StepDiagnostics
    max_abs_cos_nonzero: float = 0.0  # recomputed over the nonzero columns
    zero_grad_columns: int = 0
    cos_checked: int = 0
    cos_unchecked: int = 0
    steps_by_run: dict = field(default_factory=dict)
    cos_violations_by_run: dict = field(default_factory=dict)


def _instrument(tracer: Tracer, counts: LayerCounts) -> None:
    def run_index():
        return tracer.calls.get("unlearn.run", 0) - 1

    def on_basis(args, kwargs, result):
        d, k = np.shape(args[0] if args else kwargs["g"])
        counts.basis_flops += 4 * d * k * result.rank
        counts.basis_offered += k
        counts.basis_kept += result.rank

    last = {}   # the per-sample matrix and projection of the current step

    def on_per_sample(args, kwargs, result):
        last["g"] = result

    def on_net_per_sample(args, kwargs, result):
        counts.per_sample_bytes += result.nbytes
        on_per_sample(args, kwargs, result)

    def on_project(args, kwargs, result):
        last["p"] = result

    def on_checkpoint(args, kwargs, result):
        counts.checkpoint_bytes += os.path.getsize(args[0] if args else kwargs["path"])

    def on_step(args, kwargs, result):
        idx = run_index()
        counts.steps_by_run[idx] = counts.steps_by_run.get(idx, 0) + 1
        g, p = last.pop("g", None), last.pop("p", None)
        return idx, g, p

    def on_orthograd_step(args, kwargs, result):
        idx, g, p = on_step(args, kwargs, result)
        cfg = args[3] if len(args) > 3 else kwargs["cfg"]
        if cfg.method.value != "orthograd_per_sample":
            return
        counts.max_abs_cos = max(counts.max_abs_cos, float(result[1].max_abs_cos))
        if g is None or p is None or g.shape[0] != p.shape[0]:
            counts.cos_unchecked += 1
            return
        norms = np.sqrt(np.einsum("ij,ij->j", g, g))
        live = norms > ZERO_GRAD_NORM
        counts.zero_grad_columns += int(np.count_nonzero(~live))
        p_norm = float(np.linalg.norm(p))
        worst = 0.0
        if p_norm > 0.0 and live.any():
            worst = float(np.max(np.abs(p @ g)[live] / (norms[live] * p_norm)))
        counts.cos_checked += 1
        counts.max_abs_cos_nonzero = max(counts.max_abs_cos_nonzero, worst)
        if not worst <= COS_LIMIT:
            counts.cos_violations_by_run[idx] = counts.cos_violations_by_run.get(idx, 0) + 1

    observers = {
        "qr_orthonormal_basis": on_basis, "per_sample_grads": on_net_per_sample,
        "project_onto_complement": on_project,
        "save_checkpoint": on_checkpoint, "load_checkpoint": on_checkpoint,
        "orthograd_step": on_orthograd_step, "baseline_step": on_step,
    }
    for module, attr, name in TRACED_FUNCTIONS:
        tracer.wrap_function(module, attr, name, observers.get(attr))
    for module, cls, attr, name in TRACED_METHODS:
        tracer.wrap_method(module, cls, attr, name,
                           on_per_sample if attr == "per_sample_grads" else None)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


@dataclass
class Measurement:
    units: list            # every checked Unit: set-ups, runs, commands
    runs: list             # the unlearning runs of the first phase
    setup_s: list
    phase_s: list
    peak_rss_mb: float
    tracer: Tracer | None = None
    counts: LayerCounts | None = None
    traced_phase_s: float = 0.0
    phase_first_span: int = 0     # spans before this index belong to the set-up

    @property
    def failed(self) -> int:
        return sum(1 for u in self.units if u.problems)

    def end_to_end(self) -> dict:
        unlearn_s = statistics.median(self.phase_s)
        steps = sum(u.steps for u in self.runs)
        ok = [u for u in self.runs if not u.problems]

        def mean(attr):
            return statistics.fmean(getattr(u, attr) for u in ok) if ok else math.nan

        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "unlearn_s": (unlearn_s, "s"),
            "steps_per_s": (steps / unlearn_s, "1/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "epochs_to_stop": (sum(u.stop_epoch for u in self.runs), "count"),
            "uis": (mean("uis"), "1"),
            "a_test": (mean("a_test"), "%"),
            "a_retain": (mean("a_retain"), "%"),
            "failed_share": (self.failed / len(self.units), "1"),
        }

    def per_layer(self) -> dict:
        tr, c = self.tracer, self.counts
        selfs = tr.self_times()

        def total(name):
            return sum(tr.durations(name))

        def calls(name):
            return len(tr.durations(name))

        step_ms = sorted(1e3 * d for d in tr.durations("unlearn.step"))
        deciles = statistics.quantiles(step_ms, n=10) if len(step_ms) > 1 else [0.0] * 9
        ok = [u for u in self.runs if not u.problems]
        return {
            "linalg.basis_s": (total("linalg.basis"), "s"),
            "linalg.basis_calls": (calls("linalg.basis"), "count"),
            "linalg.basis_flops": (c.basis_flops, "flop"),
            "linalg.basis_keep_ratio": (c.basis_kept / c.basis_offered if c.basis_offered else 0.0,
                                        "1"),
            "linalg.cosine_s": (total("linalg.cosine"), "s"),
            "linalg.cosine_calls": (calls("linalg.cosine"), "count"),
            "linalg.project_s": (total("linalg.project"), "s"),
            "net.per_sample_s": (total("net.per_sample"), "s"),
            "net.per_sample_calls": (calls("net.per_sample"), "count"),
            "net.per_sample_bytes": (c.per_sample_bytes, "B"),
            "lora.per_sample_s": (total("lora.per_sample"), "s"),
            "lora.mean_grad_s": (total("lora.mean_grad"), "s"),
            "lora.merge_s": (total("lora.merge"), "s"),
            "lora.attach_s": (total("lora.attach"), "s"),
            "net.mean_grad_s": (total("net.mean_grad"), "s"),
            "net.mean_grad_calls": (calls("net.mean_grad"), "count"),
            "net.pretrain_s": (total("net.pretrain"), "s"),
            "data.blobs_s": (total("data.blobs"), "s"),
            "data.split_s": (total("data.split"), "s"),
            "evaluation.evaluate_s": (total("evaluation.evaluate"), "s"),
            "evaluation.evaluate_calls": (calls("evaluation.evaluate"), "count"),
            "unlearn.step_s": (total("unlearn.step"), "s"),
            "unlearn.steps": (calls("unlearn.step"), "count"),
            "unlearn.step_self_s": (selfs.get("unlearn.step", 0.0), "s"),
            "unlearn.step_ms_p50": (deciles[4], "ms"),
            "unlearn.step_ms_p90": (deciles[8], "ms"),
            "unlearn.max_abs_cos": (c.max_abs_cos, "1"),
            "unlearn.max_abs_cos_nonzero": (c.max_abs_cos_nonzero, "1"),
            "unlearn.zero_grad_columns": (c.zero_grad_columns, "count"),
            "config.load_s": (total("config.load"), "s"),
            "net.checkpoint_s": (total("net.checkpoint"), "s"),
            "net.checkpoint_bytes": (c.checkpoint_bytes, "B"),
            "evaluation.records_s": (total("evaluation.records"), "s"),
            "evaluation.uis": (statistics.fmean(u.uis for u in ok) if ok else math.nan, "1"),
            "cli.main_s": (total("cli.main"), "s"),
            "trace_overhead_s": (self.traced_phase_s - self.phase_s[0], "s"),
        }


def _compare_fingerprints(reference: list, other: list, what: str) -> None:
    for ref, unit in zip(reference, other):
        if unit.fingerprint != ref.fingerprint:
            unit.problems.append(f"{what} changed the final parameters")


def measure(workload, seed: int, seconds: float, trace: bool) -> Measurement:
    workload.prepare()
    try:
        tracer = Tracer() if trace else None
        counts = LayerCounts()
        setups, setup_s = [], []
        for _ in range(1 if trace else SETUP_REPEATS):
            if tracer:
                _instrument(tracer, counts)
            try:
                t0 = time.perf_counter()
                unit = workload.setup()
                setup_s.append(time.perf_counter() - t0)
            finally:
                if tracer:
                    tracer.restore()
            workload.check_setup(unit)
            setups.append(unit)
        _compare_fingerprints(setups, setups[1:], "repeating the set-up")

        phases, phase_s = [], []
        start = time.perf_counter()
        while not phases or (not trace and time.perf_counter() - start < seconds):
            t0 = time.perf_counter()
            units = workload.phase(seed)
            phase_s.append(time.perf_counter() - t0)
            workload.check(units)
            phases.append(units)
        for units in phases[1:]:
            _compare_fingerprints(phases[0], units, "repeating the phase")
        everything = setups + [u for units in phases for u in units]

        result = Measurement(units=everything, runs=[u for u in phases[0] if u.is_run],
                             setup_s=setup_s, phase_s=phase_s, peak_rss_mb=0.0)
        if trace:
            _instrument(tracer, counts)
            result.phase_first_span = len(tracer.spans)
            try:
                t0 = time.perf_counter()
                traced = workload.phase(seed)
                result.traced_phase_s = time.perf_counter() - t0
            finally:
                tracer.restore()
            workload.check(traced)
            _compare_fingerprints(phases[0], traced, "tracing")
            traced_runs = [u for u in traced if u.is_run]
            for idx, unit in enumerate(traced_runs):
                if counts.cos_violations_by_run.get(idx):
                    unit.problems.append(f"{counts.cos_violations_by_run[idx]} projected steps "
                                         f"exceed max |cos| {COS_LIMIT} on nonzero retain gradients")
                if tracer.calls.get("unlearn.step") and counts.steps_by_run.get(idx, 0) != unit.steps:
                    unit.problems.append(f"{counts.steps_by_run.get(idx, 0)} steps traced, "
                                         f"{unit.steps} computed from the outputs")
            result.units += traced
            result.tracer, result.counts = tracer, counts
        result.peak_rss_mb = _peak_rss_mb()
        return result
    finally:
        workload.close()
