"""orthograd benchmark: three forgetting workloads, measured from outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload random-lora --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process

Workloads (see ``workloads.py``):

* ``random-lora``    configs/blobs_random.cfg, ``orthograd_per_sample`` in adapter
                     space through ``run_unlearning``, ``RANDOM_LORA_RUNS`` unlearn
                     seeds per benchmark seed;
* ``class-full``     configs/blobs_class.cfg, ``orthograd_per_sample`` on the full
                     parameter vector, one unlearn seed;
* ``cli-baselines``  ``orthograd pretrain`` as set-up, then ``orthograd unlearn`` for
                     four baselines with two seeds each, then ``orthograd compare``.

The dataset and pretraining come from the bundled configs; ``--seed`` picks
the unlearn seeds.  With ``--trace 0`` the final line carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
failed share.  A report with the environment, every run's parameter
fingerprint and all metrics goes to ``perfbench/out/``, and in traced mode
the raw spans too.  The BLAS thread count is fixed to ``BLAS_THREADS`` for
this process.  The exit code is 0 only when every check passed.

With ``--workload all`` the metrics are keyed ``<workload>/<metric>``, and
``peak_rss_mb`` is the process peak so far, so it includes earlier workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
# End-to-end metrics in the final JSON line, gated by BENCHMARK.json bounds.
# unlearn_s, uis and failed_share are printed and kept in the report only.
# unlearn_s is steps / steps_per_s with steps = epochs_to_stop * batches per
# epoch; on random-lora it compounds the seed spread of stop epochs with
# timing noise, so the two factors are gated instead.  uis spreads too widely
# across seeds for any bound, and failed_share is the final line's
# failed / attempted.
GATED_END_TO_END = ("setup_s", "steps_per_s", "peak_rss_mb", "epochs_to_stop",
                    "a_test", "a_retain")


def _fix_threads() -> None:
    """Pin BLAS and the CLI's worker pool before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["ORTHOGRAD_THREADS"] = "1"


def _blas_threads_in_use():
    """Thread count reported by the loaded OpenBLAS, or None if unavailable."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": _blas_threads_in_use(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
    }


def _import_program():
    """Import orthograd from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "orthograd" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        raise SystemExit(f"perfbench: no orthograd sources under {src} (run from a full checkout)")
    sys.path.insert(0, str(src))
    import orthograd

    if Path(orthograd.__file__).resolve().parent != (src / "orthograd").resolve():
        raise SystemExit(f"perfbench: imported orthograd from {orthograd.__file__}, not {src}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _report_workload(name, m, trace: bool) -> dict:
    from harness import EXACT_COUNTS

    e2e = m.end_to_end()
    print(f"== {name}: {len(m.units)} units checked, {m.failed} failed")
    for key, (value, unit) in e2e.items():
        print(f"  {key:<16} {_fmt(value):>14} {unit}")
    for u in m.units:
        status = "ok" if not u.problems else "FAILED: " + "; ".join(u.problems)
        status += "".join(f" (note: {n})" for n in u.notes)
        detail = (f" stop_epoch={u.stop_epoch} steps={u.steps} a_test={u.a_test:.2f}"
                  f" a_retain={u.a_retain:.2f} uis={u.uis:.5f}") if u.is_run and u.steps else ""
        print(f"  [{u.label}]{detail} sha256={u.fingerprint[:16] or '-'} {status}")
    metrics = e2e
    if trace:
        metrics = m.per_layer()
        print("  per-layer (traced run):")
        for key, (value, unit) in metrics.items():
            print(f"    {key:<26} {_fmt(value):>14} {unit}")
        selfs = sorted(m.tracer.self_times(m.phase_first_span).items(), key=lambda kv: -kv[1])
        print(f"  self time by span in the traced phase ({m.traced_phase_s:.3f} s), largest first:")
        for key, value in selfs:
            print(f"    {key:<22} {value:10.4f} s  {100 * value / m.traced_phase_s:6.1f} %")
        print(f"  orthogonality checked on {m.counts.cos_checked} projected steps"
              f" ({m.counts.cos_unchecked} lacked a per-sample matrix or projection)")
        if m.tracer.observer_errors:
            print(f"  observer errors: {m.tracer.observer_errors}")
        m.tracer.dump(OUT_DIR / f"spans-{name}.json")
    print("  exact-repeat counts: " + "; ".join(f"{k} ({v})" for k, v in EXACT_COUNTS.items()))
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "setup_s_all": m.setup_s, "phase_s_all": m.phase_s,
        "fingerprints": {u.label: u.fingerprint for u in m.units if u.fingerprint},
        "problems": {u.label: u.problems for u in m.units if u.problems},
        "notes": {u.label: u.notes for u in m.units if u.notes},
        "attempted": len(m.units), "failed": m.failed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="random-lora, class-full, cli-baselines or all (default)")
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed (unlearn seeds)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="repeat the timed phase until this long has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    _fix_threads()
    _import_program()
    from harness import measure
    from workloads import WORKLOADS, make_workload

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    env = _environment()
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    report = {"environment": env, "seed": args.seed, "trace": args.trace, "workloads": {}}
    for name in names:
        m = measure(make_workload(name, ROOT, OUT_DIR), args.seed, args.seconds, bool(args.trace))
        report["workloads"][name] = _report_workload(name, m, bool(args.trace))

    label = args.workload if len(names) == 1 else "all"
    with open(OUT_DIR / f"report-{label}-s{args.seed}-t{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    runs = report["workloads"].values()
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {}
    for name, r in report["workloads"].items():
        for key, entry in r["metrics"].items():
            if args.trace or key in GATED_END_TO_END:
                if not math.isfinite(entry["value"]):   # no successful run to average
                    entry = {**entry, "value": None}
                    failed = max(failed, 1)
                metrics[key if len(names) == 1 else f"{name}/{key}"] = entry
    print(f"failed_share {failed / attempted:.6g} ({failed} of {attempted} units)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
