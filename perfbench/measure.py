"""Measuring process: one fresh interpreter per mode.

    python3 perfbench/measure.py timed|traced WORKLOAD SEED SECONDS
    python3 perfbench/measure.py poolcheck SEED
    python3 perfbench/measure.py kernels

``timed`` calls ``run_experiment`` back to back for about SECONDS,
checks every call's outputs against the stored reference, and reports
the per-cycle times and this process's peak RSS (pool workers
included).  ``traced`` alternates untraced calls with a call of the
same ``run_experiment`` at one worker under ``tracing.instrument`` and
reports the per-layer metrics.  ``poolcheck`` compares series.csv
bytes of pool-12q at two workers and one; ``kernels`` measures the
kernel table.  The last line of stdout is one JSON object for
``run.py``.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import (
    POOL_CHECK_REALIZATIONS,
    TMP_DIR,
    median,
    percentile,
    worker_count,
)

import pipeline  # noqa: E402  (puts the checkout's src on sys.path)
from kernels import kernel_table, metric_name  # noqa: E402
import numpy as np  # noqa: E402
from repdtc.harness import estimate_seconds, run_experiment  # noqa: E402
from tracing import EVOLVE, MEASURE, Tracer, op_counts, traced_call  # noqa: E402

# Calls per timed run never drop below this, however slow a call is.
MIN_CALLS = 2


def _checked_call(config, ref, out_dir: Path, workers: int, tracer=None):
    """(record or None, wall seconds, passed, series deviation).

    With a tracer, the call runs instrumented inside a harness.run span.
    """
    scope = contextlib.nullcontext() if tracer is None else traced_call(tracer)
    t0 = time.perf_counter()
    try:
        with scope:
            record = run_experiment(config, out_dir=out_dir, workers=workers)
    except Exception:
        traceback.print_exc()
        return None, time.perf_counter() - t0, False, math.inf
    wall = time.perf_counter() - t0
    passed, dev = pipeline.check_record(record, ref)
    lines = (out_dir / "series.csv").read_bytes().count(b"\n")
    if lines != pipeline.expected_csv_lines(config):
        passed = False
    return record, wall, passed, dev


def _peak_rss_mib() -> dict:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"self": own, "children": children, "peak": max(own, children)}


def timed(workload: str, seed: int, seconds: float, tmp: Path) -> dict:
    workers = worker_count(workload)
    config = pipeline.make_config(workload, seed)
    ref = pipeline.load_reference(workload, config.seed)
    per_cycle = config.realizations * config.cycles
    cycle_ms, attempted, failed, max_dev = [], 0, 0, 0.0
    start = time.perf_counter()
    while True:
        attempted += 1
        _, wall, passed, dev = _checked_call(config, ref, tmp, workers)
        max_dev = max(max_dev, dev)
        if passed:
            cycle_ms.append(1e3 * wall / per_cycle)
        else:
            failed += 1
        # Start another call only if it should end inside the window.
        if attempted >= MIN_CALLS and time.perf_counter() - start + wall > seconds:
            break
    return {
        "workers": workers,
        "cycle_ms": cycle_ms,
        "attempted": attempted,
        "failed": failed,
        "series_max_dev": max_dev,
        "rss_mib": _peak_rss_mib(),
        "env": pipeline.environment(),
    }


def _identical(a, b) -> bool:
    """Bit-for-bit equality of two RunRecords' series."""
    return (
        len(a.series) == len(b.series)
        and all(np.array_equal(x.values, y.values) for x, y in zip(a.series, b.series))
        and np.array_equal(a.mean_series.values, b.mean_series.values)
        and np.array_equal(a.readout_series.values, b.readout_series.values)
    )


REALIZATION = "harness.realization"


def _stage_metrics(tracer: Tracer) -> dict:
    """Per-layer timings from the spans; empty when nothing was traced."""
    inside, outside = tracer.stage_tables(REALIZATION)
    realization = outside.get(REALIZATION)
    if realization is None:
        return {}
    metrics = {}
    for name, metric in (
        ("disorder.sample", "disorder.sample_ms"),
        ("models.build", "models.build_ms"),
        ("compiler.lower", "compiler.lower_ms"),
        ("observables.init", "observables.init_ms"),
    ):
        metrics[metric] = inside[name]["self_ns"] / realization["count"] / 1e6
    for name, metric in (
        (EVOLVE, "observables.evolve_us"),
        (MEASURE, "observables.measure_us"),
    ):
        durations = [d / 1e3 for d in tracer.durations(name)]
        metrics[f"{metric}.p50"] = percentile(durations, 50)
        metrics[f"{metric}.p99"] = percentile(durations, 99)
    runs = outside["harness.run"]["count"]
    for name, metric in (
        ("observables.reduce", "observables.reduce_ms"),
        ("harness.write", "harness.write_ms"),
    ):
        metrics[metric] = outside[name]["self_ns"] / runs / 1e6
    metrics["trace.residual_frac"] = realization["self_ns"] / realization["total_ns"]
    return metrics


def _stage_report(tracer: Tracer) -> dict:
    """Self time of every stage, below the realization spans and outside.

    Shares are of the summed realization wall time; the realization
    row's own share is the residual.
    """
    inside, outside = tracer.stage_tables(REALIZATION)
    realization_ns = outside.get(REALIZATION, {}).get("total_ns", 0)

    def rows(table: dict, shared) -> dict:
        return {
            name: {
                "count": row["count"],
                "self_ms": row["self_ns"] / 1e6,
                "share_of_realizations": (
                    row["self_ns"] / realization_ns
                    if realization_ns and name in shared
                    else None
                ),
            }
            for name, row in table.items()
        }

    return {
        "in_realizations": rows(inside, inside),
        "outside": rows(outside, (REALIZATION,)),
    }


def _count_metrics(tracer: Tracer) -> dict:
    """Kernel calls of one evolved period and amplitude ops per cycle."""
    ops = op_counts(tracer)
    metrics = {f"compiler.ops.{kind}": count for kind, count in ops.items()}
    n_qubits = tracer.first_period[1]
    readouts = sum(tracer.readout_qubits) / len(tracer.durations(MEASURE))
    metrics["statevector.amp_ops_per_cycle"] = (sum(ops.values()) + readouts) * (
        1 << n_qubits
    )
    return metrics


def traced(workload: str, seed: int, seconds: float, tmp: Path) -> dict:
    workers = worker_count(workload)
    config = pipeline.make_config(workload, seed)
    ref = pipeline.load_reference(workload, config.seed)
    start = time.perf_counter()

    tracer = Tracer()
    attempted, failed, max_dev = 0, 0, 0.0
    overhead, efficiency, estimate_ratio = [], [], []
    estimate = estimate_seconds(config)
    dirs = {name: tmp / name for name in ("pool", "serial", "traced")}

    def checked(out_dir, n_workers, trace=False):
        nonlocal attempted, failed, max_dev
        got = _checked_call(config, ref, out_dir, n_workers, tracer if trace else None)
        attempted += 1
        failed += not got[2]
        max_dev = max(max_dev, got[3])
        return got

    while True:
        iteration_start = time.perf_counter()
        record, wall_w, _, _ = checked(dirs["pool"], workers)
        record_1, wall_1 = record, wall_w
        if workers > 1:
            record_1, wall_1, _, _ = checked(dirs["serial"], 1)
        if record is None or record_1 is None:
            break
        mark = len(tracer.spans)
        traced_record, wall_t, _, _ = checked(dirs["traced"], 1, trace=True)
        if traced_record is None:
            break
        failed += not _identical(traced_record, record_1)
        realization_ns = sum(
            s[3] - s[2] for s in tracer.spans[mark:] if s[0] == REALIZATION
        )
        overhead.append(wall_t / wall_1 - 1.0)
        efficiency.append(realization_ns / 1e9 / (workers * wall_w))
        estimate_ratio.append(estimate / wall_w)
        elapsed = time.perf_counter() - start
        if elapsed + time.perf_counter() - iteration_start > seconds:
            break

    metrics = _stage_metrics(tracer)
    if overhead:
        metrics["harness.csv_bytes"] = sum(
            (dirs["pool"] / f).stat().st_size for f in ("series.csv", "spectrum.csv")
        )
        metrics["harness.pool_efficiency"] = median(efficiency)
        metrics["harness.estimate_ratio"] = median(estimate_ratio)
        metrics["trace.overhead_frac"] = median(overhead)
        metrics.update(_count_metrics(tracer))
    metrics["observables.series_max_dev"] = max_dev
    return {
        "workers": workers,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "stages": _stage_report(tracer),
        "samples": {
            "realizations": len(tracer.durations(REALIZATION)),
            "evolve_spans": len(tracer.durations(EVOLVE)),
            "measure_spans": len(tracer.durations(MEASURE)),
            "iterations": len(overhead),
        },
        "env": pipeline.environment(),
    }


def kernels() -> dict:
    rows = kernel_table()
    return {
        "metrics": {metric_name(r["kernel"], r["qubits"]): r["ns_per_amp"] for r in rows},
        "kernels": rows,
    }


def poolcheck(seed: int, tmp: Path) -> dict:
    """series.csv bytes at two workers and one for a small pool-12q config.

    Skipped (``equal`` is None) when this process may use only one core.
    """
    workers = worker_count("pool-12q")
    if workers < 2:
        return {"equal": None, "workers": workers, "bytes": 0}
    config = pipeline.make_config("pool-12q", seed, POOL_CHECK_REALIZATIONS)
    blobs = []
    for n in (workers, 1):
        out = tmp / f"workers{n}"
        try:
            run_experiment(config, out_dir=out, workers=n)
        except Exception:
            traceback.print_exc()
            return {"equal": False, "workers": workers, "bytes": 0}
        blobs.append((out / "series.csv").read_bytes())
    return {"equal": blobs[0] == blobs[1], "workers": workers, "bytes": len(blobs[0])}


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "kernels":
        print(json.dumps(kernels()))
        return 0
    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=TMP_DIR))
    try:
        if mode in ("timed", "traced"):
            run = timed if mode == "timed" else traced
            result = run(args[0], int(args[1]), float(args[2]), tmp)
        elif mode == "poolcheck":
            result = poolcheck(int(args[0]), tmp)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
