"""Workload table, checkout paths and summary statistics (stdlib only).

Each workload is a paper preset run through ``run_experiment`` with
its cycle count, model, layout, lowering and readout kept; only the
realization count is sized so that one call fits many times into a
measurement window.  The benchmark's ``--seed`` picks the preset's
master seed from ``REFERENCE_SEEDS``, so every seed has a stored
reference for the output check.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
# Scratch output of run_experiment; removed after every run.
TMP_DIR = ROOT / ".perfbench_tmp"

# Master seeds with a stored reference; --seed s selects index s % 8.
REFERENCE_SEEDS = tuple(range(11, 19))


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    realizations: int
    workers: int


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-8q", "fig2a", 4, 1),
        Workload("pool-12q", "fig5a", 4, 2),
        Workload("native-16q", "fig4-analog", 1, 1),
    )
}

# Realizations of the worker-count byte check; kept small because it
# runs twice (workers 1 and 2) once per invocation.
POOL_CHECK_REALIZATIONS = 2


def worker_count(workload: str) -> int:
    """The workload's pool size, never above the cores this process may use."""
    return min(WORKLOADS[workload].workers, len(os.sched_getaffinity(0)))


def master_seed(seed: int) -> int:
    return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


def check_checkout() -> str | None:
    """Why the benchmark cannot run from this directory, or None."""
    if not (SRC / "repdtc" / "__init__.py").is_file():
        return f"no repdtc sources under {SRC}; run from a repository checkout"
    return None


def median(values) -> float:
    values = sorted(values)
    if not values:
        raise ValueError("median of no samples")
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2.0


def tail(values, beyond: int = 10) -> dict | None:
    """Highest percentile that still has ``beyond`` samples above it.

    Returns {"pct": p, "value": v} with v the sample of rank n - beyond
    (1-based), or None when there are too few samples.
    """
    values = sorted(values)
    n = len(values)
    if n <= beyond:
        return None
    return {
        "pct": math.floor(100.0 * (n - beyond) / n),
        "value": float(values[n - beyond - 1]),
    }


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    values = sorted(values)
    if not values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(values)))
    return float(values[rank - 1])


def timing_summary(values) -> dict:
    return {"median": median(values), "tail": tail(values), "n": len(values)}
