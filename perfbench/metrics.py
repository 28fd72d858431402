"""Which end-to-end metric each per-layer metric should move, and where.

Written down before any optimisation is measured, so that a claim on one
workload also names the workloads it should leave unchanged.  A metric
that maps to nothing is informational and never gates a change.
"""

from kernels import KERNELS, metric_name

ALL = ("sweep-8q", "pool-12q", "native-16q")
SWEEP = ("sweep-8q",)
POOL = ("pool-12q",)
NATIVE = ("native-16q",)

LAYER_MAP: dict[str, dict[str, tuple[str, ...]]] = {
    # Per-realization set-up stages: a visible share of each realization
    # only at 8 qubits.
    "disorder.sample_ms": {"setup_s": ALL, "cycle_ms": SWEEP},
    "models.build_ms": {"setup_s": ALL, "cycle_ms": SWEEP},
    "compiler.lower_ms": {"setup_s": ALL, "cycle_ms": SWEEP},
    # One period of apply_to; largest share on the 16-qubit run.
    "observables.init_ms": {"cycle_ms": ALL},
    "observables.evolve_us.p50": {"cycle_ms": ALL},
    "observables.evolve_us.p99": {"cycle_ms": ALL},
    # The readout call; the 16-qubit run reads one qubit with shots.
    "observables.measure_us.p50": {"cycle_ms": SWEEP + POOL},
    "observables.measure_us.p99": {"cycle_ms": SWEEP + POOL},
    "observables.reduce_ms": {"cycle_ms": SWEEP},
    "harness.write_ms": {"cycle_ms": SWEEP},
    "harness.csv_bytes": {"cycle_ms": SWEEP},
    "harness.pool_efficiency": {"cycle_ms": POOL},
    "compiler.ops.diag": {"cycle_ms": ALL},
    "compiler.ops.flip": {"cycle_ms": ALL},
    "compiler.ops.iswap": {"cycle_ms": ALL},
    "statevector.amp_ops_per_cycle": {"cycle_ms": ALL},
    "harness.estimate_ratio": {},
    "observables.series_max_dev": {},
    "trace.overhead_frac": {},
    "trace.residual_frac": {},
}

for _kernel in KERNELS:
    LAYER_MAP[metric_name(_kernel, 8)] = {"cycle_ms": SWEEP}
    LAYER_MAP[metric_name(_kernel, 12)] = {"cycle_ms": POOL}
    # Gather rotations and iSWAP views dominate the native 16-qubit period.
    LAYER_MAP[metric_name(_kernel, 16)] = (
        {"cycle_ms": NATIVE} if _kernel in ("x", "iswap") else {}
    )
    # Headroom toward MAX_QUBITS; no workload runs 20 qubits.
    LAYER_MAP[metric_name(_kernel, 20)] = {}
