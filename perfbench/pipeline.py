"""repdtc-facing helpers shared by the measuring processes.

Imports ``repdtc`` from the checkout's ``src`` directory, builds a
workload's config through the same preset path as the CLI, and holds
the output check against the references recorded by
``make_reference.py``.
"""

from __future__ import annotations

import base64
import json
import math
import os
import platform
import sys

from workloads import REFERENCE_DIR, SRC, WORKLOADS, master_seed

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repdtc.harness import apply_overrides, resolve_config  # noqa: E402

# Kernel refactors may change rounding; anything beyond this is a
# different program.
SERIES_TOL = 1e-10
SCORE_REL_TOL = 1e-6
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def make_config(workload: str, seed: int, realizations: int | None = None):
    """The workload's preset with the seed-selected master seed."""
    w = WORKLOADS[workload]
    config = apply_overrides(
        resolve_config(w.preset),
        seed=master_seed(seed),
        realizations=realizations or w.realizations,
    )
    config.validate()
    return config


# -- reference outputs -------------------------------------------------------


def encode_series(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def decode_series(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype="<f8")


def reference_entry(record) -> dict:
    return {
        "mean": encode_series(record.mean_series.values),
        "readout": encode_series(record.readout_series.values),
        "target_bins": list(record.target_bins),
        "argmax_bins": list(record.argmax_bins),
        "score": record.score,
    }


def load_reference(workload: str, config_seed: int) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        ref = json.load(fh)
    w = WORKLOADS[workload]
    if ref["preset"] != w.preset or ref["realizations"] != w.realizations:
        raise ValueError(
            f"reference for {workload} was recorded for {ref['preset']} at "
            f"{ref['realizations']} realizations; rerun make_reference.py"
        )
    entry = ref["entries"][str(config_seed)]
    return {
        "mean": decode_series(entry["mean"]),
        "readout": decode_series(entry["readout"]),
        "target_bins": entry["target_bins"],
        "argmax_bins": entry["argmax_bins"],
        "score": entry["score"],
    }


def _max_dev(got, want) -> float:
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want)))


def check_record(record, ref: dict) -> tuple[bool, float]:
    """(passed, max series deviation) of a RunRecord against a reference."""
    dev = max(
        _max_dev(record.mean_series.values, ref["mean"]),
        _max_dev(record.readout_series.values, ref["readout"]),
    )
    passed = (
        dev <= SERIES_TOL
        and list(record.target_bins) == ref["target_bins"]
        and list(record.argmax_bins) == ref["argmax_bins"]
        and math.isclose(record.score, ref["score"], rel_tol=SCORE_REL_TOL)
    )
    return passed, dev


def expected_csv_lines(config) -> int:
    """series.csv: two comment lines, a header, one row per value."""
    return 3 + (config.realizations + 1) * (config.cycles + 1)


# -- environment -------------------------------------------------------------


def _openblas_runtime() -> dict:
    """Thread count and config string of the OpenBLAS numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted(
                {line.split()[-1] for line in fh if "openblas" in line.lower()}
            )
    except OSError:
        return {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None:
                    continue
                get_threads.restype = ctypes.c_int
                out = {"threads": get_threads(), "library": os.path.basename(path)}
                if get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    out["config"] = get_config().decode()
                return out
    return {}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """Python, numpy, BLAS and CPU facts as found; nothing is set here."""
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except Exception:  # show_config's layout differs across numpy versions
        pass
    runtime = _openblas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": runtime.get("threads"),
        "blas_runtime": runtime.get("config"),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }
