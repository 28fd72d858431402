"""Per-amplitude cost of the statevector kernels at 8 to 20 qubits.

Each kernel is timed through the public ``StateVector`` method a real
caller uses, after one warm-up call, so the index and sign caches and
BLAS behave as they do inside a run.  Bytes per amplitude are computed,
not measured: the compulsory traffic of the operation (every amplitude
it changes or reads, read once and written once), a floor that holds
for any implementation.
"""

from __future__ import annotations

import time

import numpy as np

from repdtc.pauli import PauliRotation, PauliString
from repdtc.statevector import StateVector

SIZES = (8, 12, 16, 20)
KERNELS = ("diag", "x", "zx", "iswap", "readout_all", "readout_one")
# Compulsory bytes per amplitude of the register (complex128 = 16 B):
# diag, x and zx read and write every amplitude; iSWAP touches the
# |01>/|10> half; a readout reads every amplitude once.
MIN_BYTES_PER_AMP = {
    "diag": 32,
    "x": 32,
    "zx": 32,
    "iswap": 16,
    "readout_all": 16,
    "readout_one": 16,
}
# Timing budget per (kernel, size) cell after the warm-up call.
_CELL_NS = 80_000_000
_MIN_REPS = 5
_MAX_REPS = 2000


def _kernel_call(kernel: str, state: StateVector):
    """The public call for one kernel on the middle qubit pair."""
    n = state.n_qubits
    a, b = n // 2 - 1, n // 2
    if kernel == "diag":
        rot = PauliRotation(PauliString.from_ops(n, {a: "Z", b: "Z"}), 0.3)
        return lambda: state.apply_rotation(rot)
    if kernel == "x":
        rot = PauliRotation(PauliString.from_ops(n, {a: "X"}), 0.3)
        return lambda: state.apply_rotation(rot)
    if kernel == "zx":
        rot = PauliRotation(PauliString.from_ops(n, {a: "Z", b: "X"}), 0.3)
        return lambda: state.apply_rotation(rot)
    if kernel == "iswap":
        return lambda: state.apply_iswap(a, b)
    if kernel == "readout_all":
        return state.expectation_z_all
    if kernel == "readout_one":
        return lambda: state.expectation_z(a)
    raise ValueError(f"unknown kernel {kernel!r}")


def _random_state(n: int) -> StateVector:
    rng = np.random.default_rng(n)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


def kernel_table(sizes=SIZES) -> list[dict]:
    """One row per (kernel, size): median ns per amplitude and reps."""
    rows = []
    for n in sizes:
        state = _random_state(n)
        amps = 1 << n
        for kernel in KERNELS:
            call = _kernel_call(kernel, state)
            call()  # warm-up: fills the caches a real run would fill
            samples = []
            spent = 0
            while len(samples) < _MAX_REPS and (
                len(samples) < _MIN_REPS or spent < _CELL_NS
            ):
                t0 = time.perf_counter_ns()
                call()
                dt = time.perf_counter_ns() - t0
                samples.append(dt)
                spent += dt
            samples.sort()
            ns_per_amp = samples[len(samples) // 2] / amps
            rows.append(
                {
                    "kernel": kernel,
                    "qubits": n,
                    "ns_per_amp": ns_per_amp,
                    "reps": len(samples),
                    "min_bytes_per_amp_computed": MIN_BYTES_PER_AMP[kernel],
                    "min_GBps_computed": MIN_BYTES_PER_AMP[kernel] / ns_per_amp,
                }
            )
    return rows


def metric_name(kernel: str, n: int) -> str:
    return f"statevector.{kernel}.ns_per_amp.q{n}"
