"""Stroboscopic magnetization, discrete spectra, and subharmonic metrics.

The measured signal is the chain-averaged magnetization
<S_z>(j) = (1/Q) sum_q <Z_q> sampled once per driving period, including
cycle 0.  Its spectrum is the modulus of (1/tau) sum_{j=1..tau}
exp(-i j Omega) <S_z>(j) on the grid Omega_k = 2 pi k / tau; cycle 0 is
recorded but stays out of the Fourier window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliRotation, PauliString
from .statevector import StateVector

DEFAULT_TILT = math.pi / 8
SCORE_CAP = 1e6
_FLOOR_FRACTION = 1e-9


@dataclass
class TimeSeries:
    """Per-cycle magnetization samples; values[0] is the initial state."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)


@dataclass
class Spectrum:
    """Magnitudes on the stroboscopic frequency grid Omega_k = 2 pi k/tau."""

    magnitudes: np.ndarray

    def __post_init__(self):
        self.magnitudes = np.asarray(self.magnitudes, dtype=float)

    @property
    def omegas(self) -> np.ndarray:
        tau = len(self.magnitudes)
        return 2 * math.pi * np.arange(tau) / tau

    def bin_of(self, omega: float) -> int:
        """Grid index of an on-grid frequency; rejects off-grid requests."""
        tau = len(self.magnitudes)
        k = grid_bin(omega, tau)
        if k is None:
            raise ValueError(f"frequency {omega} is not on the tau={tau} grid")
        return k


def grid_bin(omega: float, tau: int) -> int | None:
    """Index k of the grid frequency 2 pi k / tau within 1e-9 of omega, else None."""
    k = int(round(omega * tau / (2 * math.pi))) % tau
    if abs(2 * math.pi * k / tau - omega) > 1e-9:
        return None
    return k


def prepare_initial_state(
    n: int, angle: float = DEFAULT_TILT, jitter: np.ndarray | None = None
) -> StateVector:
    """Product state prod_q exp(-i theta_q X_q)|0...0> on n qubits.

    theta_q = angle, optionally scaled by (1 + jitter[q]) per qubit.
    """
    state = StateVector.basis_state(n, 0)
    for q in range(n):
        theta = angle if jitter is None else angle * (1.0 + float(jitter[q]))
        if theta == 0.0:
            continue
        state.apply_rotation(
            PauliRotation(PauliString.from_ops(n, {q: "X"}), theta)
        )
    return state


def stroboscopic_run(
    circuit,
    state: StateVector,
    cycles: int,
    *,
    qubit: int | None = None,
    shots: int | None = None,
    shots_rng: np.random.Generator | None = None,
    **noise,
) -> np.ndarray:
    """Evolve ``state`` in place for ``cycles`` periods, recording <Z_q>.

    Returns a (measured qubits, cycles + 1) array: every qubit, or only
    ``qubit`` when given; column j is read after j periods.  ``shots``
    replaces each exact <Z_q> by the mean of that many sampled outcomes
    drawn from ``shots_rng``.  ``noise`` holds the ``rng`` /
    ``single_error`` / ``iswap_error`` keywords of ``circuit.apply_to``,
    passed on every period.
    """
    if cycles < 1:
        raise ValueError("need at least one cycle")
    if shots is not None and shots_rng is None:
        raise ValueError("sampled measurement needs a random stream")
    qubits = range(state.n_qubits) if qubit is None else (qubit,)
    z = np.empty((len(qubits), cycles + 1))
    for j in range(cycles + 1):
        if j:
            circuit.apply_to(state, **noise)
        if shots is not None:
            for row, q in enumerate(qubits):
                z[row, j] = state.sample_z(q, shots, shots_rng)
        elif qubit is None:
            z[:, j] = state.expectation_z_all()
        else:
            z[0, j] = state.expectation_z(qubit)
    return z


def power_spectrum(series: TimeSeries) -> Spectrum:
    """Modulus of the finite Fourier sum over cycles 1..tau, one bin per k."""
    values = series.values[1:]
    tau = len(values)
    if tau < 2:
        raise ValueError("need at least two recorded cycles for a spectrum")
    return Spectrum(np.abs(np.fft.fft(values)) / tau)


def subharmonic_score(spectrum: Spectrum, targets) -> float:
    """(mean target-bin magnitude) / (max non-target non-DC magnitude).

    Scores above 1 mean the subharmonic dominates the rest of the
    spectrum.  Magnitudes below a floor of 1e-9 times the spectral
    maximum count as numerically zero: zero targets score 0, zero
    background saturates at ``SCORE_CAP``.
    """
    bins = sorted({spectrum.bin_of(omega) for omega in targets})
    if not bins:
        raise ValueError("need at least one target frequency")
    mags = spectrum.magnitudes
    top = float(mags.max())
    if top == 0.0:
        return 0.0
    floor = _FLOOR_FRACTION * top
    target_amp = float(mags[bins].mean())
    mask = np.ones(len(mags), dtype=bool)
    mask[bins] = False
    mask[0] = False
    background = float(mags[mask].max()) if mask.any() else 0.0
    if target_amp <= floor:
        return 0.0
    if background <= floor:
        return SCORE_CAP
    return min(target_amp / background, SCORE_CAP)


def subharmonic_lifetime(
    series: TimeSeries, targets, window: int = 100
) -> int:
    """Cycles until the target-bin amplitude halves, in window steps.

    The series (cycle 0 excluded) is cut into non-overlapping windows;
    each window's spectrum gives one target-bin amplitude.  The lifetime
    is the number of cycles before the first window whose amplitude
    drops below half of the first window's.  A series that never decays
    returns the full windowed span.
    """
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    n_windows = (len(series.values) - 1) // window
    if n_windows < 1:
        raise ValueError("series shorter than one window")
    amps = []
    for start in range(0, n_windows * window, window):
        # Cycle ``start`` stands in for cycle 0, which power_spectrum drops.
        spec = power_spectrum(TimeSeries(series.values[start : start + window + 1]))
        bins = sorted({spec.bin_of(omega) for omega in targets})
        amps.append(float(spec.magnitudes[bins].mean()))
    reference = amps[0]
    if reference <= 0.0:
        return 0
    for w, amp in enumerate(amps):
        if amp < 0.5 * reference:
            return w * window
    return n_windows * window


def _mean(arrays) -> np.ndarray:
    """Pointwise mean in list order (fixed reduction order, bit-stable)."""
    arrays = list(arrays)
    if not arrays:
        raise ValueError("nothing to average")
    total = np.zeros_like(arrays[0])
    for a in arrays:
        total += a
    return total / len(arrays)


def average_series(series_list) -> TimeSeries:
    """Pointwise mean of the series, in list order."""
    return TimeSeries(_mean(s.values for s in series_list))


def average_spectra(spectra) -> Spectrum:
    """Pointwise mean of magnitudes; the alternative averaging pipeline."""
    return Spectrum(_mean(s.magnitudes for s in spectra))
