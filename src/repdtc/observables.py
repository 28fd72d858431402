"""Stroboscopic magnetization, discrete spectra, and subharmonic metrics.

The measured signal is the chain-averaged magnetization
<S_z>(j) = (1/Q) sum_q <Z_q> sampled once per driving period, including
cycle 0.  Its spectrum is the modulus of (1/tau) sum_{j=1..tau}
exp(-i j Omega) <S_z>(j) on the grid Omega_k = 2 pi k / tau; cycle 0 is
recorded but stays out of the Fourier window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .disorder import TemporalNoise
from .pauli import PauliRotation, PauliString
from .statevector import StateVector

DEFAULT_TILT = math.pi / 8
SCORE_CAP = 1e6
_FLOOR_FRACTION = 1e-9


@dataclass
class TimeSeries:
    """Per-cycle magnetization samples; values[0] is the initial state.

    ``qubit_values``, when present, holds the per-qubit breakdown as a
    (n_qubits, cycles + 1) array whose column mean reproduces ``values``.
    """

    values: np.ndarray
    meta: dict = field(default_factory=dict)
    qubit_values: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.qubit_values is not None:
            self.qubit_values = np.asarray(self.qubit_values, dtype=float)

    @property
    def cycles(self) -> int:
        return len(self.values) - 1


@dataclass
class Spectrum:
    """Magnitudes on the stroboscopic frequency grid Omega_k = 2 pi k/tau."""

    omegas: np.ndarray
    magnitudes: np.ndarray

    def __post_init__(self):
        self.omegas = np.asarray(self.omegas, dtype=float)
        self.magnitudes = np.asarray(self.magnitudes, dtype=float)
        if self.omegas.shape != self.magnitudes.shape:
            raise ValueError("frequency grid and magnitudes differ in length")

    def bin_of(self, omega: float) -> int:
        """Grid index of an on-grid frequency; rejects off-grid requests."""
        tau = len(self.omegas)
        k = int(round(omega * tau / (2 * math.pi))) % tau
        if abs(self.omegas[k] - omega) > 1e-9:
            raise ValueError(
                f"frequency {omega} is not on the tau={tau} grid; "
                "nearest bin sits at "
                f"{self.omegas[k]}"
            )
        return k


def prepare_initial_state(
    layout, angle: float = DEFAULT_TILT, jitter: np.ndarray | None = None
) -> StateVector:
    """Product state prod_q exp(-i theta_q X_q)|0...0>.

    theta_q = angle, optionally scaled by (1 + jitter[q]) per qubit.
    """
    n = layout if isinstance(layout, int) else layout.n_qubits
    state = StateVector.basis_state(n, 0)
    for q in range(n):
        theta = angle if jitter is None else angle * (1.0 + float(jitter[q]))
        if theta == 0.0:
            continue
        state.apply_rotation(
            PauliRotation(PauliString.from_ops(n, {q: "X"}), theta)
        )
    return state


def _measure(
    state: StateVector,
    qubit: int | None,
    shots: int | None,
    shots_rng: np.random.Generator | None,
) -> float:
    if shots is None:
        if qubit is None:
            return state.average_z()
        return state.expectation_z(qubit)
    if shots_rng is None:
        raise ValueError("sampled measurement needs a random stream")
    if qubit is None:
        return float(
            np.mean([state.sample_z(q, shots, shots_rng) for q in range(state.n_qubits)])
        )
    return state.sample_z(qubit, shots, shots_rng)


def stroboscopic_run(
    circuit,
    state: StateVector,
    cycles: int,
    *,
    qubit: int | None = None,
    shots: int | None = None,
    shots_rng: np.random.Generator | None = None,
    noise: TemporalNoise | None = None,
    noise_rng: np.random.Generator | None = None,
    per_qubit: bool = False,
    meta: dict | None = None,
) -> TimeSeries:
    """Evolve ``state`` in place for ``cycles`` periods, recording <S_z>.

    ``circuit`` is a compiled ``Circuit`` (or anything with
    apply_to(state)).  ``qubit`` narrows the measurement to one qubit;
    ``shots`` switches to sampled estimates.  ``per_qubit`` additionally
    records every qubit's exact <Z_q> series (exact full-average mode
    only).  Temporal noise redraws gate angles every cycle, which the
    circuit refuses unless it is native.
    """
    if cycles < 1:
        raise ValueError("need at least one cycle")
    noisy = noise is not None and noise.active
    if per_qubit and (qubit is not None or shots is not None):
        raise ValueError(
            "per-qubit recording applies to the exact full-average mode"
        )
    values = np.empty(cycles + 1)
    qubit_values = np.empty((state.n_qubits, cycles + 1)) if per_qubit else None

    def record(j: int) -> None:
        if per_qubit:
            qubit_values[:, j] = state.expectation_z_all()
            values[j] = qubit_values[:, j].mean()
        else:
            values[j] = _measure(state, qubit, shots, shots_rng)

    record(0)
    for j in range(1, cycles + 1):
        if noisy:
            circuit.apply_to(
                state,
                rng=noise_rng,
                single_error=noise.single_error,
                iswap_error=noise.iswap_error,
            )
        else:
            circuit.apply_to(state)
        record(j)
    return TimeSeries(values, dict(meta or {}), qubit_values)


def power_spectrum(series: TimeSeries) -> Spectrum:
    """Modulus of the finite Fourier sum over cycles 1..tau, one bin per k."""
    values = series.values[1:]
    tau = len(values)
    if tau < 2:
        raise ValueError("need at least two recorded cycles for a spectrum")
    magnitudes = np.abs(np.fft.fft(values)) / tau
    omegas = 2 * math.pi * np.arange(tau) / tau
    return Spectrum(omegas, magnitudes)


def subharmonic_score(
    spectrum: Spectrum, targets, cap: float = SCORE_CAP
) -> float:
    """(mean target-bin magnitude) / (max non-target non-DC magnitude).

    Scores above 1 mean the subharmonic dominates the rest of the
    spectrum.  Magnitudes below a floor of 1e-9 times the spectral
    maximum count as numerically zero: zero targets score 0, zero
    background saturates at ``cap``.
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
        return cap
    return min(target_amp / background, cap)


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
    values = series.values[1:]
    n_windows = len(values) // window
    if n_windows < 1:
        raise ValueError("series shorter than one window")
    amps = []
    bins = None
    for w in range(n_windows):
        segment = values[w * window : (w + 1) * window]
        spec = Spectrum(
            2 * math.pi * np.arange(window) / window,
            np.abs(np.fft.fft(segment)) / window,
        )
        if bins is None:
            bins = sorted({spec.bin_of(omega) for omega in targets})
        amps.append(float(spec.magnitudes[bins].mean()))
    reference = amps[0]
    if reference <= 0.0:
        return 0
    for w, amp in enumerate(amps):
        if amp < 0.5 * reference:
            return w * window
    return n_windows * window


def average_series(series_list) -> TimeSeries:
    """Pointwise mean in list order (fixed reduction order, bit-stable)."""
    series_list = list(series_list)
    if not series_list:
        raise ValueError("nothing to average")
    total = np.zeros_like(series_list[0].values)
    for s in series_list:
        total += s.values
    return TimeSeries(total / len(series_list), {"averaged_over": len(series_list)})


def average_spectra(spectra) -> Spectrum:
    """Pointwise mean of magnitudes; the alternative averaging pipeline."""
    spectra = list(spectra)
    if not spectra:
        raise ValueError("nothing to average")
    total = np.zeros_like(spectra[0].magnitudes)
    for s in spectra:
        total += s.magnitudes
    return Spectrum(spectra[0].omegas.copy(), total / len(spectra))
