import math

import numpy as np
import pytest

from repdtc import ChainLayout, StateVector, build_model, observables
from repdtc.compiler import lower_program
from repdtc.disorder import DisorderSpec, SeedPlan, sample_model_params
from repdtc.harness import ExperimentConfig
from repdtc.observables import (
    DEFAULT_TILT,
    SCORE_CAP,
    Spectrum,
    TimeSeries,
    average_series,
    average_spectra,
    power_spectrum,
    prepare_initial_state,
    stroboscopic_run,
    subharmonic_lifetime,
    subharmonic_score,
)
from repdtc.pauli import PauliRotation, PauliString


class FlipCircuit:
    """Applies exp(-i pi/2 X_q) on every qubit, negating every <Z_q>."""

    def __init__(self, n_qubits):
        self.rotations = [
            PauliRotation(PauliString.from_ops(n_qubits, {q: "X"}), math.pi / 2)
            for q in range(n_qubits)
        ]

    def apply_to(self, state):
        for rotation in self.rotations:
            state.apply_rotation(rotation)


def ideal_u4_params(layout):
    config = ExperimentConfig(
        name="ideal",
        model="u4",
        chains=layout.n_chains,
        sites=layout.sites,
        realizations=1,
        cycles=8,
        seed=0,
        coupling_specs=(DisorderSpec(1.5, 0.0), DisorderSpec(2.5, 0.0)),
        x_spec=DisorderSpec(math.pi / 2),
        cnot_spec=DisorderSpec(math.pi / 4),
    )
    return sample_model_params(config, SeedPlan(0), 0)


class TestInitialState:
    def test_zero_angle_is_all_zeros(self):
        state = prepare_initial_state(3, angle=0.0)
        assert abs(state.amplitudes[0] - 1.0) < 1e-15

    def test_tilt_sets_z_expectation(self):
        state = prepare_initial_state(4)
        expected = math.cos(2 * DEFAULT_TILT)
        for q in range(4):
            assert state.expectation_z(q) == pytest.approx(expected)

    def test_jitter_scales_per_qubit(self):
        jitter = np.array([0.0, 0.5])
        state = prepare_initial_state(2, angle=0.2, jitter=jitter)
        assert state.expectation_z(0) == pytest.approx(math.cos(0.4))
        assert state.expectation_z(1) == pytest.approx(math.cos(0.6))


class TestStroboscopicRun:
    def test_period_doubled_magnetization(self):
        state = prepare_initial_state(2)
        z = stroboscopic_run(FlipCircuit(2), state, 6)
        c = math.cos(2 * DEFAULT_TILT)
        assert z.shape == (2, 7)
        assert np.allclose(z, [[c, -c, c, -c, c, -c, c]] * 2)

    def test_every_qubit_is_recorded(self):
        jitter = np.array([0.0, 0.5, 1.0])
        state = prepare_initial_state(3, jitter=jitter)
        expected = state.expectation_z_all()
        z = stroboscopic_run(FlipCircuit(3), state, 4)
        assert z.shape == (3, 5)
        assert np.array_equal(z[:, 0], expected)
        assert np.allclose(z[:, 1], -expected)

    def test_single_qubit_measurement(self):
        state = prepare_initial_state(2)
        z = stroboscopic_run(FlipCircuit(2), state, 3, qubit=1)
        c = math.cos(2 * DEFAULT_TILT)
        assert z.shape == (1, 4)
        assert np.allclose(z[0], [c, -c, c, -c])

    def test_sampled_measurement_converges_and_repeats(self):
        c = math.cos(2 * DEFAULT_TILT)
        runs = []
        for _ in range(2):
            state = prepare_initial_state(2)
            rng = np.random.default_rng(77)
            runs.append(
                stroboscopic_run(FlipCircuit(2), state, 3, shots=20000, shots_rng=rng)
            )
        assert runs[0].shape == (2, 4)
        assert np.array_equal(runs[0], runs[1])
        assert np.max(np.abs(runs[0] - np.array([c, -c, c, -c]))) < 0.02

    def test_sampled_measurement_needs_stream(self):
        state = prepare_initial_state(2)
        with pytest.raises(ValueError):
            stroboscopic_run(FlipCircuit(2), state, 2, shots=100)

    def test_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            stroboscopic_run(FlipCircuit(2), prepare_initial_state(2), 0)

    def test_noise_requires_native_circuit(self):
        layout = ChainLayout(2, 2)
        program = build_model("u4", layout, ideal_u4_params(layout))
        with pytest.raises(ValueError, match="native"):
            stroboscopic_run(
                lower_program(program, "pauli-layers"),
                prepare_initial_state(layout.n_qubits),
                2,
                rng=np.random.default_rng(0),
                single_error=0.01,
            )

    def test_zero_noise_widths_are_harmless(self):
        layout = ChainLayout(2, 2)
        program = build_model("u4", layout, ideal_u4_params(layout))
        native = lower_program(program, "native-iswap")
        clean = stroboscopic_run(native, prepare_initial_state(layout.n_qubits), 2)
        zero = stroboscopic_run(
            native,
            prepare_initial_state(layout.n_qubits),
            2,
            rng=np.random.default_rng(0),
            single_error=0.0,
            iswap_error=0.0,
        )
        assert np.array_equal(clean, zero)

    def test_noise_perturbs_native_run(self):
        layout = ChainLayout(2, 2)
        params = ideal_u4_params(layout)
        program = build_model("u4", layout, params)
        native = lower_program(program, "native-iswap")
        clean = stroboscopic_run(native, prepare_initial_state(layout.n_qubits), 5)
        noisy = stroboscopic_run(
            native,
            prepare_initial_state(layout.n_qubits),
            5,
            rng=np.random.default_rng(5),
            single_error=0.02,
            iswap_error=0.02,
        )
        assert not np.allclose(clean, noisy)
        assert np.all(np.abs(noisy) <= 1.0 + 1e-12)


class TestPowerSpectrum:
    def test_constant_series_is_pure_dc(self):
        spec = power_spectrum(TimeSeries(np.full(9, 0.4)))
        assert spec.magnitudes[0] == pytest.approx(0.4)
        assert np.max(spec.magnitudes[1:]) < 1e-15

    def test_alternating_series_peaks_at_pi(self):
        values = np.empty(13)
        values[0] = 0.9
        values[1:] = [0.7 * (-1) ** j for j in range(1, 13)]
        spec = power_spectrum(TimeSeries(values))
        k = spec.bin_of(math.pi)
        assert k == 6
        assert spec.magnitudes[k] == pytest.approx(0.7)
        others = np.delete(spec.magnitudes, k)
        assert np.max(others) < 1e-15

    def test_period_four_tile_amplitudes(self):
        tau = 16
        values = np.zeros(tau + 1)
        values[1:] = np.tile([1.0, -1.0, 0.0, 0.0], tau // 4)
        spec = power_spectrum(TimeSeries(values))
        assert spec.magnitudes[spec.bin_of(math.pi)] == pytest.approx(0.5)
        quarter = spec.magnitudes[spec.bin_of(math.pi / 2)]
        assert quarter == pytest.approx(math.sqrt(2) / 4)
        assert spec.magnitudes[spec.bin_of(3 * math.pi / 2)] == pytest.approx(quarter)

    def test_needs_two_cycles(self):
        with pytest.raises(ValueError):
            power_spectrum(TimeSeries(np.zeros(2)))


class TestSpectrum:
    @pytest.mark.parametrize("tau", [2, 7, 500])
    def test_grid_is_derived_from_the_magnitudes(self, tau):
        spec = Spectrum(np.zeros(tau))
        assert np.array_equal(spec.omegas, 2 * math.pi * np.arange(tau) / tau)


class TestBinLookup:
    def test_on_grid_frequencies(self):
        spec = power_spectrum(TimeSeries(np.zeros(501)))
        assert spec.bin_of(0.0) == 0
        assert spec.bin_of(math.pi) == 250
        assert spec.bin_of(math.pi / 2) == 125
        assert spec.bin_of(3 * math.pi / 2) == 375

    def test_off_grid_rejected(self):
        spec = power_spectrum(TimeSeries(np.zeros(11)))
        with pytest.raises(ValueError):
            spec.bin_of(math.pi / 2)

    def test_bins_of_sorts_distinct_bins(self):
        spec = power_spectrum(TimeSeries(np.zeros(9)))
        assert spec.bins_of((3 * math.pi / 2, math.pi / 2, math.pi / 2)) == [2, 6]

    def test_bins_of_refuses_an_empty_target_set(self):
        spec = power_spectrum(TimeSeries(np.zeros(9)))
        with pytest.raises(ValueError, match="at least one target"):
            spec.bins_of(())


def flat_spectrum(tau, assignments):
    mags = np.zeros(tau)
    for k, v in assignments.items():
        mags[k] = v
    return Spectrum(mags)


class TestSubharmonicScore:
    def test_ratio_against_loudest_background(self):
        spec = flat_spectrum(8, {0: 5.0, 4: 1.0, 2: 0.25, 6: 0.1})
        assert subharmonic_score(spec, (math.pi,)) == pytest.approx(4.0)

    def test_targets_average_before_dividing(self):
        spec = flat_spectrum(8, {2: 0.6, 6: 0.2, 3: 0.1})
        score = subharmonic_score(spec, (math.pi / 2, 3 * math.pi / 2))
        assert score == pytest.approx(0.4 / 0.1)

    def test_dc_never_counts_as_background(self):
        spec = flat_spectrum(8, {0: 100.0, 4: 1.0})
        assert subharmonic_score(spec, (math.pi,)) == SCORE_CAP

    def test_zero_target_scores_zero(self):
        spec = flat_spectrum(8, {2: 1.0})
        assert subharmonic_score(spec, (math.pi,)) == 0.0

    def test_all_zero_spectrum_scores_zero(self):
        spec = flat_spectrum(8, {})
        assert subharmonic_score(spec, (math.pi,)) == 0.0

    def test_empty_targets_rejected(self):
        spec = flat_spectrum(8, {4: 1.0})
        with pytest.raises(ValueError):
            subharmonic_score(spec, ())

    def test_pure_alternation_saturates(self):
        values = np.zeros(9)
        values[1:] = [0.5 * (-1) ** j for j in range(8)]
        score = subharmonic_score(power_spectrum(TimeSeries(values)), (math.pi,))
        assert score == SCORE_CAP

    def test_period_four_tile_scores(self):
        values = np.zeros(17)
        values[1:] = np.tile([1.0, -1.0, 0.0, 0.0], 4)
        spec = power_spectrum(TimeSeries(values))
        at_pi = subharmonic_score(spec, (math.pi,))
        at_quarters = subharmonic_score(spec, (math.pi / 2, 3 * math.pi / 2))
        assert at_pi == pytest.approx(0.5 / (math.sqrt(2) / 4))
        assert at_quarters == pytest.approx((math.sqrt(2) / 4) / 0.5)

    def test_white_noise_scores_below_one(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            values = np.concatenate([[0.0], rng.normal(size=500)])
            spec = power_spectrum(TimeSeries(values))
            score = subharmonic_score(spec, (math.pi / 2, 3 * math.pi / 2))
            assert 0.0 < score < 1.0


class TestSubharmonicLifetime:
    @staticmethod
    def step_series(cycles, drop_at, low):
        values = np.zeros(cycles + 1)
        for j in range(1, cycles + 1):
            amp = 1.0 if j <= drop_at else low
            values[j] = amp * (-1) ** j
        return TimeSeries(values)

    def test_detects_halving_window(self):
        series = self.step_series(500, 200, 0.2)
        assert subharmonic_lifetime(series, (math.pi,)) == 200

    def test_shallow_decay_counts_as_alive(self):
        series = self.step_series(500, 200, 0.8)
        assert subharmonic_lifetime(series, (math.pi,)) == 500

    def test_never_decays_returns_full_span(self):
        series = self.step_series(430, 430, 1.0)
        assert subharmonic_lifetime(series, (math.pi,)) == 400

    def test_zero_reference_returns_zero(self):
        series = TimeSeries(np.zeros(301))
        assert subharmonic_lifetime(series, (math.pi,)) == 0

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            subharmonic_lifetime(TimeSeries(np.zeros(50)), (math.pi,))

    def test_empty_targets_rejected(self):
        # Each window's amplitude would be the mean of no bins (NaN), which
        # never halves, so the lifetime would read the full span.
        series = self.step_series(200, 200, 1.0)
        with pytest.raises(ValueError, match="at least one target"):
            subharmonic_lifetime(series, ())

    def test_custom_window(self):
        series = self.step_series(100, 40, 0.1)
        assert subharmonic_lifetime(series, (math.pi,), window=20) == 40

    @pytest.mark.parametrize("window", [0, -5])
    def test_window_below_one_rejected(self, window):
        series = self.step_series(100, 40, 0.1)
        with pytest.raises(ValueError, match="window"):
            subharmonic_lifetime(series, (math.pi,), window=window)

    @pytest.mark.parametrize("window", [2.5, 20.0, True, "20", None])
    def test_window_that_is_not_an_integer_rejected(self, window):
        # True would run as a 1-cycle window, 2.5 would reach range().
        series = self.step_series(100, 40, 0.1)
        with pytest.raises(ValueError, match="window must be a positive integer"):
            subharmonic_lifetime(series, (math.pi,), window=window)

    def test_numpy_integer_window_accepted(self):
        series = self.step_series(100, 40, 0.1)
        assert subharmonic_lifetime(series, (math.pi,), window=np.int64(20)) == 40

    def test_one_cycle_window_has_no_spectrum(self):
        series = self.step_series(100, 40, 0.1)
        with pytest.raises(ValueError, match="at least two recorded cycles"):
            subharmonic_lifetime(series, (math.pi,), window=1)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_a_windowed_fft_bit_for_bit(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        window = int(rng.integers(2, 40))
        n_windows = int(rng.integers(3, 9))
        extra = int(rng.integers(window))
        series = TimeSeries(rng.normal(size=1 + n_windows * window + extra))
        targets = (2 * math.pi * int(rng.integers(1, window)) / window,)
        spectra = []

        def recording(s):
            spectra.append(power_spectrum(s))
            return spectra[-1]

        monkeypatch.setattr(observables, "power_spectrum", recording)
        lifetime = subharmonic_lifetime(series, targets, window=window)
        # Each window's FFT on its own grid, cycle 0 left out.
        values = series.values[1:]
        amps = []
        for w in range(n_windows):
            segment = values[w * window : (w + 1) * window]
            mags = np.abs(np.fft.fft(segment)) / window
            assert spectra[w].magnitudes.tobytes() == mags.tobytes()
            bins = sorted({round(o * window / (2 * math.pi)) % window for o in targets})
            amps.append(float(mags[bins].mean()))
        assert len(spectra) == n_windows
        halved = [w * window for w, amp in enumerate(amps) if amp < 0.5 * amps[0]]
        assert lifetime == (halved[0] if halved else n_windows * window)


class TestAveraging:
    def test_series_mean(self):
        a = TimeSeries(np.array([1.0, 2.0]))
        b = TimeSeries(np.array([3.0, 6.0]))
        merged = average_series([a, b])
        assert np.allclose(merged.values, [2.0, 4.0])

    def test_spectra_mean(self):
        s1 = flat_spectrum(4, {1: 1.0})
        s2 = flat_spectrum(4, {1: 3.0, 2: 2.0})
        merged = average_spectra([s1, s2])
        assert np.allclose(merged.magnitudes, [0.0, 2.0, 1.0, 0.0])
        assert np.allclose(merged.omegas, s1.omegas)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            average_series([])
        with pytest.raises(ValueError):
            average_spectra([])
