import concurrent.futures
import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repdtc import cli, compiler, harness
from repdtc.compiler import (
    Circuit,
    ISwapRotation,
    lower_program,
    share_cores,
    usable_cores,
)
from repdtc.disorder import DisorderSpec, SeedPlan
from repdtc.harness import (
    CONFIG_KEYS,
    ENV_SEED,
    MAX_ESTIMATED_SECONDS,
    PRESETS,
    CapacityError,
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    describe,
    estimate_seconds,
    list_presets,
    load_config_file,
    resolve_config,
    run_experiment,
    run_realization,
    write_outputs,
)
from repdtc.models import MODEL_SPECS
from repdtc.observables import (
    prepare_initial_state,
    stroboscopic_run,
    subharmonic_score,
)
from repdtc.pauli import PauliRotation
from repdtc.statevector import StateVector


def _pool_size_rows(config, realization):
    """Stands in for run_realization: every entry is the number of
    processes this one shares the cores with, as the compiler sees it."""
    rows = 1 if config.readout() is None else 2
    return np.full((rows, config.cycles + 1), float(compiler._pool_size))


def small_config(**kw):
    base = dict(
        name="small",
        model="u4",
        chains=2,
        sites=3,
        realizations=3,
        cycles=24,
        seed=7,
        coupling_specs=(DisorderSpec(1.5, 0.5), DisorderSpec(2.5, 0.5)),
        error_fraction=(0.05, 0.10),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestValidation:
    def test_small_config_is_valid(self):
        small_config().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"model": "u5"},
            {"chains": 3},
            {"sites": 1},
            {"realizations": 0},
            {"cycles": 1},
            {"coupling_specs": (DisorderSpec(1.5, 0.5),)},
            {"lowering": "tensor-network"},
            {"error_fraction": (0.2, 0.1)},
            {"error_fraction": (-0.1, 0.1)},
            {"error_fraction": None},
            {"noise_single": 0.01, "lowering": "native-iswap"},
            {"noise_iswap": 0.05, "lowering": "native-iswap"},
            {"noise_single": 0.001},
            {"shots": 0},
            {"measure_qubit": 6},
            {"spectrum_average": "median"},
            {"targets": (1.0,)},
            # Any line break str.splitlines knows would end a CSV header line.
            {"name": "a\nb"},
            {"name": "a\rb"},
            {"name": "a\u2028b"},
            {"name": "a\n"},
        ],
    )
    def test_bad_fields_raise_config_error(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides).validate()

    # Each used to pass validate(): the floats ended in a bare TypeError
    # inside run_experiment, True ran as seed 1 and 10.0 as ten shots.
    @pytest.mark.parametrize(
        "field,value",
        [("cycles", 8.0), ("realizations", 1.0), ("seed", 11.0), ("seed", True),
         ("shots", 10.0), ("chains", "2")],
    )
    def test_non_integer_in_integer_field_is_refused(self, field, value):
        with pytest.raises(ConfigError, match=f"^experiment.{field}: expected an integer"):
            replace(PRESETS["fig2a"], **{field: value})

    def test_numpy_integers_are_integers(self):
        replace(PRESETS["fig2a"], seed=np.int64(11), realizations=np.int32(2)).validate()

    # Each of the first five used to pass validate(): True ran as 1.0 and
    # "no" as signed.  A value set in code takes its parser's type.
    @pytest.mark.parametrize(
        "preset,field,value",
        [("fig2a", "init_jitter", True), ("fig2a", "init_angle", True),
         ("fig3", "alpha", True), ("fig5a", "error_signed", "no"),
         ("fig2a", "name", 5), ("fig2a", "init_jitter", "0.1"),
         ("fig5a", "error_signed", 1), ("fig2a", "noise_single", np.bool_(True))],
    )
    def test_value_of_another_type_is_refused(self, preset, field, value):
        key = CONFIG_KEYS[field].name
        with pytest.raises(ConfigError, match=f"^{key}: expected .*, got {value!r}$"):
            replace(PRESETS[preset], **{field: value})

    def test_numpy_scalars_take_their_python_types(self):
        config = replace(
            PRESETS["fig5a"],
            init_jitter=np.float32(0.25),
            init_angle=np.float64(0.5),
            error_signed=np.False_,
        )
        config.validate()
        assert config.signed_errors is False

    def test_value_the_range_test_cannot_compare_is_refused(self):
        with pytest.raises(ConfigError, match="^experiment.targets: expected"):
            small_config(targets=("0.1",))

    def test_explicit_spec_mode_requirements(self):
        with pytest.raises(ConfigError):
            small_config(
                error_fraction=None, x_spec=DisorderSpec(math.pi / 2, 0.1)
            ).validate()
        with pytest.raises(ConfigError):
            small_config(
                error_fraction=(0.0, 0.1), x_spec=DisorderSpec(math.pi / 2, 0.1)
            ).validate()

    def test_scale_spec_required_for_u8(self):
        u8 = dict(
            model="u8",
            chains=3,
            cycles=32,
            coupling_specs=tuple(DisorderSpec(1.0, 0.2) for _ in range(3)),
            error_fraction=None,
            x_spec=DisorderSpec(math.pi / 2, 0.0),
            cnot_spec=DisorderSpec(math.pi / 4, 0.0),
        )
        with pytest.raises(ConfigError):
            small_config(**u8)
        small_config(**u8, scale_spec=DisorderSpec(1.0, 0.0)).validate()

    def test_unused_gate_specs_are_rejected(self):
        # Sections whose parameters each model never reads.
        unused = {
            "u4": {"scale", "z_field"},
            "u4lr": {"scale", "z_field"},
            "u3": {"scale", "z_field"},
            "u8": {"z_field"},
            "u2n": {"cnot", "z_field"},
            "2t": {"cnot", "scale"},
        }
        chains = {"u4": 2, "u4lr": 2, "u3": 3, "u8": 3, "u2n": 2, "2t": 1}
        spec = DisorderSpec(1.0, 0.0)
        for model, sections in unused.items():
            base = small_config(
                model=model,
                chains=chains[model],
                cycles=48,
                coupling_specs=(spec,) * chains[model],
                error_fraction=None,
                x_spec=DisorderSpec(math.pi / 2, 0.0),
                cnot_spec=None if "cnot" in sections else spec,
                scale_spec=None if "scale" in sections else spec,
            )
            base.validate()
            for section, field in (
                ("cnot", "cnot_spec"),
                ("scale", "scale_spec"),
                ("z_field", "z_spec"),
            ):
                if section in sections:
                    with pytest.raises(ConfigError, match=f"^{section}:"):
                        replace(base, **{field: spec})
                else:
                    replace(base, **{field: spec}).validate()
        # Error-fraction mode draws the scales itself, so a scale spec
        # beside it would be ignored.
        with pytest.raises(ConfigError, match="^error_fraction:"):
            replace(PRESETS["fig5a"], scale_spec=spec).validate()

    def test_invalid_config_cannot_be_made(self):
        # So no run_realization or estimate_seconds call ever sees one.
        with pytest.raises(ConfigError, match="^couplings: need one spec per chain"):
            small_config(coupling_specs=(DisorderSpec(1.5, 0.5),))
        with pytest.raises(ConfigError, match="^couplings: need one spec per chain"):
            replace(small_config(), coupling_specs=(DisorderSpec(1.5, 0.5),))

    def test_capacity_error_past_qubit_limit(self):
        with pytest.raises(CapacityError):
            small_config(sites=13)

    def test_target_grid_commensurability(self):
        small_config(cycles=24).validate()
        with pytest.raises(ConfigError):
            small_config(cycles=25).validate()


class TestTargetsAndReadout:
    def test_default_targets_follow_model(self):
        assert small_config().resolved_targets() == (
            pytest.approx(math.pi / 2),
            pytest.approx(3 * math.pi / 2),
        )
        assert PRESETS["fig5a"].resolved_targets() == (
            pytest.approx(math.pi / 4),
            pytest.approx(7 * math.pi / 4),
        )
        assert PRESETS["fig5b"].resolved_targets() == (
            pytest.approx(2 * math.pi / 3),
            pytest.approx(4 * math.pi / 3),
        )

    def test_explicit_targets_win(self):
        cfg = small_config(targets=(math.pi,))
        assert cfg.resolved_targets() == (math.pi,)

    def test_readout_chain_selection(self):
        assert PRESETS["fig2a"].readout() == 1
        assert PRESETS["fig3"].readout() == 1
        assert PRESETS["fig5a"].readout() == 2
        assert PRESETS["fig5b"].readout() is None
        assert PRESETS["fig4-smoke"].readout() is None


class TestPresets:
    def test_expected_catalog(self):
        names = list_presets()
        assert names == sorted(names)
        for required in (
            "fig2a",
            "fig2b",
            "fig3",
            "fig4-analog",
            "fig4-smoke",
            "fig5a",
            "fig5b",
            "ideal-u2n",
            "ideal-u3",
            "ideal-u4",
            "ideal-u8",
        ):
            assert required in names

    def test_every_preset_validates(self):
        for name in list_presets():
            PRESETS[name].validate()

    def test_presets_fit_runtime_guardrail(self):
        for name in list_presets():
            assert estimate_seconds(PRESETS[name]) < MAX_ESTIMATED_SECONDS

    def test_describe_mentions_key_fields(self):
        text = describe("fig2a")
        assert "fig2a" in text
        assert "model=u4" in text
        assert "seed=11" in text

    def test_describe_unknown_preset(self):
        with pytest.raises(ConfigError) as err:
            describe("fig9")
        assert "fig2a" in str(err.value)


class TestEstimate:
    def test_scales_with_realizations(self):
        one = estimate_seconds(small_config(realizations=1))
        ten = estimate_seconds(small_config(realizations=10))
        assert one > 0
        assert ten == pytest.approx(10 * one)


CONFIG_TEXT = """\
[experiment]
name = roundtrip
model = u4
chains = 2
sites = 3
realizations = 2
cycles = 16
seed = 5
lowering = local-gadgets

[couplings]
chain0 = 1.5, 0.5
chain1 = 2.5, 0.5

[error]
fraction = 0.05, 0.10
signed = true
"""


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "roundtrip.cfg"
        path.write_text(CONFIG_TEXT)
        cfg = load_config_file(path)
        assert cfg.name == "roundtrip"
        assert cfg.model == "u4"
        assert cfg.chains == 2 and cfg.sites == 3
        assert cfg.realizations == 2 and cfg.cycles == 16 and cfg.seed == 5
        assert cfg.lowering == "local-gadgets"
        assert cfg.coupling_specs == (DisorderSpec(1.5, 0.5), DisorderSpec(2.5, 0.5))
        assert cfg.error_fraction == (0.05, 0.10)
        assert cfg.error_signed is True
        assert cfg.shots is None and cfg.measure_qubit is None

    def test_explicit_spec_sections(self, tmp_path):
        path = tmp_path / "specs.cfg"
        path.write_text(
            "[experiment]\n"
            "model = u4\nchains = 2\nsites = 2\ncycles = 16\n"
            "targets = 3.141592653589793\n"
            "[couplings]\nchain0 = 1.0, 0.0\nchain1 = 1.0, 0.0\n"
            "[x_field]\nspec = 1.5707963267948966, 0.0\n"
            "[cnot]\nspec = 0.7853981633974483, 0.0\n"
        )
        cfg = load_config_file(path)
        assert cfg.x_spec == DisorderSpec(math.pi / 2, 0.0)
        assert cfg.cnot_spec == DisorderSpec(math.pi / 4, 0.0)
        assert cfg.resolved_targets() == (math.pi,)
        assert cfg.name == "specs"

    def test_missing_sections_are_named(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("[couplings]\nchain0 = 1, 0.5\n")
        with pytest.raises(ConfigError, match="experiment"):
            load_config_file(path)
        path.write_text("[experiment]\nmodel = u4\nchains = 2\n")
        with pytest.raises(ConfigError):
            load_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config_file(tmp_path / "absent.cfg")

    @pytest.mark.parametrize(
        "word, value", [("True", True), ("OFF", False), ("On", True)]
    )
    def test_boolean_words_are_read_in_any_case(self, tmp_path, word, value):
        path = tmp_path / "case.cfg"
        path.write_text(CONFIG_TEXT.replace("signed = true", f"signed = {word}"))
        assert load_config_file(path).error_signed is value

    def test_resolve_prefers_presets(self, tmp_path):
        assert resolve_config("fig2a") is PRESETS["fig2a"]
        path = tmp_path / "file.cfg"
        path.write_text(CONFIG_TEXT)
        assert resolve_config(str(path)).name == "roundtrip"
        with pytest.raises(ConfigError):
            resolve_config("no-such-source")


class TestOverrides:
    def test_explicit_values_apply(self, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        cfg = apply_overrides(
            small_config(), seed=99, realizations=7, cycles=48, lowering="native-iswap"
        )
        assert cfg.seed == 99
        assert cfg.realizations == 7
        assert cfg.cycles == 48
        assert cfg.lowering == "native-iswap"

    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "123")
        assert apply_overrides(small_config()).seed == 123

    def test_explicit_seed_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "123")
        assert apply_overrides(small_config(), seed=4).seed == 4

    def test_noop_returns_config_unchanged(self, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        cfg = small_config()
        assert apply_overrides(cfg) is cfg


class TestRunExperiment:
    def test_workers_below_one_are_refused(self):
        with pytest.raises(ConfigError, match="^workers: need at least 1, got 0$"):
            run_experiment(small_config(), workers=0)

    # Each used to run, with the time guardrail off for NaN, or to end in
    # a bare TypeError for "2".
    @pytest.mark.parametrize(
        "argument,value",
        [("workers", "2"), ("workers", 2.5), ("workers", True), ("workers", None),
         ("max_seconds", math.nan), ("max_seconds", 0.0), ("max_seconds", -1.0),
         ("max_seconds", "60"), ("max_seconds", True)],
    )
    def test_bad_run_arguments_are_refused_by_name(self, argument, value):
        with pytest.raises(ConfigError, match=f"^{argument}: "):
            run_experiment(small_config(), **{argument: value})

    def test_record_structure_and_scores(self):
        cfg = small_config()
        record = run_experiment(cfg)
        assert len(record.series) == 3
        stacked = np.vstack([s.values for s in record.series])
        assert np.allclose(stacked.mean(axis=0), record.mean_series.values)
        assert record.target_bins == [6, 18]
        assert record.score == pytest.approx(
            subharmonic_score(record.readout_spectrum, cfg.resolved_targets())
        )
        assert record.score_full == pytest.approx(
            subharmonic_score(record.spectrum, cfg.resolved_targets())
        )
        assert len(record.argmax_bins) == 2
        assert all(1 <= k < cfg.cycles for k in record.argmax_bins)
        assert record.to_dict()["readout_chain"] == 1
        assert record.program_summary["ops_per_period"] > 0
        assert record.estimate_seconds == estimate_seconds(cfg)
        assert record.to_dict()["estimate_seconds"] == record.estimate_seconds

    def test_readout_scope_differs_from_full_average(self):
        record = run_experiment(small_config())
        assert not np.allclose(
            record.readout_series.values, record.mean_series.values
        )

    def test_single_qubit_scope_skips_chain_rows(self):
        record = run_experiment(small_config(measure_qubit=3, realizations=2))
        assert record.readout_series is record.mean_series
        assert record.score == record.score_full

    @pytest.mark.parametrize("shots", [None, 200], ids=["exact", "sampled"])
    @pytest.mark.parametrize("measure_qubit", [None, 3], ids=["all", "qubit3"])
    def test_measurement_modes(self, shots, measure_qubit):
        cfg = small_config(
            sites=2, realizations=2, cycles=16, shots=shots, measure_qubit=measure_qubit
        )
        chain = cfg.readout()
        assert chain == (1 if measure_qubit is None else None)
        rows = run_realization(cfg, 1)
        assert rows.shape == (1 if chain is None else 2, cfg.cycles + 1)
        one = run_experiment(cfg, workers=1)
        two = run_experiment(cfg, workers=2)
        assert np.array_equal(one.series[1].values, rows[0])
        for a, b in zip(one.series, two.series, strict=True):
            assert np.array_equal(a.values, b.values)
        assert np.array_equal(one.readout_series.values, two.readout_series.values)
        if chain is None:
            assert one.readout_series is one.mean_series
        else:
            assert one.to_dict()["readout_chain"] == chain
            assert not np.array_equal(
                one.readout_series.values, one.mean_series.values
            )

    def test_spectra_averaging_mode(self):
        series_mode = run_experiment(small_config())
        spectra_mode = run_experiment(small_config(spectrum_average="spectra"))
        assert len(spectra_mode.spectrum.magnitudes) == 24
        assert not np.allclose(
            series_mode.spectrum.magnitudes, spectra_mode.spectrum.magnitudes
        )

    def test_runtime_guardrail(self):
        with pytest.raises(CapacityError, match="guardrail"):
            run_experiment(small_config(), max_seconds=1e-9)

    def test_invalid_config_rejected_before_running(self):
        with pytest.raises(ConfigError):
            run_experiment(small_config(cycles=1))

    def test_pool_never_outgrows_jobs_or_cores(self, monkeypatch):
        sizes, inits = [], []

        class RecordingPool:
            """Stands in for the process pool: records its size and worker
            initializer, runs inline without calling the initializer."""

            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                inits.append((initializer, initargs))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        run_experiment(small_config(sites=2, cycles=16), workers=10**6)
        size = min(3, len(os.sched_getaffinity(0)))
        assert sizes == ([size] if size > 1 else [])
        assert inits == ([(share_cores, (size,))] if size > 1 else [])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_workers_take_their_core_share(self, monkeypatch, workers):
        if workers > min(3, usable_cores()):
            pytest.skip("needs two usable cores")
        # Pool workers fork from here, so they inherit the patch.
        monkeypatch.setattr(harness, "run_realization", _pool_size_rows)
        record = run_experiment(small_config(sites=2, cycles=16), workers=workers)
        assert [set(s.values) for s in record.series] == [{float(workers)}] * 3
        assert compiler._pool_size == 1

    def test_import_loads_no_pool_or_config_parser(self, tmp_path):
        # A one-worker run from a preset needs none of them.  A config file
        # with a misspelled key, read afterwards, still gets its hint.
        path = tmp_path / "typo.cfg"
        path.write_text(CONFIG_TEXT.replace("realizations = 2", "realisations = 2"))
        heavy = ["multiprocessing", "concurrent.futures.process", "configparser",
                 "difflib"]
        code = (
            "import sys\n"
            "from repdtc.harness import ConfigError, load_config_file\n"
            f"print([m for m in {heavy!r} if m in sys.modules])\n"
            "try:\n"
            f"    load_config_file({str(path)!r})\n"
            "except ConfigError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(harness.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        loaded, error = out.stdout.splitlines()
        assert loaded == "[]"
        assert "did you mean experiment.realizations" in error

    def test_runs_where_cpu_affinity_is_unavailable(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity.
        cfg = small_config(sites=2, cycles=16, realizations=2)
        want = run_experiment(cfg, workers=1)
        monkeypatch.delattr(os, "sched_getaffinity")
        got = run_experiment(cfg, workers=2)
        for a, b in zip(want.series, got.series, strict=True):
            assert np.array_equal(a.values, b.values)


def evolve_entry_by_entry(circuit, state, cycles, rng, single_error, iswap_error):
    """<Z_q> per cycle, each entry applied without a step to a fresh copy."""
    rows = [state.expectation_z_all()]
    iswaps = [isinstance(entry, ISwapRotation) for entry in circuit.rotations]
    widths = np.where(iswaps, iswap_error, single_error)
    noisy = widths > 0.0
    for _ in range(cycles):
        state = StateVector(state.n_qubits, state.amplitudes.copy())
        angles = np.array([entry.angle for entry in circuit.rotations])
        if noisy.any():
            angles[noisy] *= 1.0 + rng.uniform(-widths[noisy], widths[noisy])
        for entry, angle in zip(circuit.rotations, angles.tolist()):
            if isinstance(entry, ISwapRotation):
                state.apply_iswap(*entry.qubits, angle=angle)
            else:
                state.apply_rotation(PauliRotation(entry.pauli, angle))
        rows.append(state.expectation_z_all())
    return np.array(rows).T


class TestBitExactFastPaths:
    # fig4-analog runs 16 qubits: chunked runs with entries on qubit 15
    # between them.
    @pytest.mark.parametrize("preset", ["fig2a", "fig5a", "fig4-smoke", "fig4-analog"])
    def test_compiled_run_matches_entry_by_entry(self, preset):
        config = PRESETS[preset]
        program, circuit = harness._build_realization(config, SeedPlan(config.seed), 0)
        noise = {"single_error": config.noise_single, "iswap_error": config.noise_iswap}
        start = prepare_initial_state(config.n_qubits, config.init_angle)
        z = stroboscopic_run(
            circuit, start.copy(), 10, rng=np.random.default_rng(3), **noise
        )
        want = evolve_entry_by_entry(
            circuit, start, 10, np.random.default_rng(3), **noise
        )
        assert np.array_equal(z, want)
        # The program's own period is its pauli-layers circuit.
        assert lower_program(program, "pauli-layers") is program.circuit
        z = stroboscopic_run(program.circuit, start.copy(), 10)
        uncompiled = Circuit(program.n_qubits, tuple(program.all_rotations()))
        want = evolve_entry_by_entry(uncompiled, start, 10, None, 0.0, 0.0)
        assert np.array_equal(z, want)

    @pytest.mark.parametrize("rows", range(1, 25))
    def test_cycle_means_match_column_means(self, monkeypatch, rows):
        cfg = small_config(sites=2, cycles=16, measure_qubit=0)
        z = np.random.default_rng(rows).normal(size=(rows, cfg.cycles + 1))
        monkeypatch.setattr(harness, "stroboscopic_run", lambda *a, **k: z.copy())
        got = run_realization(cfg, 0)
        assert np.array_equal(got[0], [column.mean() for column in z.T])


class TestDeterminism:
    def test_repeat_runs_and_worker_counts_bit_identical(self, tmp_path):
        cfg = small_config()
        paths = []
        for label, workers in (("a", 1), ("b", 1), ("c", 2)):
            record = run_experiment(cfg, workers=workers)
            out = tmp_path / label
            write_outputs(record, out)
            paths.append(out)
        base_series = (paths[0] / "series.csv").read_bytes()
        base_spectrum = (paths[0] / "spectrum.csv").read_bytes()
        for out in paths[1:]:
            assert (out / "series.csv").read_bytes() == base_series
            assert (out / "spectrum.csv").read_bytes() == base_spectrum
        records = []
        for out in paths:
            with open(out / "record.json") as fh:
                data = json.load(fh)
            data.pop("wall_seconds")
            records.append(data)
        assert records[0] == records[1] == records[2]

    def _series_bytes_in_subprocess(self, code, timeout, **env):
        """series.csv bytes that ``code`` writes under ``out``, run in a
        fresh interpreter."""
        src = str(Path(harness.__file__).parents[1])
        with tempfile.TemporaryDirectory() as out:
            # Its own session, so that a timeout also ends its pool workers.
            proc = subprocess.Popen(
                [sys.executable, "-c", code, out],
                env={**os.environ, "PYTHONPATH": src, **env},
                start_new_session=True,
            )
            try:
                proc.wait(timeout)
            finally:
                if proc.returncode is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
            assert proc.returncode == 0
            return [p.read_bytes() for p in sorted(Path(out).glob("*/series.csv"))]

    def test_chunk_threads_do_not_hang_a_later_pool(self):
        # A one-worker 16-qubit run starts helper threads.  Each worker of
        # the pool forked afterwards runs two chunk threads, as on four
        # cores, and must start its own helpers rather than wait on
        # threads it did not inherit; the bytes agree.
        code = (
            "import sys\n"
            "from dataclasses import replace\n"
            "from repdtc import PRESETS, compiler, run_experiment\n"
            "compiler.usable_cores = lambda: 4\n"
            "cfg = replace(PRESETS['fig4-analog'], realizations=2, cycles=4)\n"
            "for workers in (1, 2):\n"
            "    run_experiment(cfg, out_dir=f'{sys.argv[1]}/w{workers}', "
            "workers=workers)\n"
        )
        one, two = self._series_bytes_in_subprocess(code, timeout=60)
        assert one == two

    def test_20_qubit_run_stays_within_its_peak_bytes(self):
        # fig2a widened to 2x10 chains reads all 20 qubits every cycle,
        # with two chunk threads as on two cores.  With one sign vector
        # per qubit read as long as the register, it peaked at 238 MiB.
        # On Linux a process started by exec takes over the peak RSS of
        # the process it replaced, here a fork of the test runner, so the
        # run goes to a child forked from the fresh interpreter, whose
        # ru_maxrss is its own.
        code = (
            "import os, resource, sys\n"
            "from dataclasses import replace\n"
            "from repdtc import PRESETS, compiler, harness, run_experiment\n"
            "compiler.usable_cores = harness.usable_cores = lambda: 2\n"
            "cfg = replace(PRESETS['fig2a'], sites=10, realizations=1, cycles=4)\n"
            "pid = os.fork()\n"
            "if pid:\n"
            "    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
            "try:\n"
            "    base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "    run_experiment(cfg)\n"
            "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "    print(base * 1024, peak * 1024, harness._peak_bytes(cfg), flush=True)\n"
            "except BaseException:\n"
            "    import traceback\n"
            "    traceback.print_exc()\n"
            "    os._exit(1)\n"
            "os._exit(0)\n"
        )
        src = str(Path(harness.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=120,
        )
        base, peak, need = map(int, out.stdout.split())
        # The margin covers what the run holds beside the arrays that
        # _peak_bytes counts.  Measured in this child (Linux, numpy 2.4.6)
        # it takes about 7.3 of the 8 MiB: numpy.random with the secrets,
        # hmac and hashlib it imports, first imported by the run's first
        # draw, 4.9 MiB, nearly all of it pages of their shared libraries;
        # the first draw, 0.2 MiB; concurrent.futures, logging and queue
        # for the chunk threads, 0.3 MiB; lowering the circuit, 1.2 MiB,
        # mostly pages of numpy code run for the first time; and during
        # the run 0.5 MiB more than the arrays counted: the circuit's
        # views, the helper thread's stack and malloc arena, and numpy's
        # iterator buffers.
        margin = 8 << 20
        assert peak <= base + need + margin
        assert peak < 80 << 20

    def test_peak_bytes_do_not_grow_with_the_qubits_read(self, monkeypatch):
        monkeypatch.setattr(harness, "usable_cores", lambda: 2)
        for sites in (4, 10):
            cfg = replace(PRESETS["fig2a"], sites=sites)
            one = harness._peak_bytes(replace(cfg, measure_qubit=0))
            assert harness._peak_bytes(cfg) == one
            assert one < (16 << cfg.n_qubits) + (4 << 20)

    def test_blas_thread_count_leaves_16_qubit_bytes_alone(self):
        code = (
            "import sys\n"
            "from dataclasses import replace\n"
            "from repdtc import PRESETS, run_experiment\n"
            "cfg = replace(PRESETS['fig4-analog'], realizations=2, cycles=8, "
            "shots=None)\n"
            "run_experiment(cfg, out_dir=f'{sys.argv[1]}/run')\n"
        )
        blobs = [
            self._series_bytes_in_subprocess(code, timeout=60, OPENBLAS_NUM_THREADS=t)
            for t in ("1", "2")
        ]
        assert blobs[0] == blobs[1] and len(blobs[0]) == 1

    def test_seed_changes_output(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config(seed=8))
        assert not np.allclose(a.mean_series.values, b.mean_series.values)

    def test_lowering_levels_agree_in_exact_mode(self):
        base = small_config(sites=4, realizations=1, cycles=100, seed=3)
        runs = {
            level: run_experiment(replace(base, lowering=level))
            for level in ("pauli-layers", "local-gadgets", "native-iswap")
        }
        reference = runs["pauli-layers"].mean_series.values
        for level in ("local-gadgets", "native-iswap"):
            drift = np.max(np.abs(runs[level].mean_series.values - reference))
            assert drift < 1e-6


class TestArtifacts:
    def test_csv_layout_and_float_roundtrip(self, tmp_path):
        cfg = small_config(realizations=2, cycles=16)
        record = run_experiment(cfg)
        paths = write_outputs(record, tmp_path)
        assert set(paths) == {"series", "spectrum", "record"}

        series_lines = paths["series"].read_text().splitlines()
        assert series_lines[0].startswith("# name=small model=u4")
        assert series_lines[1].startswith("# params:")
        assert series_lines[2] == "realization,cycle,Sz"
        first = series_lines[3].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[2]) == record.series[0].values[0]
        mean_rows = [l for l in series_lines[3:] if l.startswith("-1,")]
        assert len(mean_rows) == 17

        spectrum_lines = paths["spectrum"].read_text().splitlines()
        assert spectrum_lines[2] == "omega,magnitude"
        omega, magnitude = spectrum_lines[3].split(",")
        assert float(omega) == record.spectrum.omegas[0]
        assert float(magnitude) == record.spectrum.magnitudes[0]
        assert len(spectrum_lines) == 3 + 16

        with open(paths["record"]) as fh:
            data = json.load(fh)
        assert data["name"] == "small"
        assert data["readout_chain"] == 1
        assert data["subharmonic_score"] == record.score
        assert data["subharmonic_score_full_average"] == record.score_full
        assert data["target_bins"] == record.target_bins

    def test_run_experiment_writes_when_asked(self, tmp_path):
        run_experiment(small_config(realizations=1, cycles=16), out_dir=tmp_path)
        assert (tmp_path / "series.csv").exists()
        assert (tmp_path / "spectrum.csv").exists()
        assert (tmp_path / "record.json").exists()


class TestCli:
    def test_list_names_presets(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2a" in out and "ideal-u4" in out

    def test_describe(self, capsys):
        assert cli.main(["describe", "fig5a"]) == 0
        assert "model=u8" in capsys.readouterr().out

    def test_describe_unknown_exits_2(self, capsys):
        assert cli.main(["describe", "fig9"]) == 2
        assert "fig9" in capsys.readouterr().err

    def test_run_unknown_source_exits_2(self, capsys):
        assert cli.main(["run", "no-such-thing"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_writes_artifacts(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        path = tmp_path / "tiny.cfg"
        path.write_text(CONFIG_TEXT)
        out = tmp_path / "results"
        code = cli.main(["run", str(path), "--out", str(out), "--threads", "1"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "subharmonic score" in printed
        assert "chain 1 readout" in printed
        assert "estimate/actual" in printed
        assert (out / "record.json").exists()

    def test_run_bad_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "x")
        assert cli.main(["run", "ideal-u4"]) == 2
        err = capsys.readouterr().err
        assert ENV_SEED in err and "Traceback" not in err

    @pytest.mark.parametrize("pair", ["1.5, abc", "nan, 0.1", "1.5, inf"])
    def test_run_bad_number_in_config_exits_2(self, tmp_path, capsys, pair):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG_TEXT.replace("chain0 = 1.5, 0.5", f"chain0 = {pair}"))
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "couplings.chain0" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("seed = 5\n", "seed = 5\nalpha = abc\n", "experiment.alpha"),
            ("seed = 5\n", "seed = 5\nshots = 1.5\n", "experiment.shots"),
            ("seed = 5\n", "seed = 5\nshots = -5\n", "shots: must be positive"),
            ("seed = 5\n", "seed = 5\nmeasure_qubit = -1\n", "measure_qubit: -1"),
            ("seed = 5\n", "seed = 5\ninit_angle = nan\n", "experiment.init_angle"),
            ("seed = 5\n", "seed = 5\ninit_jitter = 5\n", "init_jitter: must lie"),
            ("seed = 5\n", "seed = 5\ninit_jitter = -0.5\n", "init_jitter: must lie"),
            (
                "realizations = 2",
                "realisations = 50",
                "did you mean experiment.realizations",
            ),
            ("[error]", "[eror]", "did you mean error"),
            ("seed = 5\n", "seed = 5\ntargets = 1e308\n", "experiment.targets"),
            (
                "seed = 5\n",
                "seed = 5\ntargets = -1.5707963267948966\n",
                "experiment.targets",
            ),
            ("seed = 5\n", "seed = 5\ntargets = 0\n", "experiment.targets"),
            ("chain0 = 1.5, 0.5", "chain0 = 1e308, 1e308", "couplings.chain0"),
            ("model = u4\n", "model = u4lr\nalpha = 1e308\n", "experiment.alpha"),
            ("model = u4\n", "model = u4lr\nalpha = -1e308\n", "experiment.alpha"),
            ("seed = 5\n", "seed = 5\nalpha = -3\n", "alpha: model u4"),
            ("chains = 2", "chains = 0", "experiment.chains"),
            (
                "fraction = 0.05, 0.10\nsigned = true\n",
                "signed = false\n[x_field]\nspec = 1.6, 0.05\n"
                "[cnot]\nspec = 0.78, 0.02\n",
                "error.signed: only read with error.fraction",
            ),
            ("[experiment]\n", "[DEFAULT]\nmodel = u4\n[experiment]\n", "DEFAULT:"),
            ("signed = true", "signed = maybe", "error.signed: expected true or"),
            # configparser joins an indented next line to the value.
            ("name = roundtrip", "name = fig\n  two", "experiment.name: must be one"),
            # "\udcff" is written as the lone byte 0xff.
            ("seed = 5\n", "seed = 5\n# \udcff\n", "bad.cfg: not UTF-8"),
        ],
    )
    def test_run_bad_config_entry_exits_2(self, tmp_path, capsys, old, new, named):
        path = tmp_path / "bad.cfg"
        path.write_bytes(
            CONFIG_TEXT.replace(old, new).encode("utf-8", "surrogateescape")
        )
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("route", ["file", "flag", "env"])
    def test_run_negative_seed_exits_2(self, tmp_path, capsys, monkeypatch, route):
        monkeypatch.delenv(ENV_SEED, raising=False)
        path = tmp_path / "tiny.cfg"
        path.write_text(CONFIG_TEXT.replace("seed = 5", "seed = -1"))
        argv = {
            "file": ["run", str(path)],
            "flag": ["run", "ideal-u4", "--seed", "-1"],
            "env": ["run", "ideal-u4"],
        }[route]
        if route == "env":
            monkeypatch.setenv(ENV_SEED, "-5")
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "seed: must be nonnegative" in err and "Traceback" not in err

    def test_run_unlowerable_model_exits_2(self, tmp_path, capsys):
        path = tmp_path / "u2n.cfg"
        path.write_text(
            CONFIG_TEXT.replace("model = u4", "model = u2n")
            .replace("chains = 2", "chains = 4")
            .replace("sites = 3", "sites = 2")
            .replace("chain1 = 2.5, 0.5", "chain1 = 2.5, 0.5\nchain2 = 1.0, 0.5\nchain3 = 2.0, 0.5")
        )
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "lowering: local-gadgets cannot lower" in err
        assert "Traceback" not in err

    def test_run_beyond_physical_memory_exits_2(self, capsys, monkeypatch):
        # 8 qubits need about 1.7 MiB; the check runs before any evolution.
        monkeypatch.setattr(harness, "_physical_memory", lambda: 1 << 10)
        assert cli.main(["run", "ideal-u4", "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert "physical memory" in err and "Traceback" not in err

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_run_out_not_a_directory_exits_2_before_evolving(
        self, tmp_path, capsys, monkeypatch, below
    ):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")

        def must_not_run(config, realization):
            raise AssertionError("a realization ran before --out was checked")

        monkeypatch.setattr(harness, "run_realization", must_not_run)
        out = str(taken / below) if below else str(taken)
        assert cli.main(["run", "ideal-u4", "--out", out, "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert "out:" in err and "Traceback" not in err
        assert taken.read_text() == "not a directory"

    def test_run_zero_threads_exits_2(self, capsys):
        assert cli.main(["run", "ideal-u4", "--threads", "0"]) == 2
        err = capsys.readouterr().err
        assert "--threads" in err and "Traceback" not in err

    def test_run_respects_env_seed(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "tiny.cfg"
        path.write_text(CONFIG_TEXT)
        monkeypatch.setenv(ENV_SEED, "31")
        assert cli.main(["run", str(path)]) == 0
        assert "seed 31" in capsys.readouterr().out

    def test_verify_suite_passes(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert not any(line.startswith("FAIL") for line in out.splitlines())


# Small valid layouts (model, chains, sites, cycles): at most 6 qubits,
# with the cycle count a multiple of the period.
FUZZ_LAYOUTS = [
    ("2t", 1, 2, 4),
    ("2t", 1, 6, 8),
    ("u4", 2, 2, 8),
    ("u4", 2, 3, 4),
    ("u4lr", 2, 3, 8),
    ("u3", 3, 2, 6),
    ("u8", 3, 2, 8),
    ("u2n", 2, 2, 4),
    ("u2n", 3, 2, 8),
]
# Texts written over a key: out of domain, mistyped, or valid and small
# enough to keep a run at 9 qubits and 3 realizations.
FUZZ_NUMBERS = [
    "nan", "inf", "1e308", "-1e308", "-1", "0", "1.5", "3", "abc", "",
    "-1.5707963267948966", "6.2831853071795",
]
FUZZ_PAIRS = ["1e308, 1e308", "nan, 0", "0.2, 0.1", "1, 2, 3", "-1, -1", "1, 0.5"]
FUZZ_WORDS = ["u4lr", "native-iswap", "spectra", "median", "true", ""]
# Every key a file may hold, plus two misspellings.
KNOWN_KEYS = {
    key.name.format(c) for key in CONFIG_KEYS.values() for c in range(12)
}
FUZZ_KEYS = sorted(
    {key.name.format(0) for key in CONFIG_KEYS.values()}
    | {"couplings.chain1", "experiment.realisations", "eror.fraction"}
)


@st.composite
def config_files(draw):
    """A valid small config, then up to three edits that may break it."""
    model, chains, sites, cycles = draw(st.sampled_from(FUZZ_LAYOUTS))
    spec = MODEL_SPECS[model]
    ini = {
        "experiment": {
            "model": model,
            "chains": chains,
            "sites": sites,
            "cycles": cycles,
            "realizations": draw(st.integers(1, 2)),
            "seed": draw(st.integers(0, 99)),
            "lowering": draw(
                st.sampled_from(["pauli-layers", "local-gadgets", "native-iswap"])
            ),
        },
        "couplings": {f"chain{c}": "1.5, 0.5" for c in range(chains)},
    }
    if draw(st.booleans()):
        ini["error"] = {"fraction": "0.05, 0.1", "signed": "false"}
    else:
        ini["x_field"] = {"spec": "1.6, 0.05"}
        if spec.cnots:
            ini["cnot"] = {"spec": "0.78, 0.02"}
        if spec.ladder(chains):
            ini["scale"] = {"spec": "1.0, 0.05"}
    experiment = ini["experiment"]
    if spec.z_field and draw(st.booleans()):
        ini["z_field"] = {"spec": "0.3, 0.1"}
    if spec.long_range and draw(st.booleans()):
        experiment["alpha"] = "2.5"
    if experiment["lowering"] == "native-iswap" and draw(st.booleans()):
        ini["noise"] = {"single": "0.001", "iswap": "0.01"}
    if draw(st.booleans()):
        experiment["measure_qubit"] = draw(st.integers(0, chains * sites - 1))
        experiment["shots"] = 64
    if draw(st.booleans()):
        experiment["init_jitter"] = "0.01"
        experiment["spectrum_average"] = "spectra"
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(FUZZ_KEYS))
        section, key = name.split(".")
        edit = draw(st.sampled_from(["set", "misspell", "drop"]))
        if edit == "set":
            if key in ("name", "model", "lowering", "spectrum_average", "signed"):
                texts = FUZZ_WORDS
            elif section in ("couplings", "error") or key == "spec":
                texts = FUZZ_PAIRS
            else:
                texts = FUZZ_NUMBERS
            ini.setdefault(section, {})[key] = draw(st.sampled_from(texts))
        elif key in ini.get(section, {}):
            value = ini[section].pop(key)
            if edit == "misspell":
                cut = draw(st.integers(0, len(key) - 1))
                ini[section][key[:cut] + key[cut + 1 :]] = value
    return "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for section, keys in ini.items()
    )


class TestConfigFuzz:
    @settings(max_examples=150)
    @given(text=config_files())
    def test_run_exits_0_or_2_naming_a_key(self, text):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
            os.environ.pop(ENV_SEED, None)
            path = Path(tmp) / "fuzz.cfg"
            path.write_text(text)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["run", str(path)])
        assert code in (0, 2), err.getvalue()
        if code == 2:
            # The message starts with a key, field or section: a known
            # one, or one the file holds.
            message = err.getvalue()
            assert message.startswith("error: ") and "Traceback" not in message
            names = KNOWN_KEYS | {key.field for key in CONFIG_KEYS.values()}
            for line in text.splitlines():
                if line.startswith("["):
                    section = line.strip("[]")
                    names.add(section)
                else:
                    names.add(f"{section}.{line.split(' = ')[0]}")
            names |= {name.split(".")[0] for name in KNOWN_KEYS}
            assert message[len("error: ") :].split(":")[0] in names, message


# Values of a wrong shape for one field or another: bool, text, None,
# NaN, +-inf, numpy scalars, tuples of the wrong length, and plain
# tuples, lists and specs of the wrong kind where specs belong.  Some are
# valid for some fields, so a case may also run.
WRONG_SHAPES = [
    True, False, np.bool_(False), "2", "", None, math.nan, math.inf, -math.inf,
    np.int64(2), np.int32(-1), np.float64(0.5), np.float32(math.nan),
    (), (0.1,), (0.1, 0.2, 0.3), (1.0, 0.1), ((1.5, 0.5), (2.5, 0.5)),
    [0.05, 0.1], [DisorderSpec(1.5, 0.5)] * 2, (DisorderSpec(1.0),) * 3,
    DisorderSpec(1.0, 0.1), DisorderSpec(True), DisorderSpec(math.nan, 0.1),
]
# What a message may start with: a key, a field or a section.
CONFIG_NAMES = (
    KNOWN_KEYS
    | {key.field for key in CONFIG_KEYS.values()}
    | {name.split(".")[0] for name in KNOWN_KEYS}
)


class TestConfigIsCheckedWhenMade:
    @pytest.mark.parametrize("field", sorted(CONFIG_KEYS))
    @settings(max_examples=60)
    @given(
        preset=st.sampled_from(["fig2a", "fig5a", "fig4-smoke"]),
        value=st.sampled_from(WRONG_SHAPES),
    )
    def test_any_value_runs_or_names_a_key(self, field, preset, value):
        try:
            config = replace(
                PRESETS[preset], **{"realizations": 2, "cycles": 8, field: value}
            )
            record = run_experiment(config)
        except (ConfigError, CapacityError) as exc:
            assert str(exc).split(":")[0] in CONFIG_NAMES, exc
            return
        assert len(record.series) == config.realizations
        assert np.isfinite(record.mean_series.values).all()

    # Each was accepted when made: the first six and the last two failed
    # later in a raw KeyError, TypeError, ValueError or AttributeError,
    # or ran, and (0.1,) raised IndexError.
    @pytest.mark.parametrize(
        "preset,field,value",
        [("fig2a", "model", None), ("fig2a", "cycles", None),
         ("fig2a", "init_angle", None), ("fig2a", "lowering", None),
         ("fig2a", "spectrum_average", None), ("fig2a", "name", None),
         ("fig5a", "error_fraction", (0.1,)), ("fig2a", "x_spec", (1.0, 0.1)),
         ("fig2a", "coupling_specs", ((1.5, 0.5), (2.5, 0.5)))],
    )
    def test_probe_is_refused_by_its_key(self, preset, field, value):
        key = CONFIG_KEYS[field].name.format(0)
        with pytest.raises(ConfigError, match=f"^{key}: expected "):
            replace(PRESETS[preset], **{field: value})

    # Each raised OverflowError from forming mean -+ half_width.
    @pytest.mark.parametrize(
        "field,value",
        [("x_spec", DisorderSpec(10**400)), ("x_spec", DisorderSpec(0.0, 10**400)),
         ("coupling_specs", (DisorderSpec(10**400), DisorderSpec(1.0)))],
        ids=["mean", "half_width", "coupling"],
    )
    def test_huge_integer_spec_is_refused_by_its_key(self, field, value):
        key = CONFIG_KEYS[field].name.format(0)
        with pytest.raises(ConfigError, match=rf"^{key}: mean \+- half_width must"):
            replace(PRESETS["fig2a"], **{field: value})

    def test_none_passes_only_where_the_default_is_none(self):
        config = replace(PRESETS["fig5a"], alpha=None, shots=None, measure_qubit=None)
        assert config == PRESETS["fig5a"]
        with pytest.raises(ConfigError, match="^coupling_specs: expected a tuple"):
            replace(config, coupling_specs=None)
        with pytest.raises(ConfigError, match="^coupling_specs: expected a tuple"):
            replace(config, coupling_specs=list(config.coupling_specs))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_never_checks_a_made_config_again(self, monkeypatch, workers):
        config = small_config(sites=2, cycles=16)

        def refuse(self):
            raise AssertionError("a made config was checked again")

        # Pool workers fork from here, so they inherit the patch.
        monkeypatch.setattr(ExperimentConfig, "validate", refuse)
        record = run_experiment(config, workers=workers)
        assert len(record.series) == config.realizations == 3
