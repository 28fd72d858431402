"""Experiment registry, config files, and the end-to-end run pipeline.

A run samples disordered parameters per realization, builds the Floquet
program, optionally lowers it, evolves the tilted initial state
stroboscopically, and reduces the per-realization magnetization series
into an averaged series, a spectrum, and subharmonic scores.  Every
random draw is addressed by (seed, realization, purpose), so identical
configs reproduce byte-identical CSV outputs for any worker count.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .compiler import LOWERING_LEVELS, lower_program
from .disorder import (
    DisorderSpec,
    ModelDisorder,
    SeedPlan,
    TemporalNoise,
    sample_init_jitter,
    sample_model_params,
)
from .models import (
    MODEL_SPECS,
    ChainLayout,
    build_model,
    default_targets,
    readout_chain,
)
from .observables import (
    DEFAULT_TILT,
    Spectrum,
    TimeSeries,
    average_series,
    average_spectra,
    power_spectrum,
    prepare_initial_state,
    stroboscopic_run,
    subharmonic_score,
)
from .statevector import MAX_QUBITS

MAX_SINGLE_NOISE = 0.005
MAX_ISWAP_NOISE = 0.04
MAX_ESTIMATED_SECONDS = 4 * 3600.0
# Cost of one kernel call (a gate, or the readout of one qubit): a fixed
# part plus a part per amplitude of the register.  Fitted to the kernel
# table on a 2-core Xeon with numpy 2.4 so that the three benchmark
# workloads (8, 12 and 16 qubits) come out 1.2-1.5x above their
# one-worker wall time.  Multi-qubit gathers cost 3-5x the per-amplitude
# part from 16 qubits on, where no preset uses them.
_SECONDS_PER_CALL = 1.05e-5
_SECONDS_PER_AMP_OP = 6.5e-9

ENV_SEED = "REPDTC_SEED"


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field."""


class CapacityError(RuntimeError):
    """Run refused because it exceeds the resource guardrail."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment bit-exactly."""

    name: str
    model: str
    chains: int
    sites: int
    realizations: int
    cycles: int
    seed: int
    coupling_specs: tuple[DisorderSpec, ...]
    x_spec: DisorderSpec | None = None
    cnot_spec: DisorderSpec | None = None
    scale_spec: DisorderSpec | None = None
    z_spec: DisorderSpec | None = None
    error_fraction: tuple[float, float] | None = None
    error_signed: bool = True
    alpha: float = 1.5
    lowering: str = "pauli-layers"
    init_angle: float = DEFAULT_TILT
    init_jitter: float = 0.0
    noise_single: float = 0.0
    noise_iswap: float = 0.0
    shots: int | None = None
    measure_qubit: int | None = None
    targets: tuple[float, ...] = ()
    spectrum_average: str = "series"
    description: str = ""

    @property
    def layout(self) -> ChainLayout:
        return ChainLayout(self.chains, self.sites)

    @property
    def n_qubits(self) -> int:
        return self.chains * self.sites

    def resolved_targets(self) -> tuple[float, ...]:
        if self.targets:
            return self.targets
        return default_targets(self.model, self.chains)

    def readout(self) -> int | None:
        """Chain index whose series carries the scored subharmonic.

        A single-qubit measurement is already scoped, and the exact
        average is kept for models whose full average has no faster
        competing line; both cases return None.
        """
        if self.measure_qubit is not None:
            return None
        return readout_chain(self.model, self.chains)

    def to_model_disorder(self) -> ModelDisorder:
        return ModelDisorder(
            model=self.model,
            layout=self.layout,
            coupling_specs=self.coupling_specs,
            x_spec=self.x_spec,
            cnot_spec=self.cnot_spec,
            scale_spec=self.scale_spec,
            z_spec=self.z_spec,
            error_fraction=self.error_fraction,
            error_signed=self.error_signed,
            alpha=self.alpha,
        )

    def validate(self) -> None:
        spec = MODEL_SPECS.get(self.model)
        if spec is None:
            raise ConfigError(f"model: unknown model {self.model!r}")
        if not spec.allows(self.chains):
            raise ConfigError(
                f"chains: model {self.model} needs {spec.chain_rule()} "
                f"chains, got {self.chains}"
            )
        if self.sites < 2:
            raise ConfigError("sites: need at least two sites per chain")
        if self.n_qubits > MAX_QUBITS:
            raise CapacityError(
                f"{self.n_qubits} qubits exceeds the {MAX_QUBITS}-qubit "
                "statevector capacity"
            )
        if self.realizations < 1:
            raise ConfigError("realizations: must be at least 1")
        if self.cycles < 2:
            raise ConfigError("cycles: need at least 2 for a spectrum")
        if len(self.coupling_specs) != self.chains:
            raise ConfigError(
                f"couplings: need one spec per chain "
                f"({self.chains}), got {len(self.coupling_specs)}"
            )
        if self.lowering not in LOWERING_LEVELS:
            raise ConfigError(
                f"lowering: unknown level {self.lowering!r}; "
                f"choose from {LOWERING_LEVELS}"
            )
        gate_specs = (
            ("cnot", self.cnot_spec, bool(spec.cnots)),
            ("scale", self.scale_spec, bool(spec.ladder(self.chains))),
            ("z_field", self.z_spec, spec.z_field),
        )
        for section, value, used in gate_specs:
            if value is not None and not used:
                raise ConfigError(
                    f"{section}: model {self.model} has no {section} "
                    "parameters; remove the spec"
                )
        if self.error_fraction is not None:
            low, high = self.error_fraction
            if not 0 <= low <= high:
                raise ConfigError("error_fraction: need 0 <= low <= high")
            explicit = (self.x_spec, self.cnot_spec, self.scale_spec)
            if any(value is not None for value in explicit):
                raise ConfigError(
                    "error_fraction: exclusive with explicit x/cnot/scale specs"
                )
        else:
            if self.x_spec is None:
                raise ConfigError(
                    "x_field: spec required unless error_fraction mode is on"
                )
            # cnot and scale specs are required where used; z fields stay optional.
            for section, value, used in gate_specs[:2]:
                if used and value is None:
                    raise ConfigError(
                        f"{section}: spec required for model {self.model}"
                    )
        if not 0 <= self.noise_single <= MAX_SINGLE_NOISE:
            raise ConfigError(
                f"noise_single: must lie in [0, {MAX_SINGLE_NOISE}]"
            )
        if not 0 <= self.noise_iswap <= MAX_ISWAP_NOISE:
            raise ConfigError(f"noise_iswap: must lie in [0, {MAX_ISWAP_NOISE}]")
        if (self.noise_single > 0 or self.noise_iswap > 0) and (
            self.lowering != "native-iswap"
        ):
            raise ConfigError(
                "noise: temporal noise attaches to native gates; "
                "set lowering = native-iswap"
            )
        if self.shots is not None and self.shots < 1:
            raise ConfigError("shots: must be positive (or omitted for exact)")
        if self.measure_qubit is not None and not (
            0 <= self.measure_qubit < self.n_qubits
        ):
            raise ConfigError(
                f"measure_qubit: {self.measure_qubit} out of range for "
                f"{self.n_qubits} qubits"
            )
        if self.spectrum_average not in ("series", "spectra"):
            raise ConfigError(
                "spectrum_average: choose 'series' or 'spectra'"
            )
        for omega in self.resolved_targets():
            k = omega * self.cycles / (2 * math.pi)
            if abs(k - round(k)) > 1e-9:
                raise ConfigError(
                    f"targets: frequency {omega} is off the cycles={self.cycles} "
                    "grid; pick a cycle count commensurate with the period"
                )

    def spec_summary(self) -> str:
        parts = [
            f"J/chain{c}=({spec.mean:g},{spec.half_width:g})"
            for c, spec in enumerate(self.coupling_specs)
        ]
        for label, spec in (
            ("h", self.x_spec),
            ("cnot", self.cnot_spec),
            ("scale", self.scale_spec),
            ("hz", self.z_spec),
        ):
            if spec is not None:
                parts.append(f"{label}=({spec.mean:g},{spec.half_width:g})")
        if self.error_fraction is not None:
            low, high = self.error_fraction
            sign = "signed" if self.error_signed else "one-sided"
            parts.append(f"error=({low:g},{high:g},{sign})")
        return " ".join(parts)


# -- presets -----------------------------------------------------------------

_HALF_PI = math.pi / 2
_QUARTER_PI = math.pi / 4


def _fig2_config(name: str, sites: int, description: str) -> ExperimentConfig:
    return ExperimentConfig(
        name=name,
        model="u4",
        chains=2,
        sites=sites,
        realizations=100,
        cycles=500,
        seed=11,
        coupling_specs=(DisorderSpec(1.5, 0.5), DisorderSpec(2.5, 0.5)),
        x_spec=DisorderSpec(1.125 * _HALF_PI, 0.025 * _HALF_PI),
        cnot_spec=DisorderSpec(0.925 * _QUARTER_PI, 0.025 * _QUARTER_PI),
        description=description,
    )


def _build_presets() -> dict[str, ExperimentConfig]:
    presets = {}

    presets["fig2a"] = _fig2_config(
        "fig2a",
        4,
        "Two size-4 chains under the period-4 drive with ~7.5% gate "
        "imperfection and disordered couplings; 4T subharmonic at "
        "omega = pi/2 and 3pi/2.",
    )
    presets["fig2b"] = _fig2_config(
        "fig2b",
        5,
        "Size-5 variant of fig2a; the longer chains hold the 4T response "
        "longer under the same imperfections.",
    )

    fig3 = replace(
        _fig2_config(
            "fig3",
            4,
            "fig2a couplings made long-range with a 1/r^1.5 power-law "
            "envelope; the 4T subharmonic survives.  The tail couplings "
            "shorten the subharmonic lifetime to roughly 120 cycles, so "
            "the analysis window is matched to it instead of inheriting "
            "the 500-cycle window of the nearest-neighbor runs.",
        ),
        model="u4lr",
        alpha=1.5,
        cycles=100,
    )
    presets["fig3"] = fig3

    presets["fig5a"] = ExperimentConfig(
        name="fig5a",
        model="u8",
        chains=3,
        sites=4,
        realizations=100,
        cycles=504,
        seed=11,
        coupling_specs=(
            DisorderSpec(1.0, 0.5),
            DisorderSpec(1.5, 0.5),
            DisorderSpec(2.0, 0.5),
        ),
        error_fraction=(0.05, 0.10),
        description="Three size-4 chains under the period-8 drive with "
        "5-10% signed gate errors; 8T subharmonic at omega = pi/4 and "
        "7pi/4.  504 cycles keep the targets on the frequency grid.",
    )
    presets["fig5b"] = replace(
        presets["fig5a"],
        name="fig5b",
        model="u3",
        cycles=501,
        description="Three size-4 chains under the period-3 drive with "
        "5-10% signed gate errors; 3T subharmonic at omega = 2pi/3 and "
        "4pi/3.  501 cycles keep the targets on the frequency grid.",
    )

    presets["fig4-analog"] = ExperimentConfig(
        name="fig4-analog",
        model="u4",
        chains=2,
        sites=8,
        realizations=20,
        cycles=100,
        seed=11,
        coupling_specs=(DisorderSpec(1.5, 0.5), DisorderSpec(2.5, 0.5)),
        error_fraction=(0.0, 0.075),
        lowering="native-iswap",
        init_jitter=0.005,
        noise_single=MAX_SINGLE_NOISE,
        noise_iswap=MAX_ISWAP_NOISE,
        shots=480,
        measure_qubit=8,
        description="Two size-8 chains lowered to iSWAP + single-qubit "
        "rotations, with fresh per-gate angle noise (0.5% / 4%), up to "
        "7.5% quenched gate error, imperfect initial tilt, and 480-shot "
        "sampling of one second-chain qubit.",
    )
    presets["fig4-smoke"] = replace(
        presets["fig4-analog"],
        name="fig4-smoke",
        sites=4,
        realizations=5,
        measure_qubit=4,
        description="Reduced 2x4-chain version of fig4-analog for CI.",
    )

    presets["ideal-u4"] = ExperimentConfig(
        name="ideal-u4",
        model="u4",
        chains=2,
        sites=4,
        realizations=1,
        cycles=64,
        seed=11,
        coupling_specs=(DisorderSpec(1.0), DisorderSpec(1.0)),
        x_spec=DisorderSpec(_HALF_PI),
        cnot_spec=DisorderSpec(_QUARTER_PI),
        description="Zero-disorder period-4 drive; exact 4T response.",
    )
    presets["ideal-u3"] = ExperimentConfig(
        name="ideal-u3",
        model="u3",
        chains=3,
        sites=3,
        realizations=1,
        cycles=63,
        seed=11,
        coupling_specs=tuple(DisorderSpec(1.0) for _ in range(3)),
        x_spec=DisorderSpec(_HALF_PI),
        cnot_spec=DisorderSpec(_QUARTER_PI),
        description="Zero-disorder period-3 drive; exact 3T logical cycles.",
    )
    presets["ideal-u8"] = ExperimentConfig(
        name="ideal-u8",
        model="u8",
        chains=3,
        sites=3,
        realizations=1,
        cycles=64,
        seed=11,
        coupling_specs=tuple(DisorderSpec(1.0) for _ in range(3)),
        x_spec=DisorderSpec(_HALF_PI),
        cnot_spec=DisorderSpec(_QUARTER_PI),
        scale_spec=DisorderSpec(1.0),
        description="Zero-disorder period-8 drive; exact 8T logical cycle.",
    )
    presets["ideal-u2n"] = ExperimentConfig(
        name="ideal-u2n",
        model="u2n",
        chains=3,
        sites=2,
        realizations=1,
        cycles=64,
        seed=11,
        coupling_specs=tuple(DisorderSpec(1.0) for _ in range(3)),
        x_spec=DisorderSpec(_HALF_PI),
        scale_spec=DisorderSpec(1.0),
        description="Zero-disorder generalized ladder on three chains; "
        "period 8 via the decrement action.",
    )
    return presets


PRESETS = _build_presets()


def list_presets() -> list[str]:
    return sorted(PRESETS)


def describe(name: str) -> str:
    if name not in PRESETS:
        raise KeyError(
            f"unknown preset {name!r}; valid names: {', '.join(list_presets())}"
        )
    cfg = PRESETS[name]
    lines = [
        f"{cfg.name}: {cfg.description}",
        f"  model={cfg.model} layout={cfg.chains}x{cfg.sites} "
        f"({cfg.n_qubits} qubits)",
        f"  realizations={cfg.realizations} cycles={cfg.cycles} seed={cfg.seed}",
        f"  lowering={cfg.lowering} shots="
        f"{cfg.shots if cfg.shots else 'exact'}"
        + (
            f" measure_qubit={cfg.measure_qubit}"
            if cfg.measure_qubit is not None
            else ""
        ),
        f"  params: {cfg.spec_summary()}",
        f"  targets: "
        + ", ".join(f"{omega:.6g}" for omega in cfg.resolved_targets()),
    ]
    if cfg.noise_single or cfg.noise_iswap:
        lines.append(
            f"  temporal noise: single={cfg.noise_single:.3%} "
            f"iswap={cfg.noise_iswap:.3%} per gate per cycle"
        )
    if cfg.init_jitter:
        lines.append(f"  initial tilt jitter: +-{cfg.init_jitter:.3%}")
    return "\n".join(lines)


# -- run pipeline ------------------------------------------------------------


def _ops_per_period(circuit) -> int:
    if hasattr(circuit, "gates"):
        return len(circuit.gates)
    if hasattr(circuit, "rotations"):
        return len(circuit.rotations)
    return sum(len(layer.rotations) for layer in circuit.layers)


def _build_realization(config: ExperimentConfig, plan: SeedPlan, realization: int):
    """(program, circuit) of one realization: sample, build, lower."""
    params = sample_model_params(config.to_model_disorder(), plan, realization)
    program = build_model(config.model, config.layout, params)
    return program, lower_program(program, config.lowering)


def estimate_seconds(config: ExperimentConfig, circuit=None) -> float:
    """Pessimistic wall-time estimate at one worker.

    ``circuit`` is realization 0's lowered circuit; it is built here
    when not given.
    """
    if circuit is None:
        _, circuit = _build_realization(config, SeedPlan(config.seed), 0)
    measured = config.n_qubits if config.measure_qubit is None else 1
    calls = _ops_per_period(circuit) + measured
    per_call = _SECONDS_PER_CALL + (1 << config.n_qubits) * _SECONDS_PER_AMP_OP
    return config.realizations * config.cycles * calls * per_call


def run_realization(config: ExperimentConfig, realization: int) -> np.ndarray:
    """Full single-realization pipeline; pure function of (config, r).

    Returns a (rows, cycles + 1) array.  Row 0 is the recorded series
    (full average, or the measured qubit); in exact full-average mode
    rows 1..chains hold the per-chain mean magnetizations so the scored
    readout series needs no second evolution.
    """
    plan = SeedPlan(config.seed)
    _, circuit = _build_realization(config, plan, realization)
    jitter = None
    if config.init_jitter > 0:
        jitter = sample_init_jitter(
            plan, realization, config.n_qubits, config.init_jitter
        )
    state = prepare_initial_state(config.layout, config.init_angle, jitter)
    noise = None
    noise_rng = None
    if config.noise_single > 0 or config.noise_iswap > 0:
        noise = TemporalNoise(config.noise_single, config.noise_iswap)
        noise_rng = plan.stream(realization, "noise")
    shots_rng = (
        plan.stream(realization, "shots") if config.shots is not None else None
    )
    per_qubit = config.measure_qubit is None and config.shots is None
    series = stroboscopic_run(
        circuit,
        state,
        config.cycles,
        qubit=config.measure_qubit,
        shots=config.shots,
        shots_rng=shots_rng,
        noise=noise,
        noise_rng=noise_rng,
        per_qubit=per_qubit,
    )
    if not per_qubit:
        return series.values[np.newaxis, :]
    sites = config.sites
    chain_rows = [
        series.qubit_values[c * sites : (c + 1) * sites].mean(axis=0)
        for c in range(config.chains)
    ]
    return np.vstack([series.values] + chain_rows)


def _worker(payload: tuple[ExperimentConfig, int]) -> np.ndarray:
    config, realization = payload
    return run_realization(config, realization)


@dataclass
class RunRecord:
    """Everything run_experiment measured, plus the figure-pipeline data.

    ``mean_series``/``spectrum`` follow the plotted observable (full
    average or measured qubit).  ``readout_series``/``readout_spectrum``
    restrict to the readout chain when one applies, and the headline
    ``score`` is evaluated there; ``score_full`` keeps the score of the
    plotted spectrum for comparison.
    """

    config: ExperimentConfig
    series: list[TimeSeries]
    mean_series: TimeSeries
    spectrum: Spectrum
    readout_series: TimeSeries
    readout_spectrum: Spectrum
    score: float
    score_full: float
    target_bins: list[int]
    argmax_bins: list[int]
    argmax_match: bool
    wall_seconds: float
    program_summary: dict

    def to_dict(self) -> dict:
        cfg = self.config
        return {
            "name": cfg.name,
            "model": cfg.model,
            "chains": cfg.chains,
            "sites": cfg.sites,
            "qubits": cfg.n_qubits,
            "realizations": cfg.realizations,
            "cycles": cfg.cycles,
            "seed": cfg.seed,
            "lowering": cfg.lowering,
            "shots": cfg.shots,
            "measure_qubit": cfg.measure_qubit,
            "spectrum_average": cfg.spectrum_average,
            "init_angle": cfg.init_angle,
            "init_jitter": cfg.init_jitter,
            "noise_single": cfg.noise_single,
            "noise_iswap": cfg.noise_iswap,
            "error_fraction": list(cfg.error_fraction)
            if cfg.error_fraction
            else None,
            "error_signed": cfg.error_signed,
            "param_specs": cfg.spec_summary(),
            "targets": list(cfg.resolved_targets()),
            "target_bins": self.target_bins,
            "readout_chain": cfg.readout(),
            "subharmonic_score": self.score,
            "subharmonic_score_full_average": self.score_full,
            "argmax_bins": self.argmax_bins,
            "argmax_match": self.argmax_match,
            "wall_seconds": self.wall_seconds,
            "program_realization0": self.program_summary,
        }


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | os.PathLike | None = None,
    workers: int = 1,
    max_seconds: float = MAX_ESTIMATED_SECONDS,
) -> RunRecord:
    """Execute the whole pipeline; optionally write CSV/JSON artifacts."""
    config.validate()
    if workers < 1:
        raise ConfigError(f"workers: need at least 1, got {workers}")
    program0, circuit0 = _build_realization(config, SeedPlan(config.seed), 0)
    estimate = estimate_seconds(config, circuit0)
    if estimate > max_seconds:
        raise CapacityError(
            f"estimated runtime {estimate:.0f}s exceeds the {max_seconds:.0f}s "
            f"guardrail ({config.n_qubits} qubits, {config.realizations} "
            f"realizations, {config.cycles} cycles); reduce the sweep or "
            "raise max_seconds"
        )

    started = time.perf_counter()
    jobs = [(config, r) for r in range(config.realizations)]
    if workers > 1 and config.realizations > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            all_rows = list(pool.map(_worker, jobs))
    else:
        all_rows = [_worker(job) for job in jobs]

    series = [
        TimeSeries(rows[0], {"realization": r})
        for r, rows in enumerate(all_rows)
    ]
    mean_series = average_series(series)
    chain = config.readout()
    if chain is None:
        readout_list = series
        readout_series = mean_series
    else:
        readout_list = [
            TimeSeries(rows[1 + chain], {"realization": r, "chain": chain})
            for r, rows in enumerate(all_rows)
        ]
        readout_series = average_series(readout_list)
        readout_series.meta["chain"] = chain
    if config.spectrum_average == "spectra":
        spectrum = average_spectra(power_spectrum(s) for s in series)
        readout_spectrum = average_spectra(
            power_spectrum(s) for s in readout_list
        )
    else:
        spectrum = power_spectrum(mean_series)
        readout_spectrum = power_spectrum(readout_series)

    targets = config.resolved_targets()
    target_bins = sorted({readout_spectrum.bin_of(omega) for omega in targets})
    score = subharmonic_score(readout_spectrum, targets)
    score_full = subharmonic_score(spectrum, targets)
    order = np.argsort(readout_spectrum.magnitudes[1:])[::-1]
    argmax_bins = sorted(int(k) + 1 for k in order[: len(target_bins)])
    argmax_match = argmax_bins == target_bins

    program_summary = program0.to_dict()
    program_summary["lowering"] = config.lowering
    program_summary["ops_per_period"] = _ops_per_period(circuit0)

    record = RunRecord(
        config=config,
        series=series,
        mean_series=mean_series,
        spectrum=spectrum,
        readout_series=readout_series,
        readout_spectrum=readout_spectrum,
        score=score,
        score_full=score_full,
        target_bins=target_bins,
        argmax_bins=argmax_bins,
        argmax_match=argmax_match,
        wall_seconds=time.perf_counter() - started,
        program_summary=program_summary,
    )
    if out_dir is not None:
        write_outputs(record, Path(out_dir))
    return record


# -- artifact emission -------------------------------------------------------


def _csv_header(config: ExperimentConfig) -> str:
    return (
        f"# name={config.name} model={config.model} "
        f"layout={config.chains}x{config.sites} seed={config.seed} "
        f"realizations={config.realizations} cycles={config.cycles} "
        f"lowering={config.lowering}\n"
        f"# params: {config.spec_summary()}\n"
    )


def write_outputs(record: RunRecord, out_dir: Path) -> dict[str, Path]:
    """Emit series.csv, spectrum.csv, and record.json under ``out_dir``.

    CSV bytes depend only on the config and seed; floats are written via
    repr so they round-trip exactly.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    config = record.config
    paths = {}

    series_path = out_dir / "series.csv"
    with open(series_path, "w", newline="") as fh:
        fh.write(_csv_header(config))
        fh.write("realization,cycle,Sz\n")
        for r, series in enumerate(record.series):
            for cycle, value in enumerate(series.values):
                fh.write(f"{r},{cycle},{float(value)!r}\n")
        for cycle, value in enumerate(record.mean_series.values):
            fh.write(f"-1,{cycle},{float(value)!r}\n")
    paths["series"] = series_path

    spectrum_path = out_dir / "spectrum.csv"
    with open(spectrum_path, "w", newline="") as fh:
        fh.write(_csv_header(config))
        fh.write("omega,magnitude\n")
        for omega, magnitude in zip(
            record.spectrum.omegas, record.spectrum.magnitudes
        ):
            fh.write(f"{float(omega)!r},{float(magnitude)!r}\n")
    paths["spectrum"] = spectrum_path

    record_path = out_dir / "record.json"
    with open(record_path, "w") as fh:
        json.dump(record.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths["record"] = record_path
    return paths


# -- config files ------------------------------------------------------------


def _parse_pair(text: str, where: str) -> tuple[float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"{where}: expected 'a, b', got {text!r}")
    try:
        pair = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"{where}: expected two numbers, got {text!r}") from None
    if not all(map(math.isfinite, pair)):
        raise ConfigError(f"{where}: values must be finite, got {text!r}")
    return pair


def _parse_spec(text: str, where: str) -> DisorderSpec:
    mean, half = _parse_pair(text, where)
    return DisorderSpec(mean, half)


def load_config_file(path: str | os.PathLike) -> ExperimentConfig:
    """Parse a line-oriented key = value config with section headers."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")
    if "experiment" not in parser:
        raise ConfigError("config file needs an [experiment] section")
    exp = parser["experiment"]

    def need(key: str) -> str:
        if key not in exp:
            raise ConfigError(f"experiment.{key}: missing")
        return exp[key]

    chains = int(need("chains"))
    if "couplings" not in parser:
        raise ConfigError("config file needs a [couplings] section")
    coupling_specs = []
    for c in range(chains):
        key = f"chain{c}"
        if key not in parser["couplings"]:
            raise ConfigError(f"couplings.{key}: missing")
        coupling_specs.append(_parse_spec(parser["couplings"][key], f"couplings.{key}"))

    def optional_spec(section: str) -> DisorderSpec | None:
        if section in parser and "spec" in parser[section]:
            return _parse_spec(parser[section]["spec"], f"{section}.spec")
        return None

    error_fraction = None
    error_signed = True
    if "error" in parser:
        sec = parser["error"]
        if "fraction" in sec:
            error_fraction = _parse_pair(sec["fraction"], "error.fraction")
        error_signed = sec.getboolean("signed", fallback=True)

    noise_single = noise_iswap = 0.0
    if "noise" in parser:
        noise_single = parser["noise"].getfloat("single", fallback=0.0)
        noise_iswap = parser["noise"].getfloat("iswap", fallback=0.0)

    targets: tuple[float, ...] = ()
    if "targets" in exp:
        targets = tuple(
            float(p.strip()) for p in exp["targets"].split(",") if p.strip()
        )

    shots = exp.getint("shots", fallback=0)
    measure_qubit = exp.getint("measure_qubit", fallback=-1)

    config = ExperimentConfig(
        name=exp.get("name", fallback=Path(path).stem),
        model=need("model"),
        chains=chains,
        sites=int(need("sites")),
        realizations=exp.getint("realizations", fallback=1),
        cycles=int(need("cycles")),
        seed=exp.getint("seed", fallback=0),
        coupling_specs=tuple(coupling_specs),
        x_spec=optional_spec("x_field"),
        cnot_spec=optional_spec("cnot"),
        scale_spec=optional_spec("scale"),
        z_spec=optional_spec("z_field"),
        error_fraction=error_fraction,
        error_signed=error_signed,
        alpha=exp.getfloat("alpha", fallback=1.5),
        lowering=exp.get("lowering", fallback="pauli-layers"),
        init_angle=exp.getfloat("init_angle", fallback=DEFAULT_TILT),
        init_jitter=exp.getfloat("init_jitter", fallback=0.0),
        noise_single=noise_single,
        noise_iswap=noise_iswap,
        shots=shots if shots > 0 else None,
        measure_qubit=measure_qubit if measure_qubit >= 0 else None,
        targets=targets,
        spectrum_average=exp.get("spectrum_average", fallback="series"),
    )
    config.validate()
    return config


def resolve_config(source: str) -> ExperimentConfig:
    """Preset name, or path to a config file."""
    if source in PRESETS:
        return PRESETS[source]
    if Path(source).exists():
        return load_config_file(source)
    raise ConfigError(
        f"{source!r} is neither a preset ({', '.join(list_presets())}) "
        "nor a readable config file"
    )


def apply_overrides(
    config: ExperimentConfig,
    *,
    seed: int | None = None,
    realizations: int | None = None,
    cycles: int | None = None,
    lowering: str | None = None,
) -> ExperimentConfig:
    """CLI/env overrides; the seed env var loses to an explicit seed."""
    if seed is None and ENV_SEED in os.environ:
        try:
            seed = int(os.environ[ENV_SEED])
        except ValueError:
            raise ConfigError(
                f"{ENV_SEED}: expected an integer seed, got "
                f"{os.environ[ENV_SEED]!r}"
            ) from None
    updates = {}
    if seed is not None:
        updates["seed"] = seed
    if realizations is not None:
        updates["realizations"] = realizations
    if cycles is not None:
        updates["cycles"] = cycles
    if lowering is not None:
        updates["lowering"] = lowering
    return replace(config, **updates) if updates else config
