"""Experiment registry, config files, and the end-to-end run pipeline.

A run samples disordered parameters per realization, builds the Floquet
program, optionally lowers it, evolves the tilted initial state
stroboscopically, and reduces the per-realization magnetization series
into an averaged series, a spectrum, and subharmonic scores.  Every
random draw is addressed by (seed, realization, purpose), so identical
configs reproduce byte-identical CSV outputs for any worker count.

``CONFIG_KEYS`` is the one place the rules of a config key live: its
``section.key``, the ``ExperimentConfig`` field it fills, its parser, its
domain and its file default.  ``load_config_file`` reads through it,
``apply_overrides`` parses ``REPDTC_SEED`` with its seed entry, and an
``ExperimentConfig`` checks every field against it when it is made, so a
config that exists is valid and nothing downstream checks it again, with
one exception: whether the compiler can lower the model at the chosen
level.  ``_build_realization`` refuses a config it cannot lower (u2n on
four or more chains at local-gadgets or native-iswap) with a
``ConfigError`` naming ``lowering``, for every caller.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import time
from collections.abc import Callable
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .compiler import (
    LOWERING_LEVELS,
    CompilationError,
    chunk_threads,
    lower_program,
    share_cores,
    usable_cores,
)
from .disorder import (
    DisorderSpec,
    SeedPlan,
    sample_init_jitter,
    sample_model_params,
)
from .models import (
    IDEAL_X,
    IDEAL_ZX,
    MODEL_SPECS,
    ChainLayout,
    build_model,
    default_targets,
)
from .observables import (
    DEFAULT_TILT,
    Spectrum,
    TimeSeries,
    average_series,
    average_spectra,
    grid_bin,
    power_spectrum,
    prepare_initial_state,
    stroboscopic_run,
    subharmonic_score,
)
from .statevector import MAX_QUBITS, peak_bytes

MAX_SINGLE_NOISE = 0.005
MAX_ISWAP_NOISE = 0.04
MAX_ESTIMATED_SECONDS = 4 * 3600.0
# Cost of one kernel call (a gate, or the readout of one qubit): a fixed
# part plus a part per amplitude of the register.  Fitted on a 2-core
# Xeon with numpy 2.4 to one-worker run_experiment walls of the three
# benchmark workloads (2.14, 8.20 and 187 us per call at 8, 12 and 16
# qubits): the estimate reads 1.28x, 2.03x and 1.28x the wall time, and no
# two constants do better, as a 16-qubit call costs 23x a 12-qubit one.
_SECONDS_PER_CALL = 1.82e-6
_SECONDS_PER_AMP_OP = 3.63e-9

ENV_SEED = "REPDTC_SEED"


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field."""


class CapacityError(RuntimeError):
    """Run refused because it exceeds the resource guardrail."""


# -- config keys -------------------------------------------------------------

_NO_DEFAULT = object()


@dataclass(frozen=True)
class ConfigKey:
    """One config file key, the only place its rules are written.

    ``name`` is ``section.key`` (``{}`` is the chain index of a per-chain
    key).  ``parse`` turns its text into the value of ``field``; ``what``
    says how the text must look.  ``accepts`` tests the value and
    ``rule`` says the same in words; None passes only for a field whose
    dataclass default is None.  ``default``, a value or a function of
    the file path, is the file default of a field the dataclass gives none.
    """

    name: str
    field: str
    parse: Callable[[str], object]
    what: str
    accepts: Callable[[object], bool] = lambda value: True
    rule: str = ""
    default: object = _NO_DEFAULT

    def read(self, text: str, where: str):
        try:
            return self.parse(text.strip())
        except (ValueError, KeyError):
            raise ConfigError(f"{where}: expected {self.what}, got {text!r}") from None

    def check(self, value, chain: int):
        name = self.name.format(chain)
        if value is None and self.field in _OPTIONAL:
            return value
        # A value set in code takes its parser's type: 8.0 would pass an
        # integer range, True count as 1, and "no" as a true error.signed.
        if not _TYPE_TESTS[self.parse](value):
            raise ConfigError(f"{name}: expected {self.what}, got {value!r}")
        if not self.accepts(value):
            raise ConfigError(f"{name}: {self.rule}, got {value!r}")
        return value


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(text)
    return _finite(parts[0]), _finite(parts[1])


def _spec(text: str) -> DisorderSpec:
    return DisorderSpec(*_pair(text))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(_finite(t) for t in text.split(",") if t.strip())


def _boolean(text: str) -> bool:
    # configparser's words for true and false; imported on first use, as
    # a run from a preset reads no config file.
    import configparser

    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


def _reals(*values) -> bool:
    return all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values)


# The values each parser yields, by type; bool is no number here.
_TYPE_TESTS = {
    int: lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    _finite: _reals,
    _boolean: lambda v: isinstance(v, (bool, np.bool_)),
    str: lambda v: isinstance(v, str),
    _spec: lambda v: isinstance(v, DisorderSpec) and _reals(v.mean, v.half_width),
    _pair: lambda v: isinstance(v, tuple) and len(v) == 2 and _reals(*v),
    _floats: lambda v: isinstance(v, tuple) and _reals(*v),
}


def _within(low, high, rule: str = "") -> tuple:
    return (lambda x: low <= x <= high), rule or f"must lie in [{low:g}, {high:g}]"


def _one_of(*choices) -> tuple:
    return choices.__contains__, f"choose from {choices}"


# Spec ends within +-1e6 keep high - low and every sum and product the
# kernels form finite.  The long-range stabilizer divides J by
# |j - k|**alpha with |j - k| <= 23 at 24 qubits; 23**100 is about 1e136,
# so the quotient stays finite and normal for |alpha| <= 100.  Longer
# counts trip the runtime guardrail anyway; the cap keeps its arithmetic,
# and numpy's binomial draw of the shots, in range.
_SPEC_BOUND, _ALPHA_BOUND, _COUNT_MAX = 1e6, 100, 10**9
_INT = (int, "an integer")
_FLOAT = (_finite, "a finite number")
_TEXT = (str, "text")
_SPEC = (
    _spec,
    "two finite numbers 'mean, half_width >= 0' (a DisorderSpec in code)",
    # The ends are formed only from a mean and half-width within the
    # bound: int - float overflows on an integer too large for a float.
    lambda spec: max(abs(spec.mean), spec.half_width) <= _SPEC_BOUND
    and -_SPEC_BOUND <= spec.low <= spec.high <= _SPEC_BOUND,
    f"mean +- half_width must lie in [{-_SPEC_BOUND:g}, {_SPEC_BOUND:g}]",
)
_SHOTS = f"must be positive (or omitted for exact) and at most {_COUNT_MAX:g}"
# Every key a config file may hold, keyed by field, in reading order:
# chains comes before the per-chain couplings.  The range of
# measure_qubit depends on the register, so validate checks it.
CONFIG_KEYS: dict[str, ConfigKey] = {
    key.field: key
    for key in (
        # A line break would end a CSV header line early.
        ConfigKey("experiment.name", "name", *_TEXT,
                  lambda name: len(f"{name}\n".splitlines()) == 1, "must be one line",
                  default=lambda p: Path(p).stem),
        ConfigKey("experiment.model", "model", *_TEXT, *_one_of(*MODEL_SPECS)),
        ConfigKey("experiment.chains", "chains", *_INT, *_within(1, MAX_QUBITS // 2)),
        ConfigKey("experiment.sites", "sites", *_INT, *_within(2, MAX_QUBITS)),
        ConfigKey("experiment.realizations", "realizations", *_INT,
                  *_within(1, _COUNT_MAX), default=1),
        ConfigKey("experiment.cycles", "cycles", *_INT, *_within(2, _COUNT_MAX)),
        ConfigKey("experiment.seed", "seed", *_INT,
                  *_within(0, math.inf, "must be nonnegative"), default=0),
        ConfigKey("couplings.chain{}", "coupling_specs", *_SPEC),
        ConfigKey("x_field.spec", "x_spec", *_SPEC),
        ConfigKey("cnot.spec", "cnot_spec", *_SPEC),
        ConfigKey("scale.spec", "scale_spec", *_SPEC),
        ConfigKey("z_field.spec", "z_spec", *_SPEC),
        ConfigKey("error.fraction", "error_fraction", _pair, "two finite numbers",
                  lambda v: 0 <= v[0] <= v[1] <= 1, "need 0 <= low <= high <= 1"),
        ConfigKey("error.signed", "error_signed", _boolean, "true or false"),
        ConfigKey("experiment.alpha", "alpha", *_FLOAT,
                  *_within(-_ALPHA_BOUND, _ALPHA_BOUND)),
        ConfigKey("experiment.lowering", "lowering", *_TEXT,
                  *_one_of(*LOWERING_LEVELS)),
        # A tilt and the tilt plus pi give the same state up to sign.
        ConfigKey("experiment.init_angle", "init_angle", *_FLOAT,
                  *_within(-math.pi, math.pi)),
        ConfigKey("experiment.init_jitter", "init_jitter", *_FLOAT, *_within(0, 1)),
        ConfigKey("noise.single", "noise_single", *_FLOAT,
                  *_within(0, MAX_SINGLE_NOISE)),
        ConfigKey("noise.iswap", "noise_iswap", *_FLOAT, *_within(0, MAX_ISWAP_NOISE)),
        ConfigKey("experiment.shots", "shots", *_INT, *_within(1, _COUNT_MAX, _SHOTS)),
        ConfigKey("experiment.measure_qubit", "measure_qubit", *_INT),
        ConfigKey("experiment.targets", "targets", _floats,
                  "finite numbers separated by commas (a tuple in code)",
                  lambda omegas: all(0 < omega < 2 * math.pi for omega in omegas),
                  "each must lie in (0, 2*pi)"),
        ConfigKey("experiment.spectrum_average", "spectrum_average", *_TEXT,
                  *_one_of("series", "spectra")),
    )
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment bit-exactly.

    It is checked when it is made, so ``replace`` raises too: each field
    against its ``CONFIG_KEYS`` entry (None only where the default is
    None), then the cross-field rules.  Long-range models read ``alpha``,
    and take ``models.DEFAULT_ALPHA`` for None.  ``error_signed`` is None
    when left out, so that setting it without ``error_fraction``, which
    alone reads it, can be refused."""

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
    error_signed: bool | None = None
    alpha: float | None = None
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

    def __post_init__(self):
        self.validate()

    @property
    def layout(self) -> ChainLayout:
        return ChainLayout(self.chains, self.sites)

    @property
    def n_qubits(self) -> int:
        return self.chains * self.sites

    @property
    def signed_errors(self) -> bool:
        """Whether error fractions take a random sign (the default)."""
        return self.error_signed is None or bool(self.error_signed)

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
        return MODEL_SPECS[self.model].readout(self.chains)

    def validate(self) -> None:
        """Each field against its key, then the cross-field rules; run when made."""
        for key in CONFIG_KEYS.values():
            value = getattr(self, key.field)
            if "{}" in key.name and not isinstance(value, tuple):
                raise ConfigError(f"{key.field}: expected a tuple of specs, got {value!r}")
            for chain, entry in enumerate(value) if "{}" in key.name else [(0, value)]:
                key.check(entry, chain)
        spec = MODEL_SPECS[self.model]
        if not spec.allows(self.chains):
            raise ConfigError(
                f"chains: model {self.model} needs {spec.chain_rule()} "
                f"chains, got {self.chains}"
            )
        if self.n_qubits > MAX_QUBITS:
            raise CapacityError(
                f"sites: {self.chains}x{self.sites} = {self.n_qubits} qubits "
                f"exceeds the {MAX_QUBITS}-qubit statevector capacity"
            )
        if len(self.coupling_specs) != self.chains:
            raise ConfigError(
                f"couplings: need one spec per chain "
                f"({self.chains}), got {len(self.coupling_specs)}"
            )
        # Values only some models read; anywhere else they would be ignored.
        model_values = (
            ("cnot", self.cnot_spec, bool(spec.cnots)),
            ("scale", self.scale_spec, bool(spec.ladder(self.chains))),
            ("z_field", self.z_spec, spec.z_field),
            ("alpha", self.alpha, spec.long_range),
        )
        for name, value, used in model_values:
            if value is not None and not used:
                raise ConfigError(
                    f"{name}: model {self.model} never reads {name}; remove it"
                )
        if self.error_fraction is not None:
            explicit = (self.x_spec, self.cnot_spec, self.scale_spec)
            if any(value is not None for value in explicit):
                raise ConfigError(
                    "error_fraction: exclusive with explicit x/cnot/scale specs"
                )
        else:
            if self.error_signed is not None:
                raise ConfigError("error.signed: only read with error.fraction")
            if self.x_spec is None:
                raise ConfigError(
                    "x_field: spec required unless error_fraction mode is on"
                )
            # cnot and scale specs are required where used; z fields stay optional.
            for name, value, used in model_values[:2]:
                if used and value is None:
                    raise ConfigError(f"{name}: spec required for model {self.model}")
        if (self.noise_single > 0 or self.noise_iswap > 0) and (
            self.lowering != "native-iswap"
        ):
            raise ConfigError(
                "noise: temporal noise attaches to native gates; "
                "set lowering = native-iswap"
            )
        if self.measure_qubit is not None and not (
            0 <= self.measure_qubit < self.n_qubits
        ):
            raise ConfigError(
                f"measure_qubit: {self.measure_qubit} out of range for "
                f"{self.n_qubits} qubits"
            )
        for omega in self.resolved_targets():
            if grid_bin(omega, self.cycles) in (None, 0):
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
            sign = "signed" if self.signed_errors else "one-sided"
            parts.append(f"error=({low:g},{high:g},{sign})")
        return " ".join(parts)


_OPTIONAL = {f.name for f in fields(ExperimentConfig) if f.default is None}


# -- presets -----------------------------------------------------------------

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
        x_spec=DisorderSpec(1.125 * IDEAL_X, 0.025 * IDEAL_X),
        cnot_spec=DisorderSpec(0.925 * IDEAL_ZX, 0.025 * IDEAL_ZX),
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

    # Zero-disorder runs: unit couplings, ideal gate angles, one realization.
    cnot = {"cnot_spec": DisorderSpec(IDEAL_ZX)}
    scale = {"scale_spec": DisorderSpec(1.0)}
    for model, chains, sites, cycles, specs, what in (
        ("u4", 2, 4, 64, cnot, "period-4 drive; exact 4T response."),
        ("u3", 3, 3, 63, cnot, "period-3 drive; exact 3T logical cycles."),
        ("u8", 3, 3, 64, {**cnot, **scale}, "period-8 drive; exact 8T logical cycle."),
        ("u2n", 3, 2, 64, scale, "generalized ladder on three chains; "
         "period 8 via the decrement action."),
    ):
        presets[f"ideal-{model}"] = ExperimentConfig(
            name=f"ideal-{model}",
            model=model,
            chains=chains,
            sites=sites,
            realizations=1,
            cycles=cycles,
            seed=11,
            coupling_specs=(DisorderSpec(1.0),) * chains,
            x_spec=DisorderSpec(IDEAL_X),
            description=f"Zero-disorder {what}",
            **specs,
        )
    return presets


PRESETS = _build_presets()


def list_presets() -> list[str]:
    return sorted(PRESETS)


def describe(name: str) -> str:
    if name not in PRESETS:
        raise ConfigError(
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


def _build_realization(config: ExperimentConfig, plan: SeedPlan, realization: int):
    """(program, circuit) of one realization: sample, build, lower; a
    ``ConfigError`` naming ``lowering`` if the compiler cannot lower it."""
    params = sample_model_params(config, plan, realization)
    program = build_model(config.model, config.layout, params)
    try:
        return program, lower_program(program, config.lowering)
    except CompilationError as exc:
        raise ConfigError(
            f"lowering: {config.lowering} cannot lower model {config.model} "
            f"on {config.chains}x{config.sites}: {exc}"
        ) from None


def estimate_seconds(config: ExperimentConfig, circuit=None) -> float:
    """Pessimistic wall-time estimate at one worker.

    ``circuit`` is realization 0's lowered circuit; it is built here
    when not given.
    """
    if circuit is None:
        _, circuit = _build_realization(config, SeedPlan(config.seed), 0)
    measured = config.n_qubits if config.measure_qubit is None else 1
    calls = len(circuit) + measured
    per_call = _SECONDS_PER_CALL + (1 << config.n_qubits) * _SECONDS_PER_AMP_OP
    return config.realizations * config.cycles * calls * per_call


def _peak_bytes(config: ExperimentConfig, workers: int = 1) -> int:
    """Peak bytes of one realization in one of ``workers`` processes."""
    return peak_bytes(config.n_qubits, chunk_threads(workers))


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def run_realization(config: ExperimentConfig, realization: int) -> np.ndarray:
    """Full single-realization pipeline; pure function of (config, r).

    Returns a (rows, cycles + 1) array.  Row 0 is the recorded series:
    the mean <Z> of the measured qubits (all of them, or
    ``measure_qubit``).  When ``config.readout()`` names a chain, row 1
    is that chain's mean, so the scored readout series needs no second
    evolution.
    """
    plan = SeedPlan(config.seed)
    _, circuit = _build_realization(config, plan, realization)
    jitter = None
    if config.init_jitter > 0:
        jitter = sample_init_jitter(
            plan, realization, config.n_qubits, config.init_jitter
        )
    state = prepare_initial_state(config.n_qubits, config.init_angle, jitter)
    z = stroboscopic_run(
        circuit,
        state,
        config.cycles,
        qubit=config.measure_qubit,
        shots=config.shots,
        shots_rng=plan.stream(realization, "shots"),
        rng=plan.stream(realization, "noise"),
        single_error=config.noise_single,
        iswap_error=config.noise_iswap,
    )
    # One mean per cycle.  z.mean(axis=0) would add row after row, which
    # rounds differently from eight qubits up.  Reducing the last axis of
    # the contiguous transpose runs numpy's pairwise sum over each cycle's
    # values in row order, as one column.mean() per cycle does.
    rows = [np.ascontiguousarray(z.T).mean(axis=1)]
    chain = config.readout()
    if chain is not None:
        sites = config.sites
        rows.append(z[chain * sites : (chain + 1) * sites].mean(axis=0))
    return np.array(rows)


@dataclass
class RunRecord:
    """Everything run_experiment measured, plus the figure-pipeline data.

    ``mean_series``/``spectrum`` follow the plotted observable (full
    average or measured qubit).  ``readout_series``/``readout_spectrum``
    restrict to the readout chain when one applies, and the headline
    ``score`` is evaluated there; ``score_full`` keeps the score of the
    plotted spectrum for comparison.  ``estimate_seconds`` is the
    pessimistic one-worker estimate the run was admitted with; set
    beside ``wall_seconds`` it shows how far the estimate is off.
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
    estimate_seconds: float
    program_summary: dict

    def to_dict(self) -> dict:
        cfg = self.config
        echoed = (
            "name", "model", "chains", "sites", "realizations", "cycles", "seed",
            "lowering", "shots", "measure_qubit", "spectrum_average", "init_angle",
            "init_jitter", "noise_single", "noise_iswap",
        )
        return {
            **{field: getattr(cfg, field) for field in echoed},
            "error_signed": cfg.signed_errors,
            "qubits": cfg.n_qubits,
            "error_fraction": list(cfg.error_fraction) if cfg.error_fraction else None,
            "param_specs": cfg.spec_summary(),
            "targets": list(cfg.resolved_targets()),
            "target_bins": self.target_bins,
            "readout_chain": cfg.readout(),
            "subharmonic_score": self.score,
            "subharmonic_score_full_average": self.score_full,
            "argmax_bins": self.argmax_bins,
            "argmax_match": self.argmax_match,
            "wall_seconds": self.wall_seconds,
            "estimate_seconds": self.estimate_seconds,
            "program_realization0": self.program_summary,
        }


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | os.PathLike | None = None,
    workers: int = 1,
    max_seconds: float = MAX_ESTIMATED_SECONDS,
) -> RunRecord:
    """Execute the whole pipeline; optionally write CSV/JSON artifacts."""
    if not _TYPE_TESTS[int](workers):
        raise ConfigError(f"workers: expected an integer, got {workers!r}")
    if workers < 1:
        raise ConfigError(f"workers: need at least 1, got {workers}")
    if not (_TYPE_TESTS[_finite](max_seconds) and max_seconds > 0):
        raise ConfigError(f"max_seconds: need a positive number, got {max_seconds!r}")
    # No more processes than jobs or usable cores; the pool forks all of
    # them at the first submit, and the output does not depend on them.
    workers = min(workers, config.realizations, usable_cores())
    need, have = _peak_bytes(config, workers) * workers, _physical_memory()
    if need > have:
        raise CapacityError(
            f"sites: {config.n_qubits} qubits at {workers} worker(s) need about "
            f"{need / 2**20:.0f} MiB, more than the {have / 2**20:.0f} MiB of "
            "physical memory; use fewer workers or a smaller register"
        )
    program0, circuit0 = _build_realization(config, SeedPlan(config.seed), 0)
    estimate = estimate_seconds(config, circuit0)
    if estimate > max_seconds:
        raise CapacityError(
            f"estimated runtime {estimate:.0f}s exceeds the {max_seconds:.0f}s "
            f"guardrail ({config.n_qubits} qubits, {config.realizations} "
            f"realizations, {config.cycles} cycles); reduce the sweep or "
            "raise max_seconds"
        )
    if out_dir is not None:
        try:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"out: not a usable directory: {exc}") from None

    started = time.perf_counter()
    indices = range(config.realizations)
    if workers > 1:
        # Imported here: multiprocessing costs every one-worker run time
        # and memory at start-up.  Each worker takes its share of the
        # cores once, so that its chunked runs stay within that share.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            workers, initializer=share_cores, initargs=(workers,)
        ) as pool:
            all_rows = list(pool.map(run_realization, [config] * len(indices), indices))
    else:
        all_rows = [run_realization(config, r) for r in indices]

    def reduce(row: int):
        """(series per realization, their mean, the spectrum) of one row."""
        runs = [TimeSeries(rows[row]) for rows in all_rows]
        mean = average_series(runs)
        if config.spectrum_average == "spectra":
            return runs, mean, average_spectra(power_spectrum(s) for s in runs)
        return runs, mean, power_spectrum(mean)

    series, mean_series, spectrum = reduce(0)
    readout_series, readout_spectrum = mean_series, spectrum
    if config.readout() is not None:
        _, readout_series, readout_spectrum = reduce(1)

    targets = config.resolved_targets()
    target_bins = readout_spectrum.bins_of(targets)
    score = subharmonic_score(readout_spectrum, targets)
    score_full = subharmonic_score(spectrum, targets)
    order = np.argsort(readout_spectrum.magnitudes[1:])[::-1]
    argmax_bins = sorted(int(k) + 1 for k in order[: len(target_bins)])
    argmax_match = argmax_bins == target_bins

    program_summary = program0.to_dict()
    program_summary["lowering"] = config.lowering
    program_summary["ops_per_period"] = len(circuit0)

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
        estimate_seconds=estimate,
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

    CSV bytes depend only on the config and seed, for one numpy/BLAS
    build; neither the worker count nor the BLAS thread count moves
    them.  Floats are written via repr so they round-trip exactly.
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


def _unknown(kind: str, name: str, known) -> ConfigError:
    import difflib

    close = difflib.get_close_matches(name, list(known), n=1)
    hint = f"; did you mean {close[0]}?" if close else ""
    return ConfigError(f"{name}: unknown {kind}{hint}")


def load_config_file(path: str | os.PathLike) -> ExperimentConfig:
    """Parse a line-oriented key = value config with section headers.

    Each key is read, parsed and range-checked by its ``CONFIG_KEYS``
    entry; a ``ConfigError`` names ``section.key``.  A key left out takes
    the entry's file default, else the dataclass default.  Unknown
    sections and keys are refused with a close-match hint.
    """
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"config file {path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")
    if parser.defaults():
        # configparser would copy these keys into every section.
        raise ConfigError(
            f"{parser.default_section}: keys belong in their own sections, "
            f"got {', '.join(parser.defaults())}"
        )
    sections = dict.fromkeys(key.name.split(".")[0] for key in CONFIG_KEYS.values())
    for section in parser.sections():
        if section not in sections:
            raise _unknown("section", section, sections)

    required = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}
    values = {}
    known = []

    def value_of(key: ConfigKey, chain: int):
        name = key.name.format(chain)
        known.append(name)
        text = parser.get(*name.split("."), fallback=None)
        if text is not None:
            return key.check(key.read(text, name), chain)
        if key.default is not _NO_DEFAULT:
            return key.default(path) if callable(key.default) else key.default
        if key.field in required:
            raise ConfigError(f"{name}: missing")
        return _NO_DEFAULT

    for key in CONFIG_KEYS.values():
        if "{}" in key.name:
            # Each chain's key is read in turn, so a missing one stops here.
            value = tuple(value_of(key, c) for c in range(values["chains"]))
        else:
            value = value_of(key, 0)
        if value is not _NO_DEFAULT:
            values[key.field] = value
    for section in parser.sections():
        for option in parser[section]:
            name = f"{section}.{option}"
            if name not in known:
                in_section = (k for k in known if k.startswith(f"{section}."))
                raise _unknown("key", name, in_section)
    return ExperimentConfig(**values)


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
        seed = CONFIG_KEYS["seed"].read(os.environ[ENV_SEED], ENV_SEED)
    given = dict(seed=seed, realizations=realizations, cycles=cycles, lowering=lowering)
    updates = {field: value for field, value in given.items() if value is not None}
    return replace(config, **updates) if updates else config
