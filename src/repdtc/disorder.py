"""Disorder sampling and reproducible random-stream bookkeeping.

Every random quantity in a run is drawn from a stream addressed by
(master seed, realization index, purpose string).  Parameter draws use
one stream per scalar value, so adding a site or another parameter
family never shifts what anything else receives.  Time-ordered noise
(gate-angle jitter, measurement shots) uses one sequential stream per
realization instead.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .models import DEFAULT_ALPHA, CnotParams, ModelParams, model_spec

if TYPE_CHECKING:
    from .harness import ExperimentConfig

IDEAL_X = math.pi / 2
IDEAL_ZX = math.pi / 4
# Component signs of the ideal transversal CNOT: (zx, z, x).
CNOT_SIGNS = {"zx": 1.0, "z": -1.0, "x": -1.0}


def _purpose_entropy(purpose: str) -> int:
    digest = hashlib.sha256(purpose.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


@dataclass(frozen=True)
class SeedPlan:
    """Derives independent generators from one master seed."""

    master_seed: int

    def stream(self, realization: int, purpose: str) -> np.random.Generator:
        seq = np.random.SeedSequence(
            [self.master_seed, realization, _purpose_entropy(purpose)]
        )
        return np.random.Generator(np.random.PCG64(seq))

    def value(self, realization: int, purpose: str, low: float, high: float) -> float:
        """One uniform draw from the stream addressed by ``purpose``."""
        return float(self.stream(realization, purpose).uniform(low, high))


@dataclass(frozen=True)
class DisorderSpec:
    """Uniform interval [mean - half_width, mean + half_width]."""

    mean: float
    half_width: float = 0.0

    def __post_init__(self):
        if self.half_width < 0:
            raise ValueError("half_width must be nonnegative")

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def draw(self, plan: SeedPlan, realization: int, purpose: str) -> float:
        if self.half_width == 0.0:
            return self.mean
        return plan.value(realization, purpose, self.low, self.high)


def sample_error_fraction(
    stream: np.random.Generator,
    low: float,
    high: float,
    signed: bool = True,
) -> float:
    """Fractional error with magnitude in [low, high].

    With ``signed`` the sign is an independent fair coin, so (a, a)
    yields exactly +-a.  The magnitude is drawn before the sign.
    """
    magnitude = float(stream.uniform(low, high))
    if signed:
        if stream.random() < 0.5:
            magnitude = -magnitude
    return magnitude


def sample_model_params(
    config: ExperimentConfig, plan: SeedPlan, realization: int
) -> ModelParams:
    """Draw one realization of every model parameter of ``config``.

    Ising couplings always come from the per-chain intervals.  Gate
    angles come either from explicit intervals (``x_spec``,
    ``cnot_spec``, ``scale_spec``) or, when ``error_fraction`` is set,
    from ideal values scaled by (1 + eps) with |eps| drawn from that
    [low, high] interval, independently per parameter.
    """
    layout = config.layout
    spec = model_spec(config.model)
    sites = layout.sites

    def gate_angles(
        purpose: str, ideal: float, interval: DisorderSpec | None
    ) -> np.ndarray:
        """One angle per site: the ideal value scaled by (1 + eps) in
        error-fraction mode, else a draw from ``interval``, else ideal."""
        values = np.empty(sites)
        for j in range(sites):
            address = f"{purpose}/s{j}"
            if config.error_fraction is not None:
                low, high = config.error_fraction
                stream = plan.stream(realization, address)
                eps = sample_error_fraction(stream, low, high, config.signed_errors)
                values[j] = ideal * (1.0 + eps)
            elif interval is not None:
                values[j] = interval.draw(plan, realization, address)
            else:
                values[j] = ideal
        return values

    couplings = long_range = None
    if spec.long_range:
        long_range = np.zeros((layout.n_chains, sites, sites))
        for c, coupling in enumerate(config.coupling_specs):
            for j in range(1, sites):
                for k in range(j):
                    long_range[c][j][k] = coupling.draw(
                        plan, realization, f"lr/c{c}/j{j}/k{k}"
                    )
    else:
        couplings = np.zeros((layout.n_chains, sites - 1))
        for c, coupling in enumerate(config.coupling_specs):
            for b in range(sites - 1):
                couplings[c][b] = coupling.draw(plan, realization, f"J/c{c}/b{b}")

    z_field = None
    if spec.z_field and config.z_spec is not None:
        z_field = np.array(
            [
                config.z_spec.draw(plan, realization, f"hz/s{j}")
                for j in range(sites)
            ]
        )

    cnots = []
    for i in range(len(spec.cnots)):
        angles = {
            comp: sign * gate_angles(f"cnot{i}/{comp}", IDEAL_ZX, config.cnot_spec)
            for comp, sign in CNOT_SIGNS.items()
        }
        cnots.append(CnotParams(**angles))
    scales = tuple(
        gate_angles(f"scale{i}", 1.0, config.scale_spec)
        for i in range(len(spec.ladder(layout.n_chains)))
    )
    x_field = gate_angles("h", IDEAL_X, config.x_spec)

    return ModelParams(
        couplings=couplings,
        x_field=x_field,
        z_field=z_field,
        cnots=tuple(cnots),
        scales=scales,
        long_range=long_range,
        alpha=DEFAULT_ALPHA if config.alpha is None else config.alpha,
    )


def sample_init_jitter(
    plan: SeedPlan, realization: int, n_qubits: int, half_width: float
) -> np.ndarray:
    """Per-qubit fractional offsets for the initial tilt angles."""
    if half_width == 0.0:
        return np.zeros(n_qubits)
    return np.array(
        [
            plan.value(realization, f"init/q{q}", -half_width, half_width)
            for q in range(n_qubits)
        ]
    )
