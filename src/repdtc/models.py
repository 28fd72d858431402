"""Floquet operators for repetition-code time crystals.

A model is a product of layers applied once per driving period: an Ising
stabilizer layer exp(+i sum J ZZ), a transversal X drive on the first
chain, and transversal controlled-NOT-type couplings between chains.
Layers are stored in application order (the layer written rightmost in
operator notation comes first).  Every rotation uses the exp(-i*theta*P)
convention, so the stabilizer layer carries angles -J.

Each registered model is one ``ModelSpec`` row of ``MODEL_SPECS``; every
other module reads its model facts from there.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .compiler import Circuit
from .pauli import PauliRotation, PauliString, all_commute

DEFAULT_ALPHA = 1.5  # power-law exponent of the long-range stabilizer


@dataclass(frozen=True)
class ChainLayout:
    """n_chains open chains of ``sites`` qubits each.

    Qubit index of (chain c, site j), both zero-based, is c*sites + j.
    Adjacency means neighboring sites on one chain or the same site on
    neighboring chains.
    """

    n_chains: int
    sites: int

    def __post_init__(self):
        if self.n_chains < 1 or self.sites < 1:
            raise ValueError("layout needs at least one chain and one site")

    @property
    def n_qubits(self) -> int:
        return self.n_chains * self.sites

    def qubit(self, chain: int, site: int) -> int:
        if not 0 <= chain < self.n_chains:
            raise ValueError(f"chain {chain} out of range")
        if not 0 <= site < self.sites:
            raise ValueError(f"site {site} out of range")
        return chain * self.sites + site

    def chain_site(self, qubit: int) -> tuple[int, int]:
        if not 0 <= qubit < self.n_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        return divmod(qubit, self.sites)

    def adjacent(self, qubit_a: int, qubit_b: int) -> bool:
        ca, ja = self.chain_site(qubit_a)
        cb, jb = self.chain_site(qubit_b)
        if ca == cb:
            return abs(ja - jb) == 1
        if ja == jb:
            return abs(ca - cb) == 1
        return False


def logical_basis_index(layout: ChainLayout, j: int) -> int:
    """Basis index of the logical product state |j-bar>.

    Bit k of j selects whether chain k sits in all-ones or all-zeros.
    """
    if not 0 <= j < (1 << layout.n_chains):
        raise ValueError(f"logical label {j} out of range")
    index = 0
    ones = (1 << layout.sites) - 1
    for chain in range(layout.n_chains):
        if (j >> chain) & 1:
            index |= ones << (chain * layout.sites)
    return index


@dataclass(frozen=True)
class CnotParams:
    """Per-site angles of one transversal CNOT layer.

    ``zx`` couples Z(control) X(target); ``z`` and ``x`` are the local
    compensating fields.  Ideal values are +pi/4, -pi/4, -pi/4.
    """

    zx: np.ndarray
    z: np.ndarray
    x: np.ndarray


@dataclass(frozen=True)
class ModelParams:
    """Disorder-resolved parameters of one Floquet operator.

    couplings[c][b] is the Ising coupling on bond b of chain c; it is
    None for long-range models, which read long_range (with exponent
    alpha) instead.  The other blocks are consumed as the model's
    ``ModelSpec`` says: x_field by every model, z_field by z-field
    models, cnots by the CNOT layers and scales by the generalized
    layers, both in application order.
    """

    couplings: np.ndarray | None
    x_field: np.ndarray
    z_field: np.ndarray | None = None
    cnots: tuple[CnotParams, ...] = ()
    scales: tuple[np.ndarray, ...] = ()
    long_range: np.ndarray | None = None
    alpha: float = DEFAULT_ALPHA


@dataclass(frozen=True)
class Layer:
    """One internally commuting slice of the period.

    ``phase`` records scalar factors from identity terms that are never
    applied to the state.
    """

    name: str
    kind: str
    rotations: tuple[PauliRotation, ...]
    phase: complex = 1.0 + 0j

    def __post_init__(self):
        if not all_commute(self.rotations):
            raise ValueError(f"layer {self.name!r} contains non-commuting rotations")


@dataclass(frozen=True)
class FloquetProgram:
    """One driving period as an ordered tuple of layers.

    ``circuit`` is the period's ``pauli-layers`` ``Circuit``, built
    once; the period runs as that circuit.
    """

    layout: ChainLayout
    model: str
    layers: tuple[Layer, ...]

    @property
    def n_qubits(self) -> int:
        return self.layout.n_qubits

    @property
    def global_phase(self) -> complex:
        phase = 1.0 + 0j
        for layer in self.layers:
            phase *= layer.phase
        return phase

    def all_rotations(self) -> Iterator[PauliRotation]:
        for layer in self.layers:
            yield from layer.rotations

    @functools.cached_property
    def circuit(self) -> Circuit:
        return Circuit(self.n_qubits, tuple(self.all_rotations()))

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "chains": self.layout.n_chains,
            "sites": self.layout.sites,
            "global_phase": [self.global_phase.real, self.global_phase.imag],
            "layers": [
                {
                    "name": layer.name,
                    "kind": layer.kind,
                    "phase": [layer.phase.real, layer.phase.imag],
                    "rotations": [
                        {"angle": float(r.angle), "pauli": str(r.pauli)}
                        for r in layer.rotations
                    ],
                }
                for layer in self.layers
            ],
        }


# -- layer builders --------------------------------------------------------


def build_h_rep_layer(
    layout: ChainLayout, couplings: np.ndarray, z_field: np.ndarray | None = None
) -> Layer:
    """exp(+i sum_{c,b} J[c][b] Z Z) over nearest-neighbor bonds.

    Optional longitudinal fields hz add exp(+i sum_j hz[j] Z_j) on chain 0.
    """
    couplings = np.asarray(couplings, dtype=float)
    if couplings.shape != (layout.n_chains, layout.sites - 1):
        raise ValueError("couplings must have shape (n_chains, sites-1)")
    n = layout.n_qubits
    rotations = []
    for c in range(layout.n_chains):
        for b in range(layout.sites - 1):
            pauli = PauliString.from_ops(
                n, {layout.qubit(c, b): "Z", layout.qubit(c, b + 1): "Z"}
            )
            rotations.append(PauliRotation(pauli, -float(couplings[c][b])))
    if z_field is not None:
        z_field = np.asarray(z_field, dtype=float)
        if z_field.shape != (layout.sites,):
            raise ValueError("z_field needs one entry per site")
        for j in range(layout.sites):
            pauli = PauliString.from_ops(n, {layout.qubit(0, j): "Z"})
            rotations.append(PauliRotation(pauli, -float(z_field[j])))
    return Layer("stabilizer", "stabilizer", tuple(rotations))


def build_long_range_stabilizer_layer(
    layout: ChainLayout, couplings: np.ndarray, alpha: float = DEFAULT_ALPHA
) -> Layer:
    """exp(-i sum_{c, j>k} J[c][j][k] Z_j Z_k / |j-k|**alpha)."""
    couplings = np.asarray(couplings, dtype=float)
    if couplings.shape != (layout.n_chains, layout.sites, layout.sites):
        raise ValueError("long-range couplings must have shape (n_chains, N, N)")
    n = layout.n_qubits
    rotations = []
    for c in range(layout.n_chains):
        for j in range(1, layout.sites):
            for k in range(j):
                strength = float(couplings[c][j][k]) / abs(j - k) ** alpha
                pauli = PauliString.from_ops(
                    n, {layout.qubit(c, j): "Z", layout.qubit(c, k): "Z"}
                )
                rotations.append(PauliRotation(pauli, strength))
    return Layer("stabilizer-lr", "stabilizer-lr", tuple(rotations))


def build_logical_x_layer(layout: ChainLayout, x_field: np.ndarray) -> Layer:
    """exp(-i sum_j h[j] X_j) on chain 0, the chain every model drives;
    h = pi/2 realizes logical X."""
    x_field = np.asarray(x_field, dtype=float)
    if x_field.shape != (layout.sites,):
        raise ValueError("x_field must have one angle per site")
    n = layout.n_qubits
    rotations = tuple(
        PauliRotation(
            PauliString.from_ops(n, {layout.qubit(0, j): "X"}),
            float(x_field[j]),
        )
        for j in range(layout.sites)
    )
    return Layer("drive-x", "x", rotations)


def build_transversal_cnot_layer(
    layout: ChainLayout, control: int, target: int, params: CnotParams
) -> Layer:
    """Sitewise exp(-i [zx Z_c X_t + z Z_c + x X_t]).

    At the ideal angles (+pi/4, -pi/4, -pi/4) each site enacts a CNOT
    (Z-basis control, X-flip target) up to a global phase.
    """
    for arr in (params.zx, params.z, params.x):
        if np.asarray(arr).shape != (layout.sites,):
            raise ValueError("CNOT parameter arrays must have one entry per site")
    if control == target:
        raise ValueError("control and target chains must differ")
    n = layout.n_qubits
    rotations = []
    for j in range(layout.sites):
        qc, qt = layout.qubit(control, j), layout.qubit(target, j)
        rotations.append(
            PauliRotation(
                PauliString.from_ops(n, {qc: "Z", qt: "X"}), float(params.zx[j])
            )
        )
        rotations.append(
            PauliRotation(PauliString.from_ops(n, {qc: "Z"}), float(params.z[j]))
        )
        rotations.append(
            PauliRotation(PauliString.from_ops(n, {qt: "X"}), float(params.x[j]))
        )
    return Layer(f"cnot-{control}-{target}", "cnot", tuple(rotations))


def build_generalized_cnot_layer(
    layout: ChainLayout,
    controls: Sequence[int],
    target: int,
    scales: np.ndarray,
) -> Layer:
    """Sitewise exp(-i g (pi/2**(j+1)) prod_c (1 - Z_c) (1 - X_t)).

    j = len(controls).  Expands into 2**(j+1) Pauli terms with signs
    (-1)**(|subset| + x); the identity term is recorded as layer phase.
    """
    scales = np.asarray(scales, dtype=float)
    if scales.shape != (layout.sites,):
        raise ValueError("scales must have one entry per site")
    controls = tuple(controls)
    if len(set(controls)) != len(controls) or target in controls:
        raise ValueError("control and target chains must be distinct")
    j_rank = len(controls)
    if j_rank < 1:
        raise ValueError("need at least one control chain")
    n = layout.n_qubits
    rotations = []
    phase = 1.0 + 0j
    for site in range(layout.sites):
        base = float(scales[site]) * math.pi / 2 ** (j_rank + 1)
        qt = layout.qubit(target, site)
        for r in range(j_rank + 1):
            for subset in itertools.combinations(controls, r):
                for has_x in (False, True):
                    sign = (-1) ** (len(subset) + (1 if has_x else 0))
                    if not subset and not has_x:
                        phase *= complex(math.cos(base), -math.sin(base))
                        continue
                    ops = {layout.qubit(c, site): "Z" for c in subset}
                    if has_x:
                        ops[qt] = "X"
                    rotations.append(
                        PauliRotation(PauliString.from_ops(n, ops), sign * base)
                    )
    name = f"c{j_rank}not-{''.join(map(str, controls))}-{target}"
    return Layer(name, "generalized", tuple(rotations), phase)


# -- model registry -----------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Everything the package knows about one Floquet model.

    One period is the stabilizer layer, the X drive on chain 0, one
    transversal CNOT layer per ``cnots`` pair (control, target) in
    application order, then one generalized-CNOT layer per
    ``ladder(n_chains)`` entry (controls, target).  ``chains`` is the
    fixed chain count, or None for "at least two".
    """

    chains: int | None
    period: Callable[[int], int]
    readout: Callable[[int], int | None]
    cnots: tuple[tuple[int, int], ...] = ()
    ladder: Callable[[int], tuple[tuple[tuple[int, ...], int], ...]] = lambda n: ()
    long_range: bool = False
    z_field: bool = False
    oracle: bool = False

    def allows(self, n_chains: int) -> bool:
        if self.chains is None:
            return n_chains >= 2
        return n_chains == self.chains

    def chain_rule(self) -> str:
        return "at least 2" if self.chains is None else f"exactly {self.chains}"


# Readout chain: under the decrement action chain k flips with period
# 2^(k+1), so the full average of a counter model mixes every harmonic and
# the fastest chain dominates it.  The last chain's own series is
# antiperiodic under a half-period shift, which cancels all faster lines
# exactly and leaves the 2^n T response on top.  For u3 no chain is fast
# (one register never flips, the other two share the 3T line), and for 2t
# there is only one chain; both read out the plain average (None).
MODEL_SPECS: dict[str, ModelSpec] = {
    # two chains, period-4 logical cycle
    "u4": ModelSpec(2, lambda n: 4, lambda n: 1, cnots=((0, 1),), oracle=True),
    # u4 with power-law long-range stabilizer couplings
    "u4lr": ModelSpec(
        2, lambda n: 4, lambda n: 1, cnots=((0, 1),), long_range=True
    ),
    # three chains driven by three CNOTs, period-3 logical cycles; the
    # application order is 2 -> 1, then 0 -> 1, then 1 -> 0
    "u3": ModelSpec(
        3, lambda n: 3, lambda n: None, cnots=((2, 1), (0, 1), (1, 0))
    ),
    # three chains with a CCNOT on top, period-8 logical cycle
    "u8": ModelSpec(
        3,
        lambda n: 8,
        lambda n: 2,
        cnots=((0, 1),),
        ladder=lambda n: (((0, 1), 2),),
        oracle=True,
    ),
    # n chains with the full generalized-CNOT ladder, period 2**n
    "u2n": ModelSpec(
        None,
        lambda n: 2**n,
        lambda n: n - 1,
        ladder=lambda n: tuple((tuple(range(j)), j) for j in range(1, n)),
        oracle=True,
    ),
    # single-chain period-doubling reference with longitudinal fields
    "2t": ModelSpec(1, lambda n: 2, lambda n: None, z_field=True, oracle=True),
}
MODELS = tuple(MODEL_SPECS)


def model_spec(model: str) -> ModelSpec:
    """The registry row of ``model``; unknown names raise ValueError."""
    if model not in MODEL_SPECS:
        raise ValueError(f"unknown model {model!r}; choose from {MODELS}")
    return MODEL_SPECS[model]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def build_model(
    model: str, layout: ChainLayout, params: ModelParams
) -> FloquetProgram:
    """Assemble one driving period for a registered model."""
    spec = model_spec(model)
    n = layout.n_chains
    _require(spec.allows(n), f"{model} model needs {spec.chain_rule()} chains")
    ladder = spec.ladder(n)
    _require(
        len(params.cnots) == len(spec.cnots),
        f"{model} model needs {len(spec.cnots)} CNOT parameter sets",
    )
    _require(
        len(params.scales) == len(ladder),
        f"{model} model needs {len(ladder)} generalized-layer scale arrays",
    )
    if spec.long_range:
        _require(params.long_range is not None, f"{model} needs long_range couplings")
        stabilizer = build_long_range_stabilizer_layer(
            layout, params.long_range, params.alpha
        )
    else:
        _require(params.couplings is not None, f"{model} needs Ising couplings")
        z_field = params.z_field if spec.z_field else None
        stabilizer = build_h_rep_layer(layout, params.couplings, z_field)
    layers = [stabilizer, build_logical_x_layer(layout, params.x_field)]
    for (control, target), cp in zip(spec.cnots, params.cnots):
        layers.append(build_transversal_cnot_layer(layout, control, target, cp))
    for (controls, target), scales in zip(ladder, params.scales):
        layers.append(build_generalized_cnot_layer(layout, controls, target, scales))
    return FloquetProgram(layout, model, tuple(layers))


def ideal_model_params(
    model: str,
    layout: ChainLayout,
    couplings: np.ndarray | float = 1.0,
    z_field: np.ndarray | None = None,
    long_range: np.ndarray | None = None,
    alpha: float = DEFAULT_ALPHA,
) -> ModelParams:
    """ModelParams with ideal gate angles and the given Ising couplings."""
    spec = model_spec(model)
    if np.isscalar(couplings):
        couplings = np.full((layout.n_chains, layout.sites - 1), float(couplings))
    couplings = np.asarray(couplings, dtype=float)
    sites = layout.sites
    quarter = math.pi / 4
    ideal_cnot = CnotParams(
        zx=np.full(sites, quarter),
        z=np.full(sites, -quarter),
        x=np.full(sites, -quarter),
    )
    return ModelParams(
        couplings=couplings,
        x_field=np.full(sites, math.pi / 2),
        z_field=z_field,
        cnots=tuple(ideal_cnot for _ in spec.cnots),
        scales=tuple(np.ones(sites) for _ in spec.ladder(layout.n_chains)),
        long_range=long_range,
        alpha=alpha,
    )


def default_targets(model: str, n_chains: int) -> tuple[float, ...]:
    """Spectral bins of the subharmonic response: 2*pi/period and its mirror."""
    period = model_spec(model).period(n_chains)
    omega = 2 * math.pi / period
    mirror = 2 * math.pi - omega
    if abs(mirror - omega) < 1e-12:
        return (omega,)
    return (omega, mirror)
