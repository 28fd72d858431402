"""Lowering of Floquet programs toward hardware-shaped circuits.

Three levels exist:

* ``pauli-layers``: the program's own Pauli rotations, applied as built.
* ``local-gadgets``: every rotation rewritten over nearest-neighbor
  weight-<=2 rotations using pi/4 conjugation gadgets.
* ``native-iswap``: every weight-2 rotation rewritten over iSWAPs and
  single-qubit rotations.

The gadget constructions all follow one identity: conjugating a rotation
exp(-i*theta*P) by exp(+-i*pi/4*G) with G anticommuting with P yields
exp(-i*theta*P') with P' = +-i*G*P.  Dressings therefore sit at fixed
angles +-pi/4 while the core rotation carries theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .models import ChainLayout, FloquetProgram
from .pauli import PauliRotation, PauliString, clifford_conjugate
from .statevector import StateVector

LOWERING_LEVELS = ("pauli-layers", "local-gadgets", "native-iswap")

QUARTER = math.pi / 4


class CompilationError(ValueError):
    """A rotation cannot be lowered at the requested level."""


# -- gadget sequences --------------------------------------------------------


@dataclass(frozen=True)
class GadgetSequence:
    """Rotations in application order realizing exp(-i*theta*target).

    ``core_indices`` point at the theta-scaled rotations; everything else
    is a fixed +-pi/4 dressing.  Removing the cores leaves a circuit that
    collapses to the identity.
    """

    n_qubits: int
    rotations: tuple[PauliRotation, ...]
    core_indices: tuple[int, ...]

    def apply_to(self, state: StateVector) -> None:
        for rot in self.rotations:
            state.apply_rotation(rot)

    def __len__(self) -> int:
        return len(self.rotations)


def _dressed_sequence(
    n_qubits: int,
    core: PauliRotation,
    dressings: Sequence[Sequence[PauliRotation]],
    target: PauliString,
) -> GadgetSequence:
    """Assemble D_K ... D_1 core D_1^dag ... D_K^dag in application order.

    Each entry of ``dressings`` lists one conjugation block D_k in its own
    application order.  Also checks, by exact Pauli algebra, that the
    nested conjugation really maps the core generator onto ``target``.
    """
    image = core.pauli
    for block in dressings:
        # Within a block rotations are applied in list order, so the
        # conjugation D P D^dag peels them off outermost-last.
        for rot in block:
            sign = 1 if rot.angle < 0 else -1  # angle -pi/4 <=> exp(+i pi/4 G)
            image, _ = clifford_conjugate(rot.pauli, sign, image)
    if image != target:
        raise CompilationError(
            f"gadget dressing maps core onto {image}, expected {target}"
        )

    rotations: list[PauliRotation] = []
    for block in reversed(dressings):
        rotations.extend(rot.inverse() for rot in reversed(block))
    core_index = len(rotations)
    rotations.append(core)
    for block in dressings:
        rotations.extend(block)
    return GadgetSequence(n_qubits, tuple(rotations), (core_index,))


def _check_pattern(target: PauliString, path: Sequence[int] | None, kind: str):
    if target.phase_power != 0:
        raise CompilationError("gadget targets must carry phase +1")
    support = target.support()
    if path is None:
        lo, hi = min(support), max(support)
        path = tuple(range(lo, hi + 1))
    else:
        path = tuple(path)
        if len(set(path)) != len(path):
            raise CompilationError("qubit path must not repeat qubits")
        if not set(support) <= set(path):
            raise CompilationError(f"target support {support} must lie on the path")
    if len(path) < 2:
        raise CompilationError(f"{kind} pattern needs at least two qubits")
    return path


def decompose_i1(
    target: PauliString, theta: float, path: Sequence[int] | None = None
) -> GadgetSequence:
    """Z...ZX run: Z on every path qubit but the last, X on the last.

    Core exp(-i*theta*Z X) on the first two path qubits, dressed by
    exp(+i*pi/4*Y_k X_{k+1}) for each later step.  A length-L run costs
    2(L-2) dressings plus the core.
    """
    path = _check_pattern(target, path, "i1")
    letters = [target.letters[q] for q in path]
    if letters != ["Z"] * (len(path) - 1) + ["X"]:
        raise CompilationError(
            "i1 expects a contiguous run of Z ending in one X along the path"
        )
    n = target.n_qubits
    core = PauliRotation(
        PauliString.from_ops(n, {path[0]: "Z", path[1]: "X"}), theta
    )
    dressings = [
        [
            PauliRotation(
                PauliString.from_ops(n, {path[k]: "Y", path[k + 1]: "X"}),
                -QUARTER,
            )
        ]
        for k in range(1, len(path) - 1)
    ]
    return _dressed_sequence(n, core, dressings, target)


def decompose_i2(
    target: PauliString, theta: float, path: Sequence[int] | None = None
) -> GadgetSequence:
    """Long-range Z-X pair: Z on path[0], X on path[-1].

    Each growth step conjugates by exp(+i*pi/4*YY) then exp(+i*pi/4*ZZ)
    on consecutive path qubits, walking the X endpoint outward.
    """
    path = _check_pattern(target, path, "i2")
    expect = {path[0]: "Z", path[-1]: "X"}
    for q in path:
        if target.letters[q] != expect.get(q, "I"):
            raise CompilationError("i2 expects Z...X with identity in between")
    n = target.n_qubits
    core = PauliRotation(
        PauliString.from_ops(n, {path[0]: "Z", path[1]: "X"}), theta
    )
    dressings = []
    for k in range(1, len(path) - 1):
        a, b = path[k], path[k + 1]
        dressings.append(
            [
                PauliRotation(PauliString.from_ops(n, {a: "Y", b: "Y"}), -QUARTER),
                PauliRotation(PauliString.from_ops(n, {a: "Z", b: "Z"}), -QUARTER),
            ]
        )
    return _dressed_sequence(n, core, dressings, target)


def decompose_i3(
    target: PauliString, theta: float, path: Sequence[int] | None = None
) -> GadgetSequence:
    """Long-range Z-Z pair: Z on both ends of the path.

    The X endpoint of a Z-X core is walked outward as in the Z-X gadget,
    then one final block conjugates by exp(+i*pi/4*YY) and
    exp(-i*pi/4*ZX) to turn the far X into a Z.
    """
    path = _check_pattern(target, path, "i3")
    expect = {path[0]: "Z", path[-1]: "Z"}
    for q in path:
        if target.letters[q] != expect.get(q, "I"):
            raise CompilationError("i3 expects Z...Z with identity in between")
    n = target.n_qubits
    if len(path) == 2:
        # Adjacent ZZ is already native; the endpoint conversion below
        # would have nothing to walk.
        rot = PauliRotation(target, theta)
        return GadgetSequence(n, (rot,), (0,))
    core = PauliRotation(
        PauliString.from_ops(n, {path[0]: "Z", path[1]: "X"}), theta
    )
    dressings = []
    for k in range(1, len(path) - 2):
        a, b = path[k], path[k + 1]
        dressings.append(
            [
                PauliRotation(PauliString.from_ops(n, {a: "Y", b: "Y"}), -QUARTER),
                PauliRotation(PauliString.from_ops(n, {a: "Z", b: "Z"}), -QUARTER),
            ]
        )
    a, b = path[-2], path[-1]
    dressings.append(
        [
            PauliRotation(PauliString.from_ops(n, {a: "Y", b: "Y"}), -QUARTER),
            PauliRotation(PauliString.from_ops(n, {a: "Z", b: "X"}), QUARTER),
        ]
    )
    return _dressed_sequence(n, core, dressings, target)


def lower_ccnot_local(
    layout: ChainLayout,
    control_a: int,
    control_b: int,
    target: int,
    scales: np.ndarray,
) -> GadgetSequence:
    """Nearest-neighbor expansion of one transversal CCNOT layer.

    Per site, the seven-factor product (commuting pi/8 block; +-pi/4 YX
    dressings around a +pi/8 ZX core; +-pi/4 ZZ+YY dressings around a
    -pi/8 ZX core) over the qubits (1,2,3) = (control_a, control_b,
    target) at that site.  Scale g multiplies the pi/8 cores only; the
    dressings stay at +-pi/4 so they cancel at g = 0.
    """
    scales = np.asarray(scales, dtype=float)
    if scales.shape != (layout.sites,):
        raise ValueError("scales must have one entry per site")
    if abs(control_a - control_b) != 1 or abs(control_b - target) != 1:
        raise CompilationError(
            "local CCNOT needs the chain order control-control-target to be "
            f"physically adjacent; got chains ({control_a}, {control_b}, {target})"
        )
    n = layout.n_qubits
    rotations: list[PauliRotation] = []
    cores: list[int] = []

    def rot(ops: dict[int, str], angle: float) -> PauliRotation:
        return PauliRotation(PauliString.from_ops(n, ops), angle)

    for site in range(layout.sites):
        g = float(scales[site]) * math.pi / 8
        q1 = layout.qubit(control_a, site)
        q2 = layout.qubit(control_b, site)
        q3 = layout.qubit(target, site)
        # exp(-i pi/4 (Z2 Z3 + Y2 Y3))
        rotations.append(rot({q2: "Z", q3: "Z"}, QUARTER))
        rotations.append(rot({q2: "Y", q3: "Y"}, QUARTER))
        # exp(-i g Z1 X2)
        cores.append(len(rotations))
        rotations.append(rot({q1: "Z", q2: "X"}, g))
        # exp(+i pi/4 (Z2 Z3 + Y2 Y3))
        rotations.append(rot({q2: "Z", q3: "Z"}, -QUARTER))
        rotations.append(rot({q2: "Y", q3: "Y"}, -QUARTER))
        # exp(-i pi/4 Y2 X3)
        rotations.append(rot({q2: "Y", q3: "X"}, QUARTER))
        # exp(+i g Z1 X2)
        cores.append(len(rotations))
        rotations.append(rot({q1: "Z", q2: "X"}, -g))
        # exp(+i pi/4 Y2 X3)
        rotations.append(rot({q2: "Y", q3: "X"}, -QUARTER))
        # commuting block exp(-i g [Z1 Z2 + Z2 X3 - Z1 - Z2 - X3])
        for ops, sign in (
            ({q1: "Z", q2: "Z"}, 1.0),
            ({q2: "Z", q3: "X"}, 1.0),
            ({q1: "Z"}, -1.0),
            ({q2: "Z"}, -1.0),
            ({q3: "X"}, -1.0),
        ):
            cores.append(len(rotations))
            rotations.append(rot(ops, sign * g))
    return GadgetSequence(n, tuple(rotations), tuple(cores))


# -- program-level gadget lowering -------------------------------------------


def _route_path(layout: ChainLayout, support: tuple[int, ...]) -> list[int]:
    """Adjacent qubit path covering a support set along one chain or one site."""
    spots = [layout.chain_site(q) for q in support]
    chains = {c for c, _ in spots}
    sites = {j for _, j in spots}
    if len(chains) == 1:
        chain = chains.pop()
        lo, hi = min(sites), max(sites)
        return [layout.qubit(chain, j) for j in range(lo, hi + 1)]
    if len(sites) == 1:
        site = sites.pop()
        lo, hi = min(chains), max(chains)
        return [layout.qubit(c, site) for c in range(lo, hi + 1)]
    raise CompilationError(
        f"support {support} spans multiple chains and sites; no local route"
    )


def lower_rotation_local(
    layout: ChainLayout, rotation: PauliRotation
) -> list[PauliRotation]:
    """Rewrite one rotation over nearest-neighbor weight-<=2 rotations."""
    weight = rotation.pauli.weight
    if weight <= 1:
        return [rotation]
    support = rotation.pauli.support()
    if weight == 2 and layout.adjacent(*support):
        return [rotation]
    path = _route_path(layout, support)
    letters = [rotation.pauli.letters[q] for q in path]
    if letters[-1] == "Z" and letters[0] in ("X", "Y"):
        path = path[::-1]
        letters = letters[::-1]
    target = rotation.pauli
    run = ["Z"] * (len(path) - 1) + ["X"]
    if letters == run:
        return list(decompose_i1(target, rotation.angle, path).rotations)
    if weight == 2 and letters[0] == "Z" and letters[-1] == "X":
        return list(decompose_i2(target, rotation.angle, path).rotations)
    if weight == 2 and letters[0] == "Z" and letters[-1] == "Z":
        return list(decompose_i3(target, rotation.angle, path).rotations)
    raise CompilationError(
        f"no local gadget for pattern {rotation.pauli} (path letters {letters})"
    )


@dataclass(frozen=True)
class RotationCircuit:
    """A flat rotation list standing in for one driving period."""

    n_qubits: int
    rotations: tuple[PauliRotation, ...]

    def apply_to(self, state: StateVector) -> None:
        for rot in self.rotations:
            state.apply_rotation(rot)


def lower_program_local(program: FloquetProgram) -> RotationCircuit:
    """Rewrite a whole program at the local-gadgets level.

    Two-control ladder layers take the dedicated CCNOT expansion; every
    other rotation is rewritten on its own.
    """
    layout = program.layout
    rotations: list[PauliRotation] = []
    for layer in program.layers:
        controls = layer.meta.get("controls", ())
        if len(controls) == 2:
            seq = lower_ccnot_local(
                layout, *controls, layer.meta["target"], layer.meta["scales"]
            )
            rotations.extend(seq.rotations)
            continue
        for rot in layer.rotations:
            rotations.extend(lower_rotation_local(layout, rot))
    return RotationCircuit(program.n_qubits, tuple(rotations))


# -- native iSWAP + single-qubit lowering -------------------------------------


@dataclass(frozen=True)
class NativeGate:
    """One hardware gate: RX/RY/RZ with an angle, or ISWAP/ISWAPINV."""

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.name in ("RX", "RY", "RZ"):
            if len(self.qubits) != 1 or self.angle is None:
                raise ValueError("rotation gates take one qubit and an angle")
        elif self.name in ("ISWAP", "ISWAPINV"):
            if len(self.qubits) != 2 or self.angle is not None:
                raise ValueError("iSWAP gates take two qubits and no angle")
        else:
            raise ValueError(f"unknown native gate {self.name!r}")


_ROTATION_LETTER = {"RX": "X", "RY": "Y", "RZ": "Z"}


@dataclass(frozen=True)
class NativeCircuit:
    """Ordered native gate list; one instance stands for one period.

    The gates are compiled once, at construction, into flat per-gate
    data: the generator of each rotation, the qubits and direction of
    each iSWAP, the base angles, and which gates are iSWAPs.
    """

    n_qubits: int
    gates: tuple[NativeGate, ...]
    _ops: tuple = field(init=False, repr=False, compare=False)
    _angles: np.ndarray = field(init=False, repr=False, compare=False)
    _iswaps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ops = []
        for gate in self.gates:
            if gate.name in ("ISWAP", "ISWAPINV"):
                ops.append((None, *gate.qubits, gate.name == "ISWAPINV"))
            else:
                letter = _ROTATION_LETTER[gate.name]
                pauli = PauliString.from_ops(self.n_qubits, {gate.qubits[0]: letter})
                ops.append((pauli, None, None, False))
        iswaps = np.array([pauli is None for pauli, *_ in ops], dtype=bool)
        angles = np.array(
            [QUARTER if gate.angle is None else gate.angle for gate in self.gates],
            dtype=float,
        )
        object.__setattr__(self, "_ops", tuple(ops))
        object.__setattr__(self, "_angles", angles)
        object.__setattr__(self, "_iswaps", iswaps)

    def apply_to(
        self,
        state: StateVector,
        *,
        rng: np.random.Generator | None = None,
        single_error: float = 0.0,
        iswap_error: float = 0.0,
    ) -> None:
        """Apply all gates; optional fresh angle noise on every gate.

        Rotation angles are scaled by (1 + eps) with eps uniform within
        +-single_error; iSWAP angles likewise within +-iswap_error.
        Noise requires an rng.  One cycle's noise is one vector draw over
        the noisy gates in gate order, which consumes the stream exactly
        as one scalar draw per gate would.
        """
        angles = self._angles
        if single_error > 0.0 or iswap_error > 0.0:
            if rng is None:
                raise ValueError("temporal noise needs a random stream")
            widths = np.where(self._iswaps, iswap_error, single_error)
            noisy = widths > 0.0
            angles = angles.copy()
            angles[noisy] *= 1.0 + rng.uniform(-widths[noisy], widths[noisy])
        for (pauli, a, b, inverse), angle in zip(self._ops, angles.tolist()):
            if pauli is None:
                state.apply_iswap(a, b, inverse=inverse, angle=angle)
            else:
                state.apply_rotation(PauliRotation(pauli, angle))

    def to_text(self) -> str:
        """One gate per line; angles carry 17 significant digits."""
        lines = []
        for gate in self.gates:
            parts = [gate.name] + [f"q{q}" for q in gate.qubits]
            if gate.angle is not None:
                parts.append(f"{gate.angle:.17g}")
            lines.append(" ".join(parts))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str, n_qubits: int) -> "NativeCircuit":
        gates = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            name = parts[0]
            qubits = tuple(int(p[1:]) for p in parts[1:] if p.startswith("q"))
            rest = [p for p in parts[1:] if not p.startswith("q")]
            angle = float(rest[0]) if rest else None
            gates.append(NativeGate(name, qubits, angle))
        return cls(n_qubits, tuple(gates))


def _rx(q: int, angle: float) -> NativeGate:
    return NativeGate("RX", (q,), angle)


def _ry(q: int, angle: float) -> NativeGate:
    return NativeGate("RY", (q,), angle)


def _rz(q: int, angle: float) -> NativeGate:
    return NativeGate("RZ", (q,), angle)


def _zx_block(zq: int, xq: int, theta: float) -> list[NativeGate]:
    """exp(-i theta Z_zq X_xq) = ISWAP * RY(theta on zq) * ISWAPINV."""
    return [
        NativeGate("ISWAPINV", (zq, xq)),
        _ry(zq, theta),
        NativeGate("ISWAP", (zq, xq)),
    ]


def _zy_block(zq: int, yq: int, theta: float) -> list[NativeGate]:
    """exp(-i theta Z_zq Y_yq) = ISWAPINV * RX(theta on zq) * ISWAP."""
    return [
        NativeGate("ISWAP", (zq, yq)),
        _rx(zq, theta),
        NativeGate("ISWAPINV", (zq, yq)),
    ]


# Basis-change rotations: _to_z[P] maps P -> Z by conjugation, _to_x[P]
# maps P -> X.  Entries are (gate ctor, angle).
_TO_Z = {"Y": (_rx, QUARTER), "X": (_ry, -QUARTER)}
_TO_X = {"Z": (_ry, QUARTER), "Y": (_rz, -QUARTER)}


def lower_rotation_native(rotation: PauliRotation) -> list[NativeGate]:
    """Rewrite one weight-<=2 rotation over RX/RY/RZ and iSWAPs."""
    weight = rotation.pauli.weight
    if weight == 0:
        return []  # pure global phase
    support = rotation.pauli.support()
    theta = rotation.angle
    if weight == 1:
        q = support[0]
        letter = rotation.pauli.letters[q]
        ctor = {"X": _rx, "Y": _ry, "Z": _rz}[letter]
        return [ctor(q, theta)]
    if weight != 2:
        raise CompilationError(
            f"cannot lower weight-{weight} rotation {rotation.pauli} to native "
            "gates; apply the local-gadget level first"
        )
    qa, qb = support
    pa, pb = rotation.pauli.letters[qa], rotation.pauli.letters[qb]
    letters = {pa, pb}
    if letters == {"Z", "X"}:
        zq, xq = (qa, qb) if pa == "Z" else (qb, qa)
        return _zx_block(zq, xq, theta)
    if letters == {"Z", "Y"}:
        zq, yq = (qa, qb) if pa == "Z" else (qb, qa)
        return _zy_block(zq, yq, theta)
    if letters == {"Z"}:
        # Rotate qb's Z into Y, run the ZY block, rotate back.
        return [_rx(qb, -QUARTER)] + _zy_block(qa, qb, theta) + [_rx(qb, QUARTER)]
    # No Z present: conjugate into the Z-X form on (qa, qb).
    pre: list[NativeGate] = []
    post: list[NativeGate] = []
    if pa in _TO_Z:
        ctor, angle = _TO_Z[pa]
        pre.append(ctor(qa, angle))
        post.append(ctor(qa, -angle))
    if pb in _TO_X:
        ctor, angle = _TO_X[pb]
        pre.append(ctor(qb, angle))
        post.append(ctor(qb, -angle))
    if not pre:
        raise CompilationError(f"unsupported letter pair {pa}{pb}")
    return pre + _zx_block(qa, qb, theta) + post


def lower_to_native(
    rotations: Iterable[PauliRotation], n_qubits: int
) -> NativeCircuit:
    gates: list[NativeGate] = []
    for rot in rotations:
        gates.extend(lower_rotation_native(rot))
    return NativeCircuit(n_qubits, tuple(gates))


def lower_program(program: FloquetProgram, level: str):
    """Lower a program to one of the three execution levels."""
    if level not in LOWERING_LEVELS:
        raise ValueError(f"unknown lowering level {level!r}; choose from {LOWERING_LEVELS}")
    if level == "pauli-layers":
        return program
    local = lower_program_local(program)
    if level == "local-gadgets":
        return local
    return lower_to_native(local.rotations, program.n_qubits)


# -- equivalence checking ----------------------------------------------------

_VERIFY_DENSE_MAX = 6
_VERIFY_CAP = 12


def _as_applier(obj, n_qubits: int | None):
    if hasattr(obj, "apply_to"):
        n = getattr(obj, "n_qubits", n_qubits)
        return obj.apply_to, n
    if callable(obj):
        if n_qubits is None:
            raise ValueError("callable operands need an explicit n_qubits")
        return obj, n_qubits
    rotations = list(obj)
    if not rotations:
        raise ValueError("empty rotation list has no register size")

    def apply(state: StateVector) -> None:
        for rot in rotations:
            state.apply_rotation(rot)

    return apply, rotations[0].n_qubits


def _column(apply: Callable, n: int, index: int) -> np.ndarray:
    state = StateVector.basis_state(n, index)
    apply(state)
    return state.amplitudes


def verify_equivalence(a, b, n_qubits: int | None = None) -> float:
    """Largest elementwise deviation between two unitaries, phase-blind.

    Returns min over a global phase of max |U_a - e^{i phi} U_b|.  Small
    registers are compared densely; larger ones are probed column by
    column with basis-state inputs (two passes: one to fix the phase from
    the accumulated trace, one to measure the deviation).
    """
    apply_a, na = _as_applier(a, n_qubits)
    apply_b, nb = _as_applier(b, n_qubits)
    if na != nb:
        raise ValueError(f"register sizes differ: {na} vs {nb}")
    n = na
    if n > _VERIFY_CAP:
        raise ValueError(
            f"equivalence checking is capped at {_VERIFY_CAP} qubits, got {n}"
        )
    dim = 1 << n
    if n <= _VERIFY_DENSE_MAX:
        mat_a = np.empty((dim, dim), dtype=np.complex128)
        mat_b = np.empty((dim, dim), dtype=np.complex128)
        for col in range(dim):
            mat_a[:, col] = _column(apply_a, n, col)
            mat_b[:, col] = _column(apply_b, n, col)
        trace = np.vdot(mat_b.ravel(), mat_a.ravel())
        phase = trace / abs(trace) if abs(trace) > 1e-300 else 1.0
        return float(np.max(np.abs(mat_a - phase * mat_b)))
    trace = 0.0 + 0.0j
    for col in range(dim):
        trace += np.vdot(_column(apply_b, n, col), _column(apply_a, n, col))
    phase = trace / abs(trace) if abs(trace) > 1e-300 else 1.0
    worst = 0.0
    for col in range(dim):
        dev = np.max(
            np.abs(_column(apply_a, n, col) - phase * _column(apply_b, n, col))
        )
        worst = max(worst, float(dev))
    return worst
