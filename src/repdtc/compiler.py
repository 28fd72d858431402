"""Lowering of Floquet programs toward hardware-shaped circuits.

Three levels exist:

* ``pauli-layers``: the program's own Pauli rotations, applied as built.
* ``local-gadgets``: every rotation rewritten over nearest-neighbor
  weight-<=2 rotations using pi/4 conjugation gadgets.
* ``native-iswap``: every weight-2 rotation rewritten over iSWAPs and
  single-qubit rotations.

Every level, and every gadget, returns one ``Circuit``: a flat list of
Pauli and iSWAP rotations compiled once, the single executable form of
a period.

The gadget constructions all follow one identity: conjugating a rotation
exp(-i*theta*P) by exp(+-i*pi/4*G) with G anticommuting with P yields
exp(-i*theta*P') with P' = +-i*G*P.  Dressings therefore sit at fixed
angles +-pi/4 while the core rotation carries theta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .models import ChainLayout, FloquetProgram
from .pauli import PauliRotation, PauliString, clifford_conjugate
from .statevector import StateVector, pauli_view

LOWERING_LEVELS = ("pauli-layers", "local-gadgets", "native-iswap")

QUARTER = math.pi / 4


class CompilationError(ValueError):
    """A rotation cannot be lowered at the requested level."""


# -- the executable circuit --------------------------------------------------


@dataclass(frozen=True)
class ISwapRotation:
    """exp(-i*angle*(XX+YY)) on a qubit pair.

    An angle of +pi/4 is iSWAP and -pi/4 its inverse, so the sign of the
    angle carries the direction.
    """

    qubits: tuple[int, int]
    angle: float


@dataclass(frozen=True)
class Circuit:
    """One driving period as a flat rotation list, compiled once.

    Every entry is a ``PauliRotation`` or an ``ISwapRotation``.
    Construction records the base angles, which entries are iSWAPs, and
    whether every entry is native (weight <= 1 or an iSWAP), which is
    what temporal angle noise attaches to.  The first noise-free
    ``apply_to`` compiles each rotation into its view step, so circuits
    that are only rewritten, such as gadget sub-circuits, never compile.
    """

    n_qubits: int
    rotations: tuple[PauliRotation | ISwapRotation, ...]
    _angles: np.ndarray = field(init=False, repr=False, compare=False)
    _iswaps: np.ndarray = field(init=False, repr=False, compare=False)
    _native: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        iswaps = [isinstance(r, ISwapRotation) for r in self.rotations]
        native = all(i or r.pauli.weight <= 1 for r, i in zip(self.rotations, iswaps))
        angles = np.array([r.angle for r in self.rotations], dtype=float)
        object.__setattr__(self, "_angles", angles)
        object.__setattr__(self, "_iswaps", np.array(iswaps, dtype=bool))
        object.__setattr__(self, "_native", native)

    def __len__(self) -> int:
        return len(self.rotations)

    def apply_to(
        self,
        state: StateVector,
        *,
        rng: np.random.Generator | None = None,
        single_error: float = 0.0,
        iswap_error: float = 0.0,
    ) -> None:
        """Apply every entry in order; optional fresh angle noise.

        Rotation angles are scaled by (1 + eps) with eps uniform within
        +-single_error; iSWAP angles likewise within +-iswap_error.
        Noise needs an rng, a native circuit and nonnegative widths.
        One cycle's noise is one vector draw over the noisy entries in
        order, which consumes the stream exactly as one scalar draw per
        entry would; it renews the steps' coefficients only.
        """
        if single_error < 0.0 or iswap_error < 0.0:
            raise ValueError("noise half-widths must be nonnegative")
        if single_error > 0.0 or iswap_error > 0.0:
            if rng is None:
                raise ValueError("temporal noise needs a random stream")
            if not self._native:
                raise ValueError(
                    "temporal noise attaches to native gates; "
                    "lower to native-iswap first"
                )
            widths = np.where(self._iswaps, iswap_error, single_error)
            noisy = widths > 0.0
            angles = self._angles.copy()
            angles[noisy] *= 1.0 + rng.uniform(-widths[noisy], widths[noisy])
            steps = self._steps(angles)
        else:
            steps = self._compiled
        for entry, step in zip(self.rotations, steps):
            if type(entry) is ISwapRotation:
                state.apply_iswap(*entry.qubits, angle=step)
            else:
                state.apply_rotation(entry, step)

    @functools.cached_property
    def _compiled(self) -> list:
        return self._steps(self._angles)

    def _steps(self, angles: np.ndarray) -> list:
        """Per entry at ``angles``: its cached view's step, or the iSWAP angle."""
        return [
            angle if iswap else pauli_view(entry.pauli).step(angle)
            for entry, iswap, angle in zip(
                self.rotations, self._iswaps.tolist(), angles.tolist()
            )
        ]


# -- gadget sequences --------------------------------------------------------


def _dressed_sequence(
    n_qubits: int,
    core: PauliRotation,
    dressings: Sequence[Sequence[PauliRotation]],
    target: PauliString,
) -> Circuit:
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
    rotations.append(core)
    for block in dressings:
        rotations.extend(block)
    return Circuit(n_qubits, tuple(rotations))


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
) -> Circuit:
    """Z...ZX run: Z on every path qubit but the last, X on the last.

    Core exp(-i*theta*Z X) on the first two path qubits, dressed by
    exp(+i*pi/4*Y_k X_{k+1}) for each later step.  A length-L run costs
    2(L-2) dressings plus the core, which sits in the middle of the
    returned circuit, as in every i1/i2/i3 gadget.
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
) -> Circuit:
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
) -> Circuit:
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
        return Circuit(n, (PauliRotation(target, theta),))
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
) -> Circuit:
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
        rotations.append(rot({q1: "Z", q2: "X"}, g))
        # exp(+i pi/4 (Z2 Z3 + Y2 Y3))
        rotations.append(rot({q2: "Z", q3: "Z"}, -QUARTER))
        rotations.append(rot({q2: "Y", q3: "Y"}, -QUARTER))
        # exp(-i pi/4 Y2 X3)
        rotations.append(rot({q2: "Y", q3: "X"}, QUARTER))
        # exp(+i g Z1 X2)
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
            rotations.append(rot(ops, sign * g))
    return Circuit(n, tuple(rotations))


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


def lower_program_local(program: FloquetProgram) -> Circuit:
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
    return Circuit(program.n_qubits, tuple(rotations))


# -- native iSWAP + single-qubit lowering -------------------------------------


def _single(n: int, q: int, letter: str, angle: float) -> PauliRotation:
    return PauliRotation(PauliString.from_ops(n, {q: letter}), angle)


def _zx_block(n: int, zq: int, xq: int, theta: float) -> list:
    """exp(-i theta Z_zq X_xq) = ISWAP * RY(theta on zq) * ISWAPINV."""
    return [
        ISwapRotation((zq, xq), -QUARTER),
        _single(n, zq, "Y", theta),
        ISwapRotation((zq, xq), QUARTER),
    ]


def _zy_block(n: int, zq: int, yq: int, theta: float) -> list:
    """exp(-i theta Z_zq Y_yq) = ISWAPINV * RX(theta on zq) * ISWAP."""
    return [
        ISwapRotation((zq, yq), QUARTER),
        _single(n, zq, "X", theta),
        ISwapRotation((zq, yq), -QUARTER),
    ]


# Basis-change rotations: _TO_Z[P] maps P -> Z by conjugation, _TO_X[P]
# maps P -> X.  Entries are (rotation letter, angle).
_TO_Z = {"Y": ("X", QUARTER), "X": ("Y", -QUARTER)}
_TO_X = {"Z": ("Y", QUARTER), "Y": ("Z", -QUARTER)}


def lower_rotation_native(
    rotation: PauliRotation,
) -> list[PauliRotation | ISwapRotation]:
    """Rewrite one weight-<=2 rotation over RX/RY/RZ and iSWAPs.

    A weight-1 rotation is already native and passes through unchanged.
    """
    weight = rotation.pauli.weight
    if weight == 0:
        return []  # pure global phase
    if weight == 1:
        return [rotation]
    if weight != 2:
        raise CompilationError(
            f"cannot lower weight-{weight} rotation {rotation.pauli} to native "
            "gates; apply the local-gadget level first"
        )
    n = rotation.n_qubits
    theta = rotation.angle
    qa, qb = rotation.pauli.support()
    pa, pb = rotation.pauli.letters[qa], rotation.pauli.letters[qb]
    letters = {pa, pb}
    if letters == {"Z", "X"}:
        zq, xq = (qa, qb) if pa == "Z" else (qb, qa)
        return _zx_block(n, zq, xq, theta)
    if letters == {"Z", "Y"}:
        zq, yq = (qa, qb) if pa == "Z" else (qb, qa)
        return _zy_block(n, zq, yq, theta)
    if letters == {"Z"}:
        # Rotate qb's Z into Y, run the ZY block, rotate back.
        return (
            [_single(n, qb, "X", -QUARTER)]
            + _zy_block(n, qa, qb, theta)
            + [_single(n, qb, "X", QUARTER)]
        )
    # No Z present: conjugate into the Z-X form on (qa, qb).
    pre: list[PauliRotation] = []
    post: list[PauliRotation] = []
    for q, basis in ((qa, _TO_Z.get(pa)), (qb, _TO_X.get(pb))):
        if basis is not None:
            letter, angle = basis
            pre.append(_single(n, q, letter, angle))
            post.append(_single(n, q, letter, -angle))
    if not pre:
        raise CompilationError(f"unsupported letter pair {pa}{pb}")
    return pre + _zx_block(n, qa, qb, theta) + post


def lower_to_native(rotations: Iterable[PauliRotation], n_qubits: int) -> Circuit:
    entries: list[PauliRotation | ISwapRotation] = []
    for rot in rotations:
        entries.extend(lower_rotation_native(rot))
    return Circuit(n_qubits, tuple(entries))


def lower_program(program: FloquetProgram, level: str) -> Circuit:
    """Lower a program to one of the three execution levels."""
    if level not in LOWERING_LEVELS:
        raise ValueError(f"unknown lowering level {level!r}; choose from {LOWERING_LEVELS}")
    if level == "pauli-layers":
        return Circuit(program.n_qubits, tuple(program.all_rotations()))
    local = lower_program_local(program)
    if level == "local-gadgets":
        return local
    return lower_to_native(local.rotations, program.n_qubits)


# -- equivalence checking ----------------------------------------------------

_VERIFY_CAP = 12
# Identity-row block per operand call (512 KiB): amortizes each kernel call.
_BLOCK_AMPLITUDES = 1 << 15


def _as_applier(obj, n_qubits: int | None):
    if hasattr(obj, "apply_to"):
        n = getattr(obj, "n_qubits", n_qubits)
        return obj.apply_to, n, True
    if callable(obj):
        if n_qubits is None:
            raise ValueError("callable operands need an explicit n_qubits")
        return obj, n_qubits, False
    rotations = tuple(obj)
    if not rotations:
        raise ValueError("empty rotation list has no register size")
    circuit = Circuit(rotations[0].n_qubits, rotations)
    return circuit.apply_to, circuit.n_qubits, True


def _unitary_rows(apply: Callable, n: int, takes_blocks: bool) -> np.ndarray:
    """U^T of an operand: row j is the operand applied to basis state j."""
    rows = np.eye(1 << n, dtype=np.complex128)
    step = _BLOCK_AMPLITUDES >> n if takes_blocks else 1
    for start in range(0, 1 << n, step):
        index = slice(start, start + step) if takes_blocks else start
        state = StateVector(n, rows[index])
        apply(state)
        rows[index] = state.amplitudes
    return rows


def verify_equivalence(a, b, n_qubits: int | None = None) -> float:
    """Largest elementwise deviation between two unitaries, phase-blind.

    Returns max |U_a - e^{i phi} U_b| with e^{i phi} the phase of
    tr(U_b^dagger U_a).  Each U is built from identity rows: circuits,
    rotation lists and objects with ``apply_to`` evolve blocks of 2**15
    amplitudes per call, a plain callable one basis state per call.  Both
    unitaries are held at once, a 550 MiB peak at the 12-qubit cap.
    """
    apply_a, n, blocks_a = _as_applier(a, n_qubits)
    apply_b, nb, blocks_b = _as_applier(b, n_qubits)
    if n != nb:
        raise ValueError(f"register sizes differ: {n} vs {nb}")
    if n > _VERIFY_CAP:
        raise ValueError(
            f"equivalence checking is capped at {_VERIFY_CAP} qubits, got {n}"
        )
    rows_a = _unitary_rows(apply_a, n, blocks_a)
    rows_b = _unitary_rows(apply_b, n, blocks_b)
    trace = np.vdot(rows_b, rows_a)
    rows_b *= trace / abs(trace) if abs(trace) > 1e-300 else 1.0
    rows_a -= rows_b
    # |U_a - U_b| block by block: no full-size temporary joins the two U.
    step = _BLOCK_AMPLITUDES >> n
    worst = (np.abs(rows_a[i : i + step]).max() for i in range(0, 1 << n, step))
    return float(max(worst))
