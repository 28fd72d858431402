"""Lowering of Floquet programs toward hardware-shaped circuits.

Three levels exist:

* ``pauli-layers``: the program's own Pauli rotations, its ``circuit``.
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
angles +-pi/4 while the core rotation carries theta.  Every gadget is one
walk of a Z-X core along a qubit path, its dressings read from one row
of ``_WALKS``.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .pauli import PauliRotation, PauliString, clifford_conjugate
from .statevector import CHUNK_QUBITS, StateVector, pauli_view

if TYPE_CHECKING:
    from .models import ChainLayout, FloquetProgram

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


def usable_cores() -> int:
    """Cores this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Processes that share this process's cores: a pool worker is one of the
# pool's, so that the pool's processes times their chunk threads stay
# within the usable cores.
_pool_size = 1
# The executor of the helper threads of chunked runs, started on first
# use.  It is shut down before this process forks: a child inherits the
# executor but not its threads, and would wait on them for ever.
_helpers = None


def share_cores(pool_size: int) -> None:
    """Mark this process as one of ``pool_size`` sharing the usable cores."""
    global _pool_size
    _pool_size = pool_size


def _helper_threads():
    global _helpers
    if _helpers is None:
        # Imported here: a run without helper threads never loads it.
        from concurrent.futures import ThreadPoolExecutor

        _helpers = ThreadPoolExecutor(usable_cores() - 1, "repdtc-chunks")
    return _helpers


def _stop_helper_threads() -> None:
    global _helpers
    if _helpers is not None:
        _helpers.shutdown()
        _helpers = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_stop_helper_threads)


def _apply_entries(targets, entries, steps) -> None:
    """Apply the entries, with their steps, to each target in turn."""
    for target in targets:
        for entry, step in zip(entries, steps):
            if type(entry) is ISwapRotation:
                target.apply_iswap(*entry.qubits, angle=step)
            else:
                target.apply_rotation(entry, step)


def _apply_to_chunks(chunks, entries, steps) -> None:
    """Apply a run to every chunk, on up to one thread per usable core
    of this process's share.

    The caller's thread takes the first share of consecutive chunks and
    helper threads the others; the call returns when all have finished.
    Chunks are disjoint, so each amplitude sees the same operations in
    the same order as on one thread.
    """
    threads = min(len(chunks), usable_cores() // _pool_size)
    if threads < 2:
        _apply_entries(chunks, entries, steps)
        return
    share = -(-len(chunks) // threads)
    parts = [chunks[i : i + share] for i in range(0, len(chunks), share)]
    helpers = _helper_threads()
    futures = [helpers.submit(_apply_entries, part, entries, steps) for part in parts[1:]]
    try:
        _apply_entries(parts[0], entries, steps)
    finally:
        # Wait for every helper, so that no chunk still changes once the
        # run returns or raises.
        errors = [future.exception() for future in futures]
    for error in errors:
        if error is not None:
            raise error


def _misfit(entry, n_qubits: int) -> str | None:
    """Why ``entry`` cannot run on a register of ``n_qubits``, or None."""
    if isinstance(entry, ISwapRotation):
        a, b = entry.qubits
        if a == b:
            return "an iSWAP needs two distinct qubits"
        if not (0 <= a < n_qubits and 0 <= b < n_qubits):
            return f"qubits outside a register of {n_qubits}"
        return None
    if not isinstance(entry, PauliRotation):
        return "not a PauliRotation or an ISwapRotation"
    if entry.n_qubits != n_qubits:
        return f"a {entry.n_qubits}-qubit rotation in a register of {n_qubits}"
    return None


@dataclass(frozen=True)
class Circuit:
    """One driving period as a flat rotation list, compiled once.

    Every entry is a ``PauliRotation`` or an ``ISwapRotation``.
    Construction records the base angles, which entries are iSWAPs, and
    whether every entry is native (weight <= 1 or an iSWAP), which is
    what temporal angle noise attaches to.  The first ``apply_to`` splits
    the entries into runs and takes each rotation's view, and the first
    noise-free one compiles the steps, so circuits that are only
    rewritten, such as gadget sub-circuits, never compile.

    On more than ``CHUNK_QUBITS`` qubits, a maximal run of entries below
    qubit ``CHUNK_QUBITS`` runs over ``state.chunks(CHUNK_QUBITS)`` one
    chunk at a time, with views taken at the chunk size; entries that
    touch a higher qubit run on the whole register.  The chunks of a run
    are split across min(chunks, usable cores // pool size) threads,
    which join at the end of the run, so a pool worker on a machine with
    no more cores than workers stays on one thread.  Every amplitude
    sees the same multiplies in the same order either way.  An entry
    that does not fit the register is refused here, before any state
    is touched.
    """

    n_qubits: int
    rotations: tuple[PauliRotation | ISwapRotation, ...]
    _angles: np.ndarray = field(init=False, repr=False, compare=False)
    _iswaps: np.ndarray = field(init=False, repr=False, compare=False)
    _native: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for index, entry in enumerate(self.rotations):
            problem = _misfit(entry, self.n_qubits)
            if problem:
                raise ValueError(f"circuit entry {index} ({entry}): {problem}")
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
        if state.n_qubits != self.n_qubits:
            raise ValueError(
                f"circuit register size {self.n_qubits} does not match a "
                f"state of {state.n_qubits} qubits"
            )
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
        for start, stop, chunked in self._runs:
            entries, run_steps = self.rotations[start:stop], steps[start:stop]
            if chunked:
                _apply_to_chunks(state.chunks(CHUNK_QUBITS), entries, run_steps)
            else:
                _apply_entries((state,), entries, run_steps)

    @functools.cached_property
    def _views(self) -> tuple:
        """Per entry: the view its steps are made from, None for an iSWAP;
        in a chunked run, the view of its string cut to the chunk."""
        chunked = self._chunked
        return tuple(
            None if iswap
            else pauli_view(
                PauliString(entry.pauli.letters[:CHUNK_QUBITS]) if cut else entry.pauli
            )
            for entry, iswap, cut in zip(self.rotations, self._iswaps.tolist(), chunked)
        )

    @functools.cached_property
    def _chunked(self) -> tuple[bool, ...]:
        """Per entry: whether it runs chunk by chunk."""
        if self.n_qubits <= CHUNK_QUBITS:
            return (False,) * len(self.rotations)
        return tuple(
            max(entry.qubits if iswap else entry.pauli.support(), default=0)
            < CHUNK_QUBITS
            for entry, iswap in zip(self.rotations, self._iswaps.tolist())
        )

    @functools.cached_property
    def _runs(self) -> tuple[tuple[int, int, bool], ...]:
        """(start, stop, chunked) of each maximal run of entries alike."""
        runs = []
        start = 0
        for chunked, group in itertools.groupby(self._chunked):
            stop = start + len(list(group))
            runs.append((start, stop, chunked))
            start = stop
        return tuple(runs)

    @functools.cached_property
    def _compiled(self) -> list:
        return self._steps(self._angles)

    def _steps(self, angles: np.ndarray) -> list:
        """Per entry at ``angles``: its view's step, or the iSWAP angle."""
        return [
            angle if view is None else view.step(angle)
            for view, angle in zip(self._views, angles.tolist())
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


# One row per gadget: the dressing block each walk step applies to the
# next pair (a, b) of path qubits, and the block that replaces the last
# step.  "YX" is exp(+i*pi/4*Y_a X_b), at angle -pi/4; a leading "+"
# sets the angle to +pi/4.
_WALKS = {
    "i1": (("YX",), None),
    "i2": (("YY", "ZZ"), None),
    "i3": (("YY", "ZZ"), ("YY", "+ZX")),
}


def _gadget(
    kind: str, target: PauliString, theta: float, path: Sequence[int] | None
) -> Circuit:
    """Walk a Z-X core on the first two path qubits out onto ``target``.

    The path defaults to the span of the target's support.  Each later
    path pair (a, b) conjugates by the kind's dressing block;
    ``_dressed_sequence`` proves the walk lands on ``target``.
    """
    if path is None:
        support = target.support()
        if not support:
            raise CompilationError(
                f"{kind} pattern needs a target on some qubit, got {target}"
            )
        path = range(min(support), max(support) + 1)
    path = tuple(path)
    if len(set(path)) != len(path):
        raise CompilationError("qubit path must not repeat qubits")
    if len(path) < 2:
        raise CompilationError(f"{kind} pattern needs at least two qubits")
    n = target.n_qubits
    if kind == "i3" and len(path) == 2:
        # A ZZ on neighbours is native: nothing to walk.
        core = PauliString.from_ops(n, {path[0]: "Z", path[1]: "Z"})
        return _dressed_sequence(n, PauliRotation(core, theta), [], target)
    step, close = _WALKS[kind]
    blocks = [step] * (len(path) - 2)
    if close is not None:
        blocks[-1] = close
    dressings = [
        [
            PauliRotation(
                PauliString.from_ops(n, {a: spec[-2], b: spec[-1]}),
                QUARTER if spec[0] == "+" else -QUARTER,
            )
            for spec in block
        ]
        for (a, b), block in zip(zip(path[1:], path[2:]), blocks)
    ]
    core = PauliString.from_ops(n, {path[0]: "Z", path[1]: "X"})
    return _dressed_sequence(n, PauliRotation(core, theta), dressings, target)


def decompose_i1(
    target: PauliString, theta: float, path: Sequence[int] | None = None
) -> Circuit:
    """Z...ZX run: Z on every path qubit but the last, X on the last.

    Core exp(-i*theta*Z X) on the first two path qubits, dressed by
    exp(+i*pi/4*Y_k X_{k+1}) for each later step.  A length-L run costs
    2(L-2) dressings plus the core, which sits in the middle of the
    returned circuit, as in every i1/i2/i3 gadget.
    """
    return _gadget("i1", target, theta, path)


def decompose_i2(
    target: PauliString, theta: float, path: Sequence[int] | None = None
) -> Circuit:
    """Long-range Z-X pair: Z on path[0], X on path[-1].

    Each growth step conjugates by exp(+i*pi/4*YY) then exp(+i*pi/4*ZZ)
    on consecutive path qubits, walking the X endpoint outward.
    """
    return _gadget("i2", target, theta, path)


def decompose_i3(
    target: PauliString, theta: float, path: Sequence[int] | None = None
) -> Circuit:
    """Long-range Z-Z pair: Z on both ends of the path.

    The X endpoint of a Z-X core is walked outward as in the Z-X gadget,
    then one final block conjugates by exp(+i*pi/4*YY) and
    exp(-i*pi/4*ZX) to turn the far X into a Z.
    """
    return _gadget("i3", target, theta, path)


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
    kind = "i3" if letters[-1] == "Z" else "i2" if "I" in letters else "i1"
    return list(_gadget(kind, rotation.pauli, rotation.angle, path).rotations)


def lower_program_local(program: FloquetProgram) -> Circuit:
    """Rewrite a whole program at the local-gadgets level, rotation by rotation."""
    rotations: list[PauliRotation] = []
    for rot in program.all_rotations():
        rotations.extend(lower_rotation_local(program.layout, rot))
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
        return program.circuit
    local = lower_program_local(program)
    if level == "local-gadgets":
        return local
    return lower_to_native(local.rotations, program.n_qubits)


# -- equivalence checking ----------------------------------------------------

_VERIFY_CAP = 12
# Identity-row block per operand call (512 KiB): amortizes each kernel call.
_BLOCK_AMPLITUDES = 1 << 15


def _operand(obj) -> tuple[int, np.ndarray | Circuit]:
    """(register size, dense unitary or object with ``apply_to``) of an operand."""
    if isinstance(obj, np.ndarray):
        dim = obj.shape[0] if obj.ndim == 2 else 0
        if obj.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
            raise ValueError(
                f"a dense operand must be a 2**n x 2**n unitary, got shape {obj.shape}"
            )
        return dim.bit_length() - 1, obj
    if not hasattr(obj, "apply_to"):
        rotations = tuple(obj)
        if not rotations:
            raise ValueError("empty rotation list has no register size")
        obj = Circuit(rotations[0].n_qubits, rotations)
    return obj.n_qubits, obj


def _unitary_rows(operand: np.ndarray | Circuit, n: int) -> np.ndarray:
    """U^T of an operand: row j is the operand applied to basis state j."""
    if isinstance(operand, np.ndarray):
        return operand.T.astype(np.complex128)
    rows = np.eye(1 << n, dtype=np.complex128)
    step = _BLOCK_AMPLITUDES >> n
    for start in range(0, 1 << n, step):
        state = StateVector(n, rows[start : start + step])
        operand.apply_to(state)
        rows[start : start + step] = state.amplitudes
    return rows


def verify_equivalence(a, b) -> float:
    """Largest elementwise deviation between two unitaries, phase-blind.

    Returns max |U_a - e^{i phi} U_b| with e^{i phi} the phase of
    tr(U_b^dagger U_a).  An operand is a circuit, a program (anything
    with ``apply_to`` and ``n_qubits``), a rotation list, or a dense
    unitary ``ndarray``.  The others build U from identity rows, evolved
    in blocks of 2**15 amplitudes per call.  Both unitaries are held at
    once, a 550 MiB peak at the 12-qubit cap.
    """
    n, a = _operand(a)
    nb, b = _operand(b)
    if n != nb:
        raise ValueError(f"register sizes differ: {n} vs {nb}")
    if n > _VERIFY_CAP:
        raise ValueError(
            f"equivalence checking is capped at {_VERIFY_CAP} qubits, got {n}"
        )
    rows_a = _unitary_rows(a, n)
    rows_b = _unitary_rows(b, n)
    trace = np.vdot(rows_b, rows_a)
    rows_b *= trace / abs(trace) if abs(trace) > 1e-300 else 1.0
    rows_a -= rows_b
    # |U_a - U_b| block by block: no full-size temporary joins the two U.
    step = _BLOCK_AMPLITUDES >> n
    worst = (np.abs(rows_a[i : i + step]).max() for i in range(0, 1 << n, step))
    return float(max(worst))
