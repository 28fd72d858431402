"""Dense statevector engine for up to 24 qubits.

Basis convention: bit q of a basis index is the state of qubit q
(least significant bit = qubit 0), and bit value 0 corresponds to Z
eigenvalue +1.  Pauli rotations exp(-i*theta*P) are applied analytically
as cos(theta)*psi - i*sin(theta)*(P psi), so no gate matrix is ever
exponentiated.  One view kernel serves every Pauli string: the register
is reshaped with one length-2 axis per support qubit, P psi is that view
with its X/Y axes reversed times a small +-1 coefficient table, and a
diagonal string is one in-place multiply by its table.  No gate builds
an index array.  The amplitudes hold one state, shape ``(2**n,)``, or a
block ``(B, 2**n)`` of one state per row, kept C-ordered: every gate
acts on each row alike, while the readouts and norms refuse a block.  A
compiled step carries its register size and a layout key; the state
keeps the reshaped and flipped views of each layout it has run, and the
quarters of each iSWAP pair, of the one array it holds for its life:
``amplitudes`` is written in place, never rebound.  On a register of
more than 2**15 amplitudes it keeps with them one cut of each view into
slabs of at most 2**15 amplitudes, along axes
the gate does not reverse: a gate runs on one slab, or on each in turn,
so no temporary is larger than a slab.  For a gate below qubit 15
the slabs are the consecutive 2**15-amplitude chunks of the register,
on which a compiled circuit runs its gates one cache-sized chunk at a
time, split across threads.  A Z readout is a BLAS ``ddot`` per
qubit; above 2**13 amplitudes it runs one 2**13-amplitude piece at a
time, summed over the pieces in order, so no BLAS thread wakes, the
bytes do not depend on the BLAS thread count and no array is as long
as the register.  Each qubit's +-1 vector, of at most 2**13 entries,
is built when a readout first reads it: reading one qubit of a large
register builds one vector, not fourteen.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .pauli import PauliRotation, PauliString

MAX_QUBITS = 24

# A run of entries on qubits below this one applies to one chunk of
# 2**15 amplitudes (512 KiB) at a time: a chunk and one flip temporary
# fill half of a 2 MiB L2, where a 16-qubit register and its temporary
# stream every gate from L3.  Chunks of 2**14 saved less (0.87x the
# unchunked cycle time), and 2**13 less again.  A register of at most
# 2**15 amplitudes is a single chunk.  Every gate on a larger register
# runs in slabs of at most this many amplitudes.
CHUNK_QUBITS = 15

# A readout of more amplitudes than this sums one ``ddot`` per piece of
# this many, in order.  OpenBLAS splits a longer ``ddot`` across its
# threads, which then spin on the other cores for the rest of the run,
# and its split sum rounds with the BLAS thread count.  A piece stays
# below OpenBLAS's threading cutoff (10,000 elements).
_PIECE_QUBITS = 13
_READOUT_PIECE = 1 << _PIECE_QUBITS


@functools.lru_cache(maxsize=None)
def _z_sign(bits: int, qubit: int) -> np.ndarray:
    """(-1)**(bit ``qubit`` of i) for i < 2**bits, ones when ``qubit`` is
    ``bits``: an operand of the Z readout's ``ddot``, built when a readout
    first reads it."""
    return 1.0 - 2.0 * ((np.arange(1 << bits) >> qubit) & 1)


@functools.lru_cache(maxsize=None)
def _z_signs(bits: int) -> tuple[np.ndarray, ...]:
    """The sign vectors of all ``bits`` qubits of a one-piece register."""
    return tuple(_z_sign(bits, q) for q in range(bits))


def _slabs(shape: tuple, kept: tuple, limit: int) -> tuple:
    """Index tuples that cut a view of ``shape`` into slabs of at most
    ``limit`` entries, along the axes not in ``kept``, outermost first;
    the view, on a register above 2**CHUNK_QUBITS, is always larger.

    A gate that reverses only ``kept`` axes reads, through its reversed
    view, only the entries of the slab it writes, so slab after slab
    applies in place.
    """
    size = math.prod(shape)
    cuts = []
    for axis, length in enumerate(shape):
        if size <= limit:
            break
        if axis in kept:
            cuts.append([slice(None)])
            continue
        rest = size // length
        step = max(1, limit // rest)
        cuts.append([slice(i, i + step) for i in range(0, length, step)])
        size = rest * min(step, length)
    return tuple(itertools.product(*cuts))


def _flip(view, reversed_view, table, cos: float, order: str) -> None:
    """view <- cos * view + table * (view with its X/Y axes reversed)."""
    if order == "K":
        flipped = reversed_view * table
    else:
        flipped = np.empty_like(view)
        np.multiply(reversed_view, table, out=flipped, order=order)
    view *= cos
    view += flipped


def _iswap(pair, coefs) -> None:
    # products[k, j] = coefs[k] * pair[j]: each has the operands, in the
    # same order, of c * |01> - (1j*s) * |10> and its mirror taken one
    # product at a time, so the bits are the same.  Three calls instead
    # of nine mean fewer hand-offs of the interpreter lock between chunk
    # threads.
    products = coefs * pair.copy()
    np.subtract(products[0], products[1, ::-1], out=pair)


# Qubits below the lowest X/Y letter, and below this bound, share the
# trailing axis of a view, with their Z signs written out along it: a
# ZX pair on qubits (0, 4) then loops over runs of 16 amplitudes, not 2.
# 2**6 entries keep the table small and the run long enough for numpy.
_MERGED_BELOW = 6
# A diagonal string on at most this many qubits merges all of them: its
# step is one contiguous multiply by a table of at most 2**10 entries
# (16 KiB), where 8 to 10 qubits would otherwise loop over runs of 64.
# Larger registers keep _MERGED_BELOW, so no table grows with them.
_DIAGONAL_MERGED_MAX = 10
# A trailing run shorter than 2**_STRIDED_BELOW amplitudes (an X or Y on
# qubit 0 or 1) is too short for numpy's inner loop, so those steps
# iterate across the runs instead (Fortran order), at a stride of at most
# one cache line (measured at 8, 12 and 16 qubits).
_STRIDED_BELOW = 2


class PauliView:
    """The angle-free part of exp(-i*theta*P): P as a view of the register.

    ``shape`` reshapes a state, or a block of states: one trailing axis
    for the qubits below ``min(lowest X/Y qubit, _MERGED_BELOW)``, or
    for all of them in a diagonal string on ``_DIAGONAL_MERGED_MAX`` or
    fewer qubits, then, going up, one length-2 axis per other support
    qubit and one axis per run of qubits between them, and a leading -1
    axis for the rest and the block rows.  ``layout`` pairs that shape
    with the X/Y axes to reverse, None for a diagonal string; a state
    keys its views by it.  ``signs`` is the +-1 table (-1)**(Z/Y bits
    set) broadcast over the view, None when P holds no Z or Y; ``phase``
    is the constant i**ny * (-1)**ny that P|b> picks up beside it, with
    ny the number of Y letters.
    """

    __slots__ = ("n_qubits", "layout", "signs", "phase", "order")

    def __init__(self, pauli: PauliString):
        letters = pauli.letters
        flips = [q for q, c in enumerate(letters) if c in "XY"]
        merged = min(flips + [len(letters), _MERGED_BELOW])
        if not flips and len(letters) <= _DIAGONAL_MERGED_MAX:
            merged = len(letters)
        low_z = [q for q in range(merged) if letters[q] == "Z"]
        bits = (np.arange(1 << merged)[:, None] >> np.array(low_z, dtype=int)) & 1
        run_signs = 1.0 - 2.0 * (bits.sum(axis=1) % 2) if low_z else [1.0]
        # (length, letter, signs along the axis), lowest qubit first.
        axes = [(1 << merged, "I", run_signs)] if merged else []
        below = merged
        for q, c in enumerate(letters[merged:], merged):
            if c != "I":
                if q > below:
                    axes.append((1 << (q - below), "I", [1.0]))
                axes.append((2, c, [1.0] if c == "X" else [1.0, -1.0]))
                below = q + 1
        axes.append((-1, "I", [1.0]))
        self.n_qubits = len(letters)
        shape, kinds, vectors = zip(*reversed(axes))
        reverse = tuple(i for i, c in enumerate(kinds) if c in "XY")
        self.layout = (shape, reverse if flips else None)
        signs = functools.reduce(np.multiply, np.ix_(*vectors))
        self.signs = None if (signs > 0).all() else signs
        # P|b> = i**ny (-1)**pop(b & zy) |b ^ x>: read at c = b ^ x, the
        # parity of b is that of c times (-1)**pop(x & zy) = (-1)**ny.
        n_y = letters.count("Y")
        self.phase = 1j**n_y * (-1.0 if n_y % 2 else 1.0)
        self.order = "F" if 0 < shape[-1] < 1 << _STRIDED_BELOW else "K"

    def step(self, theta: float) -> tuple:
        """(register size, layout, coefficient table, cos theta, order) at
        ``theta``: what ``StateVector.apply_rotation`` runs."""
        signs = self.signs
        if self.layout[1] is None:
            minus, plus = cmath.exp(-1j * theta), cmath.exp(1j * theta)
            table = minus if signs is None else np.where(signs > 0, minus, plus)
            return self.n_qubits, self.layout, table, 1.0, self.order
        coef = -1j * math.sin(theta) * self.phase
        table = coef if signs is None else coef * signs
        return self.n_qubits, self.layout, table, math.cos(theta), self.order


# A period applies the same few PauliStrings every cycle; building the
# view of one costs tens of microseconds, several rotations' worth.
pauli_view = functools.lru_cache(maxsize=4096)(PauliView)


class StateVector:
    """A 2**n_qubits complex amplitude vector with gate application."""

    __slots__ = ("n_qubits", "_amplitudes", "_views")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray | None = None):
        if n_qubits < 1:
            raise ValueError("register needs at least one qubit")
        if n_qubits > MAX_QUBITS:
            raise ValueError(
                f"register of {n_qubits} qubits exceeds the capacity cap "
                f"of {MAX_QUBITS}"
            )
        self.n_qubits = n_qubits
        # A C-ordered complex128 array of the right shape is kept itself,
        # not copied; anything else is copied once into C order.
        if amplitudes is None:
            amplitudes = np.zeros(1 << n_qubits, dtype=np.complex128)
            amplitudes[0] = 1.0
        else:
            amplitudes = np.ascontiguousarray(amplitudes, dtype=np.complex128)
            if amplitudes.ndim not in (1, 2) or amplitudes.shape[-1] != 1 << n_qubits:
                raise ValueError("amplitude array has wrong shape")
        self._amplitudes = amplitudes
        # By layout: (view, the same with its X/Y axes reversed or None,
        # slabs or None); by ("iswap", a, b): (the |01> and |10> quarters
        # of the pair as one (2, ...) view, slabs or None).
        self._views: dict = {}

    @property
    def amplitudes(self) -> np.ndarray:
        """The state's one array, written in place (``*=`` too), never rebound."""
        return self._amplitudes

    @amplitudes.setter
    def amplitudes(self, array: np.ndarray) -> None:
        if array is not self._amplitudes:
            raise AttributeError("amplitudes are written in place, never rebound")

    @classmethod
    def basis_state(cls, n_qubits: int, index: int = 0) -> "StateVector":
        if not 0 <= index < (1 << n_qubits):
            raise ValueError(f"basis index {index} out of range")
        state = cls(n_qubits)
        if index:
            state.amplitudes[0] = 0.0
            state.amplitudes[index] = 1.0
        return state

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self._amplitudes.copy())

    def __reduce__(self):
        # copy, deepcopy and pickle each clone the array, as copy() does.
        return StateVector, (self.n_qubits, self._amplitudes.copy())

    def norm(self) -> float:
        self._check_one_state()
        return float(np.linalg.norm(self._amplitudes))

    def inner(self, other: "StateVector") -> complex:
        self._check_one_state()
        other._check_one_state()
        return complex(np.vdot(self._amplitudes, other.amplitudes))

    def fidelity(self, other: "StateVector") -> float:
        return abs(self.inner(other)) ** 2

    # -- gate application ------------------------------------------------

    def apply_rotation(
        self, rot: PauliRotation, step: tuple | None = None, part: int | None = None
    ) -> None:
        """Apply exp(-i*theta*P) in place.

        ``step`` is ``pauli_view(P).step(theta)`` made ahead of time, as a
        compiled circuit does; without it the step is made here.
        ``part=k`` applies the gate to slab k alone, for a string below
        qubit CHUNK_QUBITS on a larger register: amplitudes [k * 2**15,
        (k + 1) * 2**15) of the register, or of the block read row after
        row.  That cut is of the leading axis alone, along which the
        step's table is 1 long, so the table applies uncut.
        """
        if step is None:
            step = pauli_view(rot.pauli).step(rot.angle)
        n, layout, table, cos, order = step
        if n != self.n_qubits:
            raise ValueError("rotation register size does not match state")
        view, reversed_view, slabs = self._views.get(layout) or self._take_views(layout)
        if part is not None:
            slab, slabs = slabs[part], None
            view = view[slab]
            reversed_view = None if reversed_view is None else reversed_view[slab]
        if reversed_view is None:
            view *= table
        elif slabs is None:
            # Inline, not a call to _flip: a call costs 3 us of an 8-qubit
            # period's 52.
            if order == "K":
                flipped = reversed_view * table
            else:
                flipped = np.empty_like(view)
                np.multiply(reversed_view, table, out=flipped, order=order)
            view *= cos
            view += flipped
        else:
            # A table is cut with the view; a scalar stays one.
            cut = type(table) is np.ndarray
            tables = np.broadcast_to(table, view.shape) if cut else None
            for slab in slabs:
                slab_table = tables[slab] if cut else table
                _flip(view[slab], reversed_view[slab], slab_table, cos, order)

    def _take_views(self, layout: tuple) -> tuple:
        """Take and keep the views of a step's layout, and their slabs of
        at most 2**CHUNK_QUBITS amplitudes on a larger register."""
        shape, axes = layout
        view = self._amplitudes.reshape(shape)
        slabs = None
        if self.n_qubits > CHUNK_QUBITS:
            slabs = _slabs(view.shape, axes or (), 1 << CHUNK_QUBITS)
        views = (view, None if axes is None else np.flip(view, axes), slabs)
        self._views[layout] = views
        return views

    def apply_single_qubit(self, qubit: int, matrix: np.ndarray) -> None:
        """Apply a 2x2 unitary on one qubit (basis |0>, |1> of that qubit)."""
        self._check_qubit(qubit)
        m = np.asarray(matrix, dtype=np.complex128)
        if m.shape != (2, 2):
            raise ValueError("single-qubit matrix must be 2x2")
        view = self._amplitudes.reshape(-1, 2, 1 << qubit)
        a = view[:, 0, :].copy()
        b = view[:, 1, :]
        view[:, 0, :] = m[0, 0] * a + m[0, 1] * b
        view[:, 1, :] = m[1, 0] * a + m[1, 1] * b

    def apply_two_qubit(self, qubit_a: int, qubit_b: int, matrix: np.ndarray) -> None:
        """Apply a 4x4 unitary on (qubit_a, qubit_b).

        The 4x4 basis index is b_a + 2*b_b: the first listed qubit is the
        least significant bit of the matrix index.
        """
        self._check_qubit(qubit_a)
        self._check_qubit(qubit_b)
        if qubit_a == qubit_b:
            raise ValueError("two-qubit gate needs distinct qubits")
        m = np.asarray(matrix, dtype=np.complex128)
        if m.shape != (4, 4):
            raise ValueError("two-qubit matrix must be 4x4")
        hi, lo = max(qubit_a, qubit_b), min(qubit_a, qubit_b)
        view = self._amplitudes.reshape(
            -1, 2, 1 << (hi - lo - 1), 2, 1 << lo
        )
        # blocks[m] with m = b_a + 2*b_b
        blocks = []
        for bb in (0, 1):
            for ba in (0, 1):
                bits = {qubit_a: ba, qubit_b: bb}
                blocks.append(view[:, bits[hi], :, bits[lo], :])
        olds = [blk.copy() for blk in blocks]
        for r in range(4):
            acc = m[r, 0] * olds[0]
            for c in range(1, 4):
                acc += m[r, c] * olds[c]
            blocks[r][...] = acc

    def apply_iswap(
        self,
        qubit_a: int,
        qubit_b: int,
        *,
        angle: float = math.pi / 4,
        part: int | None = None,
    ) -> None:
        """Apply exp(-i*angle*(XX+YY)) on the pair.

        At angle pi/4 this is the iSWAP convention used throughout: |01> and
        |10> swap with a factor -i, |00> and |11> are untouched; -pi/4 is
        its inverse.  ``part=k`` applies it to slab k alone, as in
        ``apply_rotation``, for a pair below qubit CHUNK_QUBITS.
        """
        key = ("iswap", qubit_a, qubit_b)
        pair, slabs = self._views.get(key) or self._take_pair_view(key)
        coefs = np.array([math.cos(2 * angle), 1j * math.sin(2 * angle)])
        coefs = coefs[:, None, None, None, None]
        if part is not None:
            pair, slabs = pair[slabs[part]], None
        if slabs is None:
            _iswap(pair, coefs)
        else:
            for slab in slabs:
                _iswap(pair[slab], coefs)

    def _take_pair_view(self, key: tuple) -> tuple:
        """Take and keep the |01> and |10> quarters of an iSWAP's pair as
        one ``(2, ...)`` view, with its slabs of at most 2**CHUNK_QUBITS
        amplitudes on a larger register."""
        _, qubit_a, qubit_b = key
        self._check_qubit(qubit_a)
        self._check_qubit(qubit_b)
        if qubit_a == qubit_b:
            raise ValueError("iSWAP needs distinct qubits")
        hi, lo = max(qubit_a, qubit_b), min(qubit_a, qubit_b)
        view = self._amplitudes.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
        rows, _, middle, _, low = view.shape
        row_step, hi_step, middle_step, lo_step, low_step = view.strides
        # |10> sits one step up qubit hi and one step down qubit lo from |01>.
        pair = as_strided(
            view[:, 0, :, 1, :],
            (2, rows, middle, low),
            (hi_step - lo_step, row_step, middle_step, low_step),
        )
        # A slab of the pair holds half the amplitudes it spans.
        slabs = None
        if self.n_qubits > CHUNK_QUBITS:
            slabs = _slabs(pair.shape, (0,), 1 << (CHUNK_QUBITS - 1))
        self._views[key] = pair, slabs
        return pair, slabs

    # -- measurement -----------------------------------------------------

    def expectation_z(self, qubit: int) -> float:
        """<Z_qubit>: bit value 0 counts as +1."""
        self._check_one_state()
        self._check_qubit(qubit)
        amps = self._amplitudes
        if amps.size <= _READOUT_PIECE:
            return float((np.abs(amps) ** 2).dot(_z_sign(self.n_qubits, qubit)))
        return float(self._z_sums((qubit,))[0])

    def expectation_z_all(self) -> np.ndarray:
        self._check_one_state()
        amps = self._amplitudes
        if amps.size <= _READOUT_PIECE:
            # ndarray.dot runs the ddot of np.dot without its
            # __array_function__ dispatch, about a quarter of an 8-qubit
            # readout.
            probs = np.abs(amps) ** 2
            return np.array([probs.dot(z) for z in _z_signs(self.n_qubits)])
        return self._z_sums(range(self.n_qubits))

    def _z_sums(self, qubits) -> np.ndarray:
        """<Z_q> for the ``qubits`` q, in increasing order, of a register of
        more than 2**13 amplitudes: the sum from 0, in order, of one
        ``ddot`` per 2**13-amplitude piece of |psi|**2 with the signs of q.
        Only the sign vectors of those qubits are fetched."""
        amps = self._amplitudes
        low = [_z_sign(_PIECE_QUBITS, q) for q in qubits if q < _PIECE_QUBITS]
        # The sign of qubit 13 + j is constant on a piece: on piece k it
        # is (-1)**(bit j of k), entry k of qubit j's vector, times the
        # piece's dot with ones.  Row k of ``high`` holds those of piece k.
        pieces = amps.size >> _PIECE_QUBITS
        high = [
            _z_sign(_PIECE_QUBITS, q - _PIECE_QUBITS)[:pieces]
            for q in qubits[len(low) :]
        ]
        high = np.array(high).T if high else None
        ones = None if high is None else _z_sign(_PIECE_QUBITS, _PIECE_QUBITS)
        sums = np.zeros(len(qubits))
        dots = np.empty_like(sums)
        probs = np.empty(_READOUT_PIECE)
        # np.square is what ``** 2`` runs; ``sums += dots`` adds each
        # qubit's dot of piece k to its sum, in order from 0.
        for k, piece in enumerate(amps.reshape(-1, _READOUT_PIECE)):
            np.square(np.abs(piece, out=probs), out=probs)
            for i, z in enumerate(low):
                dots[i] = probs.dot(z)
            if high is not None:
                np.multiply(high[k], probs.dot(ones), out=dots[len(low) :])
            sums += dots
        return sums

    def average_z(self) -> float:
        """(1/Q) sum_q <Z_q>."""
        return float(self.expectation_z_all().mean())

    def sample_z(self, qubit: int, shots: int, rng: np.random.Generator) -> float:
        """Empirical mean of +-1 outcomes from ``shots`` Z measurements."""
        if shots < 1:
            raise ValueError("shots must be positive")
        p_plus = (1.0 + self.expectation_z(qubit)) / 2.0
        p_plus = min(1.0, max(0.0, p_plus))
        hits = int(rng.binomial(shots, p_plus))
        return (2 * hits - shots) / shots

    def _check_one_state(self) -> None:
        if self._amplitudes.ndim != 1:
            shape = self._amplitudes.shape
            raise ValueError(f"readouts and norms need one state, not a block {shape}")

    def _check_qubit(self, q: int) -> None:
        if not 0 <= q < self.n_qubits:
            raise ValueError(f"qubit {q} outside register of size {self.n_qubits}")
