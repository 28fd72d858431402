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
acts on each row alike, while the readouts need one state.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .pauli import PauliRotation, PauliString

MAX_QUBITS = 24

# (-1)**(bit q) vectors keyed by (register size, q): the operands of the
# BLAS ``ddot`` in the Z readout.  No gate reads or fills them.
_SIGN_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _z_signs(n: int, qubit: int) -> np.ndarray:
    if (n, qubit) not in _SIGN_CACHE:
        _SIGN_CACHE[n, qubit] = 1.0 - 2.0 * ((np.arange(1 << n) >> qubit) & 1)
    return _SIGN_CACHE[n, qubit]


# Qubits below the lowest X/Y letter, and below this bound, share the
# trailing axis of a view, with their Z signs written out along it: a
# ZX pair on qubits (0, 4) then loops over runs of 16 amplitudes, not 2.
# 2**6 entries keep the table small and the run long enough for numpy.
_MERGED_BELOW = 6
# A trailing run shorter than 2**_STRIDED_BELOW amplitudes (an X or Y on
# qubit 0 or 1) is too short for numpy's inner loop, so those steps
# iterate across the runs instead (Fortran order), at a stride of at most
# one cache line (measured at 8, 12 and 16 qubits).
_STRIDED_BELOW = 2


class PauliView:
    """The angle-free part of exp(-i*theta*P): P as a view of the register.

    ``shape`` reshapes a state, or a block of states: one trailing axis
    for the qubits below ``min(lowest X/Y qubit, _MERGED_BELOW)``, then,
    going up, one length-2 axis per other support qubit and one axis per
    run of qubits between them, and a leading -1 axis for the rest and
    the block rows.  ``flip`` indexes that view with the X/Y axes
    reversed, None for a diagonal string.  ``signs`` is the +-1 table
    (-1)**(Z/Y bits set) broadcast over the view, None when P holds no Z
    or Y; ``phase`` is the constant i**ny * (-1)**ny that P|b> picks up
    beside it, with ny the number of Y letters.
    """

    __slots__ = ("shape", "flip", "signs", "phase", "order")

    def __init__(self, pauli: PauliString):
        letters = pauli.letters
        flips = [q for q, c in enumerate(letters) if c in "XY"]
        merged = min(flips + [len(letters), _MERGED_BELOW])
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
        self.shape, kinds, vectors = zip(*reversed(axes))
        reverse = tuple(slice(None, None, -1 if c in "XY" else 1) for c in kinds)
        self.flip = reverse if flips else None
        signs = functools.reduce(np.multiply, np.ix_(*vectors))
        self.signs = None if (signs > 0).all() else signs
        # P|b> = i**ny (-1)**pop(b & zy) |b ^ x>: read at c = b ^ x, the
        # parity of b is that of c times (-1)**pop(x & zy) = (-1)**ny.
        n_y = letters.count("Y")
        self.phase = 1j**n_y * (-1.0 if n_y % 2 else 1.0)
        self.order = "F" if 0 < self.shape[-1] < 1 << _STRIDED_BELOW else "K"

    def step(self, theta: float) -> tuple:
        """(shape, flip, coefficient table, cos theta, order) at ``theta``:
        what ``StateVector.apply_rotation`` runs."""
        signs = self.signs
        if self.flip is None:
            minus, plus = cmath.exp(-1j * theta), cmath.exp(1j * theta)
            table = minus if signs is None else np.where(signs > 0, minus, plus)
            return self.shape, None, table, 1.0, self.order
        coef = -1j * math.sin(theta) * self.phase
        table = coef if signs is None else coef * signs
        return self.shape, self.flip, table, math.cos(theta), self.order


# A period applies the same few PauliStrings every cycle; building the
# view of one costs tens of microseconds, several rotations' worth.
pauli_view = functools.lru_cache(maxsize=4096)(PauliView)


class StateVector:
    """A 2**n_qubits complex amplitude vector with gate application."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray | None = None):
        if n_qubits < 1:
            raise ValueError("register needs at least one qubit")
        if n_qubits > MAX_QUBITS:
            raise ValueError(
                f"register of {n_qubits} qubits exceeds the capacity cap "
                f"of {MAX_QUBITS}"
            )
        self.n_qubits = n_qubits
        if amplitudes is None:
            amplitudes = np.zeros(1 << n_qubits, dtype=np.complex128)
            amplitudes[0] = 1.0
        else:
            amplitudes = np.ascontiguousarray(amplitudes, dtype=np.complex128)
            if amplitudes.ndim not in (1, 2) or amplitudes.shape[-1] != 1 << n_qubits:
                raise ValueError("amplitude array has wrong shape")
        self.amplitudes = amplitudes

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
        return StateVector(self.n_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def inner(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "StateVector") -> float:
        return abs(self.inner(other)) ** 2

    # -- gate application ------------------------------------------------

    def apply_rotation(self, rot: PauliRotation, step: tuple | None = None) -> None:
        """Apply exp(-i*theta*P) in place.

        ``step`` is ``pauli_view(P).step(theta)`` made ahead of time, as a
        compiled circuit does; without it the step is made here.
        """
        if rot.n_qubits != self.n_qubits:
            raise ValueError("rotation register size does not match state")
        if step is None:
            step = pauli_view(rot.pauli).step(rot.angle)
        shape, flip, table, cos, order = step
        view = self.amplitudes.reshape(shape)
        if flip is None:
            view *= table
            return
        if order == "K":
            flipped = view[flip] * table
        else:
            flipped = np.empty_like(view)
            np.multiply(view[flip], table, out=flipped, order=order)
        view *= cos
        view += flipped

    def apply_single_qubit(self, qubit: int, matrix: np.ndarray) -> None:
        """Apply a 2x2 unitary on one qubit (basis |0>, |1> of that qubit)."""
        self._check_qubit(qubit)
        m = np.asarray(matrix, dtype=np.complex128)
        if m.shape != (2, 2):
            raise ValueError("single-qubit matrix must be 2x2")
        view = self.amplitudes.reshape(-1, 2, 1 << qubit)
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
        view = self.amplitudes.reshape(
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
        self, qubit_a: int, qubit_b: int, *, angle: float = math.pi / 4
    ) -> None:
        """Apply exp(-i*angle*(XX+YY)) on the pair.

        At angle pi/4 this is the iSWAP convention used throughout: |01> and
        |10> swap with a factor -i, |00> and |11> are untouched; -pi/4 is
        its inverse.
        """
        self._check_qubit(qubit_a)
        self._check_qubit(qubit_b)
        if qubit_a == qubit_b:
            raise ValueError("iSWAP needs distinct qubits")
        c = math.cos(2 * angle)
        s = math.sin(2 * angle)
        hi, lo = max(qubit_a, qubit_b), min(qubit_a, qubit_b)
        view = self.amplitudes.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
        v01 = view[:, 0, :, 1, :]
        v10 = view[:, 1, :, 0, :]
        old01 = v01.copy()
        v01[...] = c * old01 - 1j * s * v10
        v10[...] = c * v10 - 1j * s * old01

    # -- measurement -----------------------------------------------------

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def expectation_z(self, qubit: int) -> float:
        """<Z_qubit>: bit value 0 counts as +1."""
        self._check_qubit(qubit)
        return float(np.dot(self.probabilities(), _z_signs(self.n_qubits, qubit)))

    def expectation_z_all(self) -> np.ndarray:
        probs = self.probabilities()
        out = np.empty(self.n_qubits)
        for q in range(self.n_qubits):
            out[q] = np.dot(probs, _z_signs(self.n_qubits, q))
        return out

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

    def _check_qubit(self, q: int) -> None:
        if not 0 <= q < self.n_qubits:
            raise ValueError(f"qubit {q} outside register of size {self.n_qubits}")
