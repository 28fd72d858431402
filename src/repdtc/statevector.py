"""Dense statevector engine for up to 24 qubits.

Basis convention: bit q of a basis index is the state of qubit q
(least significant bit = qubit 0), and bit value 0 corresponds to Z
eigenvalue +1.  Pauli rotations exp(-i*theta*P) are applied analytically
as cos(theta)*psi - i*sin(theta)*(P psi), so no gate matrix is ever
exponentiated.  A weight-1 rotation works in place on the two halves of
an ``amplitudes.reshape(-1, 2, 2**q)`` view with scalar coefficients;
a multi-qubit string gathers its flipped amplitudes through a cached
index array.  The amplitudes hold one state, shape ``(2**n,)``, or a
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

# Per-register-size caches reused across gate applications: basis index
# arrays, xor-gather indices keyed by flip mask, and (-1)**parity sign
# vectors keyed by Z/Y mask.  Each entry is as long as the register and
# is shared by every StateVector of the same size; only multi-qubit
# strings and the Z readout fill them.
_INDEX_CACHE: dict[int, np.ndarray] = {}
_FLIP_CACHE: dict[tuple[int, int], np.ndarray] = {}
_SIGN_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _indices(n: int) -> np.ndarray:
    got = _INDEX_CACHE.get(n)
    if got is None:
        got = np.arange(1 << n, dtype=np.uint64)
        _INDEX_CACHE[n] = got
    return got


def _flip_indices(n: int, x_mask: int) -> np.ndarray:
    got = _FLIP_CACHE.get((n, x_mask))
    if got is None:
        got = (_indices(n) ^ np.uint64(x_mask)).astype(np.intp)
        _FLIP_CACHE[(n, x_mask)] = got
    return got


def _parity_signs(n: int, mask: int) -> np.ndarray:
    """Vector of (-1)**popcount(index & mask) over all basis indices."""
    got = _SIGN_CACHE.get((n, mask))
    if got is None:
        v = _indices(n) & np.uint64(mask)
        for shift in (32, 16, 8, 4, 2, 1):
            v = v ^ (v >> np.uint64(shift))
        got = 1.0 - 2.0 * (v & np.uint64(1)).astype(np.float64)
        _SIGN_CACHE[(n, mask)] = got
    return got


# A period applies the same few PauliStrings every cycle; scanning the
# letters each time costs about 2 us, a fifth of an 8-qubit rotation.
@functools.lru_cache(maxsize=4096)
def _masks(pauli: PauliString) -> tuple[int, int, int]:
    """(zy_mask, x_mask, n_y): sign bits, flip bits, and Y count."""
    zy = x = ny = 0
    for q, c in enumerate(pauli.letters):
        if c in ("Z", "Y"):
            zy |= 1 << q
        if c in ("X", "Y"):
            x |= 1 << q
        if c == "Y":
            ny += 1
    return zy, x, ny


# Below this qubit the contiguous runs of 2**q amplitudes in a
# ``reshape(-1, 2, 2**q)`` view are too short for numpy's inner loop, so
# the kernels iterate across the runs instead (Fortran order), at a
# stride of at most one cache line (measured at 8, 12 and 16 qubits).
_STRIDED_BELOW = 2


def _rotate_qubit(amp: np.ndarray, q: int, flips: bool, ny: int, theta: float):
    """exp(-i*theta*P) for P = X, Y or Z on qubit q, in place.

    ``view[:, b, :]`` holds the amplitudes whose bit q is b.  The scalar
    coefficients are those of the multi-qubit gather path, so both paths
    round alike.
    """
    view = amp.reshape(-1, 2, 1 << q)
    order = "F" if q < _STRIDED_BELOW else "K"
    if not flips:
        phases = np.array([[cmath.exp(-1j * theta)], [cmath.exp(1j * theta)]])
        np.multiply(view, phases, out=view, order=order)
        return
    # X|b> = |1-b> and Y|b> = i(-1)**b |1-b>: the flipped view times one
    # scalar, whose sign Y turns over on the bit-1 half.
    coef = -1j * math.sin(theta) * (1j**ny) * (-1.0 if ny else 1.0)
    if ny:
        coef = np.array([[coef], [-coef]])
    flipped = np.empty_like(amp)
    np.multiply(view[:, ::-1, :], coef, out=flipped.reshape(view.shape), order=order)
    amp *= math.cos(theta)
    amp += flipped


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

    def apply_rotation(self, rot: PauliRotation) -> None:
        """Apply exp(-i*theta*P) in place."""
        if rot.n_qubits != self.n_qubits:
            raise ValueError("rotation register size does not match state")
        zy, x, ny = _masks(rot.pauli)
        theta = rot.angle
        amp = self.amplitudes
        support = zy | x
        if support == 0:
            amp *= cmath.exp(-1j * theta)
            return
        if support & (support - 1) == 0:
            _rotate_qubit(amp, support.bit_length() - 1, x != 0, ny, theta)
            return
        if x == 0:
            signs = _parity_signs(self.n_qubits, zy)
            phases = np.where(signs > 0, cmath.exp(-1j * theta), cmath.exp(1j * theta))
            amp *= phases
            return
        flip = _flip_indices(self.n_qubits, x)
        signs = _parity_signs(self.n_qubits, zy)
        # P|b> = i**ny * (-1)**pop(b & zy) |b ^ x|, so the gathered
        # amplitude at c picks up the parity of c ^ x: a constant
        # popcount(x & zy) offset on top of the parity at c itself.
        const = 1.0 if bin(x & zy).count("1") % 2 == 0 else -1.0
        coef = -1j * math.sin(theta) * (1j**ny) * const
        gathered = amp.take(flip, axis=-1)
        gathered *= signs
        self.amplitudes = math.cos(theta) * amp + coef * gathered

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
        signs = _parity_signs(self.n_qubits, 1 << qubit)
        return float(np.dot(self.probabilities(), signs))

    def expectation_z_all(self) -> np.ndarray:
        probs = self.probabilities()
        out = np.empty(self.n_qubits)
        for q in range(self.n_qubits):
            out[q] = np.dot(probs, _parity_signs(self.n_qubits, 1 << q))
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
