"""Dense-matrix oracles shared by the test modules.

Everything here is built by Kronecker products straight from the
textbook gate definitions, so the oracles share no code with the
bitmask kernels they check.  Qubit q occupies bit q of the basis index
(qubit 0 is the least significant bit), matching StateVector.
"""

import numpy as np
import pytest
from hypothesis import settings

# Property tests replay the same examples on every run and keep no
# example database; each test sets only its own max_examples.
settings.register_profile("repdtc", derandomize=True, database=None, deadline=None)
settings.load_profile("repdtc")

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_pauli(n_qubits, ops, phase=1.0):
    """Matrix of phase * prod_q letter_q with qubit 0 as the low bit."""
    out = np.array([[phase]], dtype=complex)
    for q in reversed(range(n_qubits)):
        out = np.kron(out, PAULI[ops.get(q, "I")])
    return out


def dense_rotation(n_qubits, ops, theta, phase=1.0):
    """exp(-i*theta*P) for a Pauli string P (P squares to identity)."""
    p = dense_pauli(n_qubits, ops, phase)
    dim = 1 << n_qubits
    return np.cos(theta) * np.eye(dim) - 1j * np.sin(theta) * p


def dense_cnot(n_qubits, control, target):
    dim = 1 << n_qubits
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        j = i ^ (1 << target) if (i >> control) & 1 else i
        m[j, i] = 1.0
    return m


def dense_multi_cnot(n_qubits, controls, target):
    """Flip ``target`` iff every control bit is set."""
    dim = 1 << n_qubits
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        if all((i >> c) & 1 for c in controls):
            m[i ^ (1 << target), i] = 1.0
        else:
            m[i, i] = 1.0
    return m


def dense_iswap(n_qubits, qubit_a, qubit_b, inverse=False):
    """exp(-i*pi/4*(XX+YY)): |01>,|10> swap with a -i factor."""
    sign = +1.0 if not inverse else -1.0
    xx = dense_rotation(n_qubits, {qubit_a: "X", qubit_b: "X"}, sign * np.pi / 4)
    yy = dense_rotation(n_qubits, {qubit_a: "Y", qubit_b: "Y"}, sign * np.pi / 4)
    return xx @ yy


def circuit_unitary(apply_fn, n_qubits):
    """Column-probe any apply(state) callable into a dense matrix."""
    from repdtc import StateVector

    dim = 1 << n_qubits
    cols = np.empty((dim, dim), dtype=complex)
    for i in range(dim):
        state = StateVector.basis_state(n_qubits, i)
        apply_fn(state)
        cols[:, i] = state.amplitudes
    return cols


def phase_distance(a, b):
    """Operator distance up to one global phase."""
    ref = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[ref]) < 1e-12 or abs(a[ref]) < 1e-12:
        return float(np.linalg.norm(a - b))
    phase = a[ref] / b[ref]
    phase /= abs(phase)
    return float(np.linalg.norm(a - phase * b))


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)
