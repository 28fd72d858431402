import cmath
import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repdtc import PauliRotation, PauliString, StateVector
from repdtc.compiler import Circuit
from repdtc.statevector import CHUNK_QUBITS, MAX_QUBITS, pauli_view

from conftest import dense_iswap, dense_pauli, dense_rotation


def random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps)


class TestConstruction:
    def test_default_is_all_zero(self):
        s = StateVector(3)
        assert s.amplitudes[0] == 1.0
        assert s.norm() == pytest.approx(1.0)

    def test_basis_state_index(self):
        s = StateVector.basis_state(3, 5)
        assert s.amplitudes[5] == 1.0
        assert np.count_nonzero(s.amplitudes) == 1

    def test_rejects_oversized_register(self):
        with pytest.raises(ValueError):
            StateVector(MAX_QUBITS + 1)

    def test_rejects_bad_amplitude_length(self):
        with pytest.raises(ValueError):
            StateVector(2, np.ones(3))

    def test_rejects_bad_basis_index(self):
        with pytest.raises(ValueError):
            StateVector.basis_state(2, 4)


class TestApplyRotation:
    def test_identity_generator_is_global_phase(self):
        s = StateVector.basis_state(2, 1)
        s.apply_rotation(PauliRotation(PauliString.identity(2), 0.7))
        assert s.amplitudes[1] == pytest.approx(np.exp(-0.7j))

    def test_diagonal_generator(self):
        s = StateVector.basis_state(1, 1)
        s.apply_rotation(PauliRotation(PauliString.from_ops(1, {0: "Z"}), 0.3))
        # Z|1> = -|1>, so exp(-i*theta*Z)|1> = e^{+i*theta}|1>.
        assert s.amplitudes[1] == pytest.approx(np.exp(0.3j))

    def test_x_rotation_mixes(self):
        s = StateVector.basis_state(1, 0)
        s.apply_rotation(PauliRotation(PauliString.from_ops(1, {0: "X"}), math.pi / 2))
        # exp(-i*pi/2*X) = -iX up to numerics.
        assert s.amplitudes[0] == pytest.approx(0.0)
        assert s.amplitudes[1] == pytest.approx(-1j)

    def test_matches_dense_on_random_states(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 5))
            ops = {
                int(q): str(rng.choice(("X", "Y", "Z")))
                for q in rng.choice(n, size=rng.integers(1, n + 1), replace=False)
            }
            theta = float(rng.normal())
            s = random_state(rng, n)
            want = dense_rotation(n, ops, theta) @ s.amplitudes
            s.apply_rotation(PauliRotation(PauliString.from_ops(n, ops), theta))
            assert np.allclose(s.amplitudes, want, atol=1e-12)

    def test_norm_preserved(self, rng):
        s = random_state(rng, 4)
        for _ in range(20):
            ops = {int(rng.integers(4)): "Y", int(rng.integers(4)): "X"}
            s.apply_rotation(
                PauliRotation(PauliString.from_ops(4, ops), float(rng.normal()))
            )
        assert s.norm() == pytest.approx(1.0, abs=1e-12)

    def test_register_mismatch(self):
        s = StateVector(2)
        with pytest.raises(ValueError):
            s.apply_rotation(PauliRotation(PauliString.from_ops(3, {0: "X"}), 0.1))

    @pytest.mark.parametrize("letter", ["X", "Y", "Z"])
    @pytest.mark.parametrize("theta", [0.0, math.pi / 4, -math.pi / 4, math.pi / 2, 0.3])
    def test_weight_one_matches_dense_on_every_qubit(self, rng, letter, theta):
        for n in range(1, 6):
            for q in range(n):
                s = random_state(rng, n)
                want = dense_rotation(n, {q: letter}, theta) @ s.amplitudes
                s.apply_rotation(
                    PauliRotation(PauliString.from_ops(n, {q: letter}), theta)
                )
                assert np.allclose(s.amplitudes, want, atol=1e-12, rtol=0)

    def test_multi_qubit_rotations_keep_no_register_sized_array(self, rng):
        n = 16
        state = random_state(rng, n)
        rotations = [
            PauliRotation(PauliString.from_ops(n, ops), 0.3)
            for ops in (
                {2: "Z", 9: "Z", 13: "Z"},
                {0: "Z", 11: "X"},
                {1: "Y", 6: "Z", 12: "Y"},
                {0: "X", 1: "Y"},
            )
        ]
        tracemalloc.start()
        try:
            for rot in rotations:
                state.apply_rotation(rot)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Under one byte per amplitude: no index, flip or sign vector.
        assert kept < 1 << n

    @pytest.mark.parametrize("n", [3, 8, 10])
    def test_diagonal_step_is_the_flat_phase_multiply(self, rng, n):
        index = np.arange(1 << n)
        for _ in range(20):
            support = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
            theta = float(rng.normal())
            parity = sum((index >> int(q)) & 1 for q in support) % 2
            s = random_state(rng, n)
            want = s.amplitudes * np.where(
                parity == 0, cmath.exp(-1j * theta), cmath.exp(1j * theta)
            )
            pauli = PauliString.from_ops(n, {int(q): "Z" for q in support})
            # One contiguous multiply over the register.
            assert pauli_view(pauli).layout == ((-1, 1 << n), None)
            s.apply_rotation(PauliRotation(pauli, theta))
            assert np.array_equal(s.amplitudes, want)

    @pytest.mark.parametrize("n", [16, 20])
    def test_diagonal_step_tables_stay_small(self, rng, n):
        for _ in range(50):
            support = rng.choice(n, size=rng.integers(1, 5), replace=False)
            pauli = PauliString.from_ops(n, {int(q): "Z" for q in support})
            table = pauli_view(pauli).step(0.3)[2]
            assert np.size(table) <= 1 << 10


@st.composite
def pauli_rotations(draw):
    n = draw(st.integers(1, 7))
    support = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=min(6, n), unique=True)
    )
    ops = {q: draw(st.sampled_from("XYZ")) for q in support}
    theta = draw(st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False))
    return n, ops, theta


@settings(max_examples=200)
@given(pauli_rotations(), st.integers(0, 2**32 - 1))
def test_rotation_matches_dense_matrix_exponential(case, seed):
    """One state, a (3, 2**n) block, and a compiled circuit applying its
    one step three times, each against the dense exponential."""
    n, ops, theta = case
    p = dense_pauli(n, ops)
    eigvals, vecs = np.linalg.eigh(p)
    expm = (vecs * np.exp(-1j * theta * eigvals)) @ vecs.conj().T
    rng = np.random.default_rng(seed)
    rot = PauliRotation(PauliString.from_ops(n, ops), theta)
    s = random_state(rng, n)
    want = expm @ s.amplitudes
    s.apply_rotation(rot)
    assert np.max(np.abs(s.amplitudes - want)) <= 1e-12
    block = rng.normal(size=(3, 1 << n)) + 1j * rng.normal(size=(3, 1 << n))
    block /= np.linalg.norm(block, axis=1, keepdims=True)
    want = block @ expm.T
    s = StateVector(n, block)
    s.apply_rotation(rot)
    assert np.max(np.abs(s.amplitudes - want)) <= 1e-12
    circuit = Circuit(n, (rot,))
    s = random_state(rng, n)
    want = np.linalg.matrix_power(expm, 3) @ s.amplitudes
    for _ in range(3):
        circuit.apply_to(s)
    assert np.max(np.abs(s.amplitudes - want)) <= 1e-12


class TestMatrixGates:
    def test_single_qubit_matches_dense(self, rng):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        for q in range(3):
            s = random_state(rng, 3)
            want = dense_embed_single(3, q, h) @ s.amplitudes
            s.apply_single_qubit(q, h)
            assert np.allclose(s.amplitudes, want, atol=1e-12)

    def test_two_qubit_matches_dense(self, rng):
        m = random_unitary4(rng)
        for a, b in ((0, 1), (2, 0), (1, 2)):
            s = random_state(rng, 3)
            want = dense_embed_pair(3, a, b, m) @ s.amplitudes
            s.apply_two_qubit(a, b, m)
            assert np.allclose(s.amplitudes, want, atol=1e-12)

    def test_iswap_matches_formula(self, rng):
        for a, b in ((0, 1), (1, 3), (3, 0)):
            for inverse in (False, True):
                s = random_state(rng, 4)
                want = dense_iswap(4, a, b, inverse) @ s.amplitudes
                s.apply_iswap(a, b, angle=-math.pi / 4 if inverse else math.pi / 4)
                assert np.allclose(s.amplitudes, want, atol=1e-12)

    @pytest.mark.parametrize("rows", [None, 3])
    def test_iswap_is_bit_equal_to_one_product_at_a_time(self, rng, rows):
        # The kernel takes its four products in one call; each must keep
        # the bits of c * |01> - (1j*s) * |10> and its mirror, signed
        # zeros included, through the views it keeps between calls.
        n = 5
        shape = (1 << n,) if rows is None else (rows, 1 << n)
        start = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        start.real[rng.random(shape) < 0.1] = -0.0
        start.imag[rng.random(shape) < 0.1] = 0.0
        for a, b in ((0, 1), (1, 3), (4, 0), (2, 4)):
            want = start.copy()
            state = StateVector(n, start.copy())
            for angle in (math.pi / 4, -math.pi / 4, 0.3):
                c, s = math.cos(2 * angle), math.sin(2 * angle)
                hi, lo = max(a, b), min(a, b)
                view = want.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
                v01, v10 = view[:, 0, :, 1, :], view[:, 1, :, 0, :]
                old01 = v01.copy()
                v01[...] = c * old01 - 1j * s * v10
                v10[...] = c * v10 - 1j * s * old01
                state.apply_iswap(a, b, angle=angle)
                assert np.array_equal(
                    state.amplitudes.view(np.uint64), want.view(np.uint64)
                )

    def test_iswap_action_on_01(self):
        s = StateVector.basis_state(2, 1)
        s.apply_iswap(0, 1)
        assert s.amplitudes[2] == pytest.approx(-1j)

    def test_iswap_rejects_same_qubit(self):
        with pytest.raises(ValueError):
            StateVector(2).apply_iswap(1, 1)


def dense_embed_single(n, qubit, matrix):
    out = np.array([[1.0]], dtype=complex)
    for q in reversed(range(n)):
        out = np.kron(out, matrix if q == qubit else np.eye(2))
    return out


def dense_embed_pair(n, qubit_a, qubit_b, matrix):
    """Embed a 4x4 on (a, b); a is the low bit of the gate basis index."""
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        rest = i & ~((1 << qubit_a) | (1 << qubit_b))
        col = ((i >> qubit_a) & 1) | (((i >> qubit_b) & 1) << 1)
        for row in range(4):
            j = rest | ((row & 1) << qubit_a) | ((row >> 1) << qubit_b)
            out[j, i] = matrix[row, col]
    return out


def random_unitary4(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(m)
    return q


def test_block_evolves_each_row_as_one_state(rng):
    """Every kernel on a (B, 2**n) block equals, bit for bit, row by row."""
    n = 5
    block = rng.normal(size=(3, 1 << n)) + 1j * rng.normal(size=(3, 1 << n))

    def rotation(ops, theta):
        rot = PauliRotation(PauliString.from_ops(n, ops), theta)
        return lambda s: s.apply_rotation(rot)

    u2, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    u4 = random_unitary4(rng)
    kernels = [rotation({}, 0.4)]
    kernels += [
        rotation({q: letter}, 0.3) for q in (0, 1, n - 1) for letter in "XYZ"
    ]
    kernels += [
        rotation({0: "Z", 2: "Z", 4: "Z"}, 0.7),
        rotation({1: "Z", 3: "X"}, -0.6),
        rotation({0: "Y", 4: "Y"}, 1.1),
        lambda s: s.apply_iswap(1, 3, angle=math.pi / 4),
        lambda s: s.apply_iswap(4, 0, angle=-math.pi / 4),
        lambda s: s.apply_single_qubit(2, u2),
        lambda s: s.apply_two_qubit(3, 1, u4),
    ]
    for kernel in kernels:
        for order in "CF":
            state = StateVector(n, np.array(block, order=order))
            kernel(state)
            for row, got in zip(block, state.amplitudes):
                alone = StateVector(n, row.copy())
                kernel(alone)
                assert np.array_equal(got, alone.amplitudes)
    for bad in (np.ones((2, 2, 1 << n)), np.ones((2, (1 << n) + 1))):
        with pytest.raises(ValueError):
            StateVector(n, bad)


def step_circuit(n):
    """A circuit whose steps flip, sign and phase on several layouts."""
    ops = ({0: "X"}, {1: "Y", 3: "Z"}, {0: "Z", 2: "Z"}, {2: "X", 3: "X"}, {1: "Z"})
    return Circuit(
        n,
        tuple(
            PauliRotation(PauliString.from_ops(n, o), 0.3 + 0.2 * i)
            for i, o in enumerate(ops)
        ),
    )


class TestStepViews:
    """A state reuses its step views until ``amplitudes`` is replaced."""

    @pytest.mark.parametrize("rows, order", [(None, "C"), (3, "C"), (3, "F")])
    def test_replaced_amplitudes_are_evolved(self, rng, rows, order):
        n = 4
        circuit = step_circuit(n)
        shape = (1 << n,) if rows is None else (rows, 1 << n)
        state = StateVector(n, rng.normal(size=shape) + 0j)
        circuit.apply_to(state)
        mat = np.linalg.qr(rng.normal(size=(1 << n, 1 << n)))[0]
        # A new array, here in either order.
        state.amplitudes = np.array(state.amplitudes @ mat.T, order=order)
        fresh = StateVector(n, state.amplitudes.copy())
        circuit.apply_to(state)
        circuit.apply_to(fresh)
        assert np.array_equal(state.amplitudes, fresh.amplitudes)

    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))]
    )
    def test_clone_evolves_its_own_amplitudes(self, rng, clone):
        n = 4
        circuit = step_circuit(n)
        state = StateVector(n, rng.normal(size=1 << n) + 0j)
        circuit.apply_to(state)
        other = clone(state)
        fresh = StateVector(n, state.amplitudes.copy())
        circuit.apply_to(other)
        circuit.apply_to(fresh)
        assert np.array_equal(other.amplitudes, fresh.amplitudes)

    def test_chunks_share_memory_until_amplitudes_are_replaced(self, rng):
        n = 5
        state = StateVector(n, rng.normal(size=(2, 1 << n)) + 0j)
        chunks = state.chunks(3)
        assert len(chunks) == 8 and state.chunks(3) is chunks
        chunks[5].amplitudes[1] = 7.0
        assert state.amplitudes[1, 8 + 1] == 7.0
        state.amplitudes = np.asfortranarray(state.amplitudes)
        again = state.chunks(3)
        assert again is not chunks
        again[5].amplitudes[1] = 9.0
        assert state.amplitudes[1, 8 + 1] == 9.0
        with pytest.raises(ValueError, match="chunks"):
            state.chunks(n + 1)

    def test_step_for_another_register_size_is_refused(self):
        n = 3
        rot = PauliRotation(PauliString.from_ops(n, {0: "Z", 2: "X"}), 0.4)
        step = pauli_view(rot.pauli).step(rot.angle)
        with pytest.raises(ValueError, match="register size"):
            StateVector(n + 1).apply_rotation(rot, step)
        with pytest.raises(ValueError, match="register size"):
            step_circuit(n + 1).apply_to(StateVector(n + 2))


@pytest.mark.parametrize(
    "readout",
    [
        lambda s: s.norm(),
        lambda s: s.inner(StateVector(3)),
        lambda s: StateVector(3).inner(s),
        lambda s: s.fidelity(s),
        lambda s: s.expectation_z(0),
        lambda s: s.expectation_z_all(),
        lambda s: s.average_z(),
        lambda s: s.sample_z(0, 10, np.random.default_rng(0)),
    ],
)
def test_one_state_methods_refuse_a_block(readout):
    block = StateVector(3, np.eye(2, 8))
    with pytest.raises(ValueError, match=r"one state.*\(2, 8\)"):
        readout(block)


def signed_zero_start(rng, shape):
    start = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    start.real[rng.random(shape) < 0.1] = -0.0
    start.imag[rng.random(shape) < 0.1] = 0.0
    return start


class TestSlabs:
    """Gates on a register of more than 2**CHUNK_QUBITS amplitudes run in
    slabs; each must keep the bits of the unsliced gate."""

    N = CHUNK_QUBITS + 2
    STRINGS = (
        {16: "X"},
        {16: "Y"},
        {0: "Z", 15: "X", 16: "Z"},
        {3: "Y", 16: "X"},
        {1: "Z", 5: "Z", 9: "Z", 16: "Y"},
    )
    ANGLES = (math.pi / 4, -math.pi / 4, 0.3)

    @pytest.mark.parametrize("rows", [None, 3])
    def test_flips_are_bit_equal_to_the_unsliced_flip(self, rng, rows):
        n = self.N
        shape = (1 << n,) if rows is None else (rows, 1 << n)
        start = signed_zero_start(rng, shape)
        for ops in self.STRINGS:
            want = start.copy()
            state = StateVector(n, start.copy())
            for theta in self.ANGLES:
                rot = PauliRotation(PauliString.from_ops(n, ops), theta)
                _, (view_shape, axes), table, cos, _ = pauli_view(rot.pauli).step(theta)
                view = want.reshape(view_shape)
                flipped = np.flip(view, axes) * table
                view *= cos
                view += flipped
                state.apply_rotation(rot)
                assert np.array_equal(
                    state.amplitudes.view(np.uint64), want.view(np.uint64)
                ), (ops, theta)

    @pytest.mark.parametrize("rows", [None, 3])
    def test_iswaps_are_bit_equal_to_one_product_at_a_time(self, rng, rows):
        n = self.N
        shape = (1 << n,) if rows is None else (rows, 1 << n)
        start = signed_zero_start(rng, shape)
        for a, b in ((0, 16), (15, 16), (7, 16), (3, 9)):
            want = start.copy()
            state = StateVector(n, start.copy())
            for angle in self.ANGLES:
                c, s = math.cos(2 * angle), math.sin(2 * angle)
                hi, lo = max(a, b), min(a, b)
                view = want.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
                v01, v10 = view[:, 0, :, 1, :], view[:, 1, :, 0, :]
                old01 = v01.copy()
                v01[...] = c * old01 - 1j * s * v10
                v10[...] = c * v10 - 1j * s * old01
                state.apply_iswap(a, b, angle=angle)
                assert np.array_equal(
                    state.amplitudes.view(np.uint64), want.view(np.uint64)
                ), ((a, b), angle)

    def test_temporaries_stay_within_a_slab(self, rng):
        # Register-sized, the flip's temporary alone would be 2 MiB and
        # the iSWAP's copy and products 3 MiB; a slab's are at most
        # 512 and 768 KiB.
        n = self.N
        state = random_state(rng, n)
        gates = [
            lambda: state.apply_rotation(
                PauliRotation(PauliString.from_ops(n, ops), 0.3)
            )
            for ops in self.STRINGS
        ] + [lambda: state.apply_iswap(0, 16)]
        for gate in gates:
            gate()  # the views and slabs are kept; the peak is the gate's
            tracemalloc.start()
            try:
                gate()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20


class TestMeasurement:
    def test_expectation_z_on_basis_states(self):
        s = StateVector.basis_state(2, 2)
        assert s.expectation_z(0) == pytest.approx(1.0)
        assert s.expectation_z(1) == pytest.approx(-1.0)

    def test_expectation_z_all_matches_singles(self, rng):
        s = random_state(rng, 4)
        all_z = s.expectation_z_all()
        for q in range(4):
            assert all_z[q] == pytest.approx(s.expectation_z(q))

    @pytest.mark.parametrize("n", [1, 8, 13])
    def test_readout_of_one_piece_is_one_dot(self, rng, n):
        s = random_state(rng, n)
        probs = s.probabilities()
        for q, value in enumerate(s.expectation_z_all()):
            z = 1.0 - 2.0 * ((np.arange(1 << n) >> q) & 1)
            assert value == probs.dot(z) == s.expectation_z(q)

    @pytest.mark.parametrize("n", [14, 16, 18])
    @pytest.mark.parametrize("kind", ["random", "basis", "sparse"])
    def test_large_readout_sums_its_pieces_in_order(self, rng, n, kind):
        # Every piece stays below OpenBLAS's threading cutoff, so the bytes
        # do not depend on the BLAS thread count.  The reference reads
        # with one register-sized +-1 vector per qubit: ndarray.dot of
        # consecutive 2**13-amplitude pieces, summed from 0 in order.
        size, piece = 1 << n, 1 << 13
        amps = np.zeros(size, dtype=complex)
        if kind == "random":
            amps[:] = rng.normal(size=size) + 1j * rng.normal(size=size)
        elif kind == "basis":
            amps[rng.integers(size)] = 1.0
        else:
            where = rng.choice(size, size=50, replace=False)
            amps[where] = rng.normal(size=50) + 1j * rng.normal(size=50)
        s = StateVector(n, amps / np.linalg.norm(amps))
        probs = np.abs(s.amplitudes) ** 2
        want = []
        for q in range(n):
            z = 1.0 - 2.0 * ((np.arange(size) >> q) & 1)
            total = 0
            for start in range(0, size, piece):
                total += probs[start : start + piece].dot(z[start : start + piece])
            want.append(total)
        want = np.array(want)
        assert np.array_equal(s.expectation_z_all().view(np.uint64), want.view(np.uint64))
        for q in range(n):
            assert np.float64(s.expectation_z(q)).tobytes() == want[q].tobytes()
        assert np.float64(s.average_z()).tobytes() == want.mean().tobytes()
        for q in (0, 12, 13, n - 1):
            p_plus = min(1.0, max(0.0, (1.0 + float(want[q])) / 2.0))
            hits = int(np.random.default_rng(q).binomial(333, p_plus))
            got = s.sample_z(q, 333, np.random.default_rng(q))
            assert got == (2 * hits - 333) / 333

    def test_large_readout_keeps_no_register_sized_array(self, rng):
        s = random_state(rng, 18)
        s.expectation_z_all()  # builds the sign table once
        tracemalloc.start()
        try:
            s.expectation_z_all()
            s.expectation_z(17)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # |psi|**2 of the register alone would be 2 MiB.
        assert peak < 256 << 10

    def test_average_z(self, rng):
        s = random_state(rng, 3)
        assert s.average_z() == pytest.approx(float(s.expectation_z_all().mean()))

    def test_sample_z_converges(self):
        s = StateVector.basis_state(1, 0)
        s.apply_rotation(PauliRotation(PauliString.from_ops(1, {0: "X"}), math.pi / 8))
        exact = s.expectation_z(0)
        est = s.sample_z(0, 200_000, np.random.default_rng(5))
        assert est == pytest.approx(exact, abs=0.01)

    def test_sample_z_deterministic_given_stream(self):
        s = StateVector.basis_state(1, 0)
        s.apply_rotation(PauliRotation(PauliString.from_ops(1, {0: "X"}), 0.4))
        a = s.sample_z(0, 100, np.random.default_rng(9))
        b = s.sample_z(0, 100, np.random.default_rng(9))
        assert a == b

    def test_probabilities_sum_to_one(self, rng):
        s = random_state(rng, 3)
        assert s.probabilities().sum() == pytest.approx(1.0)
