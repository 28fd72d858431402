import math

import numpy as np
import pytest

from repdtc import (
    ChainLayout,
    PauliRotation,
    PauliString,
    StateVector,
    build_model,
    ideal_model_params,
    lower_program,
    verify_equivalence,
)
from repdtc.compiler import (
    CompilationError,
    NativeCircuit,
    NativeGate,
    decompose_i1,
    decompose_i2,
    decompose_i3,
    lower_ccnot_local,
    lower_program_local,
    lower_rotation_local,
    lower_rotation_native,
    lower_to_native,
)
from repdtc.models import build_transversal_ccnot_layer

from conftest import circuit_unitary, dense_rotation, phase_distance


def gadget_unitary(seq):
    return circuit_unitary(seq.apply_to, seq.n_qubits)


def target_unitary(target, theta):
    n = target.n_qubits
    return dense_rotation(n, dict(enumerate(target.letters)), theta)


class TestGadgets:
    @pytest.mark.parametrize("theta", [0.3, math.pi / 8, -1.1])
    def test_i1_three_qubit_run(self, theta):
        target = PauliString.from_ops(3, {0: "Z", 1: "Z", 2: "X"})
        seq = decompose_i1(target, theta)
        assert np.allclose(
            gadget_unitary(seq), target_unitary(target, theta), atol=1e-12
        )

    def test_i1_four_qubit_run(self):
        target = PauliString.from_ops(4, {0: "Z", 1: "Z", 2: "Z", 3: "X"})
        seq = decompose_i1(target, math.pi / 8)
        assert np.allclose(
            gadget_unitary(seq), target_unitary(target, math.pi / 8), atol=1e-12
        )

    def test_i1_two_qubits_is_bare_rotation(self):
        target = PauliString.from_ops(2, {0: "Z", 1: "X"})
        seq = decompose_i1(target, 0.4)
        assert len(seq) == 1
        assert seq.rotations[0].angle == 0.4

    def test_i1_rejects_wrong_pattern(self):
        with pytest.raises(CompilationError):
            decompose_i1(PauliString.from_ops(3, {0: "Z", 1: "X", 2: "X"}), 0.1)

    @pytest.mark.parametrize(
        "ops,theta",
        [({0: "Z", 2: "X"}, 0.3), ({0: "Z", 3: "X"}, math.pi / 8)],
    )
    def test_i2_long_range_zx(self, ops, theta):
        n = max(ops) + 1
        target = PauliString.from_ops(n, ops)
        seq = decompose_i2(target, theta)
        assert np.allclose(
            gadget_unitary(seq), target_unitary(target, theta), atol=1e-12
        )

    def test_i2_rejects_letters_in_gap(self):
        with pytest.raises(CompilationError):
            decompose_i2(PauliString.from_ops(3, {0: "Z", 1: "Y", 2: "X"}), 0.1)

    @pytest.mark.parametrize(
        "ops,theta",
        [({0: "Z", 2: "Z"}, 0.7), ({0: "Z", 3: "Z"}, 1.2)],
    )
    def test_i3_long_range_zz(self, ops, theta):
        n = max(ops) + 1
        target = PauliString.from_ops(n, ops)
        seq = decompose_i3(target, theta)
        assert np.allclose(
            gadget_unitary(seq), target_unitary(target, theta), atol=1e-12
        )

    def test_i3_adjacent_is_bare_rotation(self):
        seq = decompose_i3(PauliString.from_ops(2, {0: "Z", 1: "Z"}), 0.5)
        assert len(seq) == 1

    def test_random_angles_all_families(self, rng):
        cases = [
            (decompose_i1, {0: "Z", 1: "Z", 2: "X"}),
            (decompose_i2, {0: "Z", 2: "X"}),
            (decompose_i3, {0: "Z", 2: "Z"}),
        ]
        for fn, ops in cases:
            target = PauliString.from_ops(3, ops)
            for theta in rng.normal(size=10):
                seq = fn(target, float(theta))
                assert np.allclose(
                    gadget_unitary(seq),
                    target_unitary(target, float(theta)),
                    atol=1e-10,
                )

    def test_dressings_stay_quarter_turns(self):
        target = PauliString.from_ops(4, {0: "Z", 3: "Z"})
        seq = decompose_i3(target, 0.123)
        for i, rot in enumerate(seq.rotations):
            if i in seq.core_indices:
                assert rot.angle == 0.123
            else:
                assert abs(rot.angle) == pytest.approx(math.pi / 4)

    def test_without_cores_collapses_to_identity(self):
        target = PauliString.from_ops(4, {0: "Z", 3: "X"})
        seq = decompose_i2(target, 0.9)

        def apply_dressings(state):
            for i, rot in enumerate(seq.rotations):
                if i not in seq.core_indices:
                    state.apply_rotation(rot)

        got = circuit_unitary(apply_dressings, 4)
        assert np.allclose(got, np.eye(16), atol=1e-12)

    def test_explicit_path_routing(self):
        # Z on 0 and X on 2 routed the long way around via qubit 1
        target = PauliString.from_ops(3, {0: "Z", 2: "X"})
        seq = decompose_i2(target, 0.25, path=(0, 1, 2))
        assert np.allclose(
            gadget_unitary(seq), target_unitary(target, 0.25), atol=1e-12
        )


class TestCcnotLocal:
    def test_matches_transversal_site(self):
        layout = ChainLayout(3, 1)
        seq = lower_ccnot_local(layout, 0, 1, 2, np.ones(1))
        layer = build_transversal_ccnot_layer(layout, 0, 1, 2, np.ones(1))

        def apply_layer(state):
            for rot in layer.rotations:
                state.apply_rotation(rot)

        got = gadget_unitary(seq)
        want = circuit_unitary(apply_layer, 3)
        assert phase_distance(got, want) < 1e-10

    def test_scaled_angles(self):
        layout = ChainLayout(3, 1)
        seq = lower_ccnot_local(layout, 0, 1, 2, np.array([0.7]))
        layer = build_transversal_ccnot_layer(layout, 0, 1, 2, np.array([0.7]))

        def apply_layer(state):
            for rot in layer.rotations:
                state.apply_rotation(rot)

        assert phase_distance(gadget_unitary(seq), circuit_unitary(apply_layer, 3)) < 1e-10

    def test_every_factor_is_near_neighbor(self):
        layout = ChainLayout(3, 2)
        seq = lower_ccnot_local(layout, 0, 1, 2, np.ones(2))
        for rot in seq.rotations:
            support = rot.pauli.support()
            assert rot.pauli.weight <= 2
            if len(support) == 2:
                assert layout.adjacent(*support)

    def test_rejects_nonadjacent_chain_order(self):
        layout = ChainLayout(3, 2)
        with pytest.raises(CompilationError):
            lower_ccnot_local(layout, 0, 2, 1, np.ones(2))


class TestLowerRotationLocal:
    def setup_method(self):
        self.layout = ChainLayout(2, 3)

    def test_weight_one_passthrough(self):
        rot = PauliRotation(PauliString.from_ops(6, {4: "Y"}), 0.3)
        assert lower_rotation_local(self.layout, rot) == [rot]

    def test_adjacent_pair_passthrough(self):
        rot = PauliRotation(PauliString.from_ops(6, {0: "Z", 1: "Z"}), 0.3)
        assert lower_rotation_local(self.layout, rot) == [rot]

    def test_long_range_zz_expands_and_matches(self):
        rot = PauliRotation(PauliString.from_ops(6, {0: "Z", 2: "Z"}), 0.8)
        seq = lower_rotation_local(self.layout, rot)
        assert len(seq) > 1

        def apply(state):
            for r in seq:
                state.apply_rotation(r)

        got = circuit_unitary(apply, 6)
        want = target_unitary(rot.pauli, 0.8)
        assert np.allclose(got, want, atol=1e-10)

    def test_xz_pattern_reverses_path(self):
        # X on the low qubit, Z on the high one: the gadget wants Z first.
        rot = PauliRotation(PauliString.from_ops(6, {0: "X", 2: "Z"}), 0.4)
        seq = lower_rotation_local(self.layout, rot)

        def apply(state):
            for r in seq:
                state.apply_rotation(r)

        got = circuit_unitary(apply, 6)
        assert np.allclose(got, target_unitary(rot.pauli, 0.4), atol=1e-10)

    def test_unsupported_pattern_raises(self):
        rot = PauliRotation(PauliString.from_ops(6, {0: "Y", 2: "Y"}), 0.4)
        with pytest.raises(CompilationError):
            lower_rotation_local(self.layout, rot)


class TestProgramLowering:
    def test_u4_levels_agree_dense(self):
        layout = ChainLayout(2, 2)
        program = build_model("u4", layout, ideal_model_params("u4", layout))
        local = lower_program(program, "local-gadgets")
        native = lower_program(program, "native-iswap")
        assert verify_equivalence(program, local) < 1e-10
        assert verify_equivalence(program, native) < 1e-10

    def test_u8_local_lowering_column_probe(self):
        layout = ChainLayout(3, 2)
        program = build_model("u8", layout, ideal_model_params("u8", layout))
        local = lower_program_local(program)
        assert verify_equivalence(program, local) < 1e-9

    def test_u2n_n3_lowers(self):
        layout = ChainLayout(3, 2)
        program = build_model("u2n", layout, ideal_model_params("u2n", layout))
        local = lower_program_local(program)
        assert verify_equivalence(program, local) < 1e-9

    def test_u2n_n4_has_no_local_lowering(self):
        layout = ChainLayout(4, 2)
        program = build_model("u2n", layout, ideal_model_params("u2n", layout))
        with pytest.raises(CompilationError):
            lower_program_local(program)

    def test_unknown_level(self):
        layout = ChainLayout(2, 2)
        program = build_model("u4", layout, ideal_model_params("u4", layout))
        with pytest.raises(ValueError):
            lower_program(program, "dense")


class TestNativeLowering:
    @pytest.mark.parametrize(
        "ops",
        [
            {0: "Z", 1: "X"},
            {0: "X", 1: "Z"},
            {0: "Z", 1: "Y"},
            {0: "Z", 1: "Z"},
            {0: "X", 1: "X"},
            {0: "Y", 1: "Y"},
            {0: "X", 1: "Y"},
            {0: "Y", 1: "X"},
            {0: "Y", 1: "Z"},
        ],
    )
    def test_two_qubit_blocks_match_dense(self, ops):
        theta = 0.37
        rot = PauliRotation(PauliString.from_ops(2, ops), theta)
        circuit = NativeCircuit(2, tuple(lower_rotation_native(rot)))
        got = circuit_unitary(circuit.apply_to, 2)
        assert np.allclose(got, target_unitary(rot.pauli, theta), atol=1e-12)

    def test_weight_one_single_gate(self):
        rot = PauliRotation(PauliString.from_ops(3, {1: "Y"}), 0.2)
        gates = lower_rotation_native(rot)
        assert len(gates) == 1
        assert gates[0].name == "RY" and gates[0].qubits == (1,)

    def test_weight_zero_drops(self):
        rot = PauliRotation(PauliString.identity(2), 0.3)
        assert lower_rotation_native(rot) == []

    def test_weight_three_refused(self):
        rot = PauliRotation(PauliString.from_ops(3, {0: "Z", 1: "Z", 2: "X"}), 0.3)
        with pytest.raises(CompilationError):
            lower_rotation_native(rot)

    def test_full_u4_native_equivalence(self):
        layout = ChainLayout(2, 2)
        program = build_model("u4", layout, ideal_model_params("u4", layout))
        native = lower_program(program, "native-iswap")
        assert isinstance(native, NativeCircuit)
        assert verify_equivalence(program, native) < 1e-10

    def test_iswap_count_is_two_per_entangler(self):
        rot = PauliRotation(PauliString.from_ops(2, {0: "Z", 1: "X"}), 0.3)
        names = [g.name for g in lower_rotation_native(rot)]
        assert names.count("ISWAP") + names.count("ISWAPINV") == 2


class TestNativeTextFormat:
    def test_roundtrip(self):
        layout = ChainLayout(2, 2)
        program = build_model("u4", layout, ideal_model_params("u4", layout))
        native = lower_program(program, "native-iswap")
        text = native.to_text()
        back = NativeCircuit.from_text(text, native.n_qubits)
        assert back == native

    def test_angle_precision_survives(self):
        gate = NativeGate("RX", (0,), 0.1234567890123456789)
        circuit = NativeCircuit(1, (gate,))
        back = NativeCircuit.from_text(circuit.to_text(), 1)
        assert back.gates[0].angle == gate.angle


class TestVerifyEquivalence:
    def test_detects_mismatch(self):
        a = PauliRotation(PauliString.from_ops(2, {0: "Z"}), 0.3)
        b = PauliRotation(PauliString.from_ops(2, {0: "Z"}), 0.4)

        class Wrap:
            def __init__(self, rot):
                self.rot = rot
                self.n_qubits = 2

            def apply_to(self, state):
                state.apply_rotation(self.rot)

        assert verify_equivalence(Wrap(a), Wrap(b)) > 1e-3

    def test_ignores_global_phase(self):
        class Plain:
            n_qubits = 1

            def apply_to(self, state):
                state.apply_rotation(
                    PauliRotation(PauliString.from_ops(1, {0: "Z"}), 0.3)
                )

        class Phased(Plain):
            def apply_to(self, state):
                super().apply_to(state)
                state.amplitudes *= np.exp(0.77j)

        assert verify_equivalence(Plain(), Phased()) < 1e-12

    def test_refuses_large_register(self):
        layout = ChainLayout(2, 7)
        program = build_model("u4", layout, ideal_model_params("u4", layout))
        with pytest.raises(ValueError):
            verify_equivalence(program, program)
