import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repdtc import (
    PRESETS,
    ChainLayout,
    FloquetProgram,
    PauliRotation,
    PauliString,
    StateVector,
    build_model,
    compiler,
    harness,
    ideal_model_params,
    lower_program,
    verify_equivalence,
)
from repdtc.compiler import (
    CHUNK_QUBITS,
    QUARTER,
    Circuit,
    CompilationError,
    ISwapRotation,
    RotationGroup,
    decompose,
    lower_rotation_local,
    lower_rotation_native,
    lower_to_native,
)
from repdtc.disorder import SeedPlan
from repdtc.models import (
    MODEL_SPECS,
    CnotParams,
    ModelParams,
    build_generalized_cnot_layer,
)
from repdtc.observables import prepare_initial_state, stroboscopic_run
from repdtc.statevector import pauli_view

from conftest import circuit_unitary, dense_iswap, dense_rotation, phase_distance


def gadget_unitary(seq):
    return circuit_unitary(seq.apply_to, seq.n_qubits)


def target_unitary(target, theta):
    n = target.n_qubits
    return dense_rotation(n, dict(enumerate(target.letters)), theta)


class TestGadgets:
    @pytest.mark.parametrize("theta", [0.3, math.pi / 8, -1.1])
    def test_i1_three_qubit_run(self, theta):
        target = PauliString.from_ops(3, {0: "Z", 1: "Z", 2: "X"})
        seq = decompose("i1", target, theta)
        assert np.allclose(
            gadget_unitary(seq), target_unitary(target, theta), atol=1e-12
        )

    def test_i1_four_qubit_run(self):
        target = PauliString.from_ops(4, {0: "Z", 1: "Z", 2: "Z", 3: "X"})
        seq = decompose("i1", target, math.pi / 8)
        assert np.allclose(
            gadget_unitary(seq), target_unitary(target, math.pi / 8), atol=1e-12
        )

    def test_i1_two_qubits_is_bare_rotation(self):
        target = PauliString.from_ops(2, {0: "Z", 1: "X"})
        seq = decompose("i1", target, 0.4)
        assert len(seq) == 1
        assert seq.rotations[0].angle == 0.4

    def test_i1_rejects_wrong_pattern(self):
        with pytest.raises(CompilationError):
            decompose("i1", PauliString.from_ops(3, {0: "Z", 1: "X", 2: "X"}), 0.1)

    @pytest.mark.parametrize(
        "ops,theta",
        [({0: "Z", 2: "X"}, 0.3), ({0: "Z", 3: "X"}, math.pi / 8)],
    )
    def test_i2_long_range_zx(self, ops, theta):
        n = max(ops) + 1
        target = PauliString.from_ops(n, ops)
        seq = decompose("i2", target, theta)
        assert np.allclose(
            gadget_unitary(seq), target_unitary(target, theta), atol=1e-12
        )

    @pytest.mark.parametrize("kind", ["i1", "i2", "i3"], ids=lambda k: f"decompose_{k}")
    def test_identity_target_is_refused_by_name(self, kind):
        target = PauliString.from_ops(4, {})
        with pytest.raises(CompilationError, match=f"got {re.escape(str(target))}$"):
            decompose(kind, target, 0.3)

    def test_unknown_kind_is_refused_naming_the_kinds(self):
        target = PauliString.from_ops(3, {0: "Z", 2: "X"})
        with pytest.raises(CompilationError, match=r"'i4'.*\('i1', 'i2', 'i3'\)"):
            decompose("i4", target, 0.3)

    def test_i2_rejects_letters_in_gap(self):
        with pytest.raises(CompilationError):
            decompose("i2", PauliString.from_ops(3, {0: "Z", 1: "Y", 2: "X"}), 0.1)

    @pytest.mark.parametrize(
        "ops,theta",
        [({0: "Z", 2: "Z"}, 0.7), ({0: "Z", 3: "Z"}, 1.2)],
    )
    def test_i3_long_range_zz(self, ops, theta):
        n = max(ops) + 1
        target = PauliString.from_ops(n, ops)
        seq = decompose("i3", target, theta)
        assert np.allclose(
            gadget_unitary(seq), target_unitary(target, theta), atol=1e-12
        )

    def test_i3_on_two_qubits_is_refused(self):
        # A ZZ on neighbours is native; lower_rotation_local never walks it.
        with pytest.raises(CompilationError, match="i3 pattern needs at least 3"):
            decompose("i3", PauliString.from_ops(2, {0: "Z", 1: "Z"}), 0.5)

    def test_random_angles_all_families(self, rng):
        cases = [
            ("i1", {0: "Z", 1: "Z", 2: "X"}),
            ("i2", {0: "Z", 2: "X"}),
            ("i3", {0: "Z", 2: "Z"}),
        ]
        for kind, ops in cases:
            target = PauliString.from_ops(3, ops)
            for theta in rng.normal(size=10):
                seq = decompose(kind, target, float(theta))
                assert np.allclose(
                    gadget_unitary(seq),
                    target_unitary(target, float(theta)),
                    atol=1e-10,
                )

    def test_dressings_stay_quarter_turns(self):
        target = PauliString.from_ops(4, {0: "Z", 3: "Z"})
        seq = decompose("i3", target, 0.123)
        core = len(seq) // 2
        for i, rot in enumerate(seq.rotations):
            if i == core:
                assert rot.angle == 0.123
            else:
                assert abs(rot.angle) == pytest.approx(math.pi / 4)

    def test_without_cores_collapses_to_identity(self):
        target = PauliString.from_ops(4, {0: "Z", 3: "X"})
        seq = decompose("i2", target, 0.9)
        core = len(seq) // 2

        def apply_dressings(state):
            for i, rot in enumerate(seq.rotations):
                if i != core:
                    state.apply_rotation(rot)

        got = circuit_unitary(apply_dressings, 4)
        assert np.allclose(got, np.eye(16), atol=1e-12)

    def test_explicit_path_routing(self):
        # Z on 0 and X on 2 routed the long way around via qubit 1
        target = PauliString.from_ops(3, {0: "Z", 2: "X"})
        seq = decompose("i2", target, 0.25, path=(0, 1, 2))
        assert np.allclose(
            gadget_unitary(seq), target_unitary(target, 0.25), atol=1e-12
        )


def ccnot_program(layout, scales, controls=(0, 1), target=2):
    """One transversal CCNOT layer as a program of its own."""
    layer = build_generalized_cnot_layer(layout, controls, target, scales)
    return FloquetProgram(layout, "u8", (layer,))


class TestCcnotLocal:
    """A CCNOT layer lowers through the generic rotation-by-rotation walk."""

    def test_matches_transversal_site(self):
        layout = ChainLayout(3, 1)
        program = ccnot_program(layout, np.ones(1))
        seq = lower_program(program, "local-gadgets")

        def apply_layer(state):
            for rot in program.layers[0].rotations:
                state.apply_rotation(rot)

        got = gadget_unitary(seq)
        want = circuit_unitary(apply_layer, 3)
        assert phase_distance(got, want) < 1e-10

    def test_scaled_angles(self):
        layout = ChainLayout(3, 1)
        program = ccnot_program(layout, np.array([0.7]))
        seq = lower_program(program, "local-gadgets")

        def apply_layer(state):
            for rot in program.layers[0].rotations:
                state.apply_rotation(rot)

        assert phase_distance(gadget_unitary(seq), circuit_unitary(apply_layer, 3)) < 1e-10

    def test_every_factor_is_near_neighbor(self):
        layout = ChainLayout(3, 2)
        seq = lower_program(ccnot_program(layout, np.ones(2)), "local-gadgets")
        assert len(seq) == 26
        for rot in seq.rotations:
            support = rot.pauli.support()
            assert rot.pauli.weight <= 2
            if len(support) == 2:
                assert layout.adjacent(*support)

    def test_rejects_nonadjacent_chain_order(self):
        program = ccnot_program(ChainLayout(3, 2), np.ones(2), controls=(0, 2), target=1)
        with pytest.raises(CompilationError):
            lower_program(program, "local-gadgets")


Q = math.pi / 4
G = math.pi / 8


def pinned(circuit):
    return [(str(rot.pauli), rot.angle) for rot in circuit.rotations]


class TestWalkPins:
    """Exact rotation lists of each walk, as the hand-written gadgets built them."""

    @pytest.mark.parametrize(
        "kind,ops,want",
        [
            (
                "i1",
                {0: "Z", 1: "Z", 2: "Z", 3: "X"},
                [
                    ("+1 Y2 X3", Q),
                    ("+1 Y1 X2", Q),
                    ("+1 Z0 X1", 0.3),
                    ("+1 Y1 X2", -Q),
                    ("+1 Y2 X3", -Q),
                ],
            ),
            (
                "i2",
                {0: "Z", 3: "X"},
                [
                    ("+1 Z2 Z3", Q),
                    ("+1 Y2 Y3", Q),
                    ("+1 Z1 Z2", Q),
                    ("+1 Y1 Y2", Q),
                    ("+1 Z0 X1", 0.3),
                    ("+1 Y1 Y2", -Q),
                    ("+1 Z1 Z2", -Q),
                    ("+1 Y2 Y3", -Q),
                    ("+1 Z2 Z3", -Q),
                ],
            ),
            (
                "i3",
                {0: "Z", 3: "Z"},
                [
                    ("+1 Z2 X3", -Q),
                    ("+1 Y2 Y3", Q),
                    ("+1 Z1 Z2", Q),
                    ("+1 Y1 Y2", Q),
                    ("+1 Z0 X1", 0.3),
                    ("+1 Y1 Y2", -Q),
                    ("+1 Z1 Z2", -Q),
                    ("+1 Y2 Y3", -Q),
                    ("+1 Z2 X3", Q),
                ],
            ),
        ],
        ids=["i1", "i2", "i3"],
    )
    def test_four_qubit_walks(self, kind, ops, want):
        assert pinned(decompose(kind, PauliString.from_ops(4, ops), 0.3)) == want

    def test_ccnot_site_is_two_walks_and_commuting_rest(self):
        program = ccnot_program(ChainLayout(3, 1), np.ones(1))
        assert pinned(lower_program(program, "local-gadgets")) == [
            ("+1 X2", -G),
            ("+1 Z0", -G),
            # i2 walk of Z0 X2 at +g; the two commuting undressings
            # after the core run YY before ZZ.
            ("+1 Z1 Z2", Q),
            ("+1 Y1 Y2", Q),
            ("+1 Z0 X1", G),
            ("+1 Y1 Y2", -Q),
            ("+1 Z1 Z2", -Q),
            ("+1 Z1", -G),
            ("+1 Z1 X2", G),
            ("+1 Z0 Z1", G),
            # i1 walk of Z0 Z1 X2 at -g
            ("+1 Y1 X2", Q),
            ("+1 Z0 X1", -G),
            ("+1 Y1 X2", -Q),
        ]


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
        assert verify_equivalence(program.circuit, local) < 1e-10
        assert verify_equivalence(program.circuit, native) < 1e-10

    def test_u8_local_lowering_column_probe(self):
        layout = ChainLayout(3, 2)
        program = build_model("u8", layout, ideal_model_params("u8", layout))
        local = lower_program(program, "local-gadgets")
        assert verify_equivalence(program.circuit, local) < 1e-9

    def test_u2n_n3_lowers(self):
        layout = ChainLayout(3, 2)
        program = build_model("u2n", layout, ideal_model_params("u2n", layout))
        local = lower_program(program, "local-gadgets")
        assert verify_equivalence(program.circuit, local) < 1e-9

    def test_u2n_n4_has_no_local_lowering(self):
        layout = ChainLayout(4, 2)
        program = build_model("u2n", layout, ideal_model_params("u2n", layout))
        with pytest.raises(CompilationError):
            lower_program(program, "local-gadgets")

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
        circuit = Circuit(2, tuple(lower_rotation_native(rot)))
        got = circuit_unitary(circuit.apply_to, 2)
        assert np.allclose(got, target_unitary(rot.pauli, theta), atol=1e-12)

    def test_weight_one_single_gate(self):
        rot = PauliRotation(PauliString.from_ops(3, {1: "Y"}), 0.2)
        assert lower_rotation_native(rot) == [rot]

    def test_weight_zero_passes_through(self):
        rot = PauliRotation(PauliString.from_ops(2, {}), 0.3)
        assert lower_rotation_native(rot) == [rot]

    def test_weight_three_refused(self):
        rot = PauliRotation(PauliString.from_ops(3, {0: "Z", 1: "Z", 2: "X"}), 0.3)
        with pytest.raises(CompilationError):
            lower_rotation_native(rot)

    def test_full_u4_native_equivalence(self):
        layout = ChainLayout(2, 2)
        program = build_model("u4", layout, ideal_model_params("u4", layout))
        native = lower_program(program, "native-iswap")
        assert isinstance(native, Circuit)
        assert verify_equivalence(program.circuit, native) < 1e-10

    def test_iswap_count_is_two_per_entangler(self):
        rot = PauliRotation(PauliString.from_ops(2, {0: "Z", 1: "X"}), 0.3)
        entries = lower_rotation_native(rot)
        angles = [e.angle for e in entries if isinstance(e, ISwapRotation)]
        assert sorted(angles) == [-math.pi / 4, math.pi / 4]

    def test_every_level_returns_a_circuit(self):
        layout = ChainLayout(2, 3)
        params = ideal_model_params("u4lr", layout, long_range=np.ones((2, 3, 3)))
        program = build_model("u4lr", layout, params)
        for level in ("pauli-layers", "local-gadgets", "native-iswap"):
            circuit = lower_program(program, level)
            assert isinstance(circuit, Circuit)
            assert circuit.n_qubits == 6
        assert lower_program(program, "pauli-layers").rotations == tuple(
            program.all_rotations()
        )


def per_gate_noisy_period(circuit, state, rng, single_error, iswap_error):
    """Reference period: one scalar noise draw per noisy gate, in gate order.

    The inverse iSWAP's noisy angle is formed as -(pi/4 * (1 + eps)),
    which equals (-pi/4) * (1 + eps) exactly.
    """
    for entry in circuit.rotations:
        iswap = isinstance(entry, ISwapRotation)
        width = iswap_error if iswap else single_error
        scale = 1.0 + rng.uniform(-width, width) if width > 0.0 else 1.0
        if iswap:
            sign = 1.0 if entry.angle > 0 else -1.0
            state.apply_iswap(*entry.qubits, angle=sign * (math.pi / 4 * scale))
        else:
            state.apply_rotation(PauliRotation(entry.pauli, entry.angle * scale))


class TestNativeNoise:
    @pytest.mark.parametrize(
        "single_error, iswap_error", [(0.005, 0.0), (0.0, 0.04), (0.005, 0.04)]
    )
    def test_period_consumes_noise_stream_like_per_gate_draws(
        self, single_error, iswap_error
    ):
        layout = ChainLayout(2, 2)
        program = build_model("u4", layout, ideal_model_params("u4", layout))
        native = lower_program(program, "native-iswap")
        got, want = StateVector(4), StateVector(4)
        rng_got, rng_want = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(3):
            native.apply_to(
                got, rng=rng_got, single_error=single_error, iswap_error=iswap_error
            )
            per_gate_noisy_period(native, want, rng_want, single_error, iswap_error)
        assert rng_got.random() == rng_want.random()
        assert np.array_equal(got.amplitudes, want.amplitudes)

    def test_noise_without_stream_is_refused(self):
        rx = PauliRotation(PauliString.from_ops(1, {0: "X"}), 0.3)
        circuit = Circuit(1, (rx,))
        with pytest.raises(ValueError):
            circuit.apply_to(StateVector(1), single_error=0.01)

    @pytest.mark.parametrize(
        "widths",
        [
            {"single_error": -0.01},
            {"iswap_error": -0.01},
            {"single_error": math.nan},
            {"iswap_error": math.nan},
        ],
    )
    def test_negative_noise_width_is_refused(self, widths):
        rx = PauliRotation(PauliString.from_ops(2, {0: "X"}), 0.3)
        circuit = Circuit(2, (rx, ISwapRotation((0, 1), math.pi / 4)))
        state = StateVector(2)
        with pytest.raises(ValueError, match="nonnegative"):
            circuit.apply_to(state, rng=np.random.default_rng(0), **widths)
        assert np.array_equal(state.amplitudes, StateVector(2).amplitudes)


class TestCircuitRegister:
    @pytest.mark.parametrize(
        "circuit_qubits, state_qubits, first",
        [
            (2, 4, ISwapRotation((0, 1), QUARTER)),
            (2, 3, ISwapRotation((0, 1), QUARTER)),
            (3, 2, PauliRotation(PauliString.from_ops(3, {0: "X"}), 0.3)),
        ],
    )
    def test_wrong_register_size_is_refused_untouched(
        self, circuit_qubits, state_qubits, first
    ):
        rz = PauliRotation(PauliString.from_ops(circuit_qubits, {1: "Z"}), 0.2)
        circuit = Circuit(circuit_qubits, (first, rz))
        state = StateVector(state_qubits, np.full(1 << state_qubits, 0.5 + 0j))
        before = state.amplitudes.copy()
        with pytest.raises(ValueError, match=f"{circuit_qubits}.*{state_qubits}"):
            circuit.apply_to(state)
        assert np.array_equal(state.amplitudes, before)

    @pytest.mark.parametrize(
        "entry, problem",
        [
            (ISwapRotation((0, 5), QUARTER), "outside a register of 3"),
            (ISwapRotation((1, 1), QUARTER), "two distinct qubits"),
            (ISwapRotation((0, 1.5), QUARTER), "pair of integer qubits"),
            (ISwapRotation((0, 1, 2), QUARTER), "pair of integer qubits"),
            (ISwapRotation((True, 2), QUARTER), "pair of integer qubits"),
            (PauliRotation(PauliString.from_ops(4, {0: "Z"}), 0.2), "4-qubit"),
        ],
    )
    def test_entry_that_does_not_fit_is_refused_at_construction(self, entry, problem):
        x0 = PauliRotation(PauliString.from_ops(3, {0: "X"}), 0.3)
        with pytest.raises(ValueError, match=f"entry 1 .*{problem}"):
            Circuit(3, (x0, entry))

    @pytest.mark.parametrize("n, rows", [(16, None), (17, 2)])
    def test_slabs_of_chunked_entries_are_chunks(self, n, rows):
        # fig4-analog's period, widened to n qubits: slab k of every
        # chunked entry's view holds amplitudes [k * C, (k + 1) * C) of
        # the register or block, and cuts no axis its step table spans.
        config = PRESETS["fig4-analog"]
        _, fig4 = harness._build_realization(config, SeedPlan(config.seed), 0)
        pad = ("I",) * (n - fig4.n_qubits)
        circuit = Circuit(
            n,
            tuple(
                entry if isinstance(entry, ISwapRotation)
                else PauliRotation(PauliString(entry.pauli.letters + pad), entry.angle)
                for entry in fig4.rotations
            ),
        )
        shape = (1 << n,) if rows is None else (rows, 1 << n)
        index = np.arange(math.prod(shape))
        state = StateVector(n, index.reshape(shape).astype(complex))
        chunk = 1 << CHUNK_QUBITS
        chunks = [index[k : k + chunk] for k in range(0, index.size, chunk)]
        chunked = [
            entry
            for start, stop, cut in circuit._runs
            if cut
            for entry in circuit.rotations[start:stop]
        ]
        assert 0 < len(chunked) < len(circuit)
        for entry in chunked:
            if isinstance(entry, ISwapRotation):
                a, b = entry.qubits
                pair, slabs = state._take_pair_view(("iswap", a, b))
                for slab, want in zip(slabs, chunks, strict=True):
                    apart = ((want >> a) & 1) != ((want >> b) & 1)
                    got = np.sort(pair[slab].real.ravel())
                    assert np.array_equal(got, want[apart])
                continue
            _, layout, table, _, _ = pauli_view(entry.pauli).step(entry.angle)
            view, _, slabs = state._take_views(layout)
            for slab, want in zip(slabs, chunks, strict=True):
                assert np.array_equal(view[slab].real.ravel(), want)
                for axis, cut in enumerate(slab):
                    if cut != slice(None):
                        assert np.ndim(table) == 0 or table.shape[axis] == 1

    @pytest.mark.parametrize(
        "cores, pool, rows",
        [(3, 1, None), (8, 2, None), (2, 2, None), (8, 1, 2)],
        ids=["3-1", "8-2", "2-2", "8-1-block-written-in-place"],
    )
    def test_chunk_threads_match_one_thread(self, monkeypatch, rng, cores, pool, rows):
        # 17 qubits are four chunks: split over two or four threads (more
        # than this machine may have), or one thread when the pool takes
        # every core.  A block of two is eight chunks on four threads,
        # started from amplitudes written in place under kept views.
        n = CHUNK_QUBITS + 2
        rotations = (
            PauliRotation(PauliString.from_ops(n, {0: "Z", 3: "X"}), 0.3),
            ISwapRotation((1, 2), QUARTER),
            PauliRotation(PauliString.from_ops(n, {2: "Y", n - 1: "X"}), 0.7),
            PauliRotation(PauliString.from_ops(n, {1: "Z", 5: "Y"}), -0.4),
        )
        shape = (1 << n,) if rows is None else (rows, 1 << n)
        start = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        want = StateVector(n, start.copy())
        for rot in rotations:
            if isinstance(rot, ISwapRotation):
                want.apply_iswap(*rot.qubits, angle=rot.angle)
            else:
                want.apply_rotation(rot)
        monkeypatch.setattr(compiler, "usable_cores", lambda: cores)
        monkeypatch.setattr(compiler, "_pool_size", pool)
        state = StateVector(n, start if rows is None else np.zeros(shape, complex))
        if rows is not None:
            # The state keeps views of its zeros, then its array is rewritten.
            Circuit(n, rotations).apply_to(state)
            state.amplitudes[...] = start
        # Threads switch as often as the interpreter allows.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            Circuit(n, rotations).apply_to(state)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(state.amplitudes, want.amplitudes)

    def test_block_of_chunked_states_matches_each_row(self, rng):
        n = CHUNK_QUBITS + 1
        rotations = (
            PauliRotation(PauliString.from_ops(n, {0: "Z", 3: "X"}), 0.3),
            ISwapRotation((1, 2), QUARTER),
            PauliRotation(PauliString.from_ops(n, {2: "Y", n - 1: "X"}), 0.7),
            PauliRotation(PauliString.from_ops(n, {1: "Z", 5: "Z"}), -0.4),
        )
        circuit = Circuit(n, rotations)
        block = rng.normal(size=(2, 1 << n)) + 1j * rng.normal(size=(2, 1 << n))
        state = StateVector(n, block.copy())
        circuit.apply_to(state)
        for row, start in zip(state.amplitudes, block):
            one = StateVector(n, start)
            for rot in rotations:
                if isinstance(rot, ISwapRotation):
                    one.apply_iswap(*rot.qubits, angle=rot.angle)
                else:
                    one.apply_rotation(rot)
            assert np.array_equal(row, one.amplitudes)


def rotation(n, ops, angle):
    return PauliRotation(PauliString.from_ops(n, ops), angle)


def ordered_product(rotations, n):
    """Dense R_m ... R_1 of rotations applied in list order."""
    product = np.eye(1 << n, dtype=complex)
    for rot in rotations:
        ops = dict(enumerate(rot.pauli.letters))
        product = dense_rotation(n, ops, rot.angle) @ product
    return product


class TestRotationGroup:
    @pytest.mark.parametrize(
        "controls, target",
        [((0,), 1), ((0, 1), 2), ((0, 1, 2), 3), ((1, 2), 0)],
        ids=["1-control", "2-controls", "3-controls", "target-on-qubits-0-1"],
    )
    def test_group_is_the_ordered_product(self, rng, controls, target):
        # Two sites: site 0's group runs on qubits from 0 up, site 1's has
        # every qubit of its support above the lowest.  Random scales, and
        # random angles per term, so no product of terms is special.
        layout = ChainLayout(len(controls) + 1, 2)
        n = layout.n_qubits
        layer = build_generalized_cnot_layer(
            layout, controls, target, rng.uniform(0.5, 1.5, size=2)
        )
        program = FloquetProgram(layout, "u2n", (layer,))
        groups = program.circuit.rotations
        assert len(groups) == 2 and all(type(g) is RotationGroup for g in groups)
        assert sum(len(g.rotations) for g in groups) == len(layer.rotations)
        for group in groups:
            for terms in (
                group.rotations,
                tuple(PauliRotation(r.pauli, rng.normal()) for r in group.rotations),
            ):
                got = circuit_unitary(Circuit(n, (RotationGroup(terms),)).apply_to, n)
                want = ordered_product(terms, n)
                assert np.abs(got - want).max() <= 1e-13

    def test_xx_yy_zz_group_carries_the_y_phase(self, rng):
        # The terms of an iSWAP flip one pair with X and with Y letters.
        n = 3
        terms = (
            rotation(n, {0: "X", 2: "X"}, rng.normal()),
            rotation(n, {0: "Y", 2: "Y"}, rng.normal()),
            rotation(n, {0: "Z", 2: "Z"}, rng.normal()),
            rotation(n, {1: "Z"}, rng.normal()),
        )
        group = RotationGroup(terms)
        assert str(group.pauli) == "+1 X0 Z1 X2"
        got = circuit_unitary(lambda s: s.apply_rotation(group), n)
        assert np.abs(got - ordered_product(terms, n)).max() <= 1e-13

    def test_slabs_cut_the_group_tables(self, rng):
        # On 17 qubits, Z16 X15 runs slab by slab, and the slabs cut the
        # axis of qubit 16, along which both tables vary.
        n = CHUNK_QUBITS + 2
        terms = (
            rotation(n, {n - 1: "Z"}, rng.normal()),
            rotation(n, {n - 2: "X"}, rng.normal()),
            rotation(n, {n - 1: "Z", n - 2: "X"}, rng.normal()),
        )
        group = RotationGroup(terms)
        start = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state, want = StateVector(n, start.copy()), StateVector(n, start)
        Circuit(n, (group,)).apply_to(state)
        for rot in terms:
            want.apply_rotation(rot)
        _, layout, d1, d0, _ = pauli_view(group.pauli).group_step(terms)
        assert d0.shape[1] == d1.shape[1] == 2 and d0.size == d1.size == 2
        assert any(cut[1] != slice(None) for cut in state._take_views(layout)[2])
        assert np.abs(state.amplitudes - want.amplitudes).max() <= 1e-12

    def test_u2n_16_qubit_circuit_matches_its_expansion(self, rng):
        # 2 x 8 qubits: the groups of sites 0-6 run in chunked runs, the
        # one of site 7 targets qubit 15 and runs on the whole register.
        layout = ChainLayout(2, 8)
        params = ideal_model_params("u2n", layout, rng.uniform(0.8, 1.2, (2, 7)))
        params = ModelParams(
            couplings=params.couplings,
            x_field=params.x_field * rng.uniform(0.9, 1.1, 8),
            scales=(rng.uniform(0.9, 1.1, 8),),
        )
        program = build_model("u2n", layout, params)
        circuit = program.circuit
        groups = [i for i, e in enumerate(circuit.rotations) if type(e) is RotationGroup]
        assert len(groups) == 8 and len(circuit) == 14 + 8 + 8
        chunked = {i for start, stop, cut in circuit._runs if cut for i in range(start, stop)}
        assert set(groups[:7]) <= chunked and groups[7] not in chunked
        assert circuit.rotations[groups[7]].pauli.letters[15] == "X"
        start = prepare_initial_state(layout.n_qubits, 0.3)
        z = stroboscopic_run(circuit, start.copy(), 10)
        expanded = Circuit(layout.n_qubits, tuple(program.all_rotations()))
        want = stroboscopic_run(expanded, start, 10)
        assert np.abs(z - want).max() <= 1e-12

    @pytest.mark.parametrize(
        "terms, problem",
        [
            ((), "one or more"),
            ((ISwapRotation((0, 1), QUARTER),), "one or more"),
            (({0: "X"}, {0: "Z"}), "commute"),
            (({0: "X"}, {1: "X"}), "one non-empty X/Y qubit set"),
            (({0: "Z"}, {1: "Z"}), "one non-empty X/Y qubit set"),
        ],
    )
    def test_refuses_what_is_not_one_flip_group(self, terms, problem):
        terms = tuple(
            rotation(3, t, 0.3) if isinstance(t, dict) else t for t in terms
        )
        with pytest.raises(ValueError, match=problem):
            RotationGroup(terms)

    def test_refuses_rotations_on_two_register_sizes(self):
        with pytest.raises(ValueError, match="register size"):
            RotationGroup((rotation(2, {0: "X"}, 0.3), rotation(3, {0: "X"}, 0.3)))

    def test_a_group_is_never_native(self, rng):
        circuit = Circuit(2, (RotationGroup((rotation(2, {0: "X"}, 0.3),)),))
        with pytest.raises(ValueError, match="native"):
            circuit.apply_to(StateVector(2), rng=rng, single_error=0.1)

    def test_fig5a_period_counts_each_ccnot_site_once(self):
        config = PRESETS["fig5a"]
        program, circuit = harness._build_realization(config, SeedPlan(config.seed), 0)
        assert len(list(program.all_rotations())) == 53
        assert len(circuit) == 29
        groups = [e for e in circuit.rotations if type(e) is RotationGroup]
        assert [len(g.rotations) for g in groups] == [7] * 4


@st.composite
def small_programs(draw, model):
    """``model`` on at most six qubits with random couplings and angles.

    u2n stops at three chains: four or more have no local lowering.
    """
    spec = MODEL_SPECS[model]
    chains = spec.chains or draw(st.integers(2, 3))
    sites = draw(st.integers(2, 6 // chains))
    angle = st.floats(-math.pi, math.pi, allow_nan=False)

    def values(*shape):
        size = math.prod(shape)
        return np.array(draw(st.lists(angle, min_size=size, max_size=size))).reshape(
            shape
        )

    params = ModelParams(
        couplings=None if spec.long_range else values(chains, sites - 1),
        x_field=values(sites),
        z_field=values(sites) if spec.z_field else None,
        cnots=tuple(
            CnotParams(values(sites), values(sites), values(sites)) for _ in spec.cnots
        ),
        scales=tuple(values(sites) for _ in spec.ladder(chains)),
        long_range=values(chains, sites, sites) if spec.long_range else None,
        alpha=draw(st.floats(0.5, 3.0)),
    )
    return build_model(model, ChainLayout(chains, sites), params)


class TestLoweringProperty:
    # One test per registry model, so that every model is drawn.
    @pytest.mark.parametrize("model", sorted(MODEL_SPECS))
    @settings(max_examples=12)
    @given(data=st.data())
    def test_lowered_levels_match_the_program(self, model, data):
        program = data.draw(small_programs(model))
        for level in ("local-gadgets", "native-iswap"):
            assert (
                verify_equivalence(program.circuit, lower_program(program, level))
                < 1e-10
            )


class TestVerifyEquivalence:
    @pytest.mark.parametrize("n", [2, 7])
    def test_detects_mismatch(self, n):
        a = PauliRotation(PauliString.from_ops(n, {0: "Z"}), 0.3)
        b = PauliRotation(PauliString.from_ops(n, {0: "Z"}), 0.4)

        class Wrap:
            def __init__(self, rot):
                self.rot = rot
                self.n_qubits = n

            def apply_to(self, state):
                state.apply_rotation(self.rot)

        assert verify_equivalence(Wrap(a), Wrap(b)) > 1e-3

    @pytest.mark.parametrize("n", [2, 7])
    def test_ignores_global_phase(self, n):
        class Plain:
            n_qubits = n

            def apply_to(self, state):
                state.apply_rotation(
                    PauliRotation(PauliString.from_ops(n, {0: "Z"}), 0.3)
                )

        class Phased(Plain):
            def apply_to(self, state):
                super().apply_to(state)
                state.amplitudes *= np.exp(0.77j)

        assert verify_equivalence(Plain(), Phased()) < 1e-12

    def test_dense_callable_meets_block_circuit(self):
        n = 7
        circuit = Circuit(
            n,
            (
                PauliRotation(PauliString.from_ops(n, {1: "Z", 5: "X"}), 0.4),
                ISwapRotation((6, 2), math.pi / 4),
            ),
        )
        dense = dense_iswap(n, 6, 2) @ dense_rotation(n, {1: "Z", 5: "X"}, 0.4)
        assert verify_equivalence(dense, circuit) < 1e-12
        assert verify_equivalence(circuit, dense) < 1e-12
        assert verify_equivalence(np.eye(1 << n), circuit) > 0.1

    @pytest.mark.parametrize("shape", [(4, 8), (3, 3), (8,), (1, 1), (2, 2, 2)])
    def test_refuses_malformed_dense_operand(self, shape):
        rotation = Circuit(2, (PauliRotation(PauliString.from_ops(2, {0: "Z"}), 0.3),))
        with pytest.raises(ValueError, match="dense operand"):
            verify_equivalence(np.ones(shape, dtype=complex), rotation)

    @pytest.mark.parametrize(
        "other",
        [np.eye(8), Circuit(3, (PauliRotation(PauliString.from_ops(3, {0: "Z"}), 0.3),))],
    )
    def test_refuses_mismatched_register_sizes(self, other):
        rotation = Circuit(2, (PauliRotation(PauliString.from_ops(2, {0: "Z"}), 0.3),))
        with pytest.raises(ValueError, match="register sizes differ"):
            verify_equivalence(rotation, other)
        with pytest.raises(ValueError, match="register sizes differ"):
            verify_equivalence(np.eye(4), other)

    @pytest.mark.parametrize(
        "operand",
        [[PauliRotation(PauliString.from_ops(2, {0: "Z"}), 0.3)], "circuit", None],
        ids=["rotation-list", "str", "None"],
    )
    def test_refuses_an_operand_of_neither_kind(self, operand):
        with pytest.raises(ValueError, match="or has apply_to and n_qubits"):
            verify_equivalence(operand, np.eye(4))

    def test_refuses_large_register(self):
        layout = ChainLayout(2, 7)
        program = build_model("u4", layout, ideal_model_params("u4", layout))
        with pytest.raises(ValueError):
            verify_equivalence(program.circuit, program.circuit)

    def test_cap_holds_for_a_dense_operand(self):
        n = 13
        dense = np.broadcast_to(np.zeros((), dtype=complex), (1 << n, 1 << n))
        rotation = Circuit(n, (PauliRotation(PauliString.from_ops(n, {0: "Z"}), 0.3),))
        with pytest.raises(ValueError, match="capped"):
            verify_equivalence(dense, rotation)
