import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repdtc
from repdtc import (
    ChainLayout,
    StateVector,
    build_model,
    ideal_model_params,
    logical_basis_index,
)
from repdtc.disorder import DisorderSpec, SeedPlan, sample_model_params
from repdtc.floquet_oracle import check_quasienergy_spectrum
from repdtc.harness import ConfigError, ExperimentConfig
from repdtc.models import (
    MODEL_SPECS,
    CnotParams,
    Layer,
    build_generalized_cnot_layer,
    build_h_rep_layer,
    build_logical_x_layer,
    build_long_range_stabilizer_layer,
    build_transversal_cnot_layer,
    default_targets,
    model_spec,
)
from repdtc.pauli import PauliRotation, PauliString

from conftest import circuit_unitary, dense_cnot, dense_multi_cnot, phase_distance


def chain_roles(layout, layer):
    """(control chains, target chain) of a gate layer, read from its
    widest rotation: Z on every control, X on the target."""
    widest = max(layer.rotations, key=lambda rot: rot.pauli.weight)
    letters = widest.pauli.letters

    def chains(letter):
        return tuple(
            layout.chain_site(q)[0] for q in widest.pauli.support() if letters[q] == letter
        )

    (target,) = chains("X")
    return chains("Z"), target


class TestChainLayout:
    def test_qubit_indexing(self):
        layout = ChainLayout(3, 4)
        assert layout.qubit(0, 0) == 0
        assert layout.qubit(1, 0) == 4
        assert layout.qubit(2, 3) == 11
        assert layout.n_qubits == 12

    def test_chain_site_roundtrip(self):
        layout = ChainLayout(2, 5)
        for q in range(layout.n_qubits):
            c, j = layout.chain_site(q)
            assert layout.qubit(c, j) == q

    def test_adjacent_same_site_neighbor_chains(self):
        layout = ChainLayout(3, 4)
        assert layout.adjacent(layout.qubit(0, 2), layout.qubit(1, 2))
        assert layout.adjacent(layout.qubit(1, 0), layout.qubit(1, 1))
        assert not layout.adjacent(layout.qubit(0, 0), layout.qubit(2, 0))

    def test_rejects_empty_layout(self):
        with pytest.raises(ValueError):
            ChainLayout(0, 4)
        with pytest.raises(ValueError):
            ChainLayout(2, 0)

    def test_qubit_and_chain_site_refuse_out_of_range(self):
        layout = ChainLayout(2, 3)
        with pytest.raises(ValueError, match="^chain 2 out of range$"):
            layout.qubit(2, 0)
        with pytest.raises(ValueError, match="^site -1 out of range$"):
            layout.qubit(0, -1)
        with pytest.raises(ValueError, match="^qubit 6 out of range$"):
            layout.chain_site(6)


class TestLogicalBasisIndex:
    def test_two_chain_states(self):
        layout = ChainLayout(2, 3)
        # bit k of j sets chain k to all ones
        assert logical_basis_index(layout, 0) == 0
        assert logical_basis_index(layout, 1) == 0b000111
        assert logical_basis_index(layout, 2) == 0b111000
        assert logical_basis_index(layout, 3) == 0b111111

    def test_rejects_out_of_range(self):
        layout = ChainLayout(2, 2)
        with pytest.raises(ValueError):
            logical_basis_index(layout, 4)


_LAYOUT = ChainLayout(3, 2)
_CNOT = CnotParams(np.zeros(2), np.zeros(2), np.zeros(2))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: build_h_rep_layer(_LAYOUT, np.zeros((3, 2))), "couplings must"),
        (lambda: build_h_rep_layer(_LAYOUT, np.zeros((3, 1)), np.zeros(3)),
         "z_field needs"),
        (lambda: build_long_range_stabilizer_layer(_LAYOUT, np.zeros((3, 2))),
         "long-range couplings must"),
        (lambda: build_logical_x_layer(_LAYOUT, np.zeros(3)), "x_field must"),
        (lambda: build_transversal_cnot_layer(
            _LAYOUT, 0, 1, CnotParams(np.zeros(3), np.zeros(2), np.zeros(2))),
         "CNOT parameter arrays must"),
        (lambda: build_transversal_cnot_layer(_LAYOUT, 1, 1, _CNOT),
         "control and target chains must differ"),
        (lambda: build_generalized_cnot_layer(_LAYOUT, (0,), 2, np.ones(3)),
         "scales must"),
        (lambda: build_generalized_cnot_layer(_LAYOUT, (0, 0), 2, np.ones(2)),
         "control and target chains must be distinct"),
        (lambda: build_generalized_cnot_layer(_LAYOUT, (0, 2), 2, np.ones(2)),
         "control and target chains must be distinct"),
        (lambda: build_generalized_cnot_layer(_LAYOUT, (), 2, np.ones(2)),
         "need at least one control chain"),
    ],
    ids=["h-rep-couplings", "h-rep-z-field", "long-range-couplings", "x-field",
         "cnot-params", "cnot-same-chain", "generalized-scales",
         "generalized-repeated-control", "generalized-target-in-controls",
         "generalized-no-control"],
)
def test_layer_builders_refuse_bad_shapes_and_chains(build, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        build()


class TestLayerBuilders:
    def test_layer_of_anticommuting_rotations_is_refused(self):
        rots = tuple(PauliRotation(PauliString.from_ops(2, {0: p}), 0.1) for p in "XZ")
        with pytest.raises(ValueError, match="^layer 'clash' contains non-commuting"):
            Layer("clash", "x", rots)

    def test_h_rep_angles_negate_couplings(self):
        layout = ChainLayout(1, 4)
        j = np.array([[0.3, 0.7, 1.1]])
        layer = build_h_rep_layer(layout, j)
        assert [r.angle for r in layer.rotations] == [-0.3, -0.7, -1.1]
        for b, rot in enumerate(layer.rotations):
            assert rot.pauli.support() == (b, b + 1)
            assert set(rot.pauli.letters) <= {"I", "Z"}

    def test_h_rep_is_diagonal_with_known_phases(self):
        layout = ChainLayout(1, 3)
        j = np.array([[0.4, 0.9]])
        layer = build_h_rep_layer(layout, j)
        state = StateVector.basis_state(3, 0)
        for rot in layer.rotations:
            state.apply_rotation(rot)
        # all-zero state: every ZZ bond is +1, picks up e^{+i sum J}
        assert state.amplitudes[0] == pytest.approx(np.exp(1.3j))

    def test_x_layer_shape(self):
        layout = ChainLayout(2, 3)
        layer = build_logical_x_layer(layout, np.full(3, math.pi / 2))
        assert len(layer.rotations) == 3
        assert all(r.pauli.support()[0] < 3 for r in layer.rotations)

    def test_long_range_angles_follow_power_law(self):
        layout = ChainLayout(2, 4)
        lr = np.zeros((2, 4, 4))
        lr[0, 1, 0] = 2.0
        lr[0, 3, 1] = 2.0
        lr[1, 3, 0] = 3.0
        layer = build_long_range_stabilizer_layer(layout, lr, 1.5)
        by_support = {r.pauli.support(): r.angle for r in layer.rotations}
        assert by_support[(0, 1)] == pytest.approx(2.0)
        assert by_support[(1, 3)] == pytest.approx(2.0 / 2**1.5)
        assert by_support[(4, 7)] == pytest.approx(3.0 / 3**1.5)


class TestTransversalGates:
    def test_ideal_cnot_site_equals_dense(self):
        layout = ChainLayout(2, 1)
        params = ideal_model_params("u4", layout)
        layer = build_transversal_cnot_layer(layout, 0, 1, params.cnots[0])

        def apply(state):
            for rot in layer.rotations:
                state.apply_rotation(rot)

        got = circuit_unitary(apply, 2)
        assert phase_distance(got, dense_cnot(2, 0, 1)) < 1e-12

    def test_ideal_cnot_phase_is_quarter_turn(self):
        layout = ChainLayout(2, 1)
        params = ideal_model_params("u4", layout)
        layer = build_transversal_cnot_layer(layout, 0, 1, params.cnots[0])

        def apply(state):
            for rot in layer.rotations:
                state.apply_rotation(rot)

        got = circuit_unitary(apply, 2)
        assert np.allclose(got, np.exp(1j * math.pi / 4) * dense_cnot(2, 0, 1))

    def test_ideal_ccnot_site_equals_dense(self):
        layout = ChainLayout(3, 1)
        layer = build_generalized_cnot_layer(layout, (0, 1), 2, np.ones(1))

        def apply(state):
            for rot in layer.rotations:
                state.apply_rotation(rot)

        got = circuit_unitary(apply, 3) * layer.phase
        assert np.allclose(got, dense_multi_cnot(3, (0, 1), 2), atol=1e-12)

    def test_ccnot_layer_records_phase(self):
        layout = ChainLayout(3, 2)
        layer = build_generalized_cnot_layer(layout, (0, 1), 2, np.array([1.0, 0.5]))
        want = np.exp(-1j * math.pi / 8 * 1.0) * np.exp(-1j * math.pi / 8 * 0.5)
        assert layer.phase == pytest.approx(want)

    def test_ccnot_term_count(self):
        layout = ChainLayout(3, 2)
        layer = build_generalized_cnot_layer(layout, (0, 1), 2, np.ones(2))
        assert len(layer.rotations) == 14

    def test_generalized_three_controls_equals_dense(self):
        layout = ChainLayout(4, 1)
        layer = build_generalized_cnot_layer(layout, (0, 1, 2), 3, np.ones(1))

        def apply(state):
            for rot in layer.rotations:
                state.apply_rotation(rot)

        got = circuit_unitary(apply, 4) * layer.phase
        assert np.allclose(got, dense_multi_cnot(4, (0, 1, 2), 3), atol=1e-10)


def logical_cycle(model, layout, order):
    """Assert the ideal program walks the given logical index cycle."""
    params = ideal_model_params(model, layout)
    program = build_model(model, layout, params)
    state = StateVector.basis_state(
        layout.n_qubits, logical_basis_index(layout, order[0])
    )
    for nxt in order[1:] + order[:1]:
        program.circuit.apply_to(state)
        want = StateVector.basis_state(
            layout.n_qubits, logical_basis_index(layout, nxt)
        )
        assert state.fidelity(want) >= 1 - 1e-10


class TestLogicalCycles:
    def test_u4_four_cycle(self):
        # |00> -> |11> -> |01> -> |10> -> |00> in (chain1, chain2) order;
        # chain 1 is the low logical bit, so the indices decrement 0,3,2,1.
        logical_cycle("u4", ChainLayout(2, 3), [0, 3, 2, 1])

    def test_u3_both_cycles(self):
        layout = ChainLayout(3, 2)
        # |000> -> |010> -> |100> -> |000>: chain flips read low-bit-first
        logical_cycle("u3", layout, [0, 2, 1])
        # |111> -> |001> -> |101> -> |111>
        logical_cycle("u3", layout, [7, 4, 5])

    def test_u8_period_eight_decrement(self):
        layout = ChainLayout(3, 2)
        params = ideal_model_params("u8", layout)
        program = build_model("u8", layout, params)
        for start in range(8):
            state = StateVector.basis_state(
                layout.n_qubits, logical_basis_index(layout, start)
            )
            for k in range(1, 9):
                program.circuit.apply_to(state)
                want = StateVector.basis_state(
                    layout.n_qubits, logical_basis_index(layout, (start - k) % 8)
                )
                assert state.fidelity(want) >= 1 - 1e-10

    @pytest.mark.parametrize("n,sites", [(2, 2), (2, 3), (3, 2)])
    def test_u2n_decrement_law(self, n, sites):
        layout = ChainLayout(n, sites)
        params = ideal_model_params("u2n", layout)
        program = build_model("u2n", layout, params)
        period = 2**n
        for j in range(period):
            state = StateVector.basis_state(
                layout.n_qubits, logical_basis_index(layout, j)
            )
            for k in range(1, period + 1):
                program.circuit.apply_to(state)
                want = StateVector.basis_state(
                    layout.n_qubits, logical_basis_index(layout, (j - k) % period)
                )
                assert state.fidelity(want) >= 1 - 1e-10
                if k < period:
                    here = StateVector.basis_state(
                        layout.n_qubits, logical_basis_index(layout, j)
                    )
                    assert state.fidelity(here) < 1e-10

    def test_u2n_n2_matches_u4_dense(self):
        layout = ChainLayout(2, 2)
        u4 = build_model("u4", layout, ideal_model_params("u4", layout))
        u2n = build_model("u2n", layout, ideal_model_params("u2n", layout))
        a = circuit_unitary(u4.circuit.apply_to, 4)
        b = circuit_unitary(u2n.circuit.apply_to, 4)
        assert phase_distance(a, b) < 1e-10

    def test_2t_flips_logical_state(self):
        layout = ChainLayout(1, 3)
        params = ideal_model_params("2t", layout)
        program = build_model("2t", layout, params)
        state = StateVector.basis_state(3, 0)
        program.circuit.apply_to(state)
        assert state.fidelity(StateVector.basis_state(3, 7)) >= 1 - 1e-10
        program.circuit.apply_to(state)
        assert state.fidelity(StateVector.basis_state(3, 0)) >= 1 - 1e-10


class TestBuildModelValidation:
    def test_unknown_model(self):
        layout = ChainLayout(2, 2)
        with pytest.raises(ValueError, match="unknown model"):
            build_model("u5", layout, ideal_model_params("u4", layout))

    def test_u4_wrong_chain_count(self):
        layout = ChainLayout(3, 2)
        with pytest.raises(ValueError):
            build_model("u4", layout, ideal_model_params("u4", layout))

    def test_u4lr_needs_long_range_block(self):
        layout = ChainLayout(2, 3)
        with pytest.raises(ValueError):
            build_model("u4lr", layout, ideal_model_params("u4", layout))

    def test_layer_order_is_stabilizer_x_gates(self):
        layout = ChainLayout(3, 2)
        program = build_model("u3", layout, ideal_model_params("u3", layout))
        kinds = [layer.kind for layer in program.layers]
        assert kinds == ["stabilizer", "x", "cnot", "cnot", "cnot"]
        pairs = [
            chain_roles(layout, layer) for layer in program.layers if layer.kind == "cnot"
        ]
        assert pairs == [((2,), 1), ((0,), 1), ((1,), 0)]


class TestModelTables:
    @pytest.mark.parametrize(
        "model,chains,period",
        [("u4", 2, 4), ("u4lr", 2, 4), ("u3", 3, 3), ("u8", 3, 8), ("2t", 1, 2),
         ("u2n", 4, 16)],
    )
    def test_model_period(self, model, chains, period):
        assert model_spec(model).period(chains) == period

    def test_default_targets_mirror_pair(self):
        omega, mirror = default_targets("u8", 3)
        assert omega == pytest.approx(math.pi / 4)
        assert mirror == pytest.approx(2 * math.pi - math.pi / 4)

    def test_default_targets_period_two_single(self):
        assert default_targets("2t", 1) == (math.pi,)

    @pytest.mark.parametrize(
        "model,chains,chain",
        [("u4", 2, 1), ("u4lr", 2, 1), ("u8", 3, 2), ("u2n", 4, 3),
         ("u3", 3, None), ("2t", 1, None)],
    )
    def test_readout_chain(self, model, chains, chain):
        assert model_spec(model).readout(chains) == chain


class TestProgramSerialization:
    def test_to_dict_roundtrip_fields(self):
        layout = ChainLayout(2, 2)
        program = build_model("u4", layout, ideal_model_params("u4", layout))
        doc = program.to_dict()
        assert doc["model"] == "u4"
        assert doc["chains"] == 2 and doc["sites"] == 2
        assert len(doc["layers"]) == 3
        total = sum(len(layer["rotations"]) for layer in doc["layers"])
        assert total == len(list(program.all_rotations()))


@pytest.mark.parametrize("model", sorted(MODEL_SPECS))
def test_registry_entry_drives_every_reader(model):
    """Each ModelSpec row, at its smallest legal layout, is what the
    builder, the sampler, the config check and the oracle act on."""
    spec = MODEL_SPECS[model]
    chains = 2 if spec.chains is None else spec.chains
    layout = ChainLayout(chains, 2)
    ladder = spec.ladder(chains)

    long_range = np.ones((chains, 2, 2)) if spec.long_range else None
    params = ideal_model_params(model, layout, long_range=long_range)
    program = build_model(model, layout, params)
    stabilizer = "stabilizer-lr" if spec.long_range else "stabilizer"
    kinds = [layer.kind for layer in program.layers]
    assert len(kinds) == 2 + len(spec.cnots) + len(ladder)
    assert kinds == [stabilizer, "x"] + ["cnot"] * len(spec.cnots) + [
        "generalized"
    ] * len(ladder)
    cnot_pairs = [
        chain_roles(layout, layer) for layer in program.layers if layer.kind == "cnot"
    ]
    assert cnot_pairs == [((control,), target) for control, target in spec.cnots]
    ladder_entries = [
        chain_roles(layout, layer)
        for layer in program.layers
        if layer.kind == "generalized"
    ]
    assert ladder_entries == list(ladder)

    config = ExperimentConfig(
        name=model,
        model=model,
        chains=chains,
        sites=2,
        realizations=1,
        cycles=2 * spec.period(chains),
        seed=1,
        coupling_specs=tuple(DisorderSpec(1.0, 0.5) for _ in range(chains)),
        error_fraction=(0.05, 0.1),
    )
    config.validate()
    sampled = sample_model_params(config, SeedPlan(3), 0)
    assert len(sampled.cnots) == len(spec.cnots)
    assert len(sampled.scales) == len(ladder)
    off_rule = 1 if spec.chains is None else spec.chains + 1
    with pytest.raises(ConfigError, match="^chains:"):
        replace(config, chains=off_rule).validate()

    if spec.oracle:
        assert check_quasienergy_spectrum(program, params.couplings)["passed"]


def test_invariant_checks_survive_optimized_mode():
    """Under python -O a layer of non-commuting rotations and a
    non-Hermitian conjugation image still raise ValueError."""
    code = """
from repdtc.models import Layer
from repdtc.pauli import PauliRotation, PauliString, clifford_conjugate

rots = tuple(PauliRotation(PauliString.from_ops(1, {0: p}), 0.1) for p in "XZ")
try:
    Layer("clash", "x", rots)
except ValueError:
    pass
else:
    raise SystemExit("layer with X and Z on one qubit was accepted")
try:
    clifford_conjugate(PauliString(("Z",)), 1, PauliString(("X",), 1))
except ValueError:
    pass
else:
    raise SystemExit("non-Hermitian conjugation image was accepted")
"""
    src = str(Path(repdtc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
