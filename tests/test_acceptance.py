"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single summary line; the heavyweight experiment
records are computed once per module and shared.  The whole module runs
serially in a few minutes on one core.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import dense_cnot, dense_multi_cnot, phase_distance
from repdtc import ChainLayout, FloquetProgram, StateVector, build_model
from repdtc.compiler import (
    Circuit,
    decompose,
    lower_program,
    lower_to_native,
    verify_equivalence,
)
from repdtc.disorder import DisorderSpec
from repdtc.floquet_oracle import check_quasienergy_spectrum
from repdtc.harness import (
    PRESETS,
    ExperimentConfig,
    run_experiment,
    write_outputs,
)
from repdtc.models import (
    build_generalized_cnot_layer,
    build_transversal_cnot_layer,
    ideal_model_params,
    logical_basis_index,
)
from repdtc.observables import subharmonic_lifetime
from repdtc.pauli import PauliRotation, PauliString

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def fig2a_record():
    return run_experiment(PRESETS["fig2a"])


@pytest.fixture(scope="module")
def fig2b_record():
    return run_experiment(PRESETS["fig2b"])


@pytest.fixture(scope="module")
def fig2a_long_record():
    return run_experiment(replace(PRESETS["fig2a"], cycles=2000))


@pytest.fixture(scope="module")
def fig2b_long_record():
    return run_experiment(replace(PRESETS["fig2b"], cycles=2000))


def test_criterion_1_ideal_logical_cycles():
    """Ideal drives walk their logical index cycles with fidelity 1."""
    cases = [
        ("2t", ChainLayout(1, 4), 2),
        ("u4", ChainLayout(2, 4), 4),
        ("u8", ChainLayout(3, 3), 8),
        ("u2n", ChainLayout(4, 2), 16),
    ]
    worst = 1.0
    for model, layout, period in cases:
        program = build_model(model, layout, ideal_model_params(model, layout))
        for start in range(period):
            state = StateVector.basis_state(
                layout.n_qubits, logical_basis_index(layout, start)
            )
            for k in range(1, period + 1):
                program.circuit.apply_to(state)
                want = StateVector.basis_state(
                    layout.n_qubits,
                    logical_basis_index(layout, (start - k) % period),
                )
                worst = min(worst, state.fidelity(want))
    # The period-3 drive permutes within two disjoint 3-orbits.
    layout = ChainLayout(3, 3)
    program = build_model("u3", layout, ideal_model_params("u3", layout))
    for orbit in ([0, 2, 1], [7, 4, 5]):
        state = StateVector.basis_state(
            layout.n_qubits, logical_basis_index(layout, orbit[0])
        )
        for nxt in orbit[1:] + orbit[:1]:
            program.circuit.apply_to(state)
            want = StateVector.basis_state(
                layout.n_qubits, logical_basis_index(layout, nxt)
            )
            worst = min(worst, state.fidelity(want))
    assert worst >= 1 - 1e-10, f"worst logical-cycle fidelity {worst}"
    print(f"criterion 1 PASS: worst logical-cycle fidelity {worst:.2e}")


def test_criterion_2_logical_eigenstate_spectra():
    """Exact eigenstates with pi/2**(n-1) quasienergy spacing, n = 1..3."""
    rng = np.random.default_rng(7)
    results = []
    for model, layout in (
        ("2t", ChainLayout(1, 4)),
        ("u4", ChainLayout(2, 3)),
        ("u8", ChainLayout(3, 2)),
    ):
        couplings = rng.uniform(0.5, 2.0, (layout.n_chains, layout.sites - 1))
        params = ideal_model_params(model, layout, couplings)
        report = check_quasienergy_spectrum(
            build_model(model, layout, params), couplings
        )
        assert report["passed"], f"{model}: {report}"
        assert report["max_residual"] < 1e-9
        assert report["max_phase_error"] < 1e-9
        assert report["max_spacing_error"] < 1e-9
        assert report["spacing_target"] == pytest.approx(
            math.pi / 2 ** (layout.n_chains - 1)
        )
        results.append(f"{model}:{report['max_residual']:.1e}")
    print(f"criterion 2 PASS: eigenstate residuals {' '.join(results)}")


def test_criterion_3_gate_decomposition_identities():
    """Every lowering identity holds at its stated tolerance."""
    rng = np.random.default_rng(20260817)

    # Transversal CNOT layer = product of CNOT permutation gates (8 qubits).
    layout = ChainLayout(2, 4)
    params = ideal_model_params("u4", layout)
    layer = build_transversal_cnot_layer(layout, 0, 1, params.cnots[0])
    dense = np.eye(1 << 8, dtype=complex)
    for site in range(4):
        dense = dense_cnot(8, site, 4 + site) @ dense
    dev_cnot = verify_equivalence(Circuit(8, layer.rotations), dense)
    assert dev_cnot < 1e-12, f"CNOT layer deviation {dev_cnot}"

    # Transversal CCNOT layer = product of CCNOT gates (9 qubits).
    layout = ChainLayout(3, 3)
    layer = build_generalized_cnot_layer(layout, (0, 1), 2, np.ones(3))
    dense = np.eye(1 << 9, dtype=complex)
    for site in range(3):
        dense = dense_multi_cnot(9, (site, 3 + site), 6 + site) @ dense
    dev_ccnot = verify_equivalence(Circuit(9, layer.rotations), dense)
    assert dev_ccnot < 1e-12, f"CCNOT layer deviation {dev_ccnot}"

    # The local lowering of a transversal CCNOT layer reproduces the layer.
    layout = ChainLayout(3, 2)
    layer = build_generalized_cnot_layer(layout, (0, 1), 2, np.array([1.0, 0.7]))
    transversal = FloquetProgram(layout, "u8", (layer,))
    local = lower_program(transversal, "local-gadgets")
    dev_local = verify_equivalence(local, transversal.circuit)
    assert dev_local < 1e-10, f"local CCNOT deviation {dev_local}"

    # Conjugation gadgets, 50 random angles per family, 8 qubits.
    run_target = PauliString.from_ops(8, {q: "Z" for q in range(7)} | {7: "X"})
    zx_target = PauliString.from_ops(8, {0: "Z", 7: "X"})
    zz_target = PauliString.from_ops(8, {0: "Z", 7: "Z"})
    dev_gadget = 0.0
    for theta in rng.uniform(-math.pi, math.pi, 50):
        for kind, target in (
            ("i1", run_target),
            ("i2", zx_target),
            ("i3", zz_target),
        ):
            seq = decompose(kind, target, theta)
            dev = verify_equivalence(
                seq, Circuit(8, (PauliRotation(target, theta),))
            )
            dev_gadget = max(dev_gadget, dev)
    assert dev_gadget < 1e-10, f"gadget deviation {dev_gadget}"

    # Native iSWAP blocks for every two-qubit letter pair.
    dev_native = 0.0
    for pa in "XYZ":
        for pb in "XYZ":
            theta = rng.uniform(-math.pi, math.pi)
            rot = PauliRotation(PauliString.from_ops(2, {0: pa, 1: pb}), theta)
            circuit = lower_to_native([rot], 2)
            dev_native = max(dev_native, verify_equivalence(circuit, Circuit(2, (rot,))))
    assert dev_native < 1e-12, f"native letter-pair deviation {dev_native}"

    # Scale check: the same identities hold on 16-qubit states.
    n = 16
    base = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    base /= np.linalg.norm(base)
    big_targets = [
        PauliString.from_ops(n, {q: "Z" for q in range(n - 1)} | {n - 1: "X"}),
        PauliString.from_ops(n, {0: "Z", n - 1: "X"}),
        PauliString.from_ops(n, {0: "Z", n - 1: "Z"}),
    ]
    dev_16 = 0.0
    for kind, target in zip(("i1", "i2", "i3"), big_targets):
        theta = rng.uniform(-math.pi, math.pi)
        got = StateVector(n)
        got.amplitudes[:] = base
        decompose(kind, target, theta).apply_to(got)
        want = StateVector(n)
        want.amplitudes[:] = base
        want.apply_rotation(PauliRotation(target, theta))
        dev_16 = max(dev_16, phase_distance(got.amplitudes, want.amplitudes))
    rot = PauliRotation(PauliString.from_ops(n, {0: "Z", n - 1: "Z"}), 0.83)
    got = StateVector(n)
    got.amplitudes[:] = base
    lower_to_native([rot], n).apply_to(got)
    want = StateVector(n)
    want.amplitudes[:] = base
    want.apply_rotation(rot)
    dev_16 = max(dev_16, phase_distance(got.amplitudes, want.amplitudes))
    assert dev_16 < 1e-10, f"16-qubit state deviation {dev_16}"

    print(
        "criterion 3 PASS: cnot "
        f"{dev_cnot:.1e}, ccnot {dev_ccnot:.1e}, local {dev_local:.1e}, "
        f"gadgets {dev_gadget:.1e}, native {dev_native:.1e}, 16q {dev_16:.1e}"
    )


def test_criterion_4_period_four_subharmonic(
    fig2a_record, fig2b_record, fig2a_long_record, fig2b_long_record
):
    """Disordered period-4 runs score >= 3 and live longer on longer chains."""
    for record in (fig2a_record, fig2b_record):
        name = record.config.name
        assert record.score >= 3.0, f"{name} score {record.score:.3f} < 3"
        assert record.argmax_match, (
            f"{name} non-DC argmax {record.argmax_bins} is off the "
            f"targets {record.target_bins}"
        )
    lifetimes = {}
    for record in (fig2a_long_record, fig2b_long_record):
        lifetimes[record.config.name] = subharmonic_lifetime(
            record.readout_series, record.config.resolved_targets()
        )
    assert lifetimes["fig2b"] >= lifetimes["fig2a"], (
        f"size-5 lifetime {lifetimes['fig2b']} cycles fell below "
        f"size-4 lifetime {lifetimes['fig2a']}"
    )
    print(
        f"criterion 4 PASS: scores fig2a {fig2a_record.score:.2f} / "
        f"fig2b {fig2b_record.score:.2f}, lifetimes {lifetimes['fig2a']} <= "
        f"{lifetimes['fig2b']} cycles over 2000"
    )


def test_criterion_5_long_range_subharmonic():
    """Power-law couplings keep the period-4 response over 100 realizations."""
    record = run_experiment(PRESETS["fig3"])
    assert record.config.realizations == 100
    assert record.score >= 3.0, f"fig3 score {record.score:.3f} < 3"
    assert record.argmax_match
    print(f"criterion 5 PASS: fig3 score {record.score:.2f} at bins {record.target_bins}")


def test_criterion_6_higher_period_subharmonics():
    """Period-8 and period-3 drives hold their own subharmonic lines."""
    scores = {}
    for name in ("fig5a", "fig5b"):
        record = run_experiment(PRESETS[name])
        assert record.score >= 2.0, f"{name} score {record.score:.3f} < 2"
        assert record.argmax_match, (
            f"{name} argmax {record.argmax_bins} off targets {record.target_bins}"
        )
        scores[name] = record.score
    print(
        f"criterion 6 PASS: fig5a score {scores['fig5a']:.2f}, "
        f"fig5b score {scores['fig5b']:.2f}"
    )


def test_criterion_7_hardware_native_run():
    """The native-gate, noisy, sampled run keeps the period-4 argmax pair."""
    started = time.perf_counter()
    smoke = run_experiment(PRESETS["fig4-smoke"])
    smoke_seconds = time.perf_counter() - started
    assert smoke.argmax_match, (
        f"smoke argmax {smoke.argmax_bins} off targets {smoke.target_bins}"
    )
    assert smoke_seconds < 300, f"smoke run took {smoke_seconds:.0f}s"

    full = run_experiment(PRESETS["fig4-analog"])
    assert full.argmax_match, (
        f"fig4-analog argmax {full.argmax_bins} off targets {full.target_bins}"
    )
    print(
        f"criterion 7 PASS: fig4-smoke {smoke_seconds:.0f}s score "
        f"{smoke.score:.2f}; fig4-analog score {full.score:.2f} with argmax "
        f"{full.argmax_bins}"
    )


def test_criterion_8_bit_level_reproducibility(tmp_path):
    """Identical artifacts across repeat runs and worker counts."""
    config = ExperimentConfig(
        name="repro",
        model="u4",
        chains=2,
        sites=3,
        realizations=4,
        cycles=48,
        seed=7,
        coupling_specs=(DisorderSpec(1.5, 0.5), DisorderSpec(2.5, 0.5)),
        error_fraction=(0.05, 0.10),
    )
    outputs = []
    for label, workers in (("first", 1), ("second", 1), ("third", 2)):
        record = run_experiment(config, workers=workers)
        out = tmp_path / label
        write_outputs(record, out)
        outputs.append(out)
    series = [(out / "series.csv").read_bytes() for out in outputs]
    spectra = [(out / "spectrum.csv").read_bytes() for out in outputs]
    assert series[0] == series[1] == series[2], "series.csv bytes differ"
    assert spectra[0] == spectra[1] == spectra[2], "spectrum.csv bytes differ"
    records = []
    for out in outputs:
        with open(out / "record.json") as fh:
            data = json.load(fh)
        data.pop("wall_seconds")
        records.append(data)
    assert records[0] == records[1] == records[2], "record.json payloads differ"
    print(
        "criterion 8 PASS: series.csv and spectrum.csv byte-identical over "
        "repeat runs and 1-vs-2 workers"
    )
