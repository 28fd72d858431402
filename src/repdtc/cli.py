"""Command-line entry point: run experiments, inspect presets, verify.

``repdtc run fig2a --out results/`` reproduces a preset end to end;
``repdtc verify`` exercises the compiler and eigenstate equivalence
suites and reports one PASS/FAIL line per check.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .compiler import (
    LOWERING_LEVELS,
    Circuit,
    decompose,
    lower_program,
    lower_to_native,
    verify_equivalence,
)
from .floquet_oracle import check_quasienergy_spectrum
from .harness import (
    PRESETS,
    CapacityError,
    ConfigError,
    apply_overrides,
    describe,
    list_presets,
    resolve_config,
    run_experiment,
)
from .models import (
    ChainLayout,
    FloquetProgram,
    build_generalized_cnot_layer,
    build_model,
    build_transversal_cnot_layer,
    ideal_model_params,
)
from .pauli import PauliRotation, PauliString


def _cmd_run(args) -> int:
    if args.threads < 1:
        print(f"error: --threads: need at least 1, got {args.threads}", file=sys.stderr)
        return 2
    try:
        config = apply_overrides(
            resolve_config(args.source),
            seed=args.seed,
            realizations=args.realizations,
            cycles=args.cycles,
            lowering=args.lowering,
        )
        print(
            f"{config.name}: {config.model} on {config.chains}x{config.sites} "
            f"({config.n_qubits} qubits), {config.realizations} realizations x "
            f"{config.cycles} cycles, seed {config.seed}"
        )
        record = run_experiment(config, out_dir=args.out, workers=args.threads)
    except (ConfigError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    chain = config.readout()
    scope = "full average" if chain is None else f"chain {chain} readout"
    print(
        f"subharmonic score {record.score:.3f} ({scope}) at bins "
        f"{record.target_bins}; non-DC argmax bins {record.argmax_bins} "
        f"({'match' if record.argmax_match else 'MISMATCH'})"
    )
    if chain is not None:
        print(f"full-average score {record.score_full:.3f}")
    ratio = record.estimate_seconds / max(record.wall_seconds, 1e-9)
    print(
        f"wall time {record.wall_seconds:.1f}s, estimated "
        f"{record.estimate_seconds:.1f}s (estimate/actual {ratio:.2f})"
    )
    if args.out:
        print(f"wrote series.csv, spectrum.csv, record.json under {args.out}")
    return 0


def _cmd_list() -> int:
    for name in list_presets():
        print(f"{name:12s} {PRESETS[name].description.splitlines()[0]}")
    return 0


def _cmd_describe(args) -> int:
    try:
        print(describe(args.preset))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


# -- verify suite ------------------------------------------------------------


def _dense_toffoli(n: int) -> np.ndarray:
    """X on qubit n - 1 when qubits 0..n-2 are all 1 (CNOT for n = 2)."""
    mat = np.eye(2**n, dtype=complex)
    controls = 2 ** (n - 1) - 1
    flip = [controls, controls | 2 ** (n - 1)]
    mat[np.ix_(flip, flip)] = [[0, 1], [1, 0]]
    return mat


def _check(name: str, value: float, tol: float) -> bool:
    ok = value < tol
    print(f"{'PASS' if ok else 'FAIL'}  {name}: max deviation {value:.3e} "
          f"(tol {tol:g})")
    return ok


def _cmd_verify() -> int:
    rng = np.random.default_rng(20240817)
    ok = True

    # Per-site gate layers against dense permutation gates.
    pair = ChainLayout(2, 1)
    cnot_layer = build_transversal_cnot_layer(
        pair, 0, 1, ideal_model_params("u4", pair).cnots[0]
    )
    dev = verify_equivalence(Circuit(2, cnot_layer.rotations), _dense_toffoli(2))
    ok &= _check("transversal CNOT site = CNOT gate", dev, 1e-12)

    triple = ChainLayout(3, 1)
    ccnot_layer = build_generalized_cnot_layer(triple, (0, 1), 2, np.ones(1))
    dev = verify_equivalence(Circuit(3, ccnot_layer.rotations), _dense_toffoli(3))
    ok &= _check("transversal CCNOT site = CCNOT gate", dev, 1e-12)

    # Conjugation gadgets against their target rotations.
    targets = {
        "i1": PauliString.from_ops(4, {0: "Z", 1: "Z", 2: "Z", 3: "X"}),
        "i2": PauliString.from_ops(4, {0: "Z", 3: "X"}),
        "i3": PauliString.from_ops(4, {0: "Z", 3: "Z"}),
    }
    worst = dict.fromkeys(targets, 0.0)
    for _ in range(20):
        theta = rng.uniform(-math.pi, math.pi)
        for kind, target in targets.items():
            bare = Circuit(4, (PauliRotation(target, theta),))
            dev = verify_equivalence(decompose(kind, target, theta), bare)
            worst[kind] = max(worst[kind], dev)
    ok &= _check("Z..ZX run gadget (20 random angles)", worst["i1"], 1e-10)
    ok &= _check("long-range ZX gadget (20 random angles)", worst["i2"], 1e-10)
    ok &= _check("long-range ZZ gadget (20 random angles)", worst["i3"], 1e-10)

    # Local lowering of a transversal CCNOT layer, two sites.
    layout = ChainLayout(3, 2)
    layer = build_generalized_cnot_layer(layout, (0, 1), 2, np.array([1.0, 0.7]))
    ccnot = FloquetProgram(layout, "u8", (layer,))
    dev = verify_equivalence(lower_program(ccnot, "local-gadgets"), ccnot.circuit)
    ok &= _check("local CCNOT sequence = transversal layer", dev, 1e-10)

    # Native lowering of every two-qubit letter pair.
    worst_pair = 0.0
    for pa in "XYZ":
        for pb in "XYZ":
            theta = rng.uniform(-math.pi, math.pi)
            target = PauliString.from_ops(2, {0: pa, 1: pb})
            rot = PauliRotation(target, theta)
            dev = verify_equivalence(lower_to_native([rot], 2), Circuit(2, (rot,)))
            worst_pair = max(worst_pair, dev)
    ok &= _check("iSWAP lowering of all letter pairs", worst_pair, 1e-12)

    # Whole-program lowering agreement; u8's CCNOT takes the generic path.
    for model, layout in (("u4", ChainLayout(2, 3)), ("u8", ChainLayout(3, 2))):
        program = build_model(model, layout, ideal_model_params(model, layout))
        for level in LOWERING_LEVELS[1:]:
            dev = verify_equivalence(program.circuit, lower_program(program, level))
            ok &= _check(f"{model} program vs {level} lowering", dev, 1e-10)

    # Logical eigenstate spectra for one, two, and three chains.
    oracle_cases = [
        ("2t", ChainLayout(1, 4)),
        ("u4", ChainLayout(2, 3)),
        ("u8", ChainLayout(3, 2)),
        ("u2n", ChainLayout(3, 2)),
    ]
    for model, lay in oracle_cases:
        couplings = rng.uniform(0.5, 2.0, (lay.n_chains, lay.sites - 1))
        params = ideal_model_params(model, lay, couplings)
        report = check_quasienergy_spectrum(
            build_model(model, lay, params), couplings
        )
        value = max(report["max_residual"], report["max_phase_error"],
                    report["max_spacing_error"])
        ok &= _check(
            f"{model} quasienergies ({lay.n_chains} chains)", value, 1e-9
        )

    print("verify:", "all checks passed" if ok else "FAILURES above")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repdtc",
        description="Simulate and compile repetition-code time crystals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a preset or config file")
    run_p.add_argument("source", help="preset name or config file path")
    run_p.add_argument("--seed", type=int, help="master seed override")
    run_p.add_argument("--realizations", type=int, help="disorder realizations")
    run_p.add_argument("--cycles", type=int, help="driving periods to record")
    run_p.add_argument("--out", type=Path, help="directory for CSV/JSON output")
    run_p.add_argument(
        "--lowering", choices=LOWERING_LEVELS, help="execution level override"
    )
    run_p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="realization worker processes, not chunk threads: a register of "
        "more than 15 qubits splits its chunks across the cores per worker",
    )

    sub.add_parser("list", help="list experiment presets")

    describe_p = sub.add_parser("describe", help="show a preset's parameters")
    describe_p.add_argument("preset")

    sub.add_parser("verify", help="run the equivalence and eigenstate suites")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list":
        return _cmd_list()
    if args.command == "describe":
        return _cmd_describe(args)
    return _cmd_verify()


if __name__ == "__main__":
    raise SystemExit(main())
