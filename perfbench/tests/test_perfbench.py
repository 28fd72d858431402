"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402
import pipeline  # noqa: E402
from kernels import KERNELS, SIZES, kernel_table, metric_name  # noqa: E402
from metrics import LAYER_MAP  # noqa: E402
from repdtc import PRESETS, harness, run_experiment  # noqa: E402
from repdtc.statevector import StateVector  # noqa: E402
from tracing import EVOLVE, MEASURE, Tracer, op_counts, traced_call  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize(
    "config",
    [
        replace(PRESETS["fig2a"], realizations=2, cycles=24),
        replace(PRESETS["fig5a"], realizations=2, cycles=24),
        replace(PRESETS["fig4-smoke"], realizations=2, cycles=24),
    ],
    ids=["per-qubit", "readout-chain", "native-noise-shots"],
)
def test_traced_run_matches_untraced_run_bit_for_bit(config, tmp_path):
    record = run_experiment(config)
    tracer = Tracer()
    with traced_call(tracer):
        traced = run_experiment(config, out_dir=tmp_path)
    assert measure._identical(traced, record)
    inside, outside = tracer.stage_tables("harness.realization")
    assert outside["harness.run"]["count"] == 1
    assert outside["harness.realization"]["count"] == config.realizations
    assert inside[EVOLVE]["count"] == config.realizations * config.cycles
    assert inside[MEASURE]["count"] == config.realizations * (config.cycles + 1)
    assert inside["models.build"]["count"] == config.realizations
    assert outside["harness.write"]["count"] == 1
    assert (tmp_path / "series.csv").is_file()
    ops = op_counts(tracer)
    assert sum(ops.values()) == traced.program_summary["ops_per_period"]


def test_instrument_restores_the_program():
    before = vars(harness).copy(), vars(StateVector).copy()
    with traced_call(Tracer()):
        assert harness.run_realization is not before[0]["run_realization"]
    assert vars(harness) == before[0] and dict(vars(StateVector)) == before[1]


def test_identical_rejects_one_ulp():
    config = replace(PRESETS["fig2a"], realizations=1, cycles=8)
    a, b = run_experiment(config), run_experiment(config)
    assert measure._identical(a, b)
    b.mean_series.values[3] = np.nextafter(b.mean_series.values[3], np.inf)
    assert not measure._identical(a, b)


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [
        ["outer", -1, 0, 100],
        ["inner", 0, 10, 40],
        ["leaf", 1, 15, 25],
        ["inner", -1, 150, 160],
    ]
    below, others = tracer.stage_tables("outer")
    assert set(below) == {"inner", "leaf"} and set(others) == {"outer", "inner"}
    assert others["outer"] == {"count": 1, "total_ns": 100, "self_ns": 70}
    assert below["inner"] == {"count": 1, "total_ns": 30, "self_ns": 20}
    assert below["leaf"]["self_ns"] == 10
    assert others["inner"] == {"count": 1, "total_ns": 10, "self_ns": 10}


def test_output_check_accepts_reference_and_rejects_drift():
    config = pipeline.make_config("sweep-8q", 0)
    record = run_experiment(config)
    ref = pipeline.load_reference("sweep-8q", config.seed)
    assert pipeline.check_record(record, ref) == (True, 0.0)
    record.mean_series.values[7] += 2 * pipeline.SERIES_TOL
    passed, dev = pipeline.check_record(record, ref)
    assert not passed and dev == pytest.approx(2 * pipeline.SERIES_TOL)


def test_metric_names_are_well_formed_and_mapped():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(LAYER_MAP) == per_layer
    kernel_names = {metric_name(k, n) for k in KERNELS for n in SIZES}
    assert kernel_names <= per_layer
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for moves in LAYER_MAP.values():
        for metric, workloads in moves.items():
            assert metric in e2e
            assert set(workloads) <= set(WORKLOADS)


def test_kernel_table_rows():
    rows = kernel_table(sizes=(4,))
    assert [r["kernel"] for r in rows] == list(KERNELS)
    assert all(r["ns_per_amp"] > 0 and r["reps"] >= 5 for r in rows)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sweep-8q",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    overhead = result["metrics"]["trace.overhead_frac"]["value"]
    assert np.isfinite(overhead)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-8q",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
