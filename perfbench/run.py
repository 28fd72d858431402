"""repdtc benchmark: per-cycle cost, set-up time and memory per workload.

    python3 perfbench/run.py --workload sweep-8q --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

Run from the root of a repository checkout; repdtc is imported from its
``src``.  Every invocation checks the program's outputs: each call
against the reference recorded for the seed and, once per invocation,
pool-12q's series.csv bytes at two workers against one worker.  With ``--trace 0`` it reports
the end-to-end metrics (cycle_ms, setup_s, peak_rss_mib) measured with
tracing off; with ``--trace 1`` the per-layer metrics and, once per
invocation, the kernel table.  Human-readable lines come first; the last line of stdout is the
JSON result.  Nothing here sets a BLAS thread variable: the measuring
processes inherit the caller's environment.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

from workloads import (
    BENCH_DIR,
    ROOT,
    TMP_DIR,
    WORKLOADS,
    check_checkout,
    median,
    timing_summary,
)

SETUP_PROBES = 9
# Every invocation must end well inside 180 s.
BUDGET_SECONDS = 170.0


def _metric_specs() -> dict[str, dict[str, str]]:
    """Metric name -> unit for each mode, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        mode: {m["name"]: m["unit"] for m in spec[key]}
        for mode, key in (("timed", "end_to_end"), ("traced", "per_layer"))
    }


class BenchError(RuntimeError):
    pass


def _python(script: str, args, deadline: float) -> str:
    """Run a benchmark script to completion; its stdout."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / script), *map(str, args)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        # The session also holds any process-pool workers.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{script} {' '.join(map(str, args))} timed out")
    if proc.returncode != 0:
        raise BenchError(f"{script} {' '.join(map(str, args))} exited {proc.returncode}")
    return out


def _child_json(script: str, args, deadline: float) -> dict:
    return json.loads(_python(script, args, deadline).strip().splitlines()[-1])


def _setup_seconds(workload: str, seed: int, deadline: float) -> float:
    start = time.monotonic_ns()
    ready = int(_python("setup_probe.py", (workload, seed), deadline).split()[-1])
    return (ready - start) / 1e9


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """(metrics, attempted, failed, report) for one workload."""
    mode = "traced" if trace else "timed"
    setup = []
    if not trace:
        setup = [_setup_seconds(workload, seed, deadline) for _ in range(SETUP_PROBES)]
    child = _child_json("measure.py", (mode, workload, seed, seconds), deadline)
    report = {
        "workload": workload,
        "seed": seed,
        "workers": child["workers"],
        "failed_frac": child["failed"] / child["attempted"],
        "env": child["env"],
    }
    if trace:
        metrics = child["metrics"]
        for key in ("stages", "samples"):
            report[key] = child[key]
    else:
        rss = child["rss_mib"]
        cycle_ms = child["cycle_ms"]
        metrics = {"setup_s": median(setup), "peak_rss_mib": rss["peak"]}
        if cycle_ms:
            metrics["cycle_ms"] = median(cycle_ms)
        report.update(
            cycle_ms=timing_summary(cycle_ms) if cycle_ms else None,
            setup_s=timing_summary(setup),
            rss_mib=rss,
            series_max_dev=child["series_max_dev"],
        )
    return metrics, child["attempted"], child["failed"], report


def _print_summary(metrics: dict, units: dict, report: dict) -> None:
    print(f"== {report['workload']} (seed {report['seed']})")
    for name, value in sorted(metrics.items()):
        extra = ""
        summary = report.get(name)
        if isinstance(summary, dict) and "n" in summary:
            t = summary["tail"]
            extra = f"  n={summary['n']}" + (
                f" p{t['pct']}={t['value']:.6g}" if t else ""
            )
        print(f"  {name:<40} {value:>14.6g} {units[name]}{extra}")
    print(f"  {'failed_frac':<40} {report['failed_frac']:>14.6g} ratio")
    for where, table in report.get("stages", {}).items():
        for name, row in sorted(table.items()):
            share = row["share_of_realizations"]
            print(
                f"  stage {name:<24} {where:<15} {row['self_ms']:12.3f} ms self"
                f"  x{row['count']:<7}"
                + (f" {share:7.2%} of realization time" if share is not None else "")
            )
    print("report " + json.dumps(report, sort_keys=True))


def _print_kernels(rows) -> None:
    print("== kernel table")
    for row in rows:
        print(
            f"  kernel {row['kernel']:<12} q{row['qubits']:<3} "
            f"{row['ns_per_amp']:9.3f} ns/amp  "
            f"{row['min_bytes_per_amp_computed']:3d} B/amp computed  "
            f"{row['min_GBps_computed']:7.2f} GB/s computed"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    reason = check_checkout()
    if reason:
        print(f"perfbench: {reason}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_SECONDS
    trace = bool(args.trace)
    units = _metric_specs()["traced" if trace else "timed"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    complete = True
    try:
        shared = {}
        if trace:
            kernels = _child_json("measure.py", ("kernels",), deadline)
            _print_kernels(kernels["kernels"])
            shared = kernels["metrics"]
        for name in names:
            got, n, bad, report = run_workload(
                name, args.seed, args.seconds, trace, deadline
            )
            unknown = set(got) - set(units)
            if unknown:
                raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
            complete &= set(got) | set(shared) == set(units)
            _print_summary(got, units, report)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update(
                {prefix + k: {"value": v, "unit": units[k]} for k, v in got.items()}
            )
            attempted += n
            failed += bad
        metrics.update({k: {"value": v, "unit": units[k]} for k, v in shared.items()})
        pool = _child_json("measure.py", ("poolcheck", args.seed), deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if TMP_DIR.is_dir() and not any(TMP_DIR.iterdir()):
            TMP_DIR.rmdir()
    print(
        f"== pool-12q series.csv at workers {pool['workers']} and 1: "
        + {True: "identical", False: "DIFFERENT", None: "skipped (one core)"}[
            pool["equal"]
        ]
    )
    if pool["equal"] is not None:
        attempted += 1
        failed += not pool["equal"]
    print(f"== failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    result = {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
