"""Alternating parent/change pairs of the perfbench run, as one BENCH_*.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH_12.json
    python3 tools/bench_pairs.py --parent HEAD --out BENCH_12.json   # change: working tree

Run from the root of a repository checkout; standard library only.  Each
run is a fresh, unedited ``python3 perfbench/run.py --workload all --seed S
--trace 0`` in a new copy of one side's files: ``git archive`` of a
revision, or, without ``--change``, the working tree's tracked and
untracked, not ignored files.  Pair i runs the parent first when i is even.
The pair seeds are 0, 1, 2, ... with the held-out seed skipped; the
held-out seed runs one more pair at the end, and ``--traced-pairs`` runs
that many ``--trace 1`` pairs at seed 0 in alternating order.  The summary
gives, per end-to-end metric of BENCHMARK.json, both sides' quartiles over
the pairs, the pairs in which the change was lower, and whether the
medians differ by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--workload", "all"]


def _git(*args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE
    ).stdout


def _copy(rev: str | None, dest: Path) -> None:
    """The committed files of ``rev``, or the working tree's, under ``dest``."""
    dest.mkdir(parents=True)
    if rev is not None:
        with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as tar:
            tar.extractall(dest, filter="data")
        return
    for name in _git("ls-files", "-z", "-co", "--exclude-standard").split(b"\0"):
        src = ROOT / name.decode()
        if name and src.is_file():
            (dest / name.decode()).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name.decode())


def _run(rev: str | None, seed: int, trace: int, workdir: Path) -> dict:
    """One run.py invocation in a fresh copy: its result, series deviations
    and environment."""
    copy = Path(tempfile.mkdtemp(dir=workdir))
    try:
        _copy(rev, copy / "repo")
        argv = [*RUN, "--seed", str(seed), "--trace", str(trace)]
        proc = subprocess.run(
            [sys.executable, *argv], cwd=copy / "repo", stdout=subprocess.PIPE, text=True
        )
    finally:
        shutil.rmtree(copy)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "exit": proc.returncode}
    result = json.loads(lines[-1])
    reports = [json.loads(line[7:]) for line in lines if line.startswith("report ")]
    out = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in sorted(result["metrics"].items())},
    }
    if not trace:
        out["series_max_dev"] = {r["workload"]: r["series_max_dev"] for r in reports}
    out["env"] = reports[0]["env"] if reports else None
    return out


def _pair(sides: dict, seed: int, first: str, trace: int, workdir: Path) -> dict:
    order = (first, "change" if first == "parent" else "parent")
    pair = {"seed": seed, "first": first}
    for side in order:
        print(f"seed {seed} trace {trace}: {side}", file=sys.stderr, flush=True)
        pair[side] = _run(sides[side], seed, trace, workdir)
    return pair


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _summary(pairs: list[dict], names: list[str]) -> dict:
    summary = {}
    for name in names:
        got = [
            (p["parent"]["metrics"][name], p["change"]["metrics"][name])
            for p in pairs
            if name in p["parent"]["metrics"] and name in p["change"]["metrics"]
        ]
        if len(got) < 2:
            continue
        parent = _quartiles([a for a, _ in got])
        change = _quartiles([b for _, b in got])
        summary[name] = {
            "parent": parent,
            "change": change,
            "change_lower_in_pairs": sum(b < a for a, b in got),
            "ties": sum(b == a for a, b in got),
            "median_change_over_parent": change["median"] / parent["median"],
            "median_gap_exceeds_parent_iqr": abs(change["median"] - parent["median"])
            > parent["q3"] - parent["q1"],
        }
    return summary


def _claim(summary: dict, pairs: int, held: dict, metric: str) -> dict:
    """Whether the change lowers ``metric``: it is met when the change is
    lower in at least nine tenths of the pairs (ties count for neither
    side), its median is lower, and the medians differ by more than the
    parent's interquartile range."""
    row = summary[metric]
    lower = row["change_lower_in_pairs"]
    return {
        "metric": metric,
        "change_lower_in_pairs": lower,
        "pairs": pairs,
        "median_gap_exceeds_parent_iqr": row["median_gap_exceeds_parent_iqr"],
        "met": lower >= 0.9 * pairs
        and row["change"]["median"] < row["parent"]["median"]
        and row["median_gap_exceeds_parent_iqr"],
        "held_out_change_lower": held["change"]["metrics"].get(metric, 0)
        < held["parent"]["metrics"].get(metric, 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="parent revision")
    parser.add_argument("--change", help="change revision (default: the working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--held-out-seed", type=int, default=7)
    parser.add_argument("--traced-pairs", type=int, default=0)
    parser.add_argument("--claim", help="end-to-end metric the change claims to lower")
    parser.add_argument("--describe", default="", help="what the change does")
    parser.add_argument("--note", action="append", default=[], help="extra note line")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs: need at least 2 for quartiles")

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [
        f"{w['name']}.{m['name']}" for w in spec["workloads"] for m in spec["end_to_end"]
    ]
    parent_rev = _git("rev-parse", "--short", args.parent).decode().strip()
    change_rev = args.change and _git("rev-parse", "--short", args.change).decode().strip()
    sides = {"parent": parent_rev, "change": change_rev}
    seeds = list(
        itertools.islice((s for s in itertools.count() if s != args.held_out_seed), args.pairs)
    )

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        workdir = Path(tmp)
        pairs = [
            _pair(sides, seed, ("parent", "change")[i % 2], 0, workdir)
            for i, seed in enumerate(seeds)
        ]
        held = _pair(sides, args.held_out_seed, "parent", 0, workdir)
        traced = [
            _pair(sides, 0, ("parent", "change")[i % 2], 1, workdir)
            for i in range(args.traced_pairs)
        ]

    runs = [p[side] for p in pairs + [held] for side in ("parent", "change")]
    envs = [r.pop("env", None) for p in traced for r in (p["parent"], p["change"])]
    env = next((e for e in [r.pop("env", None) for r in runs] + envs if e), None)
    clean = sum(r["correct"] and r["failed"] == 0 for r in runs)
    summary = _summary(pairs, names)
    claim = _claim(summary, len(pairs), held, args.claim) if args.claim else None
    doc = {
        "what": "perfbench end-to-end metrics, parent against this change, on one host",
        "parent": parent_rev,
        "change": args.describe or change_rev or "working tree",
        "command": "python3 perfbench/run.py --workload all --seed SEED --trace 0",
        "traced_command": (
            f"python3 perfbench/run.py --workload all --seed 0 --trace 1, "
            f"{args.traced_pairs} pairs in alternating order"
        ),
        "environment": env,
        "quartiles": "statistics.quantiles(method='inclusive') over the pairs' per-run values",
        "pair_seeds": seeds,
        "held_out_seed": args.held_out_seed,
        "notes": [
            "Pairs alternate which side runs first (pair index even: parent first); "
            "every run is a fresh run.py invocation from a clean copy of its side's files.",
            f"All {len(runs)} timed runs ended correct: true with failed 0."
            if clean == len(runs)
            else f"{len(runs) - clean} of {len(runs)} timed runs were not correct "
            "or had failures.",
            *args.note,
        ],
        "claim": claim,
        "summary": summary,
        "pairs": pairs,
        "held_out": held,
        "traced": traced,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
