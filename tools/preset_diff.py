"""Every preset's CSVs, parent against this change, as one JSON file.

    python3 tools/preset_diff.py --parent HEAD~1 --change HEAD --out PRESETS_21.json
    python3 tools/preset_diff.py --parent HEAD --out PRESETS_21.json   # change: working tree
    python3 tools/preset_diff.py --parent HEAD --size reduced --out /tmp/quick.json

Run from the root of a repository checkout; standard library only.  Each
side is a fresh copy of its files, made as ``tools/bench_pairs.py`` makes
them: ``git archive`` of a revision, or, without ``--change``, the working
tree's tracked and untracked, not ignored files.  In each copy every
preset of the change's ``repdtc list`` runs once as ``repdtc run PRESET
--threads 2 --out DIR``, one run at a time; ``--size reduced`` adds
``--realizations 2 --cycles 24`` for a quick run.  Per preset and file
(``series.csv``, ``spectrum.csv``) the JSON says whether the sha256 of the
two files is the same, the largest |difference| of the values the two
files hold, field by field, and the line and row where it lies.  Per
preset it also says whether the two ``record.json`` files hold the same
values, ``wall_seconds`` aside, or else which top-level keys differ; and
once per side it runs ``repdtc verify`` and says whether the two outputs
are the same, or else which lines differ.  One more pair of fig4-analog
runs in the change's copy, under ``OPENBLAS_NUM_THREADS`` 1 and 2, checks
that the BLAS thread count moves no byte.  The exit status is 0 when
every CSV file pair is byte-identical, else 1; records and verify output
are reported, not gated.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import _copy, _git

FILES = ("series.csv", "spectrum.csv")
REDUCED = ["--realizations", "2", "--cycles", "24"]
BLAS_PRESET = "fig4-analog"


def _rows(text: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """(column names, [(line number, fields)]) of a CSV the harness wrote:
    ``#`` lines are comments, the first other line names the columns."""
    header, rows = None, []
    for number, line in enumerate(text.splitlines(), 1):
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append((number, line.split(",")))
    return header or [], rows


def _gap(a: str, b: str) -> float:
    """|a - b| of two fields; NaN against NaN is no gap, against a number
    an infinite one."""
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return 0.0 if math.isnan(x) and math.isnan(y) else math.inf
    if x == y:  # equal infinities too
        return 0.0
    return abs(x - y)


def compare(parent: bytes, change: bytes) -> dict:
    """Whether two CSV files are byte-identical, and the largest |Δ| of
    their values with the line, column and row of the change where it
    lies (None when no value differs).  Files whose columns or rows do
    not line up give ``max_abs_diff`` None and say why."""
    same = hashlib.sha256(parent).digest() == hashlib.sha256(change).digest()
    out = {"sha256_equal": same, "max_abs_diff": 0.0, "at": None}
    cols_a, rows_a = _rows(parent.decode())
    cols_b, rows_b = _rows(change.decode())
    if cols_a != cols_b or len(rows_a) != len(rows_b):
        out["max_abs_diff"] = None
        out["why"] = (
            f"columns {cols_a} against {cols_b}"
            if cols_a != cols_b
            else f"{len(rows_a)} rows against {len(rows_b)}"
        )
        return out
    for (_, fields_a), (number, fields_b) in zip(rows_a, rows_b):
        if len(fields_a) != len(fields_b) or len(fields_b) != len(cols_b):
            out["max_abs_diff"] = None
            out["why"] = f"line {number} has {len(fields_b)} fields"
            return out
        for column, a, b in zip(cols_b, fields_a, fields_b):
            gap = _gap(a, b)
            if gap > out["max_abs_diff"]:
                out["max_abs_diff"] = gap
                out["at"] = {
                    "line": number,
                    "column": column,
                    "row": dict(zip(cols_b, fields_b)),
                }
    return out


def compare_records(parent: bytes, change: bytes) -> dict:
    """Whether two record.json files hold the same values, ``wall_seconds``
    aside, and the top-level keys whose values differ or that only one
    file holds."""
    a, b = json.loads(parent), json.loads(change)

    def text(record: dict, key: str):
        # As text, so that NaN equals NaN and a missing key differs from null.
        return json.dumps(record[key], sort_keys=True) if key in record else None

    keys = (a.keys() | b.keys()) - {"wall_seconds"}
    differ = sorted(key for key in keys if text(a, key) != text(b, key))
    return {"equal": not differ, "differ": differ}


def compare_lines(parent: str, change: str) -> dict:
    """Whether two outputs are the same, and each line where they are not
    (None on the side that has no such line)."""
    pairs = itertools.zip_longest(parent.splitlines(), change.splitlines())
    differ = [
        {"line": number, "parent": a, "change": b}
        for number, (a, b) in enumerate(pairs, 1)
        if a != b
    ]
    return {"equal": not differ, "differ": differ}


def _presets(listing: str) -> list[str]:
    """Preset names from ``repdtc list`` output: the first word of a line."""
    return [line.split()[0] for line in listing.splitlines() if line.strip()]


def _repdtc(copy: Path, args: list[str], env: dict | None = None, ok=(0,)) -> str:
    """stdout of ``python -m repdtc.cli ARGS`` on the sources of ``copy``;
    an exit status outside ``ok`` raises."""
    run_env = dict(os.environ if env is None else env)
    run_env["PYTHONPATH"] = str(copy / "src")
    run_env.pop("REPDTC_SEED", None)  # the presets' own seeds
    proc = subprocess.run(
        [sys.executable, "-m", "repdtc.cli", *args],
        cwd=copy,
        env=run_env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    if proc.returncode not in ok:
        raise RuntimeError(f"repdtc {' '.join(args)} in {copy.name}: {proc.stderr}")
    return proc.stdout


def _run(copy: Path, preset: str, out: Path, extra: list[str], env=None) -> float:
    """Run one preset into ``out``; its wall time in seconds."""
    print(f"{copy.name}: {preset}", file=sys.stderr, flush=True)
    started = time.perf_counter()
    _repdtc(copy, ["run", preset, "--threads", "2", "--out", str(out), *extra], env)
    return time.perf_counter() - started


def _files(a: Path, b: Path) -> dict:
    return {
        name: compare((a / name).read_bytes(), (b / name).read_bytes())
        for name in FILES
    }


def summarize(presets: dict) -> dict:
    """Files compared, byte-identical files, and the largest |Δ| over all
    of them (None when some pair could not be lined up)."""
    results = [result for entry in presets.values() for result in entry["files"].values()]
    gaps = [result["max_abs_diff"] for result in results]
    return {
        "files": len(results),
        "sha256_equal": sum(result["sha256_equal"] for result in results),
        "max_abs_diff": None if None in gaps else max(gaps, default=0.0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="parent revision")
    parser.add_argument("--change", help="change revision (default: the working tree)")
    parser.add_argument("--size", choices=("full", "reduced"), default="full")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    parent_rev = _git("rev-parse", "--short", args.parent).decode().strip()
    change_rev = args.change and _git("rev-parse", "--short", args.change).decode().strip()
    extra = REDUCED if args.size == "reduced" else []
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="preset_diff_") as tmp:
        work = Path(tmp)
        sides = {"parent": work / "parent", "change": work / "change"}
        _copy(parent_rev, sides["parent"])
        _copy(change_rev, sides["change"])
        names = _presets(_repdtc(sides["change"], ["list"]))
        presets = {}
        for preset in names:
            seconds = {
                side: _run(copy, preset, work / side / "out" / preset, extra)
                for side, copy in sides.items()
            }
            parent, change = (work / side / "out" / preset for side in sides)
            record = compare_records(
                (parent / "record.json").read_bytes(),
                (change / "record.json").read_bytes(),
            )
            presets[preset] = {
                "seconds": seconds,
                "files": _files(parent, change),
                "record": record,
            }
        # verify exits 1 when a check fails; its lines say which.
        verify = compare_lines(
            *(_repdtc(copy, ["verify"], ok=(0, 1)) for copy in sides.values())
        )
        blas = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            out = work / f"blas{threads}"
            blas[threads] = _run(sides["change"], BLAS_PRESET, out, extra, env)
        blas_files = _files(work / "blas1", work / "blas2")

    summary = summarize(presets)
    doc = {
        "what": "every preset's CSVs and record.json, and repdtc verify, at the "
        "parent against this change, on one host",
        "parent": parent_rev,
        "change": change_rev or "working tree",
        "command": "python -m repdtc.cli run PRESET --threads 2 --out DIR"
        + (" " + " ".join(extra) if extra else ""),
        "size": args.size,
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "wall_seconds": round(time.perf_counter() - started, 1),
        "summary": summary,
        "records_equal": sum(entry["record"]["equal"] for entry in presets.values()),
        "verify": verify,
        "presets": presets,
        "blas_threads": {
            "preset": BLAS_PRESET,
            "side": "change",
            "seconds": blas,
            "files": blas_files,
        },
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(
        f"wrote {args.out}: {summary['sha256_equal']} of {summary['files']} files "
        f"byte-identical, max |diff| {summary['max_abs_diff']}; "
        f"{doc['records_equal']} of {len(presets)} records equal; verify output "
        + ("equal" if verify["equal"] else f"differs on {len(verify['differ'])} lines"),
        file=sys.stderr,
    )
    identical = summary["sha256_equal"] == summary["files"] and all(
        result["sha256_equal"] for result in blas_files.values()
    )
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
