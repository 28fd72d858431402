"""The CSV, record.json and verify-output comparisons and the summary of
tools/preset_diff.py, on synthetic files.  No test here runs a preset."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(_TOOLS))  # preset_diff imports bench_pairs
_SPEC = importlib.util.spec_from_file_location("preset_diff", _TOOLS / "preset_diff.py")
preset_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(preset_diff)

HEADER = "# name=x seed=1\n# params: J=(1,0)\nrealization,cycle,Sz\n"


def series(*values):
    """A series.csv with one realization over len(values) cycles."""
    rows = "".join(f"0,{cycle},{value!r}\n" for cycle, value in enumerate(values))
    return (HEADER + rows).encode()


def test_identical_files_have_equal_hashes_and_no_gap():
    got = preset_diff.compare(series(0.5, -0.25), series(0.5, -0.25))
    assert got == {"sha256_equal": True, "max_abs_diff": 0.0, "at": None}


def test_largest_gap_is_found_with_its_line_and_row():
    got = preset_diff.compare(
        series(0.5, -0.25, 0.1), series(0.5, -0.25 + 1e-12, 0.1 - 3e-12)
    )
    assert got["sha256_equal"] is False
    assert got["max_abs_diff"] == pytest.approx(3e-12)
    # Lines count from 1 and include the two comment lines and the header.
    assert got["at"] == {
        "line": 6,
        "column": "Sz",
        "row": {"realization": "0", "cycle": "2", "Sz": repr(0.1 - 3e-12)},
    }


def test_comment_lines_move_the_hash_but_no_value():
    other = series(0.5).replace(b"seed=1", b"seed=2")
    got = preset_diff.compare(series(0.5), other)
    assert got["sha256_equal"] is False and got["max_abs_diff"] == 0.0


@pytest.mark.parametrize(
    "a, b, gap",
    [
        ("nan", "nan", 0.0),
        ("nan", "0.5", math.inf),
        ("inf", "inf", 0.0),
        ("1.5", "-0.5", 2.0),
    ],
)
def test_gap_of_special_values(a, b, gap):
    assert preset_diff._gap(a, b) == gap


@pytest.mark.parametrize(
    "change, why",
    [
        (series(0.5, 0.25, 0.0), "2 rows against 3"),
        (HEADER.replace("Sz", "Sx").encode() + b"0,0,0.5\n0,1,0.25\n", "columns"),
        (HEADER.encode() + b"0,0,0.5\n0,1\n", "line 5 has 2 fields"),
    ],
)
def test_files_that_do_not_line_up_have_no_gap(change, why):
    got = preset_diff.compare(series(0.5, 0.25), change)
    assert got["max_abs_diff"] is None and why in got["why"]


def test_summary_counts_files_and_takes_the_largest_gap():
    same = {"sha256_equal": True, "max_abs_diff": 0.0, "at": None}
    moved = {"sha256_equal": False, "max_abs_diff": 2e-15, "at": {}}
    presets = {
        "a": {"files": {"series.csv": same, "spectrum.csv": moved}},
        "b": {"files": {"series.csv": same, "spectrum.csv": same}},
    }
    assert preset_diff.summarize(presets) == {
        "files": 4,
        "sha256_equal": 3,
        "max_abs_diff": 2e-15,
    }
    presets["b"]["files"]["series.csv"] = {"sha256_equal": False, "max_abs_diff": None}
    assert preset_diff.summarize(presets)["max_abs_diff"] is None


def test_presets_are_the_first_word_of_each_listed_line():
    listing = "fig2a        Two size-4 chains.\nideal-u4     Zero disorder.\n\n"
    assert preset_diff._presets(listing) == ["fig2a", "ideal-u4"]


def record(**values):
    """A record.json with a wall time and the given keys."""
    return json.dumps({"wall_seconds": 1.5, "name": "x", **values}).encode()


def test_records_that_differ_only_in_wall_time_are_equal():
    parent = record(score=0.25, bins=[6, 18])
    change = record(score=0.25, bins=[6, 18], wall_seconds=9.0)
    got = preset_diff.compare_records(parent, change)
    assert got == {"equal": True, "differ": []}


def test_record_keys_that_differ_or_one_side_lacks_are_named():
    parent = record(score=0.25, bins=[6, 18], program={"ops": 22}, gone=None)
    change = record(score=0.5, bins=[6, 18], program={"ops": 23}, added=1)
    got = preset_diff.compare_records(parent, change)
    assert got == {"equal": False, "differ": ["added", "gone", "program", "score"]}


def test_record_nan_equals_nan_and_key_order_does_not_matter():
    parent = b'{"score": NaN, "program": {"a": 1, "b": 2}, "wall_seconds": 1}'
    change = b'{"program": {"b": 2, "a": 1}, "score": NaN, "wall_seconds": 2}'
    assert preset_diff.compare_records(parent, change)["equal"] is True


def test_verify_lines_that_differ_are_listed_with_their_numbers():
    parent = "PASS  a: 1e-16\nPASS  b: 2e-16\nverify: all checks passed\n"
    assert preset_diff.compare_lines(parent, parent) == {"equal": True, "differ": []}
    change = "PASS  a: 1e-16\nFAIL  b: 0.5\nverify: FAILURES above\nextra\n"
    got = preset_diff.compare_lines(parent, change)
    assert got["equal"] is False
    assert got["differ"] == [
        {"line": 2, "parent": "PASS  b: 2e-16", "change": "FAIL  b: 0.5"},
        {
            "line": 3,
            "parent": "verify: all checks passed",
            "change": "verify: FAILURES above",
        },
        {"line": 4, "parent": None, "change": "extra"},
    ]
