"""The CSV comparison and summary of tools/preset_diff.py, on synthetic
files.  No test here runs a preset."""

import importlib.util
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
