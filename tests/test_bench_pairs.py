"""The summary and claim rule of tools/bench_pairs.py, on synthetic pairs.

Every BENCH_*.json is written by this code; no test here runs perfbench.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRIC = "w.m"


def pairs_of(values):
    """Pairs from (parent, change) values of METRIC."""
    return [
        {"parent": {"metrics": {METRIC: a}}, "change": {"metrics": {METRIC: b}}}
        for a, b in values
    ]


def claim_of(values, held=(10.0, 9.0)):
    pairs = pairs_of(values)
    summary = bench_pairs._summary(pairs, [METRIC])
    return bench_pairs._claim(summary, len(pairs), pairs_of([held])[0], METRIC)


def test_summary_counts_lower_pairs_and_ties_apart():
    values = [(10.0, 9.0)] * 6 + [(10.0, 10.0)] * 3 + [(10.0, 11.0)]
    row = bench_pairs._summary(pairs_of(values), [METRIC])[METRIC]
    assert row["change_lower_in_pairs"] == 6
    assert row["ties"] == 3
    assert row["parent"] == {"q1": 10.0, "median": 10.0, "q3": 10.0}
    assert row["change"]["median"] == 9.0
    assert row["median_change_over_parent"] == 0.9


def test_summary_quartiles_are_inclusive_and_skip_missing_metrics():
    values = [(float(p), float(p) - 0.5) for p in range(1, 6)]
    pairs = pairs_of(values) + [{"parent": {"metrics": {}}, "change": {"metrics": {}}}]
    row = bench_pairs._summary(pairs, [METRIC, "absent"])
    assert list(row) == [METRIC]
    assert row[METRIC]["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    # Gap 0.5 against a parent IQR of 2.0.
    assert row[METRIC]["median_gap_exceeds_parent_iqr"] is False


def test_summary_needs_two_pairs():
    assert bench_pairs._summary(pairs_of([(1.0, 0.5)]), [METRIC]) == {}


def test_claim_met_when_lower_in_nine_of_ten_with_a_gap_beyond_the_iqr():
    values = [(10.0 + 0.1 * i, 9.0) for i in range(9)] + [(10.0, 10.5)]
    claim = claim_of(values)
    assert claim["change_lower_in_pairs"] == 9 and claim["pairs"] == 10
    assert claim["median_gap_exceeds_parent_iqr"] is True
    assert claim["met"] is True
    assert claim["held_out_change_lower"] is True


@pytest.mark.parametrize(
    "values, why",
    [
        ([(10.0, 9.0)] * 8 + [(10.0, 11.0)] * 2, "lower in only 8 of 10"),
        ([(10.0, 9.0)] * 8 + [(10.0, 10.0)] * 2, "ties count for neither side"),
        (
            [(10.0 + i, 9.5 + i) for i in range(10)],
            "lower in 10 of 10, but the gap is inside the parent's IQR",
        ),
    ],
)
def test_claim_not_met(values, why):
    assert claim_of(values)["met"] is False, why


def test_claim_needs_a_lower_median():
    # Lower in 9 of 10, yet one huge pair cannot lower the median: the
    # change median rises past the parent's.
    values = [(1.0, 0.99)] * 5 + [(100.0, 99.0)] * 4 + [(1.0, 200.0)]
    claim = claim_of(values)
    assert claim["change_lower_in_pairs"] == 9
    assert claim["met"] is False


def test_held_out_seed_is_reported_not_required():
    values = [(10.0, 9.0)] * 10
    claim = claim_of(values, held=(9.0, 9.5))
    assert claim["met"] is True
    assert claim["held_out_change_lower"] is False
