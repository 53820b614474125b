"""The status rule of ``tools/bench_pairs.py`` on fixed paired runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# Ten parent runs with median 100 and quartiles 99 and 101 (IQR 2%).
PARENT = [97.0, 99.0, 99.0, 99.0, 100.0, 100.0, 101.0, 101.0, 101.0, 103.0]


def test_a_claim_won_in_nine_pairs_by_more_than_the_iqr_is_met():
    # +10 in nine pairs and -10 in one: median gain 10 against an IQR of 2.
    change = [x + 10.0 for x in PARENT[:9]] + [PARENT[9] - 10.0]
    assert bench_pairs.status(PARENT, change, "higher", 0.24, claimed=True) == "claim met"
    entry = bench_pairs.summarize(PARENT, change, "higher", 0.24, claimed=True)
    assert entry["change_wins"] == 9 and entry["pairs"] == 10
    assert entry["parent"]["median"] == 100.0
    assert (entry["parent"]["q1"], entry["parent"]["q3"]) == (99.0, 101.0)
    assert entry["parent_iqr_pct"] == pytest.approx(2.0)
    assert entry["bound_pct"] == pytest.approx(24.0)


def test_a_claim_won_in_eight_pairs_or_within_the_iqr_is_not_met():
    eight = [x + 10.0 for x in PARENT[:8]] + [x - 10.0 for x in PARENT[8:]]
    assert bench_pairs.status(PARENT, eight, "higher", 0.24, claimed=True) == (
        "claim not met; within bound")
    small = [x + 1.0 for x in PARENT]
    assert bench_pairs.status(PARENT, small, "higher", 0.24, claimed=True) == (
        "claim not met; within bound")


def test_a_median_worse_by_more_than_the_bound_is_a_regression():
    # A lower-is-better time 30% up, with the parent's IQR at 2%.
    slower = [1.3 * x for x in PARENT]
    assert bench_pairs.status(PARENT, slower, "lower", 0.24) == "regression beyond the bound"
    assert bench_pairs.status(PARENT, [1.2 * x for x in PARENT], "lower", 0.24) == "within bound"


def test_a_parent_iqr_wider_than_the_bound_is_unresolved():
    wide = [60.0, 70.0, 75.0, 90.0, 100.0, 100.0, 110.0, 125.0, 130.0, 140.0]
    assert bench_pairs.summarize(wide, wide, "lower", 0.25)["parent_iqr_pct"] > 25.0
    assert bench_pairs.status(wide, [x * 1.02 for x in wide], "lower", 0.25) == (
        "unresolved (parent IQR wider than the bound)")
    # Unless every change run is better than every parent run.
    assert bench_pairs.status(wide, [x / 3.0 for x in wide], "lower", 0.25) == "within bound"
