"""The pair summary of ``tests/bench_pairs.py``, on hand-made run records."""

from __future__ import annotations

import pytest

from bench_pairs import format_summary, run_ok, summarize, verdict


def line(**values: float) -> dict:
    """A run's last stdout line with the given metric values."""
    return {"correct": True, "attempted": 5, "failed": 0,
            "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}


def test_medians_quartiles_and_pair_counts():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [1.5, 1.0, 3.0, 3.0, 6.0]
    pairs = [{"parent": line(analyze_s=p), "change": line(analyze_s=c)}
             for p, c in zip(parent, change)]
    summary = summarize(pairs, ["analyze_s"])
    assert summary == {"analyze_s": {
        "pairs": 5,
        "parent": {"median": 3.0, "q1": 2.0, "q3": 4.0},
        "change": {"median": 3.0, "q1": 1.5, "q3": 3.0},
        "change_lower": 2,  # 1.0 < 2.0, 3.0 < 4.0
        "change_higher": 2,  # 1.5 > 1.0, 6.0 > 5.0
    }}


def test_pair_missing_a_metric_is_left_out():
    pairs = [{"parent": line(analyze_s=1.0, peak_rss_mib=30.0),
              "change": line(analyze_s=0.5, peak_rss_mib=29.0)},
             {"parent": line(analyze_s=1.0), "change": line(analyze_s=2.0)},
             {"parent": {}, "change": line(analyze_s=0.1)}]
    summary = summarize(pairs, ["analyze_s", "peak_rss_mib", "setup_s"])
    assert summary["analyze_s"]["pairs"] == 2
    assert (summary["analyze_s"]["change_lower"], summary["analyze_s"]["change_higher"]) == (1, 1)
    assert summary["peak_rss_mib"]["pairs"] == 1
    assert summary["peak_rss_mib"]["parent"] == {"median": 30.0, "q1": 30.0, "q3": 30.0}
    assert "setup_s" not in summary


def test_format_names_both_sides_and_the_counts():
    pairs = [{"parent": line(analyze_s=2.0), "change": line(analyze_s=1.0)}] * 3
    text = format_summary("deep", summarize(pairs, ["analyze_s"]), {"analyze_s": 0.25})
    assert text == ["deep analyze_s: parent 2 [2, 2]  change 1 [1, 1]  -50.0%  "
                    "lower in 3, higher in 0 of 3 pairs  gain"]


@pytest.mark.parametrize("code, record, ok", [
    (0, line(analyze_s=1.0), True),
    (1, line(analyze_s=1.0), False),
    (0, {**line(), "failed": 2}, False),
    (0, None, False),
])
def test_a_run_fails_on_exit_code_failed_calls_or_no_line(code, record, ok):
    assert run_ok(code, record) is ok


def entry_of(parent: list[float], change: list[float]) -> dict:
    pairs = [{"parent": line(analyze_s=p), "change": line(analyze_s=c)}
             for p, c in zip(parent, change)]
    return summarize(pairs, ["analyze_s"])["analyze_s"]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # q3 - q1 = 0.035


def test_gain_needs_nine_of_ten_lower_and_a_gap_wider_than_the_parents_quartiles():
    change = [p - 0.1 for p in PARENT]
    assert verdict(entry_of(PARENT, change), 0.25) == "gain"
    # One pair higher still leaves nine of ten.
    assert verdict(entry_of(PARENT, change[:9] + [1.5]), 0.25) == "gain"


def test_eight_of_ten_lower_is_level():
    change = [p - 0.1 for p in PARENT[:8]] + [1.5, 1.5]
    entry = entry_of(PARENT, change)
    assert entry["change_lower"] == 8
    assert verdict(entry, 0.25) == "level"


def test_a_gap_within_the_parents_quartiles_is_level():
    change = [p - 0.03 for p in PARENT]  # lower in 10 of 10, but by less than q3 - q1
    entry = entry_of(PARENT, change)
    assert entry["change_lower"] == 10
    assert verdict(entry, 0.25) == "level"


def test_worse_past_the_relative_bound_only():
    assert verdict(entry_of(PARENT, [p * 1.3 for p in PARENT]), 0.25) == "worse"
    assert verdict(entry_of(PARENT, [p * 1.2 for p in PARENT]), 0.25) == "level"
    assert verdict(entry_of(PARENT, [p * 1.06 for p in PARENT]), 0.05) == "worse"

