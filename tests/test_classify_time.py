"""The summary of ``tests/classify_time.py``, on hand-made run records."""

from __future__ import annotations

from classify_time import format_summary, summarize


def test_median_of_run_medians_fastest_pass_and_pairs():
    runs = [{"times": [0.30, 0.10, 0.20], "pairs": 12},
            {"times": [0.40, 0.50, 0.60], "pairs": 12},
            {"times": [0.05, 0.90, 0.70], "pairs": 12}]
    # The runs' medians are 0.2, 0.5 and 0.7.
    assert summarize(runs) == {"median": 0.5, "min": 0.05, "pairs": [12], "runs": 3}


def test_pair_counts_that_differ_between_runs_are_all_kept():
    runs = [{"times": [1.0], "pairs": 7}, {"times": [2.0], "pairs": 5}]
    assert summarize(runs)["pairs"] == [5, 7]


def test_format_gives_each_tree_and_the_change_against_the_parent():
    summaries = {"parent": {"median": 0.0613, "min": 0.059, "pairs": [3333], "runs": 4},
                 "change": {"median": 0.05517, "min": 0.0531, "pairs": [3333], "runs": 4}}
    assert format_summary("desk", summaries) == [
        "desk parent: median 0.0613 s, fastest 0.0590 s over 4 runs; 3,333 pairs",
        "desk change: median 0.0552 s, fastest 0.0531 s over 4 runs; 3,333 pairs  -10.0%",
    ]


def test_format_without_the_parent_gives_no_change():
    summaries = {"change": {"median": 0.1, "min": 0.09, "pairs": [5, 7], "runs": 2}}
    assert format_summary("deep", summaries) == [
        "deep change: median 0.1000 s, fastest 0.0900 s over 2 runs; 5/7 pairs"]
