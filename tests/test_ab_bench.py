"""tools/ab_bench.py's parsing and summary, on canned runs: no benchmark runs."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

SPECS = [
    {"name": "ok_req_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "req_ms_p50", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "frob_ratio_p50", "unit": "ratio", "better": "lower", "bound": 0.2},
]


def run(rate, p50, frob=1.5, digest="abc"):
    return {
        "metrics": {"ok_req_per_s": rate, "req_ms_p50": p50, "frob_ratio_p50": frob},
        "digest": digest,
    }


def test_seeds_read_a_range_a_list_or_one_seed():
    assert ab_bench.parse_seeds("1-4") == [1, 2, 3, 4]
    assert ab_bench.parse_seeds("1,3,7") == [1, 3, 7]
    assert ab_bench.parse_seeds("5") == [5]
    assert ab_bench.parse_seeds("1-2,9") == [1, 2, 9]
    with pytest.raises(ValueError):
        ab_bench.parse_seeds("a")


def test_a_run_is_read_from_its_summary_line_and_the_digest_before_it():
    extra = {"attempted": 10, "report_digest": "d1", "wall_s": 2.0}
    summary = {"correct": True, "attempted": 10, "failed": 0,
               "metrics": {"ok_req_per_s": {"value": 200.0, "unit": "1/s"},
                           "ok_frac": {"value": None, "unit": "ratio"}}}
    stdout = "\n".join([
        "== workload wide  seed 1  trace 0",
        "  ok_req_per_s  200.0 1/s",
        "  " + json.dumps(extra),
        json.dumps(summary),
    ])
    assert ab_bench.parse_run(stdout) == {
        "metrics": {"ok_req_per_s": 200.0, "ok_frac": None}, "digest": "d1",
    }


def test_summary_takes_medians_quartiles_and_wins_by_each_metrics_direction():
    pairs = [
        (run(200.0, 5.0), run(210.0, 4.8)),
        (run(210.0, 4.9), run(220.0, 4.9)),  # p50 ties: a win for neither
        (run(220.0, 4.7), run(215.0, 4.6)),
        (run(230.0, 4.6), run(250.0, 4.4, digest="xyz")),
        (run(240.0, 4.5), run(260.0, 4.5, digest=None)),
    ]
    s = ab_bench.summarize(pairs, SPECS)
    assert s["pairs"] == 5
    assert s["digests_agree"] == 3
    rate = s["metrics"]["ok_req_per_s"]
    assert rate["old"] == (210.0, 220.0, 230.0)
    assert rate["new"] == (215.0, 220.0, 250.0)
    assert rate["new_won"] == 4 and rate["pairs"] == 5
    assert rate["change"] == 0.0
    p50 = s["metrics"]["req_ms_p50"]
    assert p50["new_won"] == 3
    assert p50["new"][1] == 4.6 and p50["old"][1] == 4.7
    frob = s["metrics"]["frob_ratio_p50"]
    assert frob["new_won"] == 0 and frob["change"] == 0.0

    lines = ab_bench.summary_lines(s)
    assert lines[0] == "5 pairs; median [q1-q3], old -> new:"
    assert lines[1] == (
        "  ok_req_per_s (1/s, higher is better): 220 [210-230] -> 220 [215-250], "
        "+0.0%, new better in 4 of 5"
    )
    assert lines[-1] == "  report_digest equal in 3 of 5 pairs"


def test_summary_leaves_out_a_pair_without_the_metric():
    # The benchmark takes no result from a line with a null or non-finite
    # metric, so such a run is not left out of the figures: it fails,
    # naming the pair, the tree and the metric.
    pairs = [(run(200.0, 5.0), run(190.0, 4.0)), (run(200.0, None), run(210.0, 4.0))]
    with pytest.raises(ValueError, match=r"^pair 2, old tree: req_ms_p50 = None$"):
        ab_bench.summarize(pairs, SPECS)
    nan = [(run(1.0, 1.0), run(float("nan"), 1.0, frob=float("inf")))]
    with pytest.raises(ValueError, match=r"new tree: ok_req_per_s = nan, frob_ratio_p50 = inf$"):
        ab_bench.summarize(nan, SPECS)
    missing = run(1.0, 1.0)
    del missing["metrics"]["req_ms_p50"]
    with pytest.raises(ValueError, match=r"new tree: req_ms_p50 = None$"):
        ab_bench.summarize([(run(1.0, 1.0), missing)], SPECS)
    assert ab_bench.bad_metrics({"a": 1.0, "b": None}, ["a", "b"]) == ["b = None"]
