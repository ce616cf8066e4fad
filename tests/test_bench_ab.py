"""The A/B summary of tools/bench_ab.py on fixed inputs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
spec = importlib.util.spec_from_file_location("bench_ab", TOOL)
bench_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_ab)


def test_summary_spread_and_wins():
    pairs = [
        {"parent": {"op_s.p50": p50, "ops_per_s": rate, "trace.coverage": 0.9},
         "change": {"op_s.p50": c50, "ops_per_s": c_rate, "trace.coverage": 0.8}}
        for p50, c50, rate, c_rate in [(10.0, 8.0, 40.0, 50.0), (12.0, 12.0, 41.0, 40.0),
                                       (11.0, 9.0, 39.0, 45.0), (13.0, 14.0, 42.0, 42.0)]
    ]
    summary = bench_ab.summarize(pairs, {"op_s.p50": "lower", "ops_per_s": "higher"})
    p50 = summary["op_s.p50"]
    assert p50["parent"] == {"values": [10.0, 12.0, 11.0, 13.0], "median": 11.5,
                             "q1": 10.75, "q3": 12.25}
    assert p50["change"]["values"] == [8.0, 12.0, 9.0, 14.0]
    assert p50["change"]["median"] == 10.5
    # 8 < 10 and 9 < 11 win, the tie at 12 counts for neither, 14 > 13 loses
    assert (p50["change_wins"], p50["pairs"]) == (2, 4)
    assert (summary["ops_per_s"]["change_wins"], summary["ops_per_s"]["pairs"]) == (2, 4)
    # a metric without a direction gets a spread but no wins
    assert "change_wins" not in summary["trace.coverage"]
    assert summary["trace.coverage"]["change"]["median"] == 0.8


def test_summary_of_one_pair():
    summary = bench_ab.summarize([{"parent": {"x": 2.0}, "change": {"x": 1.0}}], {"x": "lower"})
    assert summary["x"]["parent"] == {"values": [2.0], "median": 2.0, "q1": 2.0, "q3": 2.0}
    assert summary["x"]["change_wins"] == 1


def test_parse_run_reads_versions_and_last_line():
    result = {"correct": True, "attempted": 913, "failed": 0,
              "metrics": {"op_s.p50": {"value": 0.0125, "unit": "s"}}}
    stdout = ("workload checks_suite  seed 3  trace 0  cpus 2  python 3.11.7  "
              "numpy 2.4.6  scipy absent\n  op_s.p50  0.0125 s\n" + json.dumps(result) + "\n")
    facts, metrics = bench_ab.parse_run(stdout)
    assert facts == {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6"}
    assert metrics == {"op_s.p50": 0.0125, "attempted": 913, "failed": 0}
    with pytest.raises(ValueError, match="cpus"):
        bench_ab.parse_run(json.dumps(result))
