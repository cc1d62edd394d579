"""Verdicts of the parent/change comparison."""

from __future__ import annotations

import json

from bench.compare import compare, verdict

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_verdicts():
    assert verdict(PARENT, [x * 0.9 for x in PARENT], "lower", 0.1)["verdict"] == "improved"
    assert verdict(PARENT, [x * 1.02 for x in PARENT], "lower", 0.1)["verdict"] == "within bound"
    assert verdict(PARENT, [x * 1.2 for x in PARENT], "lower", 0.1)["verdict"] == "regressed"
    wide = [50.0, 150.0] * 5
    assert verdict(wide, [x * 1.2 for x in wide], "lower", 0.1)["verdict"] == "unresolved"
    # Higher-is-better metrics win in the other direction.
    assert verdict(PARENT, [x * 1.1 for x in PARENT], "higher", None)["verdict"] == "improved"
    assert verdict(PARENT, PARENT, "higher", None)["verdict"] == "-"


def test_wins_count_pairs_and_ignore_ties():
    v = verdict(PARENT, [PARENT[0] - 1] + PARENT[1:], "lower", 0.1)
    assert v["wins"] == 1 and v["pairs"] == 10


def test_compare_reads_result_records(tmp_path):
    def record(path, value):
        path.write_text(json.dumps(
            {"workloads": {"sgemm": {"metrics": {"latency_ms_p50": {"value": value}}}}}
        ))
        return str(path)

    parents = [record(tmp_path / f"p{i}.json", x) for i, x in enumerate(PARENT)]
    changes = [record(tmp_path / f"c{i}.json", x * 0.8) for i, x in enumerate(PARENT)]
    rows = compare(parents, changes)
    assert [(w, m, v["verdict"]) for w, m, v in rows] == [("sgemm", "latency_ms_p50", "improved")]
