"""Tests of the benchmark's own arithmetic: span self times, their partition
into layer metrics, the import-time breakdown, and the agreement of
BENCHMARK.json with what a traced run emits.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from spans import Span  # noqa: E402


def test_self_time_subtracts_children_and_adds_up_to_the_root():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    recs = [Span("root", -1, 0.0, 10.0), Span("a", 0, 1.0, 4.0), Span("c", 1, 2.0, 3.0),
            Span("b", 0, 5.0, 9.0)]
    st = spans.self_times(recs)
    assert st == {"root": 3.0, "a": 2.0, "c": 1.0, "b": 4.0}
    assert sum(st.values()) == 10.0


def test_self_time_sums_repeated_names_and_clips_children():
    # overlapping children are counted once; a child past its parent's end
    # is clipped to the parent
    recs = [Span("f", -1, 0.0, 4.0), Span("g", 0, 1.0, 3.0), Span("g", 0, 2.0, 5.0),
            Span("f", -1, 10.0, 11.0)]
    st = spans.self_times(recs)
    assert st["f"] == pytest.approx(1.0 + 1.0)
    assert st["g"] == pytest.approx(2.0 + 3.0)


def test_recorder_nests_spans_and_keeps_failed_calls():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda x: x + 1)

    def boom():
        raise ValueError("no")

    assert rec.call("outer", lambda: inner(1) + inner(2)) == 5
    with pytest.raises(ValueError):
        rec.call("outer", boom)
    names = [(s.name, s.parent) for s in rec.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0), ("outer", -1)]
    assert all(s.t1 >= s.t0 for s in rec.spans)
    assert spans.child_count(rec.spans, "inner", "outer") == 2


def test_layer_metrics_partition_the_traced_round():
    # a listed function, an unlisted one calling it, and time in the root span
    rec = spans.Recorder()
    fit = rec.wrap("learners.fit_logistic", lambda: time.sleep(0.002))
    helper = rec.wrap("learners.helper", lambda: (time.sleep(0.001), fit()))
    rec.call("bench.op", lambda: (fit(), helper(), time.sleep(0.001)))
    metrics, all_self = worker.layer_metrics(rec)
    root = rec.spans[0]
    assert all_self == pytest.approx(root.t1 - root.t0)
    listed = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert listed + metrics["trace.other_s"] + metrics["trace.uncovered_s"] == pytest.approx(all_self)
    assert metrics["trace.other_s"] >= 0.001 and metrics["trace.uncovered_s"] >= 0.001
    assert metrics["learners.fit_logistic.calls"] == 2


def test_import_breakdown_attributes_to_nearest_group():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     _stdlib_mod",
        "import time:       200 |        300 |   numpy.core",
        "import time:        50 |        350 | numpy",
        "import time:        10 |         10 |     numpy",
        "import time:        40 |         40 |     json",
        "import time:        20 |         70 |   scipy.special",
        "import time:         5 |         75 | ateml",
        "import time:         7 |          7 | site",
    ])
    got = run.import_breakdown(text)
    assert got == pytest.approx({"numpy": 350e-6 + 10e-6, "scipy": 60e-6, "ateml": 5e-6})


def test_benchmark_json_lists_what_the_traced_run_reports():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    reported = list(spans.LAYER_METRICS) + [
        "trace.other_s", "trace.uncovered_s", "trace.round_s", "trace.overhead_s",
        *(f"setup.import_{g}_s" for g in run.IMPORT_GROUPS), "setup.inputs_s",
    ]
    assert sorted(m["name"] for m in bench["per_layer"]) == sorted(reported)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
