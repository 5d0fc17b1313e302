"""Smoke test of the benchmark itself (outside tier-1 ``testpaths``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.perf import run, stats, trace
from benchmarks.perf.trace import Span

DECLARED = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_slot_median_percentiles_ignore_one_disturbed_trial():
    # 20 slots of 1..20 ms; trial 2 stalls on slot 3 and is 30 % slow
    # throughout, trial 3 fails slot 7.
    base = [float(i) for i in range(1, 21)]
    disturbed = [1.3 * value for value in base]
    disturbed[3] = 500.0
    failed: list = list(base)
    failed[7] = None
    medians = stats.slot_medians([disturbed, base, failed])
    expected = list(base)
    expected[7] = 8.0 * 1.15  # two samples left: the mean of 8.0 and 10.4
    assert medians == pytest.approx(expected)  # the stall leaves no mark
    assert stats.percentile(base, 50) == pytest.approx(10.5)
    assert stats.percentile(base, 95) == pytest.approx(19.05)
    assert stats.percentile(base, 100) == 20.0
    assert stats.beyond(len(base), 95) == 1
    # A slot that failed in every trial has no latency at all.
    assert stats.slot_medians([[1.0, None], [3.0, None]]) == [2.0]
    with pytest.raises(ValueError):
        stats.slot_medians([[1.0], [1.0, 2.0]])
    # ops_per_s is the median over trials of successful ops / trial wall.
    trials = [
        {"latency_ms": [1.0, 3.0], "attempted": 2, "failed": 0, "wall_s": 0.004},
        {"latency_ms": [3.0, None], "attempted": 2, "failed": 1, "wall_s": 0.004},
        {"latency_ms": [2.0, 9.0], "attempted": 2, "failed": 0, "wall_s": 0.010},
    ]
    assert run.wall_metrics(trials, "x") == {
        "ops_per_s": pytest.approx(250.0),
        "latency_p50_ms": pytest.approx(4.0),  # slot medians 2.0 and 6.0
        "latency_p95_ms": pytest.approx(5.8),
    }


def test_span_self_time_subtracts_what_children_cover():
    spans = [
        Span(0, "outer", -1, 1, 0.0, 10.0),
        Span(1, "a", 0, 1, 1.0, 4.0),
        Span(2, "b", 0, 1, 3.0, 6.0),  # overlaps a: union is [1, 6]
        Span(3, "leaf", 1, 1, 2.0, 3.0),
        Span(4, "late", 0, 1, 9.0, 12.0),  # clipped to the parent's end
    ]
    own = trace.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert trace.covered_length([(5.0, 7.0), (0.0, 2.0), (1.0, 3.0)], 0.0, 6.0) == 4.0


def test_summarize_reparents_executor_spans_and_reports_uncovered_time():
    windows = [(0.0, 10.0), (20.0, 30.0)]
    spans = [
        Span(0, "service.handle", -1, 1, 1.0, 9.0, request_id="0"),
        Span(1, "exec.execute", -1, 2, 2.0, 6.0),  # executor thread, op 0
        Span(2, "service.handle", -1, 1, 21.0, 29.0, request_id="1"),
        Span(3, "exec.execute", -1, 2, 22.0, 25.0),
        Span(4, "set-up", -1, 1, 15.0, 16.0),  # between ops: not attributed
    ]
    summary = trace.summarize(spans, windows)
    by_id = {span.id: span for span in summary["resolved"]}
    assert by_id[1].parent == 0 and by_id[3].parent == 2
    assert 4 not in by_id
    assert summary["spans"]["service.handle"]["self_ms"] == pytest.approx(9000.0)
    assert summary["spans"]["exec.execute"]["total_ms"] == pytest.approx(7000.0)
    assert summary["op_ms"] == pytest.approx(20000.0)
    assert summary["unattributed_ms"] == pytest.approx(4000.0)


def test_missing_hook_target_drops_the_span_and_nothing_else(capsys):
    tracer = trace.Tracer(hooks=(
        ("stats.percentile", "benchmarks.perf.stats", "percentile"),
        ("gone.function", "benchmarks.perf.stats", "no_such_function"),
        ("gone.module", "benchmarks.perf.no_such_module", "anything"),
    ))
    original = stats.percentile
    tracer.install()
    try:
        assert stats.percentile([1.0, 3.0], 50) == 2.0  # still works, traced
    finally:
        tracer.uninstall()
    assert stats.percentile is original
    assert tracer.dropped == {"gone.function", "gone.module"}
    assert [span.name for span in tracer.drain()] == ["stats.percentile"]
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 2 and all("dropped" in line for line in warnings)


def test_a_dropped_hook_leaves_its_metrics_out_of_the_driver_line():
    counters = dict.fromkeys(
        ("sim_ms", "io_ms", "cpu_ms", "physical_reads", "logical_reads",
         "observations", "rows_visited"), 1.0)
    plain = {"attempted": 2, "failed": 0, "wall_s": 0.01,
             "latency_ms": [1.0, 2.0], "counters": counters}
    traced = {
        **plain,
        "trace": {"op_ms": 3.0, "unattributed_ms": 0.1, "spans": {
            "exec.execute": {"calls": 2, "total_ms": 2.7, "self_ms": 2.7}}},
        "dropped": ["optimizer.optimize"],
        "plan_cache": {"hits": 2, "misses": 0, "invalidations": 0},
        "epoch_bumps": 0,
    }
    ready = {"transport": "in-process call", "clients": 1}
    values, dropped = run.derive_per_layer(
        "pipeline_scan", ready, [plain], [traced], [plain], {}
    )
    assert dropped == [
        "lifecycle.plancache.self_ms_per_op",
        "optimizer.optimize.ms_per_call",
        "optimizer.optimize.calls_per_op",
    ]
    assert all(values[name] is None for name in dropped)
    assert values["exec.execute.share_pct"] == pytest.approx(90.0)
    # No service in front of the pipeline: nothing waited, ratio of 1.
    assert values["service.queue_wait_ms_p95"] == 0.0
    assert values["service.c2_latency_ratio"] == 1.0

    measured = {"attempted": 10, "failed": 0, "problems": []}
    report = {
        "attempted": 4, "failed": 0, "problems": [],
        "per_layer": run.with_units(values, DECLARED["per_layer"]),
        "checks": run.shape_checks("pipeline_scan", values),
    }
    line = json.loads(run.driver_line([measured, report], "per_layer"))
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 14, 0)
    assert not set(dropped) & set(line["metrics"])
    assert line["metrics"]["sql.parse.ms_per_op"] == {"value": 0.0, "unit": "ms"}
    # A traced shape check that is not met makes the run incorrect.
    values["exec.execute.share_pct"] = 80.0
    report["checks"] = run.shape_checks("pipeline_scan", values)
    assert not json.loads(run.driver_line([measured, report], "per_layer"))["correct"]


def test_quick_run_prints_every_declared_metric(capsys):
    assert run.main(["--quick", "--trace"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert list(result["workloads"]) == [w["name"] for w in DECLARED["workloads"]]
    assert list(result["traced"]) == list(result["workloads"])
    for name, report in result["workloads"].items():
        assert report["failed"] == 0 and not report["problems"], name
        assert report["attempted"] == report["ops_per_trial"] > 0
        assert {
            key: entry["unit"] for key, entry in report["end_to_end"].items()
        } == {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
        assert all(entry["value"] > 0 for entry in report["end_to_end"].values())
        assert report["samples"]["timed_trials"] == report["samples"]["processes"] == 1
        assert report["samples"]["op_slots"] == report["ops_per_trial"]
        controls = report["controls"]
        assert controls["pythonhashseed"] == "0" and controls["gc_frozen_objects"] > 0
    for name, report in result["traced"].items():
        assert report["failed"] == 0 and not report["problems"], name
        assert {
            key: entry["unit"] for key, entry in report["per_layer"].items()
        } == {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
        assert report["dropped"] == []
        assert all(report["checks"].values()), report["checks"]
        assert Path(report["trace_file"]).stat().st_size > 0
    # The human-readable part names every metric and its sample counts too.
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert f" {metric['name']} " in out, metric["name"]
    assert "op slots" in out and "beyond p95" in out and "timed trial(s)" in out
    churn = result["traced"]["svc_feedback_churn"]["per_layer"]
    assert churn["lifecycle.plancache.hit_ratio"]["value"] == 0.0
    assert churn["core.feedback.epoch_bumps_per_op"]["value"] == 1.0
    point = result["traced"]["svc_point_warm"]["per_layer"]
    assert point["lifecycle.plancache.hit_ratio"]["value"] == 1.0
    assert point["optimizer.optimize.calls_per_op"]["value"] == 0.0
