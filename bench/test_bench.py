"""Tests of the benchmark's own arithmetic: ``python3 -m pytest bench -q``."""

import json
import sys
import types
from pathlib import Path

import pytest

import run
import spans

ROOT = Path(__file__).resolve().parent.parent


def test_percentile_is_nearest_rank_with_ten_beyond_p90_at_100_samples():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.percentile(values, 0.9) == 90.0
    assert run.beyond(100, 0.9) == 10
    assert run.percentile(values, 0.5) == 50.0
    # three mixing reports: p90 is the slowest one, nothing lies beyond
    assert run.percentile([3.0, 1.0, 2.0], 0.9) == 3.0
    assert run.beyond(3, 0.9) == 0
    assert run.percentile([7.0], 0.9) == 7.0


def test_best_block_takes_each_timing_metric_from_its_best_block():
    phase = run.Phase(first=0, start=0.0)
    # 250 ops make two blocks of 125; the second runs twice as fast
    for i in range(250):
        latency = 0.02 if i < 125 else 0.01
        phase.ends.append((phase.ends[-1] if phase.ends else 0.0) + latency)
        phase.latencies.append(latency)
    best = run.best_block(phase)
    assert best["block_ops"] == 125
    assert best["op_p50_s"] == best["op_p90_s"] == 0.01
    assert best["ops_per_s"] == pytest.approx(100.0)
    # fewer than 2 * BLOCK_OPS ops: the whole run is one block
    del phase.latencies[150:], phase.ends[150:]
    best = run.best_block(phase)
    assert best["block_ops"] == 150
    assert best["op_p90_s"] == 0.02
    assert best["ops_per_s"] == pytest.approx(150 / phase.ends[-1])


def _span(name, parent, start, end, count=0):
    return [name, parent, start, end, count]


def test_self_time_subtracts_direct_children_only():
    s = [
        _span("bench.op", -1, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),
        _span("b", 1, 2.0, 3.0, count=7),
        _span("a", 0, 5.0, 9.0),
        _span("bench.op", -1, 10.0, 12.0),
    ]
    selfs = spans.self_times(s)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 4.0, 2.0])
    assert spans.op_roots(s) == [0, 4]
    assert spans.op_self_sums(s, selfs) == pytest.approx([10.0, 2.0])
    totals = spans.layer_totals(s, selfs, {"t": 5})
    assert totals["a.s"] == pytest.approx(7.0)
    assert totals["a.self"] == pytest.approx(6.0)
    assert totals["b.count"] == 7
    assert totals["t.n"] == 5


def test_nested_span_of_the_same_name_counts_once_in_inclusive_time():
    s = [_span("bench.op", -1, 0.0, 10.0), _span("p", 0, 1.0, 9.0), _span("p", 1, 2.0, 8.0)]
    totals = spans.layer_totals(s, spans.self_times(s), {})
    assert totals["p.s"] == pytest.approx(8.0)
    assert totals["p.self"] == pytest.approx(8.0)
    assert totals["p.n"] == 2


def test_run_yield_is_completed_over_attempted_runs():
    config = types.SimpleNamespace(k_avg=50, median_reps=3)
    stage2 = types.SimpleNamespace(detail={"stage": 2})
    stage1 = types.SimpleNamespace(detail={"stage": 1})
    attempted = (spans._stages_attempted((None, config), {}, stage2)
                 + spans._stages_attempted((None, config), {}, stage1))
    assert attempted == 50 * 3 * 3
    totals = {"independence.marked_stat.n": 405.0, "independence.verdict.count": attempted}
    metrics = spans.per_layer(totals, ops=1)
    assert metrics["independence.run_yield"]["value"] == pytest.approx(0.9)
    assert metrics["independence.runs_attempted"]["value"] == 450
    assert spans.per_layer({}, ops=0)["independence.run_yield"]["value"] == 0.0


def test_install_wraps_reports_absent_names_and_restores():
    module = types.ModuleType("bench_fake_layer")
    module.double = lambda x: 2 * x
    original = module.double
    sys.modules[module.__name__] = module
    try:
        recorder = spans.Recorder()
        restore, absent = spans.install(recorder, [
            (module.__name__, "double", "fake.double", spans.CALL, spans._first_int),
            (module.__name__, "removed", "fake.removed", spans.CALL, None),
            ("bench_no_such_module", "f", "fake.f", spans.CALL, None),
        ])
        assert module.double(4) == 8
        restore()
    finally:
        del sys.modules[module.__name__]
    assert module.double is original
    assert absent == [f"{module.__name__}.removed", "bench_no_such_module.f"]
    assert [(name, count) for name, _, _, _, count in recorder.spans] == [("fake.double", 4)]


def test_benchmark_json_names_every_metric_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = set(spans.per_layer({}, ops=1)) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_s", "op_p90_s", "ok_rate", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)


def test_same_seed_gives_the_same_digest():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    first = workloads.Replicability1D(seed=5)
    again = workloads.Replicability1D(seed=5)
    outs = [first.op(i) for i in range(3)]
    assert run.digest(outs) == run.digest([again.op(i) for i in range(3)])
