"""Self-tests of the benchmark's helpers.

Run with: python3 -m pytest perfbench
"""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

import harness
import tracing
from tracing import Span, Tracer


def _span(span_id, parent, start, end, name="x"):
    return Span(op=0, id=span_id, parent=parent, name=name, start=start, end=end)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),  # overlaps span 3, as two worker threads do
        _span(3, 1, 3.0, 6.0),
        _span(4, 2, 2.0, 3.0),
        _span(5, 1, 9.0, 12.0),  # runs past its parent: only 9..10 counts
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - (5.0 + 1.0))
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)


def test_tracer_parents_worker_spans_to_the_driving_thread():
    tracer = Tracer()

    def leaf(i):
        return tracer.call("leaf", lambda: i)

    def middle():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(4)))

    with tracer.operation(7):
        assert tracer.call("root", middle) == [0, 1, 2, 3]
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (root,) = by_name["root"]
    assert root.parent is None and root.op == 7
    assert len(by_name["leaf"]) == 4
    assert all(s.parent == root.id and s.op == 7 for s in by_name["leaf"])


def test_tracer_records_a_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.call("boom", boom)
    assert [s.name for s in tracer.spans] == ["boom"]


@pytest.mark.parametrize(
    "n, percentile, value",
    [
        (1, 100.0, 1.0),
        (10, 100.0, 10.0),  # no sample has ten beyond it: the maximum
        (20, 100.0, 20.0),  # the rule would give p50
        (99, 100.0, 99.0),  # the rule would give p89.9
        (100, 90.0, 90.0),
        (200, 95.0, 190.0),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile, value):
    samples = [float(i) for i in range(n, 0, -1)]
    got_percentile, got_value = harness.tail(samples)
    assert got_percentile == pytest.approx(percentile)
    assert got_value == value
    if n >= harness.TAIL_MIN_SAMPLES:
        assert sum(s > got_value for s in samples) == harness.TAIL_BEYOND


def test_closed_loop_counts_raising_operations_as_failures():
    def run_one(index):
        if index == 1:
            raise RuntimeError("broken operation")
        if index == 2:
            raise SystemExit(2)
        return 0.01, [], {"f1": 1.0}

    results = harness.closed_loop(run_one, budget_s=0.0, min_ops=4)
    assert [r.ok for r in results] == [True, False, False, True]
    assert "broken operation" in results[1].problems[0]
    assert "SystemExit" in results[2].problems[0]


def test_closed_loop_scales_each_operation_by_the_probes_around_it():
    ref = harness.PROBE_REFERENCE_S
    probes = iter([ref, 2 * ref, 3 * ref])  # the host slows down: 1.5x, then 2.5x the reference

    def run_one(index):
        return 1.0, [], {}

    results = harness.closed_loop(run_one, budget_s=0.0, min_ops=2, probe_fn=lambda: next(probes))
    assert [r.factor for r in results] == pytest.approx([1.5, 2.5])
    assert [r.scaled for r in results] == pytest.approx([1.0 / 1.5, 1.0 / 2.5])


def test_probe_work_is_fixed():
    assert harness._probe_work() == harness._probe_work()
    assert harness.probe() > 0


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A three-tree scene, its reference outputs and a roundtrip operation."""
    work = tmp_path_factory.mktemp("tiny")
    workload = harness.Workload("tiny-roundtrip", n_trees=3, plot_size=6.0, threads=1, roundtrip=True)
    ply = work / "scene.ply"
    assert harness.make_scene(workload, 5, ply) > 0
    reference = harness.reference_outputs(workload, 5, ply, work)
    return workload, reference, harness.build_operation(workload, 5, ply, work)


def test_roundtrip_operation_passes_the_output_gate(tiny):
    workload, reference, op = tiny
    assert len(op.commands) == 2
    assert harness.run_operation(op) > 0
    problems, quality = harness.check_outputs(op, reference, workload.clean)
    assert problems == []
    assert quality == {"f1": 1.0, "coverage": 1.0, "miou": 1.0}


def test_tampered_reference_fails_operations_without_ending_the_run(tiny):
    workload, reference, op = tiny
    tampered = harness.Reference(labels=reference.labels + b"0\t0\t0\n",
                                 report=reference.report, n_points=reference.n_points)

    def run_one(index):
        seconds = harness.run_operation(op)
        problems, quality = harness.check_outputs(op, tampered if index == 0 else reference, workload.clean)
        return seconds, problems, quality

    results = harness.closed_loop(run_one, budget_s=0.0, min_ops=2)
    assert [r.ok for r in results] == [False, True]
    assert results[0].problems == ["command 0: labels differ from the reference",
                                   "command 1: labels differ from the reference"]


def test_traced_operation_counts_agree_with_the_report(tiny):
    workload, reference, op = tiny
    tracer = Tracer()

    def traced_call(argv):
        tracer.call(tracing.CLI_SPAN, harness.cli.main, (argv,), {"standalone_mode": False})

    with tracer.installed(), tracer.operation(0):
        harness.run_operation(op, traced_call)
    assert not any(hasattr(getattr(module, attr), "__wrapped__") for module, attr, _, _ in tracing.TARGETS)
    metrics = tracing.per_layer_metrics(tracer.spans, overhead_s=0.0)
    assert set(metrics) == set(tracing.PER_LAYER_UNITS)
    masks = json.loads(reference.report)["masks"]
    blocks = json.loads(reference.report)["blocks"]["processed"]
    # The direct command tiles and predicts twice (run + dump), the replay never.
    assert metrics["tiling.tile_cloud_calls"] == 2
    assert metrics["synthgen.oracle_predictor_calls"] == 2 * blocks
    assert metrics["merging.masks_in"] == 2 * masks["predicted"]
    assert metrics["merging.masks_kept"] == 2 * masks["after_nms"]
    assert metrics["io.bytes_written"] > 0 and metrics["io.bytes_read"] > 0
    cli_spans = [s for s in tracer.spans if s.name == tracing.CLI_SPAN]
    assert len(cli_spans) == 2 and all(s.parent is None for s in cli_spans)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
