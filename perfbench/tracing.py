"""In-memory span tracing of forestseg's layers, installed at run time.

The wrappers replace the module attributes that ``forestseg.cli`` and
``forestseg.pipeline`` look up when they call into a layer, so the program's
own source stays untouched. Each span records its name, start, end, parent
span and operation id. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from forestseg import cli, io, pipeline, tiling


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from the calling thread and from pipeline worker threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.epoch = time.perf_counter()
        self._op = 0
        self._op_stack: list[int] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def operation(self, op: int):
        """Attribute spans to operation ``op`` until exit.

        A span opened on a worker thread that has no open span of its own takes
        the innermost open span of this (the driving) thread as its parent.
        """
        self._op = op
        self._op_stack = self._stack()
        try:
            yield
        finally:
            self._op_stack = []

    def call(self, name: str, fn, args=(), kwargs=None, count=None):
        """Run ``fn`` inside a span; ``count(args, result)`` adds work counts."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._op_stack[-1] if self._op_stack else None)
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(self._op, span_id, parent, name, start, end)
            with self._lock:
                self.spans.append(span)
        if count is not None:
            span.counts = count(args, result)
        return result

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer entry point in ``TARGETS``; restore them on exit."""
        saved = []
        try:
            for module, attr, name, count in TARGETS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def to_records(self) -> list[dict]:
        """Spans as JSON-ready dicts with times in seconds since the tracer started."""
        records = []
        for span in self.spans:
            record = asdict(span)
            record["start"] = span.start - self.epoch
            record["end"] = span.end - self.epoch
            records.append(record)
        return records


def _in_out(args, result) -> dict:
    return {"in": len(args[0]), "out": len(result)}


def _masks(args, result) -> dict:
    return {"masks": len(result)}


def _blocks(args, result) -> dict:
    return {"blocks": len(result), "block_points": sum(block.n for block in result)}


def _written(args, result) -> dict:
    return {"bytes_written": os.path.getsize(args[0])}


def _read(args, result) -> dict:
    return {"bytes_read": os.path.getsize(args[0])}


# (module, attribute, span name, counter). ``cli`` binds the pipeline entry
# points by name, ``pipeline`` binds the layer functions it calls, and the
# ``--dump-blocks`` path imports ``tiling.tile_cloud`` at call time.
TARGETS = [
    (cli, "run_pipeline", "pipeline.run_pipeline", None),
    (cli, "run_pipeline_from_blocks", "pipeline.run_pipeline_from_blocks", None),
    (pipeline, "merge_block_predictions", "pipeline.merge_block_predictions", None),
    (pipeline, "tile_cloud", "tiling.tile_cloud", _blocks),
    (tiling, "tile_cloud", "tiling.tile_cloud", _blocks),
    (pipeline, "oracle_predictor", "synthgen.oracle_predictor", _masks),
    (pipeline, "discard_boundary_masks", "merging.discard_boundary_masks", _in_out),
    (pipeline, "score_filter", "merging.score_filter", _in_out),
    (pipeline, "score_nms", "merging.score_nms", _in_out),
    (pipeline, "resolve_points", "merging.resolve_points", None),
    (pipeline, "semantic_vote_arrays", "merging.semantic_vote", None),
    (pipeline, "evaluate_labels", "metrics.evaluate_labels", None),
    (io, "read_cloud", "io.read_cloud", _read),
    (io, "write_labels_tsv", "io.write_labels_tsv", _written),
    (io, "write_json", "io.write_json", _written),
    (io, "write_block_file", "io.write_block_file", _written),
    (io, "read_block_file", "io.read_block_file", _read),
]

# The harness opens this span around each ``forestseg.cli.main`` call.
CLI_SPAN = "cli.main"

# Span name -> the per-layer metric that sums its self time.
SELF_TIME_METRIC = {
    CLI_SPAN: "cli.self_s",
    "pipeline.run_pipeline": "pipeline.self_s",
    "pipeline.run_pipeline_from_blocks": "pipeline.self_s",
    "pipeline.merge_block_predictions": "pipeline.self_s",
    **{name: name + "_s" for _, _, name, _ in TARGETS if not name.startswith("pipeline.")},
}

# Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = {
    "merging.score_nms_s": "s",
    "merging.masks_in": "count",
    "merging.masks_kept": "count",
    "merging.nms_keep_ratio": "ratio",
    "merging.discard_boundary_masks_s": "s",
    "merging.boundary_keep_ratio": "ratio",
    "merging.score_filter_s": "s",
    "merging.resolve_points_s": "s",
    "merging.semantic_vote_s": "s",
    "synthgen.oracle_predictor_s": "s",
    "synthgen.oracle_predictor_calls": "count",
    "synthgen.masks_emitted": "count",
    "pipeline.predict_wall_s": "s",
    "pipeline.predict_parallelism": "ratio",
    "pipeline.run_pipeline_s": "s",
    "pipeline.self_s": "s",
    "tiling.tile_cloud_s": "s",
    "tiling.tile_cloud_calls": "count",
    "tiling.blocks": "count",
    "tiling.block_points": "count",
    "io.read_cloud_s": "s",
    "io.write_labels_tsv_s": "s",
    "io.write_json_s": "s",
    "io.write_block_file_s": "s",
    "io.read_block_file_s": "s",
    "io.bytes_written": "bytes",
    "io.bytes_read": "bytes",
    "metrics.evaluate_labels_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def covered_seconds(span: Span, children: list[Span]) -> float:
    """Length of the union of the children's intervals, clipped to ``span``."""
    total = 0.0
    reach = span.start  # everything before this instant is counted already
    for start, end in sorted((c.start, c.end) for c in children):
        start, end = max(start, reach), min(end, span.end)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return {span.id: span.seconds - covered_seconds(span, children[span.id]) for span in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def operation_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one operation's spans (``trace.overhead_s`` excluded)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def counted(name: str, key: str) -> int:
        return sum(span.counts.get(key, 0) for span in by_name[name])

    out = {name: 0.0 for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
    for span in spans:
        out[SELF_TIME_METRIC[span.name]] += own[span.id]

    predict_wall = predict_busy = 0.0
    for run in by_name["pipeline.run_pipeline"]:
        predicted = [s for s in by_name["synthgen.oracle_predictor"] if s.parent == run.id]
        if predicted:
            predict_wall += max(s.end for s in predicted) - min(s.start for s in predicted)
            predict_busy += sum(s.seconds for s in predicted)
    out["pipeline.predict_wall_s"] = predict_wall
    out["pipeline.predict_parallelism"] = _ratio(predict_busy, predict_wall)
    out["pipeline.run_pipeline_s"] = sum(
        s.seconds for name in ("pipeline.run_pipeline", "pipeline.run_pipeline_from_blocks") for s in by_name[name]
    )

    out["synthgen.oracle_predictor_calls"] = len(by_name["synthgen.oracle_predictor"])
    out["synthgen.masks_emitted"] = counted("synthgen.oracle_predictor", "masks")
    out["tiling.tile_cloud_calls"] = len(by_name["tiling.tile_cloud"])
    out["tiling.blocks"] = counted("tiling.tile_cloud", "blocks")
    out["tiling.block_points"] = counted("tiling.tile_cloud", "block_points")

    out["merging.masks_in"] = counted("merging.discard_boundary_masks", "in")
    out["merging.masks_kept"] = counted("merging.score_nms", "out")
    out["merging.nms_keep_ratio"] = _ratio(out["merging.masks_kept"], counted("merging.score_nms", "in"))
    out["merging.boundary_keep_ratio"] = _ratio(
        counted("merging.discard_boundary_masks", "out"), out["merging.masks_in"]
    )
    out["io.bytes_written"] = sum(span.counts.get("bytes_written", 0) for span in spans)
    out["io.bytes_read"] = sum(span.counts.get("bytes_read", 0) for span in spans)
    return out


def per_layer_metrics(spans: list[Span], overhead_s: float) -> dict[str, float]:
    """Median over the traced operations of each per-layer metric."""
    by_op: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        by_op[span.op].append(span)
    per_op = [operation_metrics(op_spans) for op_spans in by_op.values()] or [operation_metrics([])]
    out = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    out["trace.overhead_s"] = overhead_s
    return out
