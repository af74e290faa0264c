"""Benchmark of the forestseg pipeline on one workload.

Usage:
    python3 perfbench/run.py --workload clean-120 --seed 0 --seconds 30 --trace 0

Set-up writes the workload's scene, generated from ``--seed``, as PLY and
computes reference outputs with the library. The run then drives
``forestseg.cli.main`` in a closed loop for ``--seconds``, checks every
operation's outputs against the reference, and prints a table followed by
one JSON line: the end-to-end metrics with ``--trace 0``, or the per-layer
metrics of a traced run with ``--trace 1``. Results, and the spans of a
traced run, are also written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def source_sha256() -> str:
    """Digest of the library sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "forestseg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(workload, seed: int) -> dict:
    import numpy
    from forestseg.pipeline import effective_threads

    return {
        "workload": workload.name,
        "seed": seed,
        "threads_requested": workload.threads,
        "effective_threads": effective_threads(workload.threads),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "source_sha256": source_sha256(),
    }


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")


def main(argv=None) -> int:
    if not (SRC / "forestseg" / "__init__.py").is_file():
        print(f"error: no forestseg sources under {SRC}", file=sys.stderr)
        return 2
    # effective_threads() silently caps workers with this variable.
    os.environ.pop("FORESTSEG_THREADS", None)

    import harness  # puts the checkout's src/ on sys.path
    import tracing

    import forestseg
    from forestseg import cli

    if Path(forestseg.__file__).resolve().parent != SRC / "forestseg":
        print(f"error: imported forestseg from {forestseg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    args = parse_args(argv, harness.WORKLOADS)
    workload = harness.WORKLOADS[args.workload]
    env = environment(workload, args.seed)
    stem = f"{workload.name}-seed{args.seed}"
    work = OUT / f"work-{stem}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ply = work / "scene.ply"
        setups = harness.scaled_setups(workload, args.seed, ply, harness.SETUP_REPEATS)
        reference = harness.reference_outputs(workload, args.seed, ply, work)
        op = harness.build_operation(workload, args.seed, ply, work)
        tracer = tracing.Tracer()

        def traced_call(argv):
            tracer.call(tracing.CLI_SPAN, cli.main, (argv,), {"standalone_mode": False})

        def is_traced(index: int) -> bool:
            # A traced run alternates untraced and traced operations, so drift
            # affects both halves alike and their difference is the overhead.
            return bool(args.trace) and index % 2 == 1

        def run_one(index: int):
            if is_traced(index):
                with tracer.installed(), tracer.operation(index):
                    seconds = harness.run_operation(op, traced_call)
            else:
                seconds = harness.run_operation(op)
            problems, quality = harness.check_outputs(op, reference, workload.clean)
            return seconds, problems, quality

        results = harness.closed_loop(run_one, args.seconds, min_ops=2 if args.trace else 1,
                                      probe_fn=harness.probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r for r in results if not is_traced(r.index)]
    traced = [r for r in results if is_traced(r.index)]
    failed = sum(not r.ok for r in results)
    metrics, detail = harness.end_to_end_metrics(results, untraced, setups, reference, len(op.commands))

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"{workload.name} seed {args.seed}: {len(results)} operations attempted, {failed} failed, "
          f"error_rate {detail['error_rate']:.6g}")
    for r in results:
        for problem in r.problems:
            print(f"  operation {r.index} failed: {problem}")
    print_table("end-to-end", metrics, harness.END_TO_END_UNITS)
    print(f"  op_s.tail {detail['op_s.tail']:.6g} s is p{detail['tail_percentile']:.4g} of {detail['op_samples']} "
          f"operations{' (the maximum)' if detail['tail_percentile'] == 100.0 else ''}; printed, not gated")
    print(f"  points_per_s counts {reference.n_points} points per command, {len(op.commands)} command(s) per operation")
    print(f"  setup_s is the median of {len(setups)} set-ups: {detail['setup_samples']}")
    print(f"  timings are scaled to the reference host's speed; the host was {detail['host_factor.p50']:.4g}x "
          f"as slow (median), and on the wall clock op_s.p50 was {detail['wall_op_s.p50']:.6g} s, "
          f"points_per_s {detail['wall_points_per_s']:.6g} points/s and setup_s {detail['wall_setup_s']:.6g} s")

    record = {"environment": env, "attempted": len(results), "failed": failed,
              "end_to_end": metrics, "detail": detail,
              "op_seconds": [[r.index, r.seconds, r.factor, is_traced(r.index)] for r in results],
              "problems": {r.index: r.problems for r in results if r.problems}}
    if args.trace:
        traced_ok = [r for r in traced if r.ok]
        untraced_ok = [r for r in untraced if r.ok]
        overhead = (harness.median_or_zero(r.scaled for r in traced_ok)
                    - harness.median_or_zero(r.scaled for r in untraced_ok))
        ok_ops = {r.index for r in traced_ok}
        layers = tracing.per_layer_metrics([s for s in tracer.spans if s.op in ok_ops], overhead)
        print_table(f"per-layer (median over {len(traced_ok)} traced operations)", layers, tracing.PER_LAYER_UNITS)
        print(f"  tracing overhead: traced op_s.p50 minus untraced op_s.p50 = {overhead:.6g} s "
              f"({len(traced_ok)} traced, {len(untraced_ok)} untraced operations)")
        self_time = {k: v for k, v in layers.items() if k in tracing.SELF_TIME_METRIC.values()}
        print(f"  largest self time: {max(self_time, key=self_time.get)}")
        record["per_layer"] = layers
        spans_path = OUT / f"{stem}-spans.jsonl"
        spans_path.write_text("".join(json.dumps(s) + "\n" for s in tracer.to_records()))
        print(f"  spans: {spans_path.relative_to(ROOT)}")
        metrics, units = layers, tracing.PER_LAYER_UNITS
    else:
        units = harness.END_TO_END_UNITS
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
