"""Workloads, operations, the output gate and timing statistics.

An operation is one ``forestseg pipeline`` command, or a dump-and-replay pair
of them, run in-process through ``forestseg.cli.main``. One client runs one
operation at a time and starts the next only when the previous one is done
(a closed loop); the only workers are the pipeline's own ``--threads``.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from forestseg import cli, io  # noqa: E402
from forestseg.pipeline import PipelineConfig, run_pipeline  # noqa: E402
from forestseg.synthgen import CorruptionParams  # noqa: E402

SETUP_REPEATS = 9

# The probe's seconds on the reference host, a 2-vCPU Intel Xeon VM at a quiet
# moment. Timings are scaled to it (see ``host_factor``).
PROBE_REFERENCE_S = 0.2
TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = 10 * TAIL_BEYOND  # where the rule reaches p90

END_TO_END_UNITS = {
    "op_s.p50": "s",
    "points_per_s": "points/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "success_rate": "ratio",
    "f1": "ratio",
    "coverage": "ratio",
    "miou": "ratio",
}


@dataclass(frozen=True)
class Workload:
    name: str
    n_trees: int
    plot_size: float
    threads: int
    corruption: tuple[tuple[str, float], ...] = ()
    roundtrip: bool = False

    @property
    def clean(self) -> bool:
        return not self.corruption

    def flags(self) -> list[str]:
        out = ["--threads", str(self.threads)]
        for key, value in self.corruption:
            out += [f"--{key.replace('_', '-')}", str(value)]
        return out


# Why each exists: clean-120 is dominated by score_nms (every tree arrives as
# dozens of near-identical copies); noisy-30 by the oracle's per-mask noise
# pool, with merge work negligible; roundtrip-30 by block-file writes and
# reads and the file-fed merge path.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("clean-120", n_trees=120, plot_size=40.0, threads=1),
        Workload("noisy-30", n_trees=30, plot_size=20.0, threads=2,
                 corruption=(("split_prob", 0.5), ("point_noise", 0.3))),
        Workload("roundtrip-30", n_trees=30, plot_size=20.0, threads=1, roundtrip=True),
    )
}


def _probe_work() -> int:
    """Fixed work shaped like the pipeline's: many small set intersections (as
    in NMS), a large random draw and sort (as in the oracle) and a dict loop.
    It does not touch forestseg, so a change to the program never moves it."""
    rng = np.random.default_rng(12345)
    sets = [np.unique(rng.integers(0, 20_000, size=int(n))) for n in rng.integers(200, 2_000, size=160)]
    total = 0
    for i, a in enumerate(sets):
        for b in sets[i + 1:i + 33]:
            total += len(np.intersect1d(a, b, assume_unique=True))
    x = rng.normal(size=400_000)
    total += int(np.argsort(x, kind="stable")[:10].sum())
    counts: dict[int, int] = {}
    for k in range(120_000):
        counts[k % 997] = counts.get(k % 997, 0) + k
    return total + len(counts)


def probe() -> float:
    """Seconds the host takes for the fixed probe work now."""
    start = time.perf_counter()
    _probe_work()
    return time.perf_counter() - start


def host_factor(before: float, after: float) -> float:
    """How much slower than the reference host the host was around a timing.

    The host's CPUs are shared: a fixed loop's time drifts by a third within
    minutes, as much as a change to the program would move a timing. A probe
    runs before and after each timed piece of work, and the work's seconds
    divided by this factor are its seconds at the reference host's speed.
    """
    return (before + after) / (2.0 * PROBE_REFERENCE_S)


def scaled_setups(workload: Workload, seed: int, ply: Path, repeats: int) -> list[tuple[float, float]]:
    """(wall, scaled) seconds of ``repeats`` set-ups, each between two probes."""
    probes = [probe()]
    out = []
    for _ in range(repeats):
        wall = make_scene(workload, seed, ply)
        probes.append(probe())
        out.append((wall, wall / host_factor(probes[-2], probes[-1])))
    return out


def make_scene(workload: Workload, seed: int, ply: Path) -> float:
    """Import, generate and write the scene in a fresh interpreter; its seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("make_scene.py")), str(SRC),
         str(workload.n_trees), str(workload.plot_size), str(seed), str(ply)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


@dataclass(frozen=True)
class Reference:
    labels: bytes
    report: bytes
    n_points: int


def reference_outputs(workload: Workload, seed: int, ply: Path, work: Path) -> Reference:
    """Labels and report of a plain library ``run_pipeline(threads=1)``."""
    cloud = io.read_cloud(ply)
    result = run_pipeline(cloud, PipelineConfig(seed=seed), CorruptionParams(**dict(workload.corruption)), threads=1)
    labels, report = work / "reference_labels.tsv", work / "reference_report.json"
    io.write_labels_tsv(labels, result.merge.instance, result.merge.semantic)
    io.write_json(report, result.report)
    return Reference(labels=labels.read_bytes(), report=report.read_bytes(), n_points=cloud.n)


@dataclass(frozen=True)
class Operation:
    """The commands of one operation and the (labels, report) each writes."""

    commands: list[list[str]]
    outputs: list[tuple[Path, Path]]
    scratch: Path | None = None


def build_operation(workload: Workload, seed: int, ply: Path, work: Path) -> Operation:
    base = ["pipeline", "--input", str(ply), "--seed", str(seed)]
    outputs = [(work / f"labels{i}.tsv", work / f"report{i}.json") for i in range(1 + workload.roundtrip)]
    out_args = [["--out-labels", str(labels), "--out-report", str(report)] for labels, report in outputs]
    if not workload.roundtrip:
        return Operation([base + workload.flags() + out_args[0]], outputs)
    blocks = work / "blocks"
    return Operation(
        [base + workload.flags() + ["--dump-blocks", str(blocks)] + out_args[0],
         base + ["--predictor", str(blocks)] + out_args[1]],
        outputs,
        scratch=blocks,
    )


def run_operation(op: Operation, call=None) -> float:
    """Run the operation's commands; wall seconds of the commands alone.

    ``call(argv)`` runs one command and defaults to ``forestseg.cli.main``.
    Outputs and garbage from the previous run are removed first, outside the
    timing, so every run starts from the same state.
    """
    if call is None:
        def call(argv):
            cli.main(argv, standalone_mode=False)
    if op.scratch is not None:
        shutil.rmtree(op.scratch, ignore_errors=True)
    for labels, report in op.outputs:
        labels.unlink(missing_ok=True)
        report.unlink(missing_ok=True)
    gc.collect()
    start = time.perf_counter()
    for argv in op.commands:
        call(argv)
    return time.perf_counter() - start


def check_outputs(op: Operation, reference: Reference, clean: bool) -> tuple[list[str], dict]:
    """Compare every command's outputs with the reference, byte for byte.

    Returns the problems found and the first command's quality scores. On a
    dump-and-replay pair both reports must equal the reference, so the replay
    report equals the direct one. Clean scenes must also score exactly 1.0.
    """
    problems = []
    quality: dict = {}
    for i, (labels, report) in enumerate(op.outputs):
        if labels.read_bytes() != reference.labels:
            problems.append(f"command {i}: labels differ from the reference")
        text = report.read_bytes()
        if text != reference.report:
            problems.append(f"command {i}: report differs from the reference")
        evaluation = json.loads(text)["evaluation"]
        scores = {
            "f1": evaluation["instance"]["f1"],
            "coverage": evaluation["instance"]["coverage"],
            "miou": evaluation["semantic"]["miou"],
        }
        if clean and any(v != 1.0 for v in scores.values()):
            problems.append(f"command {i}: clean scene scored {scores}, expected 1.0")
        quality = quality or scores
    return problems, quality


@dataclass
class OpResult:
    index: int
    seconds: float
    problems: list[str]
    quality: dict
    factor: float = 1.0  # host_factor around the operation

    @property
    def scaled(self) -> float:
        """Seconds at the reference host's speed."""
        return self.seconds / self.factor

    @property
    def ok(self) -> bool:
        return not self.problems


def closed_loop(run_one, budget_s: float, min_ops: int = 1, probe_fn=None) -> list[OpResult]:
    """Run ``run_one(index) -> (seconds, problems, quality)`` back to back.

    A new operation starts only while it is expected to end within the budget,
    judged by the last one's duration. An operation that raises or exits is a
    failed operation, not the end of the run. With ``probe_fn``, a probe runs
    before the first operation and after each one, and each result carries the
    host factor of the probes on either side of it.
    """
    results: list[OpResult] = []
    start = time.perf_counter()
    last_probe = probe_fn() if probe_fn else None
    while True:
        index = len(results)
        t0 = time.perf_counter()
        try:
            seconds, problems, quality = run_one(index)
        except (Exception, SystemExit) as exc:
            seconds = time.perf_counter() - t0
            traceback.print_exc()
            detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
            problems, quality = [f"raised {detail}"], {}
        factor = 1.0
        if probe_fn:
            next_probe = probe_fn()
            factor, last_probe = host_factor(last_probe, next_probe), next_probe
        results.append(OpResult(index, seconds, problems, quality, factor))
        elapsed = time.perf_counter() - start
        if len(results) >= min_ops and elapsed + seconds > budget_s:
            return results


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it.

    The value is the sorted sample with ten larger ones; its percentile is the
    share of samples at or below it. Below 100 samples that percentile is
    under p90 and moves with the sample count, so a run with a few more or
    fewer operations would report a different statistic. There the maximum is
    returned as percentile 100 instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < TAIL_MIN_SAMPLES:
        return 100.0, ordered[-1]
    k = n - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / n, ordered[k]


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def points_per_s(times: list[float], n_points: int, commands_per_op: int) -> float:
    return n_points * commands_per_op * len(times) / sum(times) if times else 0.0


def end_to_end_metrics(results, untraced, setups, reference, commands_per_op) -> tuple[dict, dict]:
    """End-to-end metrics, and the details behind them, including the tail.

    Timings are at the reference host's speed; ``detail`` also holds them as
    measured on the wall clock. ``setups`` holds (wall, scaled) pairs.
    """
    ok_untraced = [r for r in untraced if r.ok]
    times = [r.scaled for r in ok_untraced]
    wall = [r.seconds for r in ok_untraced]
    ok = [r for r in results if r.ok]
    percentile, tail_value = tail(times) if times else (100.0, 0.0)
    metrics = {
        "op_s.p50": median_or_zero(times),
        "points_per_s": points_per_s(times, reference.n_points, commands_per_op),
        "setup_s": median_or_zero(scaled for _, scaled in setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": len(ok) / len(results),
        **{key: median_or_zero(r.quality[key] for r in ok) for key in ("f1", "coverage", "miou")},
    }
    detail = {
        "op_samples": len(times),
        "op_s.tail": tail_value,
        "tail_percentile": percentile,
        "points_per_command": reference.n_points,
        "commands_per_op": commands_per_op,
        "setup_samples": [scaled for _, scaled in setups],
        "error_rate": 1.0 - metrics["success_rate"],
        "host_factor.p50": median_or_zero(r.factor for r in results),
        "wall_op_s.p50": median_or_zero(wall),
        "wall_points_per_s": points_per_s(wall, reference.n_points, commands_per_op),
        "wall_setup_s": median_or_zero(w for w, _ in setups),
    }
    return metrics, detail
