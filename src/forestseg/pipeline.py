"""End-to-end orchestration: tile, predict per block, merge, vote, evaluate.

Blocks may be predicted in parallel; the merge is a deterministic fold over
masks sorted by (block id, query index), and each block's random stream is
seeded from (master seed, block id), so results are byte-identical for any
worker count or completion order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
import numpy.typing as npt

from .core import PointCloud
from .errors import ConfigError, EmptyInput, ShapeMismatch, UnknownBlock
from .merging import (
    BlockPrediction,
    InstanceMask,
    discard_boundary_masks,
    resolve_points,
    score_filter,
    score_nms,
    semantic_vote_arrays,
)
from .metrics import EvalReport, evaluate_labels
from .synthgen import CorruptionParams, oracle_predictor
from .tiling import sliding_window_centers, tile_cloud


@dataclass(frozen=True)
class PipelineConfig:
    """Run parameters; defaults follow the reference operating point."""

    radius: float = 16.0
    stride: float = 4.0
    nms_iou: float = 0.3
    score_threshold: float = 0.4
    boundary_margin: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("radius", "stride"):
            # Written so that NaN fails too; tiling and boundary discard square both.
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value * value)):
                raise ConfigError(f"{name} must be positive with a finite square, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # A point midway between four grid centers is stride/sqrt(2) from each.
        if self.stride > self.radius * math.sqrt(2):
            raise ConfigError(
                f"stride {self.stride} exceeds radius*sqrt(2) = {self.radius * math.sqrt(2):.4g}: "
                "some points would lie in no block"
            )
        for name in ("nms_iou", "score_threshold"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if not 0.0 <= self.boundary_margin < self.radius:
            raise ConfigError("boundary_margin must be in [0, radius)")


@dataclass(eq=False)
class MergeOutcome:
    """Stage-by-stage mask lists plus the final per-point labeling."""

    masks_predicted: list[InstanceMask]
    masks_after_boundary: list[InstanceMask]
    masks_after_filter: list[InstanceMask]
    masks_kept: list[InstanceMask]
    instance: npt.NDArray[np.int64]
    semantic: npt.NDArray[np.int64] | None

    def stage_counts(self) -> dict:
        return {
            "predicted": len(self.masks_predicted),
            "after_boundary_discard": len(self.masks_after_boundary),
            "after_score_filter": len(self.masks_after_filter),
            "after_nms": len(self.masks_kept),
        }


@dataclass(eq=False)
class PipelineResult:
    config: PipelineConfig
    n_blocks: int
    n_blocks_empty: int
    merge: MergeOutcome
    evaluation: EvalReport | None = None
    report: dict = field(default_factory=dict)


def effective_threads(requested: int) -> int:
    """The worker count to run with: ``requested``, which must be >= 1."""
    if requested < 1:
        raise ConfigError("thread count must be >= 1")
    return requested


def merge_block_predictions(
    predictions: list[BlockPrediction],
    positions: npt.NDArray[np.float64],
    config: PipelineConfig,
) -> MergeOutcome:
    """Fuse per-block predictions into one scene labeling.

    Stage order: boundary discard, score filter, NMS, point resolution,
    semantic vote. Input order is irrelevant; masks are canonically sorted
    first, so no two may share a ``(block_id, query_index)`` key. Every mask
    must carry the block id of the prediction holding it, since boundary
    discard measures it against that block's footprint.
    """
    n_points = len(positions)
    for p in predictions:
        for mask in p.masks:
            if mask.block_id != p.block_id:
                raise UnknownBlock(f"prediction for block {p.block_id} holds a mask of block {mask.block_id}")
            if mask.size and (mask.point_ids[0] < 0 or mask.point_ids[-1] >= n_points):
                raise ShapeMismatch(
                    f"mask from block {mask.block_id} references points outside 0..{n_points - 1}"
                )
    masks = sorted(
        (m for p in predictions for m in p.masks),
        key=lambda m: (m.block_id, m.query_index),
    )
    for a, b in zip(masks, masks[1:]):
        if (a.block_id, a.query_index) == (b.block_id, b.query_index):
            raise UnknownBlock(f"block {a.block_id} holds two masks with query index {a.query_index}")
    after_boundary = discard_boundary_masks(masks, predictions, positions, config.boundary_margin)
    after_filter = score_filter(after_boundary, config.score_threshold)
    kept = score_nms(after_filter, config.nms_iou)
    instance = resolve_points(kept, n_points)

    semantic = None
    voted = [p for p in sorted(predictions, key=lambda p: p.block_id) if p.semantic is not None]
    if voted:
        semantic = semantic_vote_arrays(
            [p.semantic[0] for p in voted],
            [p.semantic[1] for p in voted],
            n_points,
        )
    return MergeOutcome(
        masks_predicted=masks,
        masks_after_boundary=after_boundary,
        masks_after_filter=after_filter,
        masks_kept=kept,
        instance=instance,
        semantic=semantic,
    )


def make_oracle_predictor(cloud: PointCloud, corruption: CorruptionParams, master_seed: int):
    """Per-block predictor backed by the ground-truth oracle."""
    tree_sizes = None if cloud.instance is None else np.bincount(cloud.instance)

    def predict(block) -> BlockPrediction:
        masks = oracle_predictor(block, cloud, corruption, seed=[master_seed, block.block_id],
                                 tree_sizes=tree_sizes)
        semantic = None
        if cloud.semantic is not None:
            semantic = (block.point_indices, cloud.semantic[block.point_indices])
        return BlockPrediction(
            block_id=block.block_id,
            center_xy=(float(block.center_xy[0]), float(block.center_xy[1])),
            radius=block.radius,
            masks=masks,
            semantic=semantic,
        )

    return predict


def run_pipeline(
    cloud: PointCloud,
    config: PipelineConfig = PipelineConfig(),
    corruption: CorruptionParams = CorruptionParams(),
    threads: int = 1,
) -> PipelineResult:
    """Tile the cloud, predict every block with the ground-truth oracle under
    the given corruption, then merge, evaluate and report.

    Predictions from any other model enter through
    :func:`run_pipeline_from_blocks`.
    """
    blocks = tile_cloud(cloud, config.radius, config.stride)
    predictor = make_oracle_predictor(cloud, corruption, config.seed)

    workers = effective_threads(threads)
    if workers == 1:
        predictions = [predictor(block) for block in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            predictions = list(pool.map(predictor, blocks))
    return run_pipeline_from_blocks(predictions, cloud, config)


def build_report(result: PipelineResult) -> dict:
    report = {
        "config": asdict(result.config),
        "blocks": {"grid": result.n_blocks + result.n_blocks_empty,
                   "processed": result.n_blocks,
                   "empty_skipped": result.n_blocks_empty},
        "masks": result.merge.stage_counts(),
    }
    if result.evaluation is not None:
        report["evaluation"] = result.evaluation.to_dict()
    return report


def run_pipeline_from_blocks(
    predictions: list[BlockPrediction],
    cloud: PointCloud,
    config: PipelineConfig,
) -> PipelineResult:
    """Merge per-block predictions, evaluate them when the cloud carries
    instance labels, and report.

    Block ids are row-major indices into the sliding-window grid of the
    cloud's xy extent at ``config.stride``; the grid cells no prediction
    covers are reported as empty.
    """
    if cloud.n == 0:
        raise EmptyInput("cannot merge predictions over an empty point cloud")
    xy = cloud.positions[:, :2]
    n_grid = len(sliding_window_centers(xy.min(axis=0), xy.max(axis=0), config.stride))
    predictions = sorted(predictions, key=lambda p: p.block_id)
    block_ids = [p.block_id for p in predictions]
    if len(set(block_ids)) != len(block_ids) or (block_ids and (block_ids[0] < 0 or block_ids[-1] >= n_grid)):
        raise UnknownBlock(
            f"block ids must be distinct and within the {n_grid}-cell grid at stride {config.stride}"
        )

    merge = merge_block_predictions(predictions, cloud.positions, config)
    evaluation = None
    if cloud.instance is not None:
        evaluation = evaluate_labels(merge.instance, cloud.instance, merge.semantic, cloud.semantic)
    result = PipelineResult(
        config=config,
        n_blocks=len(predictions),
        n_blocks_empty=n_grid - len(predictions),
        merge=merge,
        evaluation=evaluation,
    )
    result.report = build_report(result)
    return result


__all__ = [
    "MergeOutcome",
    "PipelineConfig",
    "PipelineResult",
    "build_report",
    "effective_threads",
    "make_oracle_predictor",
    "merge_block_predictions",
    "run_pipeline",
    "run_pipeline_from_blocks",
]
