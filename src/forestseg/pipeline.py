"""End-to-end orchestration: tile, predict per block, merge, vote, evaluate.

Each block is merged as soon as it is predicted or read, then dropped: its
masks pass boundary discard and the score filter, and its semantic votes are
counted. Only the surviving masks and one vote count per point and class wait
for NMS. NMS ranks masks by a total order, and each block's random stream is
seeded from (master seed, block id), so results are byte-identical for any
worker count or block order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator

import numpy as np
import numpy.typing as npt

from .core import PointCloud
from .errors import ConfigError, EmptyInput, ShapeMismatch, UnknownBlock
from .merging import (
    BlockPrediction,
    InstanceMask,
    SemanticVotes,
    discard_boundary_masks,
    resolve_points,
    score_filter,
    score_nms,
    semantic_vote_arrays,  # noqa: F401 -- perfbench's tracer wraps it by this module's name
)
from .metrics import EvalReport, evaluate_labels
from .synthgen import CorruptionParams, oracle_predictor
from .tiling import CylinderBlock, sliding_window_centers, tile_cloud


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
    """The per-point labeling, the masks that reached NMS (sorted by block id,
    then query index) and those it kept, and how many blocks and masks the
    earlier stages saw."""

    n_blocks: int
    n_predicted: int
    n_after_boundary: int
    masks_after_filter: list[InstanceMask]
    masks_kept: list[InstanceMask]
    instance: npt.NDArray[np.int64]
    semantic: npt.NDArray[np.int64] | None

    def stage_counts(self) -> dict:
        return {
            "predicted": self.n_predicted,
            "after_boundary_discard": self.n_after_boundary,
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


def _grid_cells(positions: npt.NDArray[np.float64], stride: float) -> int:
    """Cells of the sliding-window grid over the positions' xy extent."""
    xy = positions[:, :2]
    return len(sliding_window_centers(xy.min(axis=0), xy.max(axis=0), stride))


def _checked_masks(
    prediction: BlockPrediction, seen: set[int], n_grid: int, n_points: int, stride: float
) -> list[InstanceMask]:
    """Check one arriving prediction; its masks sorted by query index."""
    block_id = prediction.block_id
    if not 0 <= block_id < n_grid:
        raise UnknownBlock(f"block id {block_id} is outside the {n_grid}-cell grid at stride {stride}")
    if block_id in seen:
        raise UnknownBlock(f"block {block_id} arrives twice")
    seen.add(block_id)
    for mask in prediction.masks:
        if mask.block_id != block_id:
            raise UnknownBlock(f"prediction for block {block_id} holds a mask of block {mask.block_id}")
        if mask.size and (mask.point_ids[0] < 0 or mask.point_ids[-1] >= n_points):
            raise ShapeMismatch(f"mask from block {block_id} references points outside 0..{n_points - 1}")
    masks = sorted(prediction.masks, key=lambda m: m.query_index)
    for a, b in zip(masks, masks[1:]):
        if a.query_index == b.query_index:
            raise UnknownBlock(f"block {block_id} holds two masks with query index {a.query_index}")
    return masks


def merge_block_predictions(
    predictions: Iterable[BlockPrediction],
    positions: npt.NDArray[np.float64],
    config: PipelineConfig,
) -> MergeOutcome:
    """Fuse per-block predictions, taken from any iterable, into one scene labeling.

    Each prediction is checked, boundary-discarded, score-filtered and voted
    as it arrives, then dropped before the next one is pulled, so a generator
    of predictions is merged in the memory of one block, the surviving masks
    and one vote count per point and class. NMS, point resolution and the
    semantic majority follow once the iterable is exhausted. Arrival order is
    irrelevant to the result.

    Block ids must be distinct and index the sliding-window grid of the
    positions' xy extent at ``config.stride``. Every mask must carry the block
    id of the prediction holding it, since boundary discard measures it
    against that block's footprint, and no two masks of a block may share a
    query index. The first fault to arrive is the one raised.
    """
    n_points = len(positions)
    if n_points == 0:
        raise EmptyInput("cannot merge predictions over an empty point cloud")
    n_grid = _grid_cells(positions, config.stride)
    seen: set[int] = set()
    votes: SemanticVotes | None = None
    after_filter: list[InstanceMask] = []
    n_predicted = n_after_boundary = 0
    for prediction in predictions:
        masks = _checked_masks(prediction, seen, n_grid, n_points, config.stride)
        inside = discard_boundary_masks(masks, [prediction], positions, config.boundary_margin)
        after_filter.extend(score_filter(inside, config.score_threshold))
        n_predicted += len(masks)
        n_after_boundary += len(inside)
        if prediction.semantic is not None:
            if votes is None:
                votes = SemanticVotes(n_points)
            votes.add(*prediction.semantic)
        del prediction, masks, inside  # free this block's arrays before the next one is pulled

    after_filter.sort(key=lambda m: (m.block_id, m.query_index))
    kept = score_nms(after_filter, config.nms_iou)
    return MergeOutcome(
        n_blocks=len(seen),
        n_predicted=n_predicted,
        n_after_boundary=n_after_boundary,
        masks_after_filter=after_filter,
        masks_kept=kept,
        instance=resolve_points(kept, n_points),
        semantic=None if votes is None else votes.majority(),
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


def _released(blocks: list[CylinderBlock]) -> Iterator[CylinderBlock]:
    """Hand out the blocks in order, removing each from the list, so that the
    list keeps no block alive after its prediction is merged."""
    blocks.reverse()
    while blocks:
        yield blocks.pop()


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
    blocks = _released(tile_cloud(cloud, config.radius, config.stride))
    predictor = make_oracle_predictor(cloud, corruption, config.seed)

    workers = effective_threads(threads)
    if workers == 1:
        return run_pipeline_from_blocks(map(predictor, blocks), cloud, config)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return run_pipeline_from_blocks(pool.map(predictor, blocks), cloud, config)


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
    predictions: Iterable[BlockPrediction],
    cloud: PointCloud,
    config: PipelineConfig,
) -> PipelineResult:
    """Merge per-block predictions, evaluate them when the cloud carries
    instance labels, and report.

    Block ids are row-major indices into the sliding-window grid of the
    cloud's xy extent at ``config.stride``; the grid cells no prediction
    covers are reported as empty. ``predictions`` is consumed once, as
    :func:`merge_block_predictions` describes.
    """
    merge = merge_block_predictions(predictions, cloud.positions, config)
    evaluation = None
    if cloud.instance is not None:
        evaluation = evaluate_labels(merge.instance, cloud.instance, merge.semantic, cloud.semantic)
    result = PipelineResult(
        config=config,
        n_blocks=merge.n_blocks,
        n_blocks_empty=_grid_cells(cloud.positions, config.stride) - merge.n_blocks,
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
