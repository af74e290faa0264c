"""End-to-end orchestration: tile, predict per block, merge, vote, evaluate.

Blocks are cropped one at a time as the merge pulls them. Each block is
merged as soon as it is predicted or read, then dropped: its masks pass
boundary discard and the score filter, and its semantic votes are counted.
Only the surviving masks, one shared id array per distinct point set, and one
vote count per point and class wait for NMS, which skips a mask sharing an
earlier-ranked mask's array. Every block is predicted in the calling thread.
NMS ranks masks by a total order, and each block's random stream is seeded
from (master seed, block id), so results are byte-identical for any block
order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np
import numpy.typing as npt

from .core import PointCloud
from .errors import ConfigError, EmptyInput, InvalidLabel, ShapeMismatch, UnknownBlock
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
    """The per-point labeling, the masks that reached NMS (sorted by block id,
    then query index) and those it kept, the size of the sliding-window grid,
    and how many blocks and masks the earlier stages saw."""

    n_grid: int
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
    merge: MergeOutcome
    evaluation: EvalReport | None = None

    @property
    def report(self) -> dict:
        """The run report: config, grid and block counts, mask counts per stage, and the evaluation if any."""
        merge = self.merge
        report = {
            "config": asdict(self.config),
            "blocks": {"grid": merge.n_grid, "processed": merge.n_blocks,
                       "empty_skipped": merge.n_grid - merge.n_blocks},
            "masks": merge.stage_counts(),
        }
        if self.evaluation is not None:
            report["evaluation"] = self.evaluation.to_dict()
        return report


def effective_threads(requested: int) -> int:
    """The worker count a run uses: 1, whatever ``requested`` (which must be >= 1) says."""
    if requested < 1:
        raise ConfigError("thread count must be >= 1")
    return 1


def _ids_key(data: bytes) -> int:
    """The index key of a point-id array's bytes."""
    return hash(data)


class _IdSetIndex:
    """Distinct int64 point-id sets, each held as the first array seen with it.

    Arrays are keyed by the hash of their bytes, and a key match is confirmed
    by comparing the bytes of both arrays, so the index holds a reference per
    set, never a bytes copy of it. For int64 arrays, equal bytes mean equal
    ids, and comparing bytes is several times faster than ``np.array_equal``.
    """

    def __init__(self) -> None:
        self._by_key: dict[int, list[npt.NDArray[np.int64]]] = {}

    def intern(self, ids: npt.NDArray[np.int64]) -> npt.NDArray[np.int64] | None:
        """The held array equal to ``ids``, or None after holding ``ids`` itself."""
        data = ids.tobytes()
        held = self._by_key.setdefault(_ids_key(data), [])
        for other in held:
            if other.tobytes() == data:
                return other
        held.append(ids)
        return None


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
    and one vote count per point and class. Surviving masks with equal point
    sets are given one shared, read-only id array, so the masks cost memory
    per distinct point set. NMS, point resolution and the semantic majority
    follow once the iterable is exhausted. Arrival order is irrelevant to the
    result.

    Block ids must be distinct and index the sliding-window grid of the
    positions' xy extent at ``config.stride``. A block's footprint, against
    which boundary discard measures its masks, is the cylinder of
    ``config.radius`` around the grid center its id names, so predictions
    must come from blocks tiled with the same radius and stride. Every mask
    must carry the block id of the prediction holding it, no two masks of a
    block may share a query index, and a block's semantic votes may name each
    point at most once. The first fault to arrive is the one raised.
    """
    n_points = len(positions)
    if n_points == 0:
        raise EmptyInput("cannot merge predictions over an empty point cloud")
    xy = positions[:, :2]
    centers = sliding_window_centers(xy.min(axis=0), xy.max(axis=0), config.stride)
    seen: set[int] = set()
    votes: SemanticVotes | None = None
    after_filter: list[InstanceMask] = []
    id_sets = _IdSetIndex()
    n_predicted = n_after_boundary = 0
    for prediction in predictions:
        masks = _checked_masks(prediction, seen, len(centers), n_points, config.stride)
        # Indexed only once checked: numpy would wrap a negative id to a cell at the grid's end.
        inside = discard_boundary_masks(masks, centers[prediction.block_id], config.radius, positions,
                                        config.boundary_margin)
        for mask in score_filter(inside, config.score_threshold):
            held = id_sets.intern(mask.point_ids)
            if held is None:
                mask.point_ids.flags.writeable = False
            else:
                mask.point_ids = held  # the copy's own array goes with its block
            after_filter.append(mask)
        n_predicted += len(masks)
        n_after_boundary += len(inside)
        if prediction.semantic is not None:
            if votes is None:
                votes = SemanticVotes(n_points)
            try:
                votes.add(*prediction.semantic)
            except (ShapeMismatch, InvalidLabel) as exc:
                raise type(exc)(f"block {prediction.block_id}: {exc}") from None
        del prediction, masks, inside  # free this block's arrays before the next one is pulled

    after_filter.sort(key=lambda m: (m.block_id, m.query_index))
    kept = score_nms(after_filter, config.nms_iou)
    return MergeOutcome(
        n_grid=len(centers),
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
        return BlockPrediction(block_id=block.block_id, masks=masks, semantic=semantic)

    return predict


def run_pipeline(
    cloud: PointCloud,
    config: PipelineConfig = PipelineConfig(),
    corruption: CorruptionParams = CorruptionParams(),
    threads: int = 1,
) -> PipelineResult:
    """Tile the cloud, predict every block with the ground-truth oracle under
    the given corruption, then merge, evaluate and report.

    Every block is predicted in the calling thread; ``threads`` must be >= 1
    and has no other effect. Predictions from any other model enter through
    :func:`run_pipeline_from_blocks`.
    """
    effective_threads(threads)
    blocks = tile_cloud(cloud, config.radius, config.stride)
    predictor = make_oracle_predictor(cloud, corruption, config.seed)
    # A generator, not ``map``: a StopIteration escaping the predictor must fail the run, not end it.
    return run_pipeline_from_blocks((predictor(block) for block in blocks), cloud, config)


def run_pipeline_from_blocks(
    predictions: Iterable[BlockPrediction],
    cloud: PointCloud,
    config: PipelineConfig,
) -> PipelineResult:
    """Merge per-block predictions, evaluate them when the cloud's instance
    labels name at least one tree (an id >= 1), and report.

    Block ids are row-major indices into the sliding-window grid of the
    cloud's xy extent at ``config.stride``; the grid cells no prediction
    covers are reported as empty. ``predictions`` is consumed once, as
    :func:`merge_block_predictions` describes.
    """
    merge = merge_block_predictions(predictions, cloud.positions, config)
    evaluation = None
    if cloud.instance is not None and (cloud.instance > 0).any():
        evaluation = evaluate_labels(merge.instance, cloud.instance, merge.semantic, cloud.semantic)
    return PipelineResult(config=config, merge=merge, evaluation=evaluation)

