"""Batch reference for the streaming merge in ``forestseg.pipeline``.

``reference_merge_block_predictions`` holds every prediction and every
stage's mask list at once: it checks all masks, then runs each stage over all
blocks together. ``reference_check_block_ids`` checks the block ids of the
whole list up front. Run one after the other, they must return what the
streaming merge returns, and raise the same error class.
"""

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from forestseg.errors import ShapeMismatch, UnknownBlock
from forestseg.merging import (
    BlockPrediction,
    InstanceMask,
    discard_boundary_masks,
    resolve_points,
    score_filter,
    score_nms,
    semantic_vote_arrays,
)
from forestseg.pipeline import PipelineConfig
from forestseg.tiling import sliding_window_centers


@dataclass(eq=False)
class ReferenceMergeOutcome:
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


def reference_check_block_ids(
    predictions: list[BlockPrediction],
    positions: npt.NDArray[np.float64],
    config: PipelineConfig,
) -> None:
    xy = positions[:, :2]
    n_grid = len(sliding_window_centers(xy.min(axis=0), xy.max(axis=0), config.stride))
    predictions = sorted(predictions, key=lambda p: p.block_id)
    block_ids = [p.block_id for p in predictions]
    if len(set(block_ids)) != len(block_ids) or (block_ids and (block_ids[0] < 0 or block_ids[-1] >= n_grid)):
        raise UnknownBlock(
            f"block ids must be distinct and within the {n_grid}-cell grid at stride {config.stride}"
        )


def reference_merge_block_predictions(
    predictions: list[BlockPrediction],
    positions: npt.NDArray[np.float64],
    config: PipelineConfig,
) -> ReferenceMergeOutcome:
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
    return ReferenceMergeOutcome(
        masks_predicted=masks,
        masks_after_boundary=after_boundary,
        masks_after_filter=after_filter,
        masks_kept=kept,
        instance=instance,
        semantic=semantic,
    )
