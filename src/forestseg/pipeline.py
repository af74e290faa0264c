"""End-to-end orchestration: tile, predict per block, merge, vote, evaluate.

Blocks are cropped one at a time as the merge pulls them. Each block is
merged as soon as it is predicted or read, then dropped: its packed masks are
checked, pass boundary discard and the score filter, and its semantic votes
are counted. The survivors wait as rows (block id, query index, score, set
index) over one read-only id array per distinct point set, with one vote
count per point and class. Copies are the merge's alone: NMS gets every
empty mask and the best-ranked row of each nonempty point set. Every block is
predicted in the calling thread. NMS ranks rows by a total order, and each
block's random stream is seeded from (master seed, block id), so results are
byte-identical for any block order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np
import numpy.typing as npt

from .core import PointCloud, _setting
from .errors import ConfigError, EmptyInput, InvalidLabel, ShapeMismatch, UnknownBlock
from .merging import (
    BlockMasks,
    BlockPrediction,
    MaskTable,
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
        # Each field is stored as the Python number its rule returns, which the JSON writer takes.
        for name, rule in (("radius", "length"), ("stride", "length"), ("seed", "int >= 0"), ("nms_iou", "[0, 1]"),
                           ("score_threshold", "[0, 1]")):
            object.__setattr__(self, name, _setting(name, getattr(self, name), rule))
        # A point midway between four grid centers is stride/sqrt(2) from each.
        if self.stride > self.radius * math.sqrt(2):
            raise ConfigError(
                f"stride {self.stride} exceeds radius*sqrt(2) = {self.radius * math.sqrt(2):.4g}: "
                "some points would lie in no block"
            )
        outside = "boundary_margin must be in [0, radius)"
        object.__setattr__(self, "boundary_margin", _setting("boundary_margin", self.boundary_margin, ">= 0", outside))
        if not self.boundary_margin < self.radius:
            raise ConfigError(outside)


@dataclass(eq=False)
class MergeOutcome:
    """The per-point labeling, the score-filtered masks as table rows (by
    block id, then query index; NMS saw one per nonempty point set) and the
    rows it kept (in rank order), the grid size, and how many blocks and
    masks the earlier stages saw. Both tables share one read-only id array
    per distinct point set."""

    n_grid: int
    n_blocks: int
    n_predicted: int
    n_after_boundary: int
    masks_after_filter: MaskTable
    masks_kept: MaskTable
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
    """The worker count a run uses: 1, whatever ``requested`` (which must be an integer >= 1) says."""
    _setting("thread count", requested, "int >= 1")
    return 1


class _MaskCopies:
    """The score-filtered masks of every block so far, as rows over one
    read-only id array per distinct point set.

    Set 0 is the empty set, which every empty mask shares. A nonempty mask's
    ids are sorted and unique, so equal sets have equal bytes: one dict maps
    the bytes of each set held to its index. A mask whose bytes are new opens
    a set, an array over those bytes, so no block's arrays outlive the block.
    """

    def __init__(self) -> None:
        empty = np.frombuffer(b"", dtype=np.int64)
        self.sets: list[npt.NDArray[np.int64]] = [empty]
        self._index: dict[bytes, int] = {}
        # Per block: block ids, query indices, scores and set indices; a first, empty block fixes their dtypes.
        self._rows = [(empty, empty, np.empty(0), empty)]

    def add(self, block_id: int, masks: BlockMasks) -> None:
        """Hold ``masks``, whose ids are sorted and unique, as rows of block ``block_id``."""
        set_index = np.zeros(len(masks), dtype=np.int64)
        ends = np.cumsum(masks.mask_sizes).tolist()
        for row, (start, end) in enumerate(zip([0, *ends], ends)):
            if start < end:
                data = masks.point_ids[start:end].tobytes()
                index = self._index.setdefault(data, len(self.sets))
                if index == len(self.sets):
                    self.sets.append(np.frombuffer(data, dtype=np.int64))
                set_index[row] = index
        self._rows.append((np.full(len(masks), block_id, dtype=np.int64), masks.query_index, masks.score,
                           set_index))

    def table(self) -> MaskTable:
        """Every row held, in the order the blocks were added."""
        return MaskTable(*map(np.concatenate, zip(*self._rows)), sets=self.sets)


def _check_prediction(prediction: BlockPrediction, seen: set[int], n_grid: int, n_points: int, stride: float) -> None:
    """Check one arriving prediction: a new block id on the grid, mask ids in the cloud, distinct query indices."""
    block_id = prediction.block_id
    if isinstance(block_id, bool) or not isinstance(block_id, numbers.Integral):
        raise UnknownBlock(f"block id {block_id!r} is not an integer")
    if not 0 <= block_id < n_grid:
        raise UnknownBlock(f"block id {block_id} is outside the {n_grid}-cell grid at stride {stride}")
    if block_id in seen:
        raise UnknownBlock(f"block {block_id} arrives twice")
    seen.add(block_id)
    masks = prediction.masks
    ids = masks.point_ids
    if len(ids) and (ids.min() < 0 or ids.max() >= n_points):
        raise ShapeMismatch(f"mask from block {block_id} references points outside 0..{n_points - 1}")
    query = masks.query_index
    if (query[1:] <= query[:-1]).any():  # strictly ascending indices, as the oracle emits, need no sort
        ordered = np.sort(query)
        if (repeated := ordered[1:] == ordered[:-1]).any():
            raise UnknownBlock(f"block {block_id} holds two masks with query index {ordered[1:][repeated][0]}")


def merge_block_predictions(
    predictions: Iterable[BlockPrediction],
    positions: npt.NDArray[np.float64],
    config: PipelineConfig,
) -> MergeOutcome:
    """Fuse per-block predictions, taken from any iterable, into one scene labeling.

    Each prediction is checked, boundary-discarded, score-filtered and voted
    as it arrives, then dropped before the next one is pulled, so a generator
    of predictions is merged in the memory of one block, the surviving masks
    and one vote count per point and class. The survivors are rows over one
    read-only id array per distinct point set, so copies cost memory per
    distinct set, and only the best-ranked row of each set reaches NMS. NMS,
    point resolution and the semantic majority follow once the iterable is
    exhausted. Arrival order is irrelevant to the result.

    Block ids must be distinct and index the sliding-window grid of the
    positions' xy extent at ``config.stride``. A block's footprint, against
    which boundary discard measures its masks, is the cylinder of
    ``config.radius`` around the grid center its id names, so predictions
    must come from blocks tiled with the same radius and stride. A block's
    mask ids must be points of the cloud, no two masks of a block may share
    a query index, and a block's semantic votes may name each point at most
    once. The first fault to arrive is the one raised.
    """
    n_points = len(positions)
    if n_points == 0:
        raise EmptyInput("cannot merge predictions over an empty point cloud")
    xy = positions[:, :2]
    centers = sliding_window_centers(xy.min(axis=0), xy.max(axis=0), config.stride)
    seen: set[int] = set()
    votes: SemanticVotes | None = None
    copies = _MaskCopies()
    n_predicted = n_after_boundary = 0
    for prediction in predictions:
        _check_prediction(prediction, seen, len(centers), n_points, config.stride)
        masks = prediction.masks
        # Indexed only once checked: numpy would wrap a negative id to a cell at the grid's end.
        inside = discard_boundary_masks(masks, centers[prediction.block_id], config.radius, positions,
                                        config.boundary_margin)
        copies.add(prediction.block_id, score_filter(inside, config.score_threshold))
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

    survivors = copies.table()
    ranked = survivors.ranked()
    # NMS gets every empty mask and each nonempty set's first row in rank order; any other copy has IoU 1 with it.
    for_nms = np.zeros(len(ranked), dtype=bool)
    for_nms[np.unique(ranked.set_index, return_index=True)[1]] = True
    for_nms |= ranked.set_index == 0
    kept = score_nms(ranked.take(np.flatnonzero(for_nms)), config.nms_iou)
    return MergeOutcome(
        n_grid=len(centers),
        n_blocks=len(seen),
        n_predicted=n_predicted,
        n_after_boundary=n_after_boundary,
        masks_after_filter=survivors.take(np.lexsort((survivors.query_index, survivors.block_id))),
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

