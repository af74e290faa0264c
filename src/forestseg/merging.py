"""Score-based block merging: ranking, NMS, boundary discard, and voting.

Masks from all blocks are fused by a deterministic fold: the total order
(score descending, then block id, then query index) makes every stage
independent of the order in which blocks were produced. The default stage
order is boundary discard, score filter, NMS, point resolution; each stage
is a separate function so ablations can reorder them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
import numpy.typing as npt

from .errors import ConfigError, InvalidLabel, ShapeMismatch, UnknownBlock, Unvoted
from .losses import N_CLASSES


@dataclass(eq=False)
class InstanceMask:
    """One predicted tree: global point indices plus a confidence score."""

    point_ids: npt.NDArray[np.int64]
    score: float
    block_id: int
    query_index: int

    def __post_init__(self) -> None:
        ids = np.unique(np.asarray(self.point_ids, dtype=np.int64))
        self.point_ids = ids
        if not np.isfinite(self.score) or not 0.0 <= self.score <= 1.0:
            raise ShapeMismatch(f"mask score must be in [0, 1], got {self.score}")

    @property
    def size(self) -> int:
        return len(self.point_ids)

    def sort_key(self) -> tuple:
        return (-self.score, self.block_id, self.query_index)


@dataclass(frozen=True)
class BlockGeometry:
    """Cylinder footprint of a block, for boundary tests."""

    center_xy: tuple[float, float]
    radius: float


def _mask_iou(a: InstanceMask, b: InstanceMask) -> float:
    inter = len(np.intersect1d(a.point_ids, b.point_ids, assume_unique=True))
    if inter == 0:
        return 0.0
    return inter / (a.size + b.size - inter)


def score_filter(masks: Sequence[InstanceMask], threshold: float) -> list[InstanceMask]:
    """Keep masks with score >= threshold; order preserved."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"score threshold must be in [0, 1], got {threshold}")
    return [m for m in masks if m.score >= threshold]


def discard_boundary_masks(
    masks: Sequence[InstanceMask],
    blocks: Mapping[int, BlockGeometry],
    positions: npt.NDArray[np.float64],
    margin: float,
) -> list[InstanceMask]:
    """Drop masks reaching into the outer margin annulus of their block.

    A mask is discarded iff any of its points lies at horizontal distance
    greater than ``radius - margin`` from its source block center. Trees cut
    by the crop boundary always reach the annulus, and the small stride
    guarantees an interior copy from a neighboring block survives.
    """
    positions = np.asarray(positions, dtype=np.float64)
    kept = []
    for mask in masks:
        geom = blocks.get(mask.block_id)
        if geom is None:
            raise UnknownBlock(f"mask references unknown block id {mask.block_id}")
        delta = positions[mask.point_ids, :2] - np.asarray(geom.center_xy)
        max_sq = float(np.max(delta[:, 0] ** 2 + delta[:, 1] ** 2)) if mask.size else 0.0
        if max_sq <= (geom.radius - margin) ** 2:
            kept.append(mask)
    return kept


def score_nms(masks: Iterable[InstanceMask], iou_threshold: float) -> list[InstanceMask]:
    """Greedy non-maximum suppression over point-set IoU.

    Masks are ranked by score descending (ties: lower block id, then lower
    query index); a mask survives iff its IoU with every already-kept mask
    stays below the threshold. The ranking is a total order, so the result
    does not depend on input order.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ConfigError(f"NMS IoU threshold must be in [0, 1], got {iou_threshold}")
    ranked = sorted(masks, key=InstanceMask.sort_key)
    kept: list[InstanceMask] = []
    for mask in ranked:
        if all(_mask_iou(mask, other) < iou_threshold for other in kept):
            kept.append(mask)
    return kept


def resolve_points(kept_masks: Sequence[InstanceMask], n_points: int) -> npt.NDArray[np.int64]:
    """Arbitrate overlapping kept masks into a per-point instance labeling.

    Each point goes to its highest-ranked claimant (same total order as NMS);
    unclaimed points get id 0. Output ids are 1..K in rank order.
    """
    out = np.zeros(n_points, dtype=np.int64)
    for rank, mask in enumerate(sorted(kept_masks, key=InstanceMask.sort_key), start=1):
        ids = mask.point_ids
        free = ids[out[ids] == 0]
        out[free] = rank
    return out


def overlap_merge_baseline(masks: Sequence[InstanceMask], overlap_threshold: float) -> list[InstanceMask]:
    """Rule-based baseline: merge masks whose overlap ratio reaches a threshold.

    Two masks are connected when ``|A & B| / min(|A|, |B|) >= threshold``;
    connected components merge into point-set unions scored by their best
    member. Thresholds above 1 never merge anything, which is useful as a
    no-op control.
    """
    if overlap_threshold <= 0:
        raise ConfigError(f"overlap threshold must be positive, got {overlap_threshold}")
    masks = list(masks)
    parent = list(range(len(masks)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            inter = len(np.intersect1d(masks[i].point_ids, masks[j].point_ids, assume_unique=True))
            smaller = min(masks[i].size, masks[j].size)
            if smaller and inter / smaller >= overlap_threshold:
                parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(len(masks)):
        groups.setdefault(find(i), []).append(i)

    merged = []
    for group in groups.values():
        group_masks = [masks[i] for i in group]
        best = min(group_masks, key=InstanceMask.sort_key)
        merged.append(
            InstanceMask(
                point_ids=np.unique(np.concatenate([m.point_ids for m in group_masks])),
                score=max(m.score for m in group_masks),
                block_id=best.block_id,
                query_index=best.query_index,
            )
        )
    merged.sort(key=lambda m: (m.block_id, m.query_index))
    return merged


def semantic_vote_arrays(
    point_ids_per_block: Sequence[npt.NDArray[np.int64]],
    classes_per_block: Sequence[npt.NDArray[np.int64]],
    n_points: int,
) -> npt.NDArray[np.int64]:
    """Majority semantic class per point from per-block (point_ids, classes) votes.

    Ties resolve toward the lowest class index. Every point must receive at
    least one vote.
    """
    counts = np.zeros((n_points, N_CLASSES), dtype=np.int64)
    for pids, classes in zip(point_ids_per_block, classes_per_block):
        pids = np.asarray(pids, dtype=np.int64)
        classes = np.asarray(classes, dtype=np.int64)
        if pids.shape != classes.shape:
            raise ShapeMismatch("per-block point_ids and classes lengths differ")
        if len(pids) and (pids.min() < 0 or pids.max() >= n_points):
            raise ShapeMismatch(f"semantic votes reference points outside 0..{n_points - 1}")
        if len(classes) and (classes.min() < 0 or classes.max() >= N_CLASSES):
            raise InvalidLabel("semantic votes name an invalid class")
        np.add.at(counts, (pids, classes), 1)
    unvoted = np.flatnonzero(counts.sum(axis=1) == 0)
    if len(unvoted):
        raise Unvoted(f"{len(unvoted)} points received no semantic vote (first: {unvoted[0]})")
    return np.argmax(counts, axis=1).astype(np.int64)
