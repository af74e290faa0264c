"""Score-based block merging: ranking, NMS, boundary discard, and voting.

Boundary discard and the score filter judge each mask on its own, and a
semantic vote is a count, so blocks can be merged one at a time as they
arrive. NMS and point resolution rank the surviving masks by a total order
(score descending, then block id, then query index), so no stage depends on
the order in which blocks were produced. The default stage order is boundary
discard, score filter, NMS, point resolution; each stage is a separate
function so ablations can reorder them.

NMS and the overlap baseline never compare masks pairwise. Both keep a
point→mask index of ``(point, mask id)`` entries sorted by point; a query
gathers the entries of a mask's points with ``searchsorted`` ranges and
counts them per mask with ``bincount``, so pairs that share no point are
never visited. A candidate costs O(|mask| log E) plus the entries it hits,
where E is the number of entries in the index.

NMS also skips, without a query, every nonempty mask whose point set equals
that of an earlier-ranked mask. The result is unchanged: a copy of a kept
mask has IoU 1 with it, and a copy of a suppressed mask meets the same kept
masks, because the kept set only grows. Empty masks are never skipped, since
several of them all survive NMS.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np
import numpy.typing as npt

from .core import N_CLASSES
from .errors import ConfigError, InvalidLabel, ShapeMismatch, UnknownBlock, Unvoted


@dataclass(eq=False)
class InstanceMask:
    """One predicted tree: global point indices plus a confidence score."""

    point_ids: npt.NDArray[np.int64]
    score: float
    block_id: int
    query_index: int

    def __post_init__(self) -> None:
        ids = np.array(self.point_ids, dtype=np.int64).reshape(-1)
        if not np.all(ids[1:] > ids[:-1]):
            ids = np.unique(ids)
        self.point_ids = ids
        if not np.isfinite(self.score) or not 0.0 <= self.score <= 1.0:
            raise ShapeMismatch(f"mask score must be in [0, 1], got {self.score}")

    @property
    def size(self) -> int:
        return len(self.point_ids)

    def sort_key(self) -> tuple:
        return (-self.score, self.block_id, self.query_index)


@dataclass(eq=False)
class BlockPrediction:
    """Everything one block contributes to the merge: its cylinder footprint
    (for the boundary test), its masks and optional per-point semantic votes
    as a pair of (point_ids, classes) arrays."""

    block_id: int
    center_xy: tuple[float, float]
    radius: float
    masks: list[InstanceMask]
    semantic: tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]] | None = None


_RUN_RATIO = 8


class _PointIndex:
    """``(point, mask id)`` entries sorted by point, for intersection counts.

    The entries live in a few sorted runs, each more than ``_RUN_RATIO`` times
    the size of the next newer one. Adding a mask merges runs the way a
    counter carries, so a query searches O(log E) runs and an entry is
    re-merged O(log E) times. NMS makes many more queries than additions,
    hence a ratio that keeps the runs few.
    """

    def __init__(self) -> None:
        self._runs: list[tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]] = []

    def add(self, point_ids: npt.NDArray[np.int64], mask_id: int) -> None:
        """Index a mask's sorted, unique ``point_ids`` under ``mask_id``."""
        if not len(point_ids):
            return
        points, owners = point_ids, np.full(len(point_ids), mask_id, dtype=np.int64)
        while self._runs and len(self._runs[-1][0]) <= _RUN_RATIO * len(points):
            older_points, older_owners = self._runs.pop()
            points = np.concatenate([older_points, points])
            order = np.argsort(points, kind="stable")
            points, owners = points[order], np.concatenate([older_owners, owners])[order]
        self._runs.append((points, owners))

    def intersections(
        self, point_ids: npt.NDArray[np.int64]
    ) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        """Ids of the indexed masks sharing a point with ``point_ids``, and how many each shares."""
        hits = []
        for points, owners in self._runs:
            lo = np.searchsorted(points, point_ids, side="left")
            n = np.searchsorted(points, point_ids, side="right") - lo
            total = int(n.sum())
            if total:
                starts = np.repeat(lo - (np.cumsum(n) - n), n)
                hits.append(owners[starts + np.arange(total)])
        if not hits:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        counts = np.bincount(np.concatenate(hits))
        ids = np.flatnonzero(counts)
        return ids, counts[ids]


def score_filter(masks: Sequence[InstanceMask], threshold: float) -> list[InstanceMask]:
    """Keep masks with score >= threshold; order preserved."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"score threshold must be in [0, 1], got {threshold}")
    return [m for m in masks if m.score >= threshold]


def discard_boundary_masks(
    masks: Sequence[InstanceMask],
    predictions: Iterable[BlockPrediction],
    positions: npt.NDArray[np.float64],
    margin: float,
) -> list[InstanceMask]:
    """Drop masks reaching into the outer margin annulus of their block.

    A mask is discarded iff any of its points lies at horizontal distance
    greater than ``radius - margin`` from the center of the prediction of its
    source block, so a block narrower than the margin keeps only empty masks.
    Trees cut by the crop boundary always reach the annulus, and the small
    stride guarantees an interior copy from a neighboring block survives.
    """
    if not margin >= 0:
        raise ConfigError(f"boundary margin must be >= 0, got {margin}")
    positions = np.asarray(positions, dtype=np.float64)
    blocks = {p.block_id: p for p in predictions}
    kept = []
    # One distance pass per run of same-block masks; the pipeline passes one block at a time.
    for block_id, run in groupby(masks, key=lambda m: m.block_id):
        block = blocks.get(block_id)
        if block is None:
            raise UnknownBlock(f"mask references unknown block id {block_id}")
        run = list(run)
        sizes = np.array([m.size for m in run], dtype=np.int64)
        max_sq = np.zeros(len(run))
        nonempty = sizes > 0
        if nonempty.any():
            delta = positions[np.concatenate([m.point_ids for m in run]), :2] - np.asarray(block.center_xy)
            starts = (np.cumsum(sizes) - sizes)[nonempty]
            max_sq[nonempty] = np.maximum.reduceat(delta[:, 0] ** 2 + delta[:, 1] ** 2, starts)
        inner = block.radius - margin
        keep = max_sq <= inner**2 if inner >= 0 else ~nonempty
        kept.extend(m for m, k in zip(run, keep) if k)
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
    if iou_threshold == 0:
        return ranked[:1]  # every IoU, even that of disjoint masks, fails ``iou < 0``
    index = _PointIndex()
    kept: list[InstanceMask] = []
    kept_sizes = np.empty(len(ranked), dtype=np.int64)
    seen: set[bytes] = set()
    for mask in ranked:
        if mask.size:
            key = mask.point_ids.tobytes()
            if key in seen:
                continue  # an earlier-ranked copy was kept or suppressed; this one goes the same way
            seen.add(key)
        ids, inter = index.intersections(mask.point_ids)
        if np.any(inter / (mask.size + kept_sizes[ids] - inter) >= iou_threshold):
            continue
        index.add(mask.point_ids, len(kept))
        kept_sizes[len(kept)] = mask.size
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
    if not overlap_threshold > 0:
        raise ConfigError(f"overlap threshold must be positive, got {overlap_threshold}")
    masks = list(masks)
    sizes = np.array([m.size for m in masks], dtype=np.int64)
    parent = list(range(len(masks)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    index = _PointIndex()
    for j, mask in enumerate(masks):
        ids, inter = index.intersections(mask.point_ids)
        for i in ids[inter / np.minimum(sizes[ids], mask.size) >= overlap_threshold]:
            parent[find(int(i))] = find(j)
        index.add(mask.point_ids, j)

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


class SemanticVotes:
    """Per-point semantic vote counts, added one block at a time."""

    def __init__(self, n_points: int) -> None:
        self.counts = np.zeros((n_points, N_CLASSES), dtype=np.int64)

    def add(self, point_ids: npt.ArrayLike, classes: npt.ArrayLike) -> None:
        """Count one block's votes: ``classes[i]`` for point ``point_ids[i]``."""
        n_points = len(self.counts)
        pids = np.asarray(point_ids, dtype=np.int64)
        classes = np.asarray(classes, dtype=np.int64)
        if pids.shape != classes.shape:
            raise ShapeMismatch("per-block point_ids and classes lengths differ")
        if len(pids) and (pids.min() < 0 or pids.max() >= n_points):
            raise ShapeMismatch(f"semantic votes reference points outside 0..{n_points - 1}")
        if len(classes) and (classes.min() < 0 or classes.max() >= N_CLASSES):
            raise InvalidLabel("semantic votes name an invalid class")
        # numpy's add.at is several times faster over one flat index than over an index pair.
        np.add.at(self.counts.reshape(-1), pids * N_CLASSES + classes, 1)

    def majority(self) -> npt.NDArray[np.int64]:
        """Majority class per point, ties toward the lowest class index.

        Every point must have received at least one vote.
        """
        unvoted = np.flatnonzero(self.counts.sum(axis=1) == 0)
        if len(unvoted):
            raise Unvoted(f"{len(unvoted)} points received no semantic vote (first: {unvoted[0]})")
        return np.argmax(self.counts, axis=1).astype(np.int64)


def semantic_vote_arrays(
    point_ids_per_block: Sequence[npt.NDArray[np.int64]],
    classes_per_block: Sequence[npt.NDArray[np.int64]],
    n_points: int,
) -> npt.NDArray[np.int64]:
    """Majority semantic class per point from per-block (point_ids, classes) votes.

    Ties resolve toward the lowest class index. Every point must receive at
    least one vote.
    """
    votes = SemanticVotes(n_points)
    for pids, classes in zip(point_ids_per_block, classes_per_block):
        votes.add(pids, classes)
    return votes.majority()
