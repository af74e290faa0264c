"""Score-based block merging: ranking, NMS, boundary discard, and voting.

The merge (``pipeline.merge_block_predictions``) runs the stages in one fixed
order. Per block, as it arrives: boundary discard measures the block's masks
against its footprint, the cylinder of ``config.radius`` around the grid
center its block id names; the score filter judges each mask on its own, and
the block's semantic votes are added to a count. Once every block is in: NMS
and point resolution rank the surviving masks by a total order (score
descending, then block id, then query index), so no stage depends on the
order in which blocks were produced.

NMS never compares masks pairwise. It keeps a point→mask index of
``(point, mask id)`` entries sorted by point, holding only the masks it has
kept; a query gathers the entries of a candidate's points with
``searchsorted`` ranges and counts them per kept mask with ``bincount``, so
pairs that share no point are never visited. A candidate costs
O(|mask| log E) plus the entries it hits, where E is the number of entries
in the index.

Copies of one point set are the merge's concern alone: it hands NMS the
best-ranked mask of each distinct set, and NMS queries every mask it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import numpy.typing as npt

from .core import N_CLASSES
from .errors import ConfigError, InvalidLabel, ShapeMismatch, Unvoted


def _int64_ids(values: npt.ArrayLike, what: str) -> npt.NDArray[np.int64]:
    """``values`` as int64, if it holds integers that fit int64; otherwise ShapeMismatch.

    Converting with ``dtype=np.int64`` would truncate fractions and read
    booleans as 0 and 1, so a nonempty array must have an integer dtype and
    no uint64 value above 2**63 - 1. An empty array may have any dtype, as
    ``np.asarray([])`` is float64.
    """
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        raise ShapeMismatch(f"{what} must be integers, got dtype {array.dtype}")
    if array.size and array.dtype.kind == "u" and array.max() > np.iinfo(np.int64).max:
        raise ShapeMismatch(f"{what} must fit int64, got {array.max()}")
    return array.astype(np.int64, copy=False)


@dataclass(eq=False)
class InstanceMask:
    """One predicted tree: global point indices plus a confidence score."""

    point_ids: npt.NDArray[np.int64]
    score: float
    block_id: int
    query_index: int

    def __post_init__(self) -> None:
        ids = np.array(_int64_ids(self.point_ids, "mask point_ids")).reshape(-1)
        if not (ids[1:] > ids[:-1]).all():
            ids = np.unique(ids)
        self.point_ids = ids
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ShapeMismatch(f"mask score must be in [0, 1], got {self.score}")

    @property
    def size(self) -> int:
        return len(self.point_ids)

    def sort_key(self) -> tuple:
        return (-self.score, self.block_id, self.query_index)


@dataclass(eq=False)
class BlockPrediction:
    """Everything one block contributes to the merge: its grid id, its masks
    and optional per-point semantic votes as a pair of (point_ids, classes)
    arrays. The block's footprint follows from its id and the run's config."""

    block_id: int
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
    center_xy: npt.ArrayLike,
    radius: float,
    positions: npt.NDArray[np.float64],
    margin: float,
) -> list[InstanceMask]:
    """Drop masks reaching into the outer margin annulus of the cylinder of
    ``radius`` around ``center_xy``; order preserved.

    A mask is discarded iff any of its points lies at horizontal distance
    greater than ``radius - margin`` from the center, so a block narrower
    than the margin keeps only empty masks. Trees cut by the crop boundary
    always reach the annulus, and the small stride guarantees an interior
    copy from a neighboring block survives.
    """
    center = np.asarray(center_xy, dtype=np.float64)
    # Written so that NaN fails too; a NaN footprint would silently drop every mask.
    if not (center.shape == (2,) and np.isfinite(center).all() and radius > 0 and math.isfinite(radius * radius)):
        raise ConfigError(f"block center must be a finite (x, y) pair and radius positive with a finite square, "
                          f"got center {center.tolist()} and radius {radius}")
    if not margin >= 0:
        raise ConfigError(f"boundary margin must be >= 0, got {margin}")
    positions = np.asarray(positions, dtype=np.float64)
    sizes = np.array([m.size for m in masks], dtype=np.int64)
    max_sq = np.zeros(len(masks))
    nonempty = sizes > 0
    if nonempty.any():
        ids = np.concatenate([m.point_ids for m in masks])
        # The gathered columns are squared and summed in place, with no further temporaries.
        dist_sq, dy = positions[ids, 0], positions[ids, 1]
        dist_sq -= center[0]
        dist_sq *= dist_sq
        dy -= center[1]
        dy *= dy
        dist_sq += dy
        starts = (np.cumsum(sizes) - sizes)[nonempty]
        max_sq[nonempty] = np.maximum.reduceat(dist_sq, starts)
    inner = radius - margin
    keep = max_sq <= inner**2 if inner >= 0 else ~nonempty
    return [m for m, k in zip(masks, keep) if k]


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
    for mask in ranked:
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


class SemanticVotes:
    """Per-point semantic vote counts, added one block at a time.

    A block votes at most once per point, so it cannot outvote the others, and
    a count is at most the number of blocks added (in the pipeline, at most
    ``tiling.MAX_GRID_CELLS``). Counts are int32 and widen to int64 once more
    than 2**31 - 1 blocks have been added. The increment has the counts'
    dtype: ``np.add.at`` takes its fast path only when the two match; with a
    Python ``1`` it ran over 20 times slower on int32 counts (numpy 2.4).
    """

    def __init__(self, n_points: int) -> None:
        self.counts = np.zeros((n_points, N_CLASSES), dtype=np.int32)
        self._added = 0

    def add(self, point_ids: npt.ArrayLike, classes: npt.ArrayLike) -> None:
        """Count one block's votes, ``classes[i]`` for point ``point_ids[i]``, if
        both are 1-D integer arrays of one length, with valid points and classes and no id repeated."""
        n_points = len(self.counts)
        pids = _int64_ids(point_ids, "per-block point_ids")
        classes = _int64_ids(classes, "per-block classes")
        if pids.ndim != 1 or classes.ndim != 1:
            raise ShapeMismatch(f"per-block point_ids and classes must be 1-D, got {pids.shape} and {classes.shape}")
        if len(pids) != len(classes):
            raise ShapeMismatch("per-block point_ids and classes lengths differ")
        if len(pids) and (pids.min() < 0 or pids.max() >= n_points):
            raise ShapeMismatch(f"semantic votes reference points outside 0..{n_points - 1}")
        if len(classes) and (classes.min() < 0 or classes.max() >= N_CLASSES):
            raise InvalidLabel("semantic votes name an invalid class")
        if not np.all(pids[1:] > pids[:-1]):  # strictly ascending ids, as tiled blocks carry, need no sort
            ordered = np.sort(pids)
            if (repeated := ordered[1:] == ordered[:-1]).any():
                raise ShapeMismatch(f"semantic votes name point {ordered[1:][repeated][0]} more than once")
        self._added += 1
        if self._added > np.iinfo(self.counts.dtype).max:
            self.counts = self.counts.astype(np.int64)
        # add.at over one flat index: several times faster than over an index pair, and faster than a fancy ``+=``.
        np.add.at(self.counts.reshape(-1), pids * N_CLASSES + classes, self.counts.dtype.type(1))

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

    Each block's votes are added as :meth:`SemanticVotes.add` adds them, so a
    block may name each point at most once. Ties resolve toward the lowest
    class index. Every point must receive at least one vote.
    """
    votes = SemanticVotes(n_points)
    for pids, classes in zip(point_ids_per_block, classes_per_block):
        votes.add(pids, classes)
    return votes.majority()
