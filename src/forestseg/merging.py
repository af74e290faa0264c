"""Score-based block merging: packed masks, ranking, NMS, boundary discard, and voting.

A block's masks are one packed value, :class:`BlockMasks`: every mask's
point ids concatenated in one int64 array and cut apart by the masks' sizes,
with one array each of scores and query indices. It is checked and
normalized when built, one vectorized test per rule, so no stage builds an
object per mask. Masks of many blocks, once merged, are the rows of
a :class:`MaskTable`: block id, query index, score and the index of the
mask's point set in a list of sets that rows with equal point sets share.

The merge (``pipeline.merge_block_predictions``) runs the stages in one fixed
order. Per block, as it arrives: boundary discard measures the block's masks
against its footprint, the cylinder of ``config.radius`` around the grid
center its block id names, with one ``reduceat`` over the packed ids; the
score filter judges each mask on its own, with one boolean mask; and the
block's semantic votes are added to a count. Once every block is in: NMS and
point resolution rank a table's rows by a total order (score descending,
then block id, then query index), one ``lexsort``, so no stage depends on
the order in which blocks were produced.

NMS never compares masks pairwise. It chains the masks it has kept per
point: ``head`` holds each point's newest kept entry, and each entry names
its kept mask (``owner``) and the point's next older entry (``older``). A
query walks the chains of a candidate's points and counts the owners with
``bincount``, so pairs that share no point are never visited. A candidate
costs O(|mask|) plus the owner entries it meets.

Copies of one point set are the merge's concern alone: it hands NMS the
best-ranked row of each distinct set, and NMS queries every row it is given.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import numpy.typing as npt

from .core import N_CLASSES, _int64_ids, _setting
from .errors import ConfigError, InvalidLabel, ShapeMismatch, UnknownBlock, Unvoted


class BlockMasks:
    """One block's instance masks, packed. ``len()`` is the number of masks.

    Mask i holds the global point ids ``point_ids[s:s + mask_sizes[i]]``,
    where ``s`` is the sum of the sizes before it, has confidence
    ``score[i]`` and was emitted by decoder query ``query_index[i]`` (by
    default its position); a block file's ``.npz`` fields are these arrays.
    Built, the value is checked in one vectorized test per rule: ids, sizes
    and query indices are integers that fit int64 (as ``core._int64_ids``
    takes them), the sizes are >= 0 and sum to the number of ids, and every
    score lies in [0, 1]. Each mask's ids are then sorted with
    repeats dropped, in one ``lexsort`` over the block, and only where some
    mask needs it; arrays already in that form are held, not copied. The
    masks keep their order, and their query indices are not checked here:
    :class:`BlockPrediction` requires them distinct.
    """

    def __init__(self, point_ids: npt.ArrayLike = (), mask_sizes: npt.ArrayLike = (), score: npt.ArrayLike = (),
                 query_index: npt.ArrayLike | None = None) -> None:
        ids = _int64_ids(point_ids, "mask point_ids")
        sizes = _int64_ids(mask_sizes, "mask_sizes")
        scores = np.asarray(score)
        if scores.size and scores.dtype.kind not in "fiu":
            raise ShapeMismatch(f"mask scores must be numbers, got dtype {scores.dtype}")
        scores = scores.astype(np.float64, copy=False)
        query = np.arange(len(sizes)) if query_index is None else _int64_ids(query_index, "mask query_index")
        if not ids.ndim == sizes.ndim == scores.ndim == query.ndim == 1:
            raise ShapeMismatch(f"point_ids, mask_sizes, score and query_index must be 1-D, got shapes "
                                f"{ids.shape}, {sizes.shape}, {scores.shape} and {query.shape}")
        if not len(query) == len(sizes) == len(scores):
            raise ShapeMismatch(f"query_index, mask_sizes and score lengths differ: "
                                f"{len(query)}, {len(sizes)} and {len(scores)}")
        if len(sizes) and sizes.min() < 0:
            raise ShapeMismatch(f"mask_sizes must be >= 0, got {sizes.min()}")
        # Each size is checked first, so the int64 sum cannot wrap; the message's Python sum cannot either.
        if (len(sizes) and sizes.max() > len(ids)) or sizes.sum() != len(ids):
            raise ShapeMismatch(f"mask_sizes sum to {sum(sizes.tolist())}, but point_ids holds {len(ids)}")
        outside = ~((scores >= 0.0) & (scores <= 1.0))  # written so that NaN is outside too
        if outside.any():
            i = int(np.argmax(outside))
            raise ShapeMismatch(f"masks[{i}]: mask score must be in [0, 1], got {float(scores[i])}")
        self.point_ids, self.mask_sizes, self.score, self.query_index = *_sorted_unique(ids, sizes), scores, query

    @classmethod
    def pack(cls, point_ids: Iterable[npt.ArrayLike], score: npt.ArrayLike,
             query_index: npt.ArrayLike | None = None) -> BlockMasks:
        """The masks whose ids are the arrays of ``point_ids``, one per mask, checked as the constructor checks."""
        # Each array is taken on its own, so an empty float64 one or a uint64 one cannot turn the concatenation float.
        arrays = [_int64_ids(np.ravel(ids), "mask point_ids") for ids in point_ids]
        sizes = np.array([len(ids) for ids in arrays], dtype=np.int64)
        return cls(np.concatenate([np.empty(0, dtype=np.int64), *arrays]), sizes, score, query_index)

    @classmethod
    def _held(cls, point_ids, mask_sizes, score, query_index) -> BlockMasks:
        """Arrays already checked and normalized, held as they are."""
        masks = cls.__new__(cls)
        masks.point_ids, masks.mask_sizes, masks.score, masks.query_index = point_ids, mask_sizes, score, query_index
        return masks

    def __len__(self) -> int:
        return len(self.mask_sizes)

    def starts(self) -> npt.NDArray[np.int64]:
        """Where each mask's ids start in ``point_ids``."""
        return np.cumsum(self.mask_sizes) - self.mask_sizes

    def keep(self, chosen: npt.NDArray[np.bool_]) -> BlockMasks:
        """The masks where the boolean array ``chosen`` is true, in order: one pick over the ids."""
        if chosen.all():
            return self
        return BlockMasks._held(self.point_ids[np.repeat(chosen, self.mask_sizes)], self.mask_sizes[chosen],
                                self.score[chosen], self.query_index[chosen])


def _sorted_unique(ids: npt.NDArray[np.int64], sizes: npt.NDArray[np.int64]):
    """The packed masks ``ids``/``sizes`` with each mask's ids sorted and its repeats dropped."""
    ascending = ids[1:] > ids[:-1]
    starts = np.cumsum(sizes) - sizes
    # Comparisons across a mask boundary do not count.
    ascending[starts[(starts > 0) & (starts < len(ids))] - 1] = True
    if ascending.all():
        return ids, sizes
    rows = np.repeat(np.arange(len(sizes)), sizes)
    order = np.lexsort((ids, rows))
    ids = ids[order]  # rows are ascending already, so sorting keeps them in place
    keep = np.ones(len(ids), dtype=bool)
    keep[1:] = (ids[1:] != ids[:-1]) | (rows[1:] != rows[:-1])
    return ids[keep], np.bincount(rows[keep], minlength=len(sizes)).astype(np.int64)


@dataclass(eq=False)
class MaskTable:
    """Masks of many blocks as rows over shared point sets. ``len()`` is the number of rows.

    Row i is the mask of query ``query_index[i]`` in block ``block_id[i]``,
    scored ``score[i]``; its point ids are ``sets[set_index[i]]``, a sorted
    array of unique int64 ids, each >= 0. Rows with equal point sets may
    share one array, so a table costs memory per distinct set. The merge
    builds these tables, with every set read-only.
    """

    block_id: npt.NDArray[np.int64]
    query_index: npt.NDArray[np.int64]
    score: npt.NDArray[np.float64]
    set_index: npt.NDArray[np.int64]
    sets: list[npt.NDArray[np.int64]]

    def __len__(self) -> int:
        return len(self.set_index)

    def take(self, rows: npt.ArrayLike) -> MaskTable:
        """The rows at ``rows`` (positions), in that order, over the same sets."""
        rows = np.asarray(rows, dtype=np.int64)
        return MaskTable(self.block_id[rows], self.query_index[rows], self.score[rows], self.set_index[rows],
                         self.sets)

    def ranked(self) -> MaskTable:
        """The rows by score descending, ties by lower block id, then lower query index."""
        return self.take(np.lexsort((self.query_index, self.block_id, -self.score)))


@dataclass(frozen=True, eq=False)
class BlockPrediction:
    """Everything one block contributes to the merge: its grid id, its masks
    and optional per-point semantic votes as a pair of (point_ids, classes)
    arrays. The block's footprint follows from its id and the run's config.
    Frozen, it is checked when built by every rule that the merge applies to
    one block alone, and its votes are held as int64; a vote fault names the block.
    """

    block_id: int
    masks: BlockMasks = field(default_factory=BlockMasks)
    semantic: tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]] | None = None

    def __post_init__(self) -> None:
        block_id = self.block_id
        if isinstance(block_id, bool) or not isinstance(block_id, numbers.Integral):
            raise UnknownBlock(f"block id {block_id!r} is not an integer")
        ordered = np.sort(self.masks.query_index)
        if (repeated := ordered[1:] == ordered[:-1]).any():
            raise UnknownBlock(f"block {block_id} holds two masks with query index {ordered[1:][repeated][0]}")
        if self.semantic is None:
            return
        at = f"block {block_id}: "
        ids = _int64_ids(self.semantic[0], f"{at}per-block point_ids")
        classes = _int64_ids(self.semantic[1], f"{at}per-block classes")
        if ids.ndim != 1 or classes.ndim != 1:
            raise ShapeMismatch(f"{at}per-block point_ids and classes must be 1-D, got {ids.shape} and {classes.shape}")
        if len(ids) != len(classes):
            raise ShapeMismatch(f"{at}per-block point_ids and classes lengths differ")
        if len(ids) and ids.min() < 0:
            raise ShapeMismatch(f"{at}semantic votes name point {ids.min()}, but point ids must be >= 0")
        if len(classes) and (classes.min() < 0 or classes.max() >= N_CLASSES):
            raise InvalidLabel(f"{at}semantic votes name an invalid class")
        if not np.all(ids[1:] > ids[:-1]):  # strictly ascending ids, as tiled blocks carry, need no sort
            ordered = np.sort(ids)
            if (repeated := ordered[1:] == ordered[:-1]).any():
                raise ShapeMismatch(f"{at}semantic votes name point {ordered[1:][repeated][0]} more than once")
        object.__setattr__(self, "semantic", (ids, classes))


def score_filter(masks: BlockMasks, threshold: float) -> BlockMasks:
    """Keep masks with score >= threshold; order preserved."""
    return masks.keep(masks.score >= _setting("score threshold", threshold, "[0, 1]"))


def discard_boundary_masks(
    masks: BlockMasks,
    center_xy: npt.ArrayLike,
    radius: float,
    positions: npt.NDArray[np.float64],
    margin: float,
) -> BlockMasks:
    """Drop masks reaching into the outer margin annulus of the cylinder of
    ``radius`` around ``center_xy``; order preserved.

    A mask is discarded iff any of its points lies at horizontal distance
    greater than ``radius - margin`` from the center, so a block narrower
    than the margin keeps only empty masks. Trees cut by the crop boundary
    always reach the annulus, and the small stride guarantees an interior
    copy from a neighboring block survives. Each mask's farthest point comes
    from one ``maximum.reduceat`` over the block's packed ids. An id that is
    not a row of ``positions`` is a ``ShapeMismatch``.
    """
    center = np.asarray(center_xy, dtype=np.float64)
    footprint = (f"block center must be a finite (x, y) pair and radius positive with a finite square, "
                 f"got center {center.tolist()} and radius {radius}")
    radius = _setting("radius", radius, "length", footprint)
    # Written so that NaN fails too; a NaN footprint would silently drop every mask.
    if not (center.shape == (2,) and np.isfinite(center).all()):
        raise ConfigError(footprint)
    margin = _setting("boundary margin", margin, ">= 0")
    positions = np.asarray(positions, dtype=np.float64)
    sizes = masks.mask_sizes
    max_sq = np.zeros(len(masks))
    nonempty = sizes > 0
    if nonempty.any():
        ids = masks.point_ids
        if ids.min() < 0 or ids.max() >= len(positions):
            raise ShapeMismatch(f"masks reference points outside 0..{len(positions) - 1}")
        # Each column is gathered through its own 1-D view, about twice as fast as ``positions[ids, 0]``
        # (numpy 2.4); the gathered columns are squared and summed in place, with no further temporaries.
        dist_sq, dy = positions[:, 0][ids], positions[:, 1][ids]
        dist_sq -= center[0]
        dist_sq *= dist_sq
        dy -= center[1]
        dy *= dy
        dist_sq += dy
        max_sq[nonempty] = np.maximum.reduceat(dist_sq, masks.starts()[nonempty])
    inner = radius - margin
    keep = max_sq <= inner**2 if inner >= 0 else ~nonempty
    return masks.keep(keep)


def _row_sets(masks: MaskTable, n_points: int | None = None) -> tuple[list[npt.NDArray[np.int64]], int]:
    """The rows' point sets in row order, and the number of points they index: ``n_points`` if given, else
    one more than their largest id. An id below 0, or not below a given ``n_points``, is a ``ShapeMismatch``;
    a set is sorted, so only its ends are read."""
    sets = [masks.sets[i] for i in masks.set_index.tolist()]
    ends = np.array([(ids[0], ids[-1]) for ids in sets if len(ids)], dtype=np.int64).reshape(-1, 2)
    low, high = int(ends[:, 0].min(initial=0)), int(ends[:, 1].max(initial=-1))
    if low < 0:
        raise ShapeMismatch(f"mask ids must be >= 0, got {low}")
    if n_points is not None and high >= n_points:
        raise ShapeMismatch(f"mask ids must be below the {n_points} points, got {high}")
    return sets, high + 1 if n_points is None else n_points


def score_nms(masks: MaskTable, iou_threshold: float) -> MaskTable:
    """Greedy non-maximum suppression over point-set IoU; the kept rows, in rank order.

    Rows are ranked by score descending (ties: lower block id, then lower
    query index); a row survives iff its IoU with every already-kept row
    stays below the threshold. The ranking is a total order, so the result
    does not depend on the rows' order. A negative id is a ``ShapeMismatch``.
    """
    iou_threshold = _setting("NMS IoU threshold", iou_threshold, "[0, 1]")
    ranked = masks.ranked()
    if iou_threshold == 0:
        return ranked.take(np.arange(min(len(ranked), 1)))  # every IoU, even of disjoint masks, fails ``iou < 0``
    sets, n_points = _row_sets(ranked)
    # A point's owner chain: ``head`` holds its newest kept entry, or -1, and entry e names the kept mask
    # ``owner[e]`` and the point's next older entry ``older[e]``. Only kept masks write entries.
    head = np.full(n_points, -1, dtype=np.int64)
    owner = np.empty(sum(map(len, sets)), dtype=np.int64)
    older = np.empty_like(owner)
    kept: list[int] = []
    kept_sizes = np.empty(len(ranked), dtype=np.int64)
    n_entries = 0
    for row, point_ids in enumerate(sets):
        at, hits = head[point_ids], []
        while len(at := at[at >= 0]):
            hits.append(owner[at])
            at = older[at]
        if hits:
            inter = np.bincount(np.concatenate(hits))
            ids = np.flatnonzero(inter)
            inter = inter[ids]
            if np.any(inter / (len(point_ids) + kept_sizes[ids] - inter) >= iou_threshold):
                continue
        end = n_entries + len(point_ids)
        owner[n_entries:end] = len(kept)
        older[n_entries:end] = head[point_ids]
        head[point_ids] = np.arange(n_entries, end)
        n_entries = end
        kept_sizes[len(kept)] = len(point_ids)
        kept.append(row)
    return ranked.take(np.array(kept, dtype=np.int64))


def resolve_points(kept_masks: MaskTable, n_points: int) -> npt.NDArray[np.int64]:
    """Arbitrate overlapping kept masks into a per-point instance labeling.

    Each point goes to its highest-ranked claimant (same total order as NMS);
    unclaimed points get id 0. Output ids are 1..K in rank order. An id
    outside 0..n_points-1 is a ``ShapeMismatch``.
    """
    out = np.zeros(n_points, dtype=np.int64)
    for rank, ids in enumerate(_row_sets(kept_masks.ranked(), n_points)[0], start=1):
        out[ids[out[ids] == 0]] = rank
    return out


class SemanticVotes:
    """Per-point semantic vote counts, added one checked :class:`BlockPrediction` at a time.

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

    def add(self, prediction: BlockPrediction) -> None:
        """Count ``prediction``'s votes, checked when it was built; here only ids past the cloud's end are refused."""
        n = len(self.counts)
        pids, classes = prediction.semantic
        if len(pids) and pids.max() >= n:
            raise ShapeMismatch(f"block {prediction.block_id}: semantic votes reference points outside 0..{n - 1}")
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

    Pair i is counted as the votes of a :class:`BlockPrediction` of block i, so
    a block may name each point at most once. Ties resolve toward the lowest
    class index. Every point must receive at least one vote.
    """
    votes = SemanticVotes(n_points)
    for block_id, semantic in enumerate(zip(point_ids_per_block, classes_per_block)):
        votes.add(BlockPrediction(block_id, semantic=semantic))
    return votes.majority()
