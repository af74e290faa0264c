"""The object merge kernels: one ``InstanceMask`` per mask, walked in Python.

This is the mask model ``forestseg.merging`` packed into arrays. NMS compares
each candidate with every kept mask through ``np.intersect1d``, O(K²) in the
number of masks; boundary discard measures one mask at a time. The packed
kernels must return exactly what these return. ``pack`` and ``table`` build
the packed forms of a mask list, and ``block_objects`` and ``table_objects``
turn them back into masks, so both sides can be compared mask by mask.
"""

import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from forestseg.errors import ConfigError, ShapeMismatch
from forestseg.merging import BlockMasks, MaskTable, _int64_ids


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


def pack(masks: list[InstanceMask]) -> BlockMasks:
    """The masks of one block, packed in list order."""
    return BlockMasks.pack([m.point_ids for m in masks], [m.score for m in masks], [m.query_index for m in masks])


def table(masks: list[InstanceMask]) -> MaskTable:
    """The masks as table rows in list order, each over its own set."""
    return MaskTable(block_id=np.array([m.block_id for m in masks], dtype=np.int64),
                     query_index=np.array([m.query_index for m in masks], dtype=np.int64),
                     score=np.array([m.score for m in masks], dtype=np.float64),
                     set_index=np.arange(len(masks)), sets=[m.point_ids for m in masks])


def mask_ids(masks: BlockMasks, i: int) -> npt.NDArray[np.int64]:
    """Mask ``i``'s point ids, a view of ``masks.point_ids``."""
    start = int(masks.mask_sizes[:i].sum())
    return masks.point_ids[start:start + int(masks.mask_sizes[i])]


def block_objects(block_id: int, masks: BlockMasks) -> list[InstanceMask]:
    """Packed masks of block ``block_id`` as a mask list, in their order."""
    return [InstanceMask(mask_ids(masks, i), float(masks.score[i]), block_id, int(masks.query_index[i]))
            for i in range(len(masks))]


def table_objects(rows: MaskTable) -> list[InstanceMask]:
    """Table rows as a mask list, in their order."""
    return [InstanceMask(rows.sets[rows.set_index[i]], float(rows.score[i]), int(rows.block_id[i]),
                         int(rows.query_index[i]))
            for i in range(len(rows))]


def mask_keys(masks: list[InstanceMask]) -> list[tuple]:
    """Everything a mask list holds, in a form ``==`` compares."""
    return [(m.block_id, m.query_index, m.score, m.point_ids.tolist()) for m in masks]


def _mask_iou(a: InstanceMask, b: InstanceMask) -> float:
    inter = len(np.intersect1d(a.point_ids, b.point_ids, assume_unique=True))
    if inter == 0:
        return 0.0
    return inter / (a.size + b.size - inter)


def reference_score_filter(masks, threshold):
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"score threshold must be in [0, 1], got {threshold}")
    return [m for m in masks if m.score >= threshold]


def reference_score_nms(masks, iou_threshold):
    if not 0.0 <= iou_threshold <= 1.0:
        raise ConfigError(f"NMS IoU threshold must be in [0, 1], got {iou_threshold}")
    ranked = sorted(masks, key=InstanceMask.sort_key)
    kept = []
    for mask in ranked:
        if all(_mask_iou(mask, other) < iou_threshold for other in kept):
            kept.append(mask)
    return kept


def reference_resolve_points(kept_masks, n_points):
    out = np.zeros(n_points, dtype=np.int64)
    for rank, mask in enumerate(sorted(kept_masks, key=InstanceMask.sort_key), start=1):
        free = mask.point_ids[out[mask.point_ids] == 0]
        out[free] = rank
    return out


def reference_discard_boundary_masks(masks, center_xy, radius, positions, margin):
    center = np.asarray(center_xy, dtype=np.float64)
    inner = radius - margin
    kept = []
    for m in masks:
        if m.size:
            delta = np.asarray(positions, dtype=np.float64)[m.point_ids, :2] - center
            if inner < 0 or (delta[:, 0] ** 2 + delta[:, 1] ** 2).max() > inner**2:
                continue
        kept.append(m)
    return kept
