"""Reference kernels for the merges in ``forestseg.merging``.

NMS and the overlap baseline compare every pair of masks with
``np.intersect1d``, O(K²) in the number of masks; boundary discard measures
one mask at a time. The fast kernels must return exactly what these return.
"""

import numpy as np

from forestseg.errors import ConfigError
from forestseg.merging import InstanceMask


def _mask_iou(a: InstanceMask, b: InstanceMask) -> float:
    inter = len(np.intersect1d(a.point_ids, b.point_ids, assume_unique=True))
    if inter == 0:
        return 0.0
    return inter / (a.size + b.size - inter)


def reference_score_nms(masks, iou_threshold):
    if not 0.0 <= iou_threshold <= 1.0:
        raise ConfigError(f"NMS IoU threshold must be in [0, 1], got {iou_threshold}")
    ranked = sorted(masks, key=InstanceMask.sort_key)
    kept = []
    for mask in ranked:
        if all(_mask_iou(mask, other) < iou_threshold for other in kept):
            kept.append(mask)
    return kept


def reference_overlap_merge_baseline(masks, overlap_threshold):
    if overlap_threshold <= 0:
        raise ConfigError(f"overlap threshold must be positive, got {overlap_threshold}")
    masks = list(masks)
    parent = list(range(len(masks)))

    def find(i):
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

    groups = {}
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
