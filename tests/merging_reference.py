"""Reference kernels for the merge stages in ``forestseg.merging``.

NMS compares each candidate with every kept mask through ``np.intersect1d``,
O(K²) in the number of masks; boundary discard measures one mask at a time.
The fast kernels must return exactly what these return.
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
