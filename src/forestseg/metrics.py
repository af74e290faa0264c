"""Instance detection metrics, the coverage metric, and semantic mIoU.

Instance IoU is computed on point sets with id >= 1 only; ground and
unassigned points never count toward either side. Detection uses greedy
one-to-one matching over candidate pairs sorted by IoU descending, with
pairs below the threshold never matching. Multi-plot results aggregate by
micro-averaging the TP/FP/FN counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from .core import N_CLASSES, SEMANTIC_NAMES, _int64_ids, _setting
from .errors import EmptyInput, NoGroundTruth, ShapeMismatch


@dataclass(frozen=True)
class MatchResult:
    """One-to-one matching between predicted and ground-truth instances."""

    pairs: tuple[tuple[int, int, float], ...]
    unmatched_preds: tuple[int, ...]
    unmatched_gts: tuple[int, ...]

    @property
    def tp(self) -> int:
        return len(self.pairs)

    @property
    def fp(self) -> int:
        return len(self.unmatched_preds)

    @property
    def fn(self) -> int:
        return len(self.unmatched_gts)


def _check_universe(pred, gt):
    pred = _int64_ids(pred, "pred").reshape(-1)
    gt = _int64_ids(gt, "gt").reshape(-1)
    if pred.shape != gt.shape:
        raise ShapeMismatch(f"pred has {len(pred)} points but gt has {len(gt)}")
    return pred, gt


def _instance_sets(labels: npt.NDArray[np.int64]) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """Sorted instance ids (>= 1) of a labeling and their point counts."""
    return np.unique(labels[labels >= 1], return_counts=True)


def _contingency(pred, gt):
    """Instance ids of both labelings and the pair table, from one count over the points: for each (pred_id,
    gt_id) pair with non-empty intersection, the positions ``p`` and ``g`` of its ids in them, and its IoU.

    Each point labelled on both sides is keyed by the dense ranks of its ids,
    ``pred_rank * n_gt + gt_rank``. The key stays below the square of the
    point count, so it cannot overflow whatever the ids are, and sorted keys
    list the pairs in (pred_id, gt_id) order.
    """
    pred, gt = _check_universe(pred, gt)
    pred_ids, pred_sizes = _instance_sets(pred)
    gt_ids, gt_sizes = _instance_sets(gt)
    both = (pred >= 1) & (gt >= 1)
    key = np.searchsorted(pred_ids, pred[both]) * len(gt_ids) + np.searchsorted(gt_ids, gt[both])
    keys, inters = np.unique(key, return_counts=True)
    p, g = np.divmod(keys, len(gt_ids))
    return pred_ids, gt_ids, p, g, inters / (pred_sizes[p] + gt_sizes[g] - inters)


def _match(pred_ids, gt_ids, p, g, iou, iou_threshold: float) -> MatchResult:
    order = np.lexsort((p, g, -iou))[: np.count_nonzero(iou >= iou_threshold)]
    used_pred, used_gt = np.zeros(len(pred_ids), dtype=bool), np.zeros(len(gt_ids), dtype=bool)
    pairs = []
    for i, j, value in zip(p[order].tolist(), g[order].tolist(), iou[order].tolist()):
        if not (used_pred[i] or used_gt[j]):
            used_pred[i] = used_gt[j] = True
            pairs.append((int(pred_ids[i]), int(gt_ids[j]), value))
    return MatchResult(pairs=tuple(pairs), unmatched_preds=tuple(pred_ids[~used_pred].tolist()),
                       unmatched_gts=tuple(gt_ids[~used_gt].tolist()))


def _coverage(gt_ids, g, iou) -> float:
    if len(gt_ids) == 0:
        raise NoGroundTruth("coverage requires at least one ground-truth instance")
    best = np.zeros(len(gt_ids))
    np.maximum.at(best, g, iou)
    return float(best.mean())


def match_instances(pred, gt, iou_threshold: float = 0.5) -> MatchResult:
    """Greedily match predictions to ground truth by descending IoU.

    Ties break toward the lower gt id, then the lower pred id. A pair below
    the threshold never matches, so its prediction counts as a false
    positive and its ground-truth tree as a false negative.
    """
    iou_threshold = _setting("IoU threshold", iou_threshold, "[0, 1]")
    return _match(*_contingency(pred, gt), iou_threshold)


def detection_scores(match: MatchResult) -> tuple[float, float, float]:
    """Precision, recall, and F1 from a match result; 0 on empty denominators."""
    tp, fp, fn = match.tp, match.fp, match.fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def coverage(pred, gt) -> float:
    """Mean over ground-truth trees of the best IoU any prediction achieves.

    No threshold and not one-to-one: a single prediction may be the best
    match of several trees.
    """
    _, gt_ids, _, g, iou = _contingency(pred, gt)
    return _coverage(gt_ids, g, iou)


def semantic_miou(pred_classes, gt_classes) -> tuple[dict[int, float], float]:
    """Per-class IoU of the classes 0..N_CLASSES-1, and their mean over the
    classes present in gt or pred.

    Classes absent from both sides are excluded rather than scored 0/0.
    """
    pred, gt = _check_universe(pred_classes, gt_classes)
    if len(pred) == 0:
        raise EmptyInput("semantic mIoU requires at least one point")
    per_class = {}
    for cls in range(N_CLASSES):
        p = pred == cls
        g = gt == cls
        union = int(np.sum(p | g))
        if union == 0:
            continue
        per_class[cls] = float(np.sum(p & g) / union)
    if not per_class:
        raise EmptyInput(f"none of the classes 0..{N_CLASSES - 1} are present")
    return per_class, float(np.mean(list(per_class.values())))


@dataclass(frozen=True)
class EvalReport:
    """Detection scores, coverage, and semantic IoU for one evaluation."""

    precision: float
    recall: float
    f1: float
    coverage: float
    tp: int
    fp: int
    fn: int
    per_class_iou: dict[int, float] = field(default_factory=dict)
    miou: float | None = None

    def to_dict(self) -> dict:
        """JSON-ready dict, including the forestry aliases."""
        out = {
            "instance": {
                "precision": self.precision,
                "recall": self.recall,
                "f1": self.f1,
                "coverage": self.coverage,
                "tp": self.tp,
                "fp": self.fp,
                "fn": self.fn,
                "completeness": self.recall,
                "omission": 1.0 - self.recall,
                "commission": 1.0 - self.precision,
            },
            "aggregation": "micro",
        }
        if self.miou is not None:
            out["semantic"] = {
                "per_class_iou": {SEMANTIC_NAMES.get(c, str(c)): v for c, v in sorted(self.per_class_iou.items())},
                "miou": self.miou,
            }
        return out


def evaluate_labels(
    pred_instance,
    gt_instance,
    pred_semantic=None,
    gt_semantic=None,
    iou_threshold: float = 0.5,
) -> EvalReport:
    """Full evaluation of a predicted labeling against ground truth.

    Matching and coverage share one contingency pass over the instance labels.
    """
    iou_threshold = _setting("IoU threshold", iou_threshold, "[0, 1]")
    pred_ids, gt_ids, p, g, iou = _contingency(pred_instance, gt_instance)
    match = _match(pred_ids, gt_ids, p, g, iou, iou_threshold)
    precision, recall, f1 = detection_scores(match)
    cov = _coverage(gt_ids, g, iou)
    per_class: dict[int, float] = {}
    miou = None
    if pred_semantic is not None and gt_semantic is not None:
        per_class, miou = semantic_miou(pred_semantic, gt_semantic)
    return EvalReport(
        precision=precision,
        recall=recall,
        f1=f1,
        coverage=cov,
        tp=match.tp,
        fp=match.fp,
        fn=match.fn,
        per_class_iou=per_class,
        miou=miou,
    )
