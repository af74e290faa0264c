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

from .core import N_CLASSES, SEMANTIC_NAMES
from .errors import ConfigError, EmptyInput, NoGroundTruth, ShapeMismatch


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
    pred = np.asarray(pred, dtype=np.int64).reshape(-1)
    gt = np.asarray(gt, dtype=np.int64).reshape(-1)
    if pred.shape != gt.shape:
        raise ShapeMismatch(f"pred has {len(pred)} points but gt has {len(gt)}")
    return pred, gt


def _instance_sets(labels: npt.NDArray[np.int64]) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """Sorted instance ids (>= 1) of a labeling and their point counts."""
    return np.unique(labels[labels >= 1], return_counts=True)


def _contingency(pred, gt) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64], dict[tuple[int, int], float]]:
    """Instance ids of both labelings and the IoU of every (pred_id, gt_id)
    pair with non-empty intersection, from one count over the points.

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
    ious = {
        (pid, gid): inter / (a + b - inter)
        for pid, gid, a, b, inter in zip(
            pred_ids[p].tolist(), gt_ids[g].tolist(), pred_sizes[p].tolist(), gt_sizes[g].tolist(), inters.tolist()
        )
    }
    return pred_ids, gt_ids, ious


def _check_iou_threshold(iou_threshold: float) -> None:
    if not 0.0 <= iou_threshold <= 1.0:
        raise ConfigError(f"IoU threshold must be in [0, 1], got {iou_threshold}")


def _match(pred_ids, gt_ids, ious, iou_threshold: float) -> MatchResult:
    candidates = sorted(
        ((p, g, iou) for (p, g), iou in ious.items() if iou >= iou_threshold),
        key=lambda t: (-t[2], t[1], t[0]),
    )
    used_pred: set[int] = set()
    used_gt: set[int] = set()
    pairs = []
    for p, g, iou in candidates:
        if p in used_pred or g in used_gt:
            continue
        used_pred.add(p)
        used_gt.add(g)
        pairs.append((p, g, iou))
    return MatchResult(
        pairs=tuple(pairs),
        unmatched_preds=tuple(int(p) for p in pred_ids if p not in used_pred),
        unmatched_gts=tuple(int(g) for g in gt_ids if g not in used_gt),
    )


def _coverage(gt_ids, ious) -> float:
    if len(gt_ids) == 0:
        raise NoGroundTruth("coverage requires at least one ground-truth instance")
    best = {int(g): 0.0 for g in gt_ids}
    for (_, g), iou in ious.items():
        if iou > best[g]:
            best[g] = iou
    return float(np.mean([best[int(g)] for g in gt_ids]))


def match_instances(pred, gt, iou_threshold: float = 0.5) -> MatchResult:
    """Greedily match predictions to ground truth by descending IoU.

    Ties break toward the lower gt id, then the lower pred id. A pair below
    the threshold never matches, so its prediction counts as a false
    positive and its ground-truth tree as a false negative.
    """
    _check_iou_threshold(iou_threshold)
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
    _, gt_ids, ious = _contingency(pred, gt)
    return _coverage(gt_ids, ious)


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
    _check_iou_threshold(iou_threshold)
    pred_ids, gt_ids, ious = _contingency(pred_instance, gt_instance)
    match = _match(pred_ids, gt_ids, ious, iou_threshold)
    precision, recall, f1 = detection_scores(match)
    cov = _coverage(gt_ids, ious)
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
