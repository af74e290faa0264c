"""Reference kernels for the single contingency pass in ``forestseg.metrics``.

``reference_pair_ious`` counts (pred_id, gt_id) pairs with ``np.unique`` over
an (N, 2) array of ids, and matching and coverage each build that table
again. The library must return exactly what these return.
"""

import numpy as np

from forestseg.errors import ConfigError, NoGroundTruth, ShapeMismatch
from forestseg.metrics import EvalReport, MatchResult, detection_scores, semantic_miou


def _check_universe(pred, gt):
    pred = np.asarray(pred, dtype=np.int64).reshape(-1)
    gt = np.asarray(gt, dtype=np.int64).reshape(-1)
    if pred.shape != gt.shape:
        raise ShapeMismatch(f"pred has {len(pred)} points but gt has {len(gt)}")
    return pred, gt


def _instance_sets(labels):
    ids, counts = np.unique(labels[labels >= 1], return_counts=True)
    return ids, dict(zip(ids.tolist(), counts.tolist()))


def reference_pair_ious(pred, gt):
    """IoU for every (pred_id, gt_id) pair with non-empty intersection."""
    pred, gt = _check_universe(pred, gt)
    _, pred_sizes = _instance_sets(pred)
    _, gt_sizes = _instance_sets(gt)
    both = (pred >= 1) & (gt >= 1)
    if not both.any():
        return {}
    pairs = np.stack([pred[both], gt[both]], axis=1)
    uniq, counts = np.unique(pairs, axis=0, return_counts=True)
    ious = {}
    for (p, g), inter in zip(uniq.tolist(), counts.tolist()):
        ious[(p, g)] = inter / (pred_sizes[p] + gt_sizes[g] - inter)
    return ious


def reference_match_instances(pred, gt, iou_threshold=0.5):
    if not 0.0 <= iou_threshold <= 1.0:
        raise ConfigError(f"IoU threshold must be in [0, 1], got {iou_threshold}")
    pred, gt = _check_universe(pred, gt)
    pred_ids, _ = _instance_sets(pred)
    gt_ids, _ = _instance_sets(gt)
    ious = reference_pair_ious(pred, gt)
    candidates = sorted(
        ((p, g, iou) for (p, g), iou in ious.items() if iou >= iou_threshold),
        key=lambda t: (-t[2], t[1], t[0]),
    )
    used_pred, used_gt, pairs = set(), set(), []
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


def reference_coverage(pred, gt):
    pred, gt = _check_universe(pred, gt)
    gt_ids, _ = _instance_sets(gt)
    if len(gt_ids) == 0:
        raise NoGroundTruth("coverage requires at least one ground-truth instance")
    ious = reference_pair_ious(pred, gt)
    best = {int(g): 0.0 for g in gt_ids}
    for (_, g), iou in ious.items():
        if iou > best[g]:
            best[g] = iou
    return float(np.mean([best[int(g)] for g in gt_ids]))


def reference_evaluate_labels(pred_instance, gt_instance, pred_semantic=None, gt_semantic=None, iou_threshold=0.5):
    match = reference_match_instances(pred_instance, gt_instance, iou_threshold)
    precision, recall, f1 = detection_scores(match)
    cov = reference_coverage(pred_instance, gt_instance)
    per_class, miou = {}, None
    if pred_semantic is not None and gt_semantic is not None:
        per_class, miou = semantic_miou(pred_semantic, gt_semantic)
    return EvalReport(
        precision=precision, recall=recall, f1=f1, coverage=cov,
        tp=match.tp, fp=match.fp, fn=match.fn, per_class_iou=per_class, miou=miou,
    )
