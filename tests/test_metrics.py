"""Detection matching, coverage, and mIoU against exhaustive and
confusion-matrix oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forestseg.core import N_CLASSES
from forestseg.errors import EmptyInput, NoGroundTruth, ShapeMismatch
from forestseg.metrics import (
    _contingency,
    coverage,
    detection_scores,
    evaluate_labels,
    match_instances,
    semantic_miou,
)
from metrics_reference import (
    reference_coverage,
    reference_evaluate_labels,
    reference_match_instances,
    reference_pair_ious,
)


def iou_table(pred, gt):
    table = {}
    for p in np.unique(pred[pred >= 1]):
        for g in np.unique(gt[gt >= 1]):
            inter = np.sum((pred == p) & (gt == g))
            if inter:
                union = np.sum((pred == p) | (gt == g))
                table[(int(p), int(g))] = inter / union
    return table


def exhaustive_max_tp(pred, gt, threshold):
    """Search all one-to-one matchings for the maximum above-threshold pairs."""
    table = iou_table(pred, gt)
    pred_ids = sorted(set(int(p) for p in np.unique(pred[pred >= 1])))
    gt_ids = sorted(set(int(g) for g in np.unique(gt[gt >= 1])))

    def recurse(i, used):
        if i == len(pred_ids):
            return 0
        best = recurse(i + 1, used)  # leave pred unmatched
        for g in gt_ids:
            if g in used:
                continue
            if table.get((pred_ids[i], g), 0.0) >= threshold:
                best = max(best, 1 + recurse(i + 1, used | {g}))
        return best

    return recurse(0, frozenset())


def random_labeling(rng, n_points, max_id):
    return rng.integers(0, max_id + 1, size=n_points)


INT64_MIN, INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max
LABEL_POOL = [INT64_MIN, -5, -1, 0, 0, 1, 2, 3, 7, 2**62 - 1, 2**62, 2**62 + 1, INT64_MAX]


@st.composite
def labelings(draw):
    """A pred/gt pair of instance labelings over ids near both int64 ends.

    ``layout`` also makes every point its own instance on both sides, or
    leaves no point labelled >= 1 on both sides at once.
    """
    n = draw(st.integers(0, 40))
    ids = st.lists(st.sampled_from(LABEL_POOL), min_size=n, max_size=n)
    pred = np.array(draw(ids), dtype=np.int64)
    gt = np.array(draw(ids), dtype=np.int64)
    layout = draw(st.sampled_from(["shared", "own_instance", "no_overlap"]))
    if layout == "own_instance":
        pred = draw(st.sampled_from([1, 2**62])) + np.arange(n, dtype=np.int64)
        gt = draw(st.sampled_from([1, 2**62])) + np.array(draw(st.permutations(range(n))), dtype=np.int64)
    elif layout == "no_overlap":
        pred = np.where(gt >= 1, 0, pred)
    return pred, gt


def _same_or_no_ground_truth(fast, reference):
    try:
        expected = reference()
    except NoGroundTruth:
        with pytest.raises(NoGroundTruth):
            fast()
        return
    assert fast() == expected


class TestMatchInstances:
    def test_identity_matches_everything(self):
        gt = np.array([1, 1, 2, 2, 3, 3, 0])
        match = match_instances(gt, gt)
        assert match.tp == 3
        assert match.fp == match.fn == 0
        assert all(iou == 1.0 for _, _, iou in match.pairs)

    def test_below_threshold_is_false_positive(self):
        # pred covers 2 of 5 gt points plus 3 spurious: IoU = 2/6 < 0.5
        gt = np.array([1, 1, 1, 1, 1, 0, 0, 0])
        pred = np.array([1, 1, 0, 0, 0, 1, 1, 1])
        match = match_instances(pred, gt, 0.5)
        assert match.tp == 0
        assert match.fp == 1
        assert match.fn == 1

    def test_exact_threshold_matches(self):
        gt = np.array([1, 1, 0, 0])
        pred = np.array([1, 0, 1, 0])  # IoU = 1/3
        assert match_instances(pred, gt, 1 / 3).tp == 1

    def test_greedy_matches_exhaustive_oracle_on_small_cases(self):
        rng = np.random.default_rng(0)
        disagreements = 0
        for _ in range(200):
            pred = random_labeling(rng, 60, 6)
            gt = random_labeling(rng, 60, 6)
            tp = match_instances(pred, gt, 0.25).tp
            best = exhaustive_max_tp(pred, gt, 0.25)
            assert tp <= best
            disagreements += tp != best
        assert disagreements <= 4  # 2% of 200

    def test_swap_symmetry(self, rng):
        pred = random_labeling(rng, 80, 4)
        gt = random_labeling(rng, 80, 4)
        forward = match_instances(pred, gt, 0.3)
        backward = match_instances(gt, pred, 0.3)
        assert forward.tp == backward.tp
        assert forward.fp == backward.fn
        assert forward.fn == backward.fp

    def test_relabeling_invariance(self, rng):
        pred = random_labeling(rng, 100, 5)
        gt = random_labeling(rng, 100, 5)
        bijection = {0: 0, 1: 9, 2: 4, 3: 7, 4: 2, 5: 11}
        pred_relabeled = np.vectorize(bijection.get)(pred)
        a = match_instances(pred, gt, 0.3)
        b = match_instances(pred_relabeled, gt, 0.3)
        assert (a.tp, a.fp, a.fn) == (b.tp, b.fp, b.fn)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            match_instances([1, 2], [1])


class TestDetectionScores:
    def test_perfect(self):
        match = match_instances(np.array([1, 2, 3]), np.array([1, 2, 3]))
        assert detection_scores(match) == (1.0, 1.0, 1.0)

    def test_arithmetic(self):
        gt = np.repeat([1, 2, 3, 4], 4)
        pred = gt.copy()
        pred[gt == 4] = 0  # drop one tree -> FN
        pred = np.r_[pred, [9] * 4]  # spurious instance -> FP
        gt = np.r_[gt, [0] * 4]
        p, r, f1 = detection_scores(match_instances(pred, gt))
        assert (p, r, f1) == (0.75, 0.75, 0.75)

    def test_matches_formula_oracle(self, rng):
        for _ in range(50):
            pred = random_labeling(rng, 40, 5)
            gt = random_labeling(rng, 40, 5)
            match = match_instances(pred, gt, 0.3)
            p, r, f1 = detection_scores(match)
            tp, fp, fn = match.tp, match.fp, match.fn
            assert p == (tp / (tp + fp) if tp + fp else 0.0)
            assert r == (tp / (tp + fn) if tp + fn else 0.0)
            expect_f1 = 2 * p * r / (p + r) if p + r else 0.0
            assert f1 == pytest.approx(expect_f1, abs=1e-15)

    def test_zero_denominators(self):
        match = match_instances(np.zeros(4, dtype=int), np.zeros(4, dtype=int))
        assert detection_scores(match) == (0.0, 0.0, 0.0)


class TestCoverage:
    def test_perfect_prediction(self):
        gt = np.array([1, 1, 2, 2, 0])
        assert coverage(gt, gt) == 1.0

    def test_missed_tree_contributes_zero(self):
        gt = np.array([1, 1, 2, 2])
        pred = np.array([1, 1, 0, 0])
        assert coverage(pred, gt) == pytest.approx(0.5)

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(30):
            pred = random_labeling(rng, 70, 5)
            gt = random_labeling(rng, 70, 5)
            if not np.any(gt >= 1):
                continue
            table = iou_table(pred, gt)
            gt_ids = sorted(set(int(g) for g in np.unique(gt[gt >= 1])))
            expected = np.mean(
                [max((iou for (p, g), iou in table.items() if g == gid), default=0.0) for gid in gt_ids]
            )
            assert coverage(pred, gt) == pytest.approx(expected, abs=1e-12)

    def test_lower_bound_from_matches(self, rng):
        for _ in range(20):
            pred = random_labeling(rng, 60, 4)
            gt = random_labeling(rng, 60, 4)
            if not np.any(gt >= 1):
                continue
            match = match_instances(pred, gt, 0.5)
            n_gt = len(np.unique(gt[gt >= 1]))
            assert coverage(pred, gt) >= match.tp * 0.5 / n_gt - 1e-12

    def test_no_ground_truth(self):
        with pytest.raises(NoGroundTruth):
            coverage(np.array([1, 1]), np.array([0, 0]))


class TestSemanticMiou:
    def test_perfect_labels(self):
        gt = np.array([0, 0, 1, 1, 2, 2])
        per_class, miou = semantic_miou(gt, gt)
        assert per_class == {0: 1.0, 1: 1.0, 2: 1.0}
        assert miou == 1.0

    def test_absent_class_excluded(self):
        gt = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 1, 1])
        per_class, miou = semantic_miou(pred, gt)
        assert set(per_class) == {0, 1}
        assert miou == pytest.approx((0.5 + 2 / 3) / 2)

    def test_matches_confusion_matrix_oracle(self, rng):
        for _ in range(30):
            pred = rng.integers(0, 3, size=90)
            gt = rng.integers(0, 3, size=90)
            per_class, miou = semantic_miou(pred, gt)
            expected = {}
            for cls in (0, 1, 2):
                inter = np.sum((pred == cls) & (gt == cls))
                union = np.sum((pred == cls) | (gt == cls))
                if union:
                    expected[cls] = inter / union
            assert per_class == pytest.approx(expected, abs=1e-12)
            assert miou == pytest.approx(np.mean(list(expected.values())), abs=1e-12)

    def test_scores_only_the_core_class_set(self):
        # Labels outside 0..N_CLASSES-1 count in no class's intersection or union.
        gt = np.array([0, 1, 2, N_CLASSES, -1])
        pred = np.array([0, 1, 2, 0, -1])
        per_class, miou = semantic_miou(pred, gt)
        assert per_class == {0: 0.5, 1: 1.0, 2: 1.0}
        assert miou == pytest.approx(2.5 / 3)
        with pytest.raises(EmptyInput):
            semantic_miou(np.array([N_CLASSES, -1]), np.array([-1, N_CLASSES]))

    def test_empty_inputs(self):
        with pytest.raises(EmptyInput):
            semantic_miou(np.empty(0, dtype=int), np.empty(0, dtype=int))


class TestEvalReport:
    def test_report_fields_in_range(self, rng):
        pred = random_labeling(rng, 100, 5)
        gt = random_labeling(rng, 100, 5)
        sem_pred = rng.integers(0, 3, size=100)
        sem_gt = rng.integers(0, 3, size=100)
        report = evaluate_labels(pred, gt, sem_pred, sem_gt)
        for value in (report.precision, report.recall, report.f1, report.coverage, report.miou):
            assert 0.0 <= value <= 1.0

    def test_forestry_aliases(self):
        gt = np.array([1, 1, 2, 2])
        report = evaluate_labels(gt, gt)
        payload = report.to_dict()["instance"]
        assert payload["completeness"] == payload["recall"]
        assert payload["omission"] == pytest.approx(1 - payload["recall"])
        assert payload["commission"] == pytest.approx(1 - payload["precision"])


class TestContingencyMatchesPairReference:
    """The packed-key contingency pass against the ``np.unique(axis=0)`` pair count it replaced."""

    @settings(deadline=None, max_examples=300)
    @given(data=labelings(), threshold=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
           semantic_seed=st.integers(0, 2**32 - 1))
    @example(data=(np.array([2**62, 2**62, -3, 1]), np.array([2**62 + 1, 2**62 + 1, 1, INT64_MAX])),
             threshold=0.5, semantic_seed=0)
    @example(data=(np.array([1, 0, 2, 0]), np.array([0, 1, 0, 2])), threshold=0.0, semantic_seed=0)
    def test_same_ious_matches_coverage_and_report(self, data, threshold, semantic_seed):
        pred, gt = data
        ious = _contingency(pred, gt)[2]
        expected = reference_pair_ious(pred, gt)
        assert list(ious.items()) == list(expected.items())
        assert match_instances(pred, gt, threshold) == reference_match_instances(pred, gt, threshold)
        _same_or_no_ground_truth(lambda: coverage(pred, gt), lambda: reference_coverage(pred, gt))
        semantic = [None, None]
        if len(pred):
            rng = np.random.default_rng(semantic_seed)
            semantic = [rng.integers(0, N_CLASSES, size=len(pred)) for _ in range(2)]
        _same_or_no_ground_truth(
            lambda: evaluate_labels(pred, gt, *semantic, iou_threshold=threshold).to_dict(),
            lambda: reference_evaluate_labels(pred, gt, *semantic, iou_threshold=threshold).to_dict(),
        )
