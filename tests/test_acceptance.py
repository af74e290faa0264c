"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from forestseg import io
from forestseg.core import PointCloud, voxel_labels_from_points, voxelize
from forestseg.isa_select import (
    oracle_embeddings,
    select_queries_fps_euclidean,
    select_queries_isa,
    selection_stats,
)
from forestseg.losses import (
    bce_mask_loss,
    compose_losses,
    discriminative_loss,
    run_gradient_checks,
)
from forestseg.merging import resolve_points
from forestseg.metrics import coverage, detection_scores, match_instances, semantic_miou
from forestseg.pipeline import (
    PipelineConfig,
    make_oracle_predictor,
    merge_block_predictions,
    run_pipeline,
)
from forestseg.synthgen import CorruptionParams, ForestParams, generate_forest
from forestseg.tiling import sliding_window_centers, tile_cloud

from test_metrics import exhaustive_max_tp, iou_table


class _criterion:
    def __init__(self, num: int, name: str):
        self.num = num
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n[ACCEPTANCE] criterion {self.num:2d} ({self.name}): {status}")
        return False


def _multiscale_params(seed: int) -> ForestParams:
    return ForestParams(
        n_trees=60,
        plot_size=28.0,
        understory_fraction=0.5,
        ground_density=40.0,
        min_spacing=1.0,
        seed=seed,
    )


def test_criterion_1_loss_formula_fidelity():
    with _criterion(1, "loss formula fidelity"):
        start = time.time()
        report = run_gradient_checks(trials=100, seed=0)
        assert report["all_pass"], report
        assert (report["h"], report["tolerance"]) == (1e-5, 1e-4)
        for entry in report["losses"].values():
            assert entry["max_rel_err"] < 1e-4

        loss, _ = bce_mask_loss(np.zeros(64), np.r_[np.ones(32), np.zeros(32)])
        assert abs(loss - math.log(2)) <= 1e-9

        assert compose_losses(1.0, 2.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0).instance == 5.0
        bd = compose_losses(0.0, 5.0, 0.0, 10.0, 1.0, 2.0, 0.0, 0.0)
        assert bd.total == 42.0
        assert bd.final == 45.0

        assert time.time() - start < 30.0


def test_criterion_2_discriminative_margin_law():
    with _criterion(2, "discriminative margin law"):
        rng = np.random.default_rng(0)
        # means on a lattice with pairwise L1 distance exactly 2 * delta_d
        means = np.array([[0.0] * 5, [3.0, 0, 0, 0, 0], [0, 3.0, 0, 0, 0], [1.5, 1.5, 0, 0, 0]])
        embeddings = []
        ids = []
        for c, mu in enumerate(means, start=1):
            for _ in range(6):
                offset = rng.uniform(-0.1, 0.1, size=5)  # L1 radius <= 0.5 = delta_v
                assert np.abs(offset).sum() <= 0.5
                embeddings.append(mu + offset)
                ids.append(c)
        f = np.asarray(embeddings)
        # recenter each instance so the construction controls the exact radii
        for c in range(1, 5):
            sub = np.asarray(ids) == c
            f[sub] += means[c - 1] - f[sub].mean(axis=0)
            assert np.abs(f[sub] - f[sub].mean(axis=0)).sum(axis=1).max() <= 0.5 + 1e-12
        l_var, l_dist, _, _, _ = discriminative_loss(f, np.asarray(ids))
        assert l_var == 0.0
        assert l_dist == 0.0


def test_criterion_3_isa_ordering_property():
    with _criterion(3, "guided selection coverage ordering"):
        start = time.time()
        isa_cov, fps_cov, ratios = [], [], []
        for seed in range(20):
            cloud = generate_forest(_multiscale_params(seed))
            vox = voxelize(cloud, 0.2)
            gt = voxel_labels_from_points(vox, cloud)
            field = oracle_embeddings(vox, gt, noise_sigma=0.1 * 0.5, seed=seed)
            isa_sel = select_queries_isa(field, 300)
            isa_stats = selection_stats(isa_sel, gt)
            fps_stats = selection_stats(select_queries_fps_euclidean(vox, 300), gt)
            isa_cov.append(isa_stats.coverage_rate)
            fps_cov.append(fps_stats.coverage_rate)
            ratios.append(isa_stats.tree_voxel_ratio)
        assert np.mean(isa_cov) > np.mean(fps_cov)  # strict ordering
        assert all(r == 1.0 for r in ratios)  # exact binary labels
        assert time.time() - start < 120.0


def test_criterion_4_pipeline_identity_law():
    with _criterion(4, "pipeline identity law"):
        start = time.time()
        cloud = generate_forest(ForestParams(n_trees=32, plot_size=22.0, ground_density=15.0, seed=7))
        assert len(np.unique(cloud.instance[cloud.instance >= 1])) >= 30
        result = run_pipeline(cloud, PipelineConfig(radius=16.0, stride=4.0), threads=1)
        ev = result.evaluation
        assert ev.f1 == 1.0
        assert ev.coverage == 1.0
        assert ev.miou == 1.0
        assert time.time() - start < 60.0


def test_criterion_5_duplicate_suppression():
    with _criterion(5, "duplicate suppression"):
        cloud = generate_forest(ForestParams(n_trees=16, plot_size=14.0, ground_density=10.0, seed=13))
        config = PipelineConfig()
        result = run_pipeline(cloud, config, threads=1)
        gt_ids = np.unique(cloud.instance[cloud.instance >= 1])

        def tree_of(mask):
            ids = cloud.instance[mask.point_ids]
            return int(np.bincount(ids[ids >= 1]).argmax())

        candidates = result.merge.masks_after_filter
        per_tree_candidates = Counter(tree_of(m) for m in candidates)
        assert min(per_tree_candidates.values()) >= 2  # overlapping blocks duplicate every tree

        kept = result.merge.masks_kept
        assert len(kept) == len(gt_ids)  # exactly one mask per GT tree
        assert sorted(Counter(tree_of(m) for m in kept)) == sorted(gt_ids.tolist())


def test_criterion_6_corruption_monotonicity_and_nms_recovery():
    with _criterion(6, "corruption monotonicity and duplicate-removal recovery"):
        config = PipelineConfig()
        levels = (0.0, 0.5, 1.0)
        pre_means, post_means = [], []
        for level in levels:
            pre, post = [], []
            for seed in range(20):
                cloud = generate_forest(
                    ForestParams(n_trees=15, plot_size=14.0, ground_density=10.0, seed=100 + seed)
                )
                result = run_pipeline(cloud, config, corruption=CorruptionParams(split_prob=level), threads=1)
                inst_pre = resolve_points(result.merge.masks_after_filter, cloud.n)
                pre.append(detection_scores(match_instances(inst_pre, cloud.instance))[0])
                post.append(detection_scores(match_instances(result.merge.instance, cloud.instance))[0])
            pre_means.append(float(np.mean(pre)))
            post_means.append(float(np.mean(post)))

        assert pre_means[0] >= pre_means[1] >= pre_means[2]  # non-increasing before NMS
        # fragments overlap their source, so NMS must win back >= 50% of the loss
        loss = pre_means[0] - pre_means[2]
        recovered = post_means[2] - pre_means[2]
        assert loss > 0.0
        assert recovered >= 0.5 * loss


def test_criterion_7_metric_oracle_equivalence():
    with _criterion(7, "metric oracle equivalence"):
        rng = np.random.default_rng(1)
        discrepancies = []
        for trial in range(200):
            pred = rng.integers(0, 7, size=60)
            gt = rng.integers(0, 7, size=60)
            tp = match_instances(pred, gt, 0.25).tp
            best = exhaustive_max_tp(pred, gt, 0.25)
            assert tp <= best
            if tp != best:
                discrepancies.append((trial, tp, best))
        if discrepancies:
            print(f"\n  greedy/exhaustive discrepancies: {discrepancies}")
        assert len(discrepancies) <= 0.02 * 200

        # coverage and mIoU match brute-force oracles exactly
        for _ in range(50):
            pred = rng.integers(0, 5, size=80)
            gt = rng.integers(0, 5, size=80)
            if np.any(gt >= 1):
                table = iou_table(pred, gt)
                gt_ids = sorted(set(int(g) for g in np.unique(gt[gt >= 1])))
                expected = np.mean(
                    [max((iou for (p, g), iou in table.items() if g == gid), default=0.0) for gid in gt_ids]
                )
                assert coverage(pred, gt) == pytest.approx(expected, abs=1e-15)
            sem_pred = rng.integers(0, 3, size=80)
            sem_gt = rng.integers(0, 3, size=80)
            per_class, miou = semantic_miou(sem_pred, sem_gt)
            expected_classes = {}
            for cls in (0, 1, 2):
                union = np.sum((sem_pred == cls) | (sem_gt == cls))
                if union:
                    expected_classes[cls] = float(np.sum((sem_pred == cls) & (sem_gt == cls)) / union)
            assert per_class == pytest.approx(expected_classes, abs=1e-15)
            assert miou == pytest.approx(np.mean(list(expected_classes.values())), abs=1e-15)


def test_criterion_8_determinism_and_order_independence(tmp_path):
    with _criterion(8, "determinism and order independence"):
        cloud = generate_forest(ForestParams(n_trees=14, plot_size=14.0, ground_density=8.0, seed=21))
        config = PipelineConfig(seed=9)
        corr = CorruptionParams(split_prob=0.5, point_noise=0.3, score_noise=0.1)

        outputs = []
        for threads in (1, 4):
            result = run_pipeline(cloud, config, corruption=corr, threads=threads)
            labels = tmp_path / f"labels_{threads}.tsv"
            report = tmp_path / f"report_{threads}.json"
            io.write_labels_tsv(labels, result.merge.instance, result.merge.semantic)
            io.write_json(report, result.report)
            outputs.append((labels.read_bytes(), report.read_bytes()))
        assert outputs[0] == outputs[1]  # byte-identical for any accepted --threads value

        # shuffled block processing order
        predict = make_oracle_predictor(cloud, corr, config.seed)
        predictions = [predict(b) for b in tile_cloud(cloud, config.radius, config.stride)]
        reference = merge_block_predictions(predictions, cloud.positions, config)
        rng = np.random.default_rng(3)
        for _ in range(3):
            shuffled = list(predictions)
            rng.shuffle(shuffled)
            outcome = merge_block_predictions(shuffled, cloud.positions, config)
            assert np.array_equal(outcome.instance, reference.instance)
            assert np.array_equal(outcome.semantic, reference.semantic)


def test_criterion_9_voxelization_and_tiling_oracles():
    with _criterion(9, "voxelization and tiling oracles"):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(500, 2000))
            span = float(rng.uniform(5.0, 25.0))
            positions = rng.uniform(0.0, span, size=(n, 3))
            cloud = PointCloud(positions=positions)

            resolution = float(rng.uniform(0.1, 0.5))
            vox = voxelize(cloud, resolution)
            brute = {tuple(np.floor(p / resolution).astype(int)) for p in positions}
            assert vox.m == len(brute)

            radius = float(rng.uniform(1.0, span))
            stride = float(rng.uniform(0.5, 4.0))
            centers = sliding_window_centers(positions[:, :2].min(axis=0), positions[:, :2].max(axis=0), stride)
            dist = np.hypot(
                positions[:, None, 0] - centers[None, :, 0],
                positions[:, None, 1] - centers[None, :, 1],
            )
            assert np.all(dist.min(axis=1) <= stride + 1e-9)  # radius >= stride covers all

            # Every block against brute force: its points are exactly those within radius of its center.
            expected = [(block_id, np.flatnonzero(d <= radius).tolist()) for block_id, d in enumerate(dist.T)]
            blocks = [(b.block_id, b.point_indices.tolist()) for b in tile_cloud(cloud, radius, stride)]
            assert blocks == [(block_id, ids) for block_id, ids in expected if ids]


def test_criterion_10_score_threshold_ablation_shape():
    with _criterion(10, "score threshold trade-off shape"):
        cloud = generate_forest(ForestParams(n_trees=20, plot_size=16.0, ground_density=10.0, seed=42))
        corr = CorruptionParams(split_prob=0.4, point_noise=0.85, drop_prob=0.05)
        precisions, recalls = [], []
        for threshold in [round(0.1 * t, 1) for t in range(11)]:
            result = run_pipeline(
                cloud, PipelineConfig(score_threshold=threshold), corruption=corr, threads=1
            )
            p, r, _ = detection_scores(match_instances(result.merge.instance, cloud.instance))
            precisions.append(p)
            recalls.append(r)
        assert all(b >= a - 1e-12 for a, b in zip(precisions, precisions[1:]))  # non-decreasing
        assert all(b <= a + 1e-12 for a, b in zip(recalls, recalls[1:]))  # non-increasing
        assert precisions[-1] > precisions[0]  # the sweep actually moves
        assert recalls[0] > recalls[-1]
