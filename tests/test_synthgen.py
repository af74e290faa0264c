"""Synthetic forest generation and the oracle components."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestseg.core import GROUND, LEAF, WOOD, PointCloud
from forestseg.errors import MissingLabels, PlacementFailed
from forestseg.synthgen import CorruptionParams, ForestParams, generate_forest, oracle_predictor
from forestseg.tiling import CylinderBlock, cylinder_crop, tile_cloud
from synthgen_reference import reference_oracle_predictor


def full_scene_block(cloud, block_id=0):
    center = cloud.positions[:, :2].mean(axis=0)
    return cylinder_crop(cloud, center, 1000.0, block_id=block_id)


class TestGenerateForest:
    def test_exact_instance_ids(self):
        cloud = generate_forest(ForestParams(n_trees=5, plot_size=10.0, seed=1))
        ids = np.unique(cloud.instance[cloud.instance >= 1])
        assert ids.tolist() == [1, 2, 3, 4, 5]

    def test_deterministic_given_seed(self):
        params = ForestParams(n_trees=6, plot_size=10.0, seed=9)
        a = generate_forest(params)
        b = generate_forest(params)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.semantic, b.semantic)
        assert np.array_equal(a.instance, b.instance)

    def test_different_seed_differs(self):
        a = generate_forest(ForestParams(n_trees=6, plot_size=10.0, seed=1))
        b = generate_forest(ForestParams(n_trees=6, plot_size=10.0, seed=2))
        assert not np.array_equal(a.positions, b.positions)

    def test_min_spacing_by_pairwise_scan(self):
        params = ForestParams(n_trees=12, plot_size=15.0, min_spacing=2.0, seed=3)
        cloud = generate_forest(params)
        trunk_xy = []
        for uid in range(1, 13):
            wood = (cloud.instance == uid) & (cloud.semantic == WOOD)
            trunk_xy.append(cloud.positions[wood, :2].mean(axis=0))
        for i in range(12):
            for j in range(i + 1, 12):
                # trunk jitter is 3 cm around the sampled center
                assert np.hypot(*(trunk_xy[i] - trunk_xy[j])) >= params.min_spacing - 0.1

    def test_label_consistency(self, small_forest):
        on_tree = small_forest.instance >= 1
        assert set(np.unique(small_forest.semantic[on_tree])) <= {WOOD, LEAF}
        assert np.all(small_forest.semantic[~on_tree] == GROUND)

    def test_infeasible_spacing_fails(self):
        with pytest.raises(PlacementFailed):
            generate_forest(ForestParams(n_trees=50, plot_size=2.0, min_spacing=3.0, seed=0))


class TestOraclePredictor:
    def test_zero_corruption_reproduces_gt(self, small_forest):
        block = full_scene_block(small_forest)
        masks = oracle_predictor(block, small_forest, CorruptionParams(), seed=0)
        gt_ids = np.unique(small_forest.instance[small_forest.instance >= 1])
        assert len(masks) == len(gt_ids)
        for mask, uid in zip(masks, gt_ids):
            expected = np.flatnonzero(small_forest.instance == uid)
            assert np.array_equal(mask.point_ids, expected)
            assert mask.score == 1.0

    def test_full_split_emits_two_masks_per_tree(self, small_forest):
        block = full_scene_block(small_forest)
        masks = oracle_predictor(block, small_forest, CorruptionParams(split_prob=1.0), seed=0)
        gt_ids = np.unique(small_forest.instance[small_forest.instance >= 1])
        assert len(masks) == 2 * len(gt_ids)

    def test_split_fragments_overlap_their_pair(self, small_forest):
        block = full_scene_block(small_forest)
        masks = oracle_predictor(block, small_forest, CorruptionParams(split_prob=1.0), seed=0)
        for a, b in zip(masks[::2], masks[1::2]):
            sa, sb = set(a.point_ids.tolist()), set(b.point_ids.tolist())
            iou = len(sa & sb) / len(sa | sb)
            assert iou >= 0.3  # split overlap keeps pairs visible to NMS

    def test_full_drop_emits_nothing(self, small_forest):
        block = full_scene_block(small_forest)
        assert oracle_predictor(block, small_forest, CorruptionParams(drop_prob=1.0), seed=0) == []

    def test_full_merge_halves_mask_count(self, small_forest):
        block = full_scene_block(small_forest)
        masks = oracle_predictor(block, small_forest, CorruptionParams(merge_prob=1.0), seed=0)
        gt_ids = np.unique(small_forest.instance[small_forest.instance >= 1])
        assert len(masks) == (len(gt_ids) + 1) // 2

    def test_scores_track_membership_quality(self, small_forest):
        block = full_scene_block(small_forest)
        noisy = oracle_predictor(block, small_forest, CorruptionParams(point_noise=0.6), seed=1)
        for mask in noisy:
            uid = np.bincount(small_forest.instance[mask.point_ids]).argmax()
            full = np.flatnonzero(small_forest.instance == uid)
            inter = len(np.intersect1d(mask.point_ids, full))
            expected = inter / (len(mask.point_ids) + len(full) - inter)
            assert mask.score == pytest.approx(expected, abs=1e-12)

    def test_score_expectation_monotone_in_noise(self):
        means = []
        for level in (0.0, 0.4, 0.8):
            scores = []
            for seed in range(20):
                cloud = generate_forest(ForestParams(n_trees=5, plot_size=9.0, ground_density=4.0, seed=300 + seed))
                block = full_scene_block(cloud)
                masks = oracle_predictor(block, cloud, CorruptionParams(point_noise=level), seed=seed)
                scores.extend(m.score for m in masks)
            means.append(np.mean(scores))
        assert means[0] >= means[1] >= means[2]

    def test_deterministic_given_seed(self, small_forest):
        block = full_scene_block(small_forest)
        corr = CorruptionParams(split_prob=0.5, point_noise=0.3, score_noise=0.1)
        a = oracle_predictor(block, small_forest, corr, seed=4)
        b = oracle_predictor(block, small_forest, corr, seed=4)
        assert len(a) == len(b)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.point_ids, mb.point_ids)
            assert ma.score == mb.score

    def test_requires_labels(self, small_forest):
        from forestseg.core import PointCloud

        unlabeled = PointCloud(positions=small_forest.positions)
        block = full_scene_block(unlabeled)
        with pytest.raises(MissingLabels):
            oracle_predictor(block, unlabeled, CorruptionParams(), seed=0)


corruptions = st.builds(
    CorruptionParams,
    split_prob=st.sampled_from([0.0, 0.5, 1.0]),
    merge_prob=st.sampled_from([0.0, 0.3, 1.0]),
    drop_prob=st.sampled_from([0.0, 0.3]),
    point_noise=st.sampled_from([0.0, 0.3, 1.0]),
    score_noise=st.sampled_from([0.0, 0.1]),
)


def assert_same_masks(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.block_id, a.query_index) == (b.block_id, b.query_index)
        assert a.point_ids.dtype == b.point_ids.dtype
        assert np.array_equal(a.point_ids, b.point_ids)
        assert type(a.score) is type(b.score)
        assert np.float64(a.score).tobytes() == np.float64(b.score).tobytes()


class TestOraclePredictorMatchesSetReference:
    @settings(max_examples=30, deadline=None)
    @given(forest_seed=st.integers(0, 1000), corruption=corruptions, seed=st.integers(0, 2**32 - 1))
    def test_tile_cloud_blocks(self, forest_seed, corruption, seed):
        cloud = generate_forest(ForestParams(n_trees=6, plot_size=10.0, ground_density=6.0, seed=forest_seed))
        for block in tile_cloud(cloud, radius=4.0, stride=4.0):
            assert_same_masks(
                oracle_predictor(block, cloud, corruption, seed=[seed, block.block_id]),
                reference_oracle_predictor(block, cloud, corruption, seed=[seed, block.block_id]),
            )

    @settings(max_examples=30, deadline=None)
    @given(corruption=corruptions, seed=st.integers(0, 2**32 - 1), keep=st.floats(0.01, 1.0))
    def test_hand_built_block_with_unsorted_indices(self, small_forest, corruption, seed, keep):
        order = np.random.default_rng(seed).permutation(small_forest.n)
        block = CylinderBlock(center_xy=(0.0, 0.0), radius=1.0,
                              point_indices=order[: max(1, int(keep * small_forest.n))], block_id=7)
        assert_same_masks(
            oracle_predictor(block, small_forest, corruption, seed=seed),
            reference_oracle_predictor(block, small_forest, corruption, seed=seed),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_corrupted_scene_with_many_masks(self, seed):
        cloud = generate_forest(ForestParams(n_trees=20, plot_size=16.0, seed=seed))
        corruption = CorruptionParams(split_prob=0.5, merge_prob=0.3, drop_prob=0.1, point_noise=0.3,
                                      score_noise=0.05)
        tree_sizes = np.bincount(cloud.instance)  # given once per cloud, as the pipeline does
        for block in tile_cloud(cloud, radius=6.0, stride=4.0):
            assert_same_masks(
                oracle_predictor(block, cloud, corruption, seed=[seed, block.block_id], tree_sizes=tree_sizes),
                reference_oracle_predictor(block, cloud, corruption, seed=[seed, block.block_id]),
            )
