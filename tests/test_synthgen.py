"""Synthetic forest generation and the oracle components."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestseg.core import GROUND, LEAF, WOOD, PointCloud
from forestseg.errors import ConfigError, MissingLabels, PlacementFailed
from forestseg.synthgen import (
    MAX_SCENE_POINTS,
    CorruptionParams,
    ForestParams,
    _overlap_split,
    _place_centers,
    generate_forest,
    oracle_predictor,
)
from forestseg.tiling import CylinderBlock, tile_cloud
from merging_reference import block_objects
from synthgen_reference import reference_oracle_predictor, reference_overlap_split, reference_place_centers


def oracle_masks(block, *args, **kwargs):
    """The oracle's packed masks for ``block`` as a mask list."""
    return block_objects(block.block_id, oracle_predictor(block, *args, **kwargs))


def full_scene_block(cloud, block_id=0):
    return CylinderBlock(point_indices=np.arange(cloud.n), block_id=block_id)


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

    @settings(max_examples=60, deadline=None)
    @given(n_trees=st.integers(1, 12), plot_size=st.floats(0.5, 20.0), min_spacing=st.floats(0.0, 12.0),
           seed=st.integers(0, 2**32 - 1))
    def test_placement_matches_loop_reference(self, n_trees, plot_size, min_spacing, seed):
        # Large spacings on small plots are infeasible; both must then fail alike.
        params = ForestParams(n_trees=n_trees, plot_size=plot_size, min_spacing=min_spacing, seed=seed)
        fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            expected = reference_place_centers(params, ref)
        except PlacementFailed as exc:
            with pytest.raises(PlacementFailed) as failed:
                _place_centers(params, fast)
            assert str(failed.value) == str(exc)
        else:
            assert np.array_equal(_place_centers(params, fast), expected)
        assert fast.bit_generator.state == ref.bit_generator.state

    def test_point_count_capped(self):
        # 12,500 trees of up to 800 points reach the cap exactly; one more point is past it.
        assert MAX_SCENE_POINTS == 12_500 * 800
        ForestParams(n_trees=12_500, ground_density=0.0, min_spacing=0.0)
        with pytest.raises(ConfigError, match="ground_density must keep the scene within 10,000,000 points"):
            ForestParams(n_trees=12_500, ground_density=1 / 400, min_spacing=0.0)
        with pytest.raises(ConfigError, match="n_trees and points_per_tree_range must allow at most"):
            ForestParams(n_trees=12_501, ground_density=0.0, min_spacing=0.0)
        # Trees get at least 40 points whatever points_per_tree_range says, so the cap counts 40.
        ForestParams(n_trees=250_000, points_per_tree_range=(1, 1), ground_density=0.0, min_spacing=0.0)
        with pytest.raises(ConfigError, match="got up to 10,000,040 tree points"):
            ForestParams(n_trees=250_001, points_per_tree_range=(1, 1), ground_density=0.0, min_spacing=0.0)

    @pytest.mark.parametrize("field, value, message", [
        ("n_trees", 2.5, "n_trees must be an integer, got 2.5"),
        ("n_trees", True, "n_trees must be an integer, got True"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", "3", "seed must be an integer, got '3'"),
        ("points_per_tree_range", (300.5, 800), "each points_per_tree_range bound must be an integer, got 300.5"),
        # numpy 2 spells the value np.float64(800.0), numpy 1 as 800.0.
        ("points_per_tree_range", (300, np.float64(800)), "each points_per_tree_range bound must be an integer"),
        ("points_per_tree_range", (False, 800), "each points_per_tree_range bound must be an integer, got False"),
    ])
    def test_non_integer_counts_and_seeds_rejected(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            ForestParams(**{field: value})

    def test_numpy_integers_stored_as_int(self):
        params = ForestParams(n_trees=np.int64(3), points_per_tree_range=(np.int32(300), np.uint16(800)),
                              seed=np.int64(4))
        assert params == ForestParams(n_trees=3, points_per_tree_range=(300, 800), seed=4)
        assert {type(value) for value in (params.n_trees, *params.points_per_tree_range, params.seed)} == {int}

    @pytest.mark.parametrize("understory_fraction", [0.0, 1.0])
    def test_tree_sizes_within_the_capped_bound(self, understory_fraction):
        for low, high in [(1, 1), (1, 39), (100, 120)]:
            cloud = generate_forest(ForestParams(n_trees=4, plot_size=8.0, points_per_tree_range=(low, high),
                                                 understory_fraction=understory_fraction, ground_density=0.0))
            assert np.bincount(cloud.instance)[1:].max() <= max(high, 40)


class TestOraclePredictor:
    def test_zero_corruption_reproduces_gt(self, small_forest):
        block = full_scene_block(small_forest)
        masks = oracle_masks(block, small_forest, CorruptionParams(), seed=0)
        gt_ids = np.unique(small_forest.instance[small_forest.instance >= 1])
        assert len(masks) == len(gt_ids)
        for mask, uid in zip(masks, gt_ids):
            expected = np.flatnonzero(small_forest.instance == uid)
            assert np.array_equal(mask.point_ids, expected)
            assert mask.score == 1.0

    def test_full_split_emits_two_masks_per_tree(self, small_forest):
        block = full_scene_block(small_forest)
        masks = oracle_masks(block, small_forest, CorruptionParams(split_prob=1.0), seed=0)
        gt_ids = np.unique(small_forest.instance[small_forest.instance >= 1])
        assert len(masks) == 2 * len(gt_ids)

    def test_split_fragments_overlap_their_pair(self, small_forest):
        block = full_scene_block(small_forest)
        masks = oracle_masks(block, small_forest, CorruptionParams(split_prob=1.0), seed=0)
        for a, b in zip(masks[::2], masks[1::2]):
            sa, sb = set(a.point_ids.tolist()), set(b.point_ids.tolist())
            iou = len(sa & sb) / len(sa | sb)
            assert iou >= 0.3  # split overlap keeps pairs visible to NMS

    def test_full_drop_emits_nothing(self, small_forest):
        block = full_scene_block(small_forest)
        assert oracle_masks(block, small_forest, CorruptionParams(drop_prob=1.0), seed=0) == []

    def test_full_merge_halves_mask_count(self, small_forest):
        block = full_scene_block(small_forest)
        masks = oracle_masks(block, small_forest, CorruptionParams(merge_prob=1.0), seed=0)
        gt_ids = np.unique(small_forest.instance[small_forest.instance >= 1])
        assert len(masks) == (len(gt_ids) + 1) // 2

    def test_scores_track_membership_quality(self, small_forest):
        block = full_scene_block(small_forest)
        noisy = oracle_masks(block, small_forest, CorruptionParams(point_noise=0.6), seed=1)
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
                masks = oracle_masks(block, cloud, CorruptionParams(point_noise=level), seed=seed)
                scores.extend(m.score for m in masks)
            means.append(np.mean(scores))
        assert means[0] >= means[1] >= means[2]

    def test_deterministic_given_seed(self, small_forest):
        block = full_scene_block(small_forest)
        corr = CorruptionParams(split_prob=0.5, point_noise=0.3, score_noise=0.1)
        a = oracle_masks(block, small_forest, corr, seed=4)
        b = oracle_masks(block, small_forest, corr, seed=4)
        assert len(a) == len(b)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.point_ids, mb.point_ids)
            assert ma.score == mb.score

    def test_requires_labels(self, small_forest):
        from forestseg.core import PointCloud

        unlabeled = PointCloud(positions=small_forest.positions)
        block = full_scene_block(unlabeled)
        with pytest.raises(MissingLabels):
            oracle_masks(block, unlabeled, CorruptionParams(), seed=0)


corruptions = st.builds(
    CorruptionParams,
    split_prob=st.sampled_from([0.0, 0.5, 1.0]),
    merge_prob=st.sampled_from([0.0, 0.3, 1.0]),
    drop_prob=st.sampled_from([0.0, 0.3]),
    point_noise=st.sampled_from([0.0, 0.3, 1.0]),
    score_noise=st.sampled_from([0.0, 0.1]),
)


@st.composite
def tied_clouds(draw):
    """Trees whose points sit on a few shared xy spots, so their projections tie exactly, among them
    trees of 1 and 2 points (both fragments then take every point), with ground points mixed in.
    ``generate_forest`` jitters every point, so its trees tie with probability 0."""
    positions, instance = [], []
    for tree in range(draw(st.integers(1, 6)) + 1):  # tree 0 is the ground
        n_points = draw(st.sampled_from([1, 2, 3, 4, 7, 30]))
        spots = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=4))
        for i in range(n_points):
            positions.append((tree + spots[i % len(spots)][0] / 4, spots[i % len(spots)][1] / 4, i / 8))
            instance.append(tree)
    semantic = np.where(np.array(instance) > 0, WOOD, GROUND)
    return PointCloud(positions=np.array(positions), semantic=semantic, instance=np.array(instance))


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
                oracle_masks(block, cloud, corruption, seed=[seed, block.block_id]),
                reference_oracle_predictor(block, cloud, corruption, seed=[seed, block.block_id]),
            )

    @settings(max_examples=30, deadline=None)
    @given(corruption=corruptions, seed=st.integers(0, 2**32 - 1), keep=st.floats(0.01, 1.0))
    def test_hand_built_block_with_unsorted_indices(self, small_forest, corruption, seed, keep):
        order = np.random.default_rng(seed).permutation(small_forest.n)
        block = CylinderBlock(point_indices=order[: max(1, int(keep * small_forest.n))], block_id=7)
        assert_same_masks(
            oracle_masks(block, small_forest, corruption, seed=seed),
            reference_oracle_predictor(block, small_forest, corruption, seed=seed),
        )

    @settings(max_examples=200, deadline=None)
    @given(cloud=tied_clouds(), corruption=corruptions, seed=st.integers(0, 2**32 - 1), shuffle=st.booleans())
    def test_tied_projections(self, cloud, corruption, seed, shuffle):
        # A shuffled block keeps each tree in block order and each merged pair in id order, and ties
        # split by that order.
        indices = np.random.default_rng(seed).permutation(cloud.n) if shuffle else np.arange(cloud.n)
        block = CylinderBlock(point_indices=indices, block_id=3)
        assert_same_masks(
            oracle_masks(block, cloud, corruption, seed=seed),
            reference_oracle_predictor(block, cloud, corruption, seed=seed),
        )

    @settings(max_examples=300, deadline=None)
    @given(spots=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=60),
           seed=st.integers(0, 2**32 - 1))
    def test_split_selects_the_ends_of_a_stable_sort(self, spots, seed):
        xyz = np.array([(x, y, 0.0) for x, y in spots], dtype=np.float64)
        members = np.arange(len(xyz))
        expected = reference_overlap_split(xyz, members, np.random.default_rng(seed))
        theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
        fragments = _overlap_split(xyz[members, :2], theta, len(expected[0]))
        assert [np.flatnonzero(fragment).tolist() for fragment in fragments] == [e.tolist() for e in expected]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_corrupted_scene_with_many_masks(self, seed):
        cloud = generate_forest(ForestParams(n_trees=20, plot_size=16.0, seed=seed))
        corruption = CorruptionParams(split_prob=0.5, merge_prob=0.3, drop_prob=0.1, point_noise=0.3,
                                      score_noise=0.05)
        tree_sizes = np.bincount(cloud.instance)  # given once per cloud, as the pipeline does
        for block in tile_cloud(cloud, radius=6.0, stride=4.0):
            assert_same_masks(
                oracle_masks(block, cloud, corruption, seed=[seed, block.block_id], tree_sizes=tree_sizes),
                reference_oracle_predictor(block, cloud, corruption, seed=[seed, block.block_id]),
            )

    def test_block_over_ten_thousand_points_with_full_noise(self):
        # numpy's choice without replacement takes Floyd's algorithm for small draws and shuffles
        # the tail of the whole range once the pool exceeds 10,000 and the draw 1/50 of it. A
        # 23,000-point block with noise fractions up to 1 draws both ways.
        cloud = generate_forest(ForestParams(n_trees=30, plot_size=20.0, seed=4))
        block = full_scene_block(cloud, block_id=5)
        assert block.n > 10_000
        corruption = CorruptionParams(split_prob=0.5, point_noise=1.0)
        assert_same_masks(
            oracle_masks(block, cloud, corruption, seed=[0, 5]),
            reference_oracle_predictor(block, cloud, corruption, seed=[0, 5]),
        )
