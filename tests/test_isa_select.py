"""Voxelization and label transfer against brute-force oracles; the embedding
space: oracle embeddings, filtering, FPS against a greedy-step oracle, query
selection and its statistics."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestseg.core import WOOD, PointCloud
from forestseg.errors import ConfigError, EmptyInput, InvalidGeometry, MissingLabels, ShapeMismatch
from forestseg.isa_select import (
    LATTICE_EXTENT,
    CodebookExhausted,
    EmbeddingField,
    NoTreeVoxels,
    QuerySelection,
    VoxelLabels,
    filter_tree_voxels,
    fps,
    oracle_embeddings,
    select_queries_fps_euclidean,
    select_queries_isa,
    selection_stats,
    voxel_labels_from_points,
    voxelize,
)
from forestseg.losses import discriminative_loss


def brute_force_voxel_count(positions, resolution):
    """Independent grid hash: set of floor(p / resolution) tuples."""
    return len({tuple(np.floor(p / resolution).astype(int)) for p in positions})


class TestVoxelize:
    def test_single_point_single_cell(self):
        cloud = PointCloud(positions=[[0.05, 0.05, 0.05]])
        vox = voxelize(cloud, 0.2)
        assert vox.m == 1
        assert tuple(vox.voxel_keys[0]) == (0, 0, 0)

    def test_two_points_same_cell(self):
        cloud = PointCloud(positions=[[0.05, 0.05, 0.05], [0.15, 0.15, 0.15]])
        vox = voxelize(cloud, 0.2)
        assert vox.m == 1
        assert vox.point_to_voxel.tolist() == [0, 0]

    def test_count_matches_brute_force_hash(self, rng):
        positions = rng.uniform(0.0, 10.0, size=(10_000, 3))
        vox = voxelize(PointCloud(positions=positions), 0.2)
        assert vox.m == brute_force_voxel_count(positions, 0.2)

    def test_point_to_voxel_consistency(self, rng):
        positions = rng.uniform(-5.0, 5.0, size=(500, 3))
        vox = voxelize(PointCloud(positions=positions), 0.25)
        expected = np.floor(positions / 0.25).astype(np.int64)
        assert np.array_equal(vox.voxel_keys[vox.point_to_voxel], expected)

    def test_partition_property(self, rng):
        positions = rng.uniform(0.0, 3.0, size=(300, 3))
        vox = voxelize(PointCloud(positions=positions), 0.5)
        # every point lies in exactly one voxel, and every voxel holds a point
        assert vox.point_to_voxel.shape == (300,)
        assert np.array_equal(np.unique(vox.point_to_voxel), np.arange(vox.m))

    def test_lexicographic_voxel_order(self, rng):
        positions = rng.uniform(-2.0, 2.0, size=(200, 3))
        vox = voxelize(PointCloud(positions=positions), 0.3)
        keys = [tuple(k) for k in vox.voxel_keys]
        assert keys == sorted(keys)

    def test_m_equals_n_when_points_far_apart(self):
        # pairwise distances exceed resolution * sqrt(3)
        positions = np.array([[i * 1.0, 0.0, 0.0] for i in range(20)])
        vox = voxelize(PointCloud(positions=positions), 0.2)
        assert vox.m == vox.n == 20

    @settings(max_examples=30, deadline=None)
    @given(
        shift=st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50)),
        seed=st.integers(0, 2**16),
    )
    def test_translation_consistency(self, shift, seed):
        resolution = 0.25
        gen = np.random.default_rng(seed)
        positions = gen.uniform(0.01, 0.99, size=(60, 3))  # away from cell faces
        vox_a = voxelize(PointCloud(positions=positions), resolution)
        offset = np.array(shift, dtype=float) * resolution
        vox_b = voxelize(PointCloud(positions=positions + offset), resolution)
        assert np.array_equal(vox_b.voxel_keys, vox_a.voxel_keys + np.array(shift))

    def test_empty_cloud_rejected(self):
        with pytest.raises(EmptyInput):
            voxelize(PointCloud(positions=np.empty((0, 3))), 0.2)

    @pytest.mark.parametrize("position, resolution", [(1.0, 1e-300), (-1e4, 1e-16), (2.0**63, 1.0)])
    def test_resolution_overflowing_int64_keys_rejected(self, position, resolution):
        cloud = PointCloud(positions=[[0.0, 0.0, 0.0], [0.0, position, 0.0]])
        with pytest.raises(ConfigError, match="resolution must keep voxel keys within int64"):
            voxelize(cloud, resolution)

    def test_largest_keys_below_int64_limit_accepted(self):
        largest = float(np.nextafter(2.0**63, 0.0))  # 2**63 - 1024
        vox = voxelize(PointCloud(positions=[[-largest, 0.0, largest]]), 1.0)
        assert vox.voxel_keys.tolist() == [[-(2**63) + 1024, 0, 2**63 - 1024]]

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidGeometry):
            PointCloud(positions=[[0.0, np.nan, 0.0]])


class TestVoxelLabels:
    def _vox_single_cell(self, k):
        positions = np.full((k, 3), 0.05)
        return voxelize(PointCloud(positions=positions), 0.2)

    def test_strict_majority(self):
        vox = self._vox_single_cell(3)
        cloud = PointCloud(positions=np.full((3, 3), 0.05), semantic=[1, 1, 2], instance=[5, 5, 5])
        labels = voxel_labels_from_points(vox, cloud)
        assert labels.semantic[0] == 1
        assert labels.instance[0] == 5

    def test_tie_breaks_to_lowest(self):
        vox = self._vox_single_cell(2)
        cloud = PointCloud(positions=np.full((2, 3), 0.05), semantic=[1, 2], instance=[3, 7])
        labels = voxel_labels_from_points(vox, cloud)
        assert labels.semantic[0] == 1
        assert labels.instance[0] == 3

    def test_matches_counting_oracle(self, rng):
        positions = rng.uniform(0.0, 4.0, size=(3000, 3)) + np.array([0, 0, 1.0])
        semantic = rng.integers(1, 3, size=3000)
        instance = rng.integers(1, 9, size=3000)
        cloud = PointCloud(positions=positions, semantic=semantic, instance=instance)
        vox = voxelize(cloud, 0.5)
        assert vox.m >= 500
        labels = voxel_labels_from_points(vox, cloud)
        for v in range(vox.m):
            members = np.flatnonzero(vox.point_to_voxel == v)
            for field, arr in (("semantic", semantic), ("instance", instance)):
                counts = Counter(arr[members].tolist())
                top = max(counts.values())
                expect = min(val for val, cnt in counts.items() if cnt == top)
                assert getattr(labels, field)[v] == expect

    def test_missing_labels_rejected(self, rng):
        positions = rng.uniform(0.0, 1.0, size=(10, 3))
        cloud = PointCloud(positions=positions)
        vox = voxelize(cloud, 0.2)
        with pytest.raises(MissingLabels):
            voxel_labels_from_points(vox, cloud)


def _field(embeddings, tree_prob):
    return EmbeddingField(embeddings=np.asarray(embeddings, float), tree_prob=np.asarray(tree_prob, float))


def _uniform_field(m, rng, prob=1.0):
    return _field(rng.normal(size=(m, 5)), np.full(m, prob))


class TestOracleEmbeddings:
    def test_margin_law_exact_zeros(self, small_forest):
        vox = voxelize(small_forest, 0.2)
        gt = voxel_labels_from_points(vox, small_forest)
        field = oracle_embeddings(vox, gt, noise_sigma=0.0)
        tree = gt.instance >= 1
        l_var, l_dist, _, _, _ = discriminative_loss(field.embeddings[tree], gt.instance[tree])
        assert l_var == 0.0
        assert l_dist == 0.0

    def test_noiseless_selection_covers_every_instance(self, small_forest):
        vox = voxelize(small_forest, 0.2)
        gt = voxel_labels_from_points(vox, small_forest)
        field = oracle_embeddings(vox, gt, noise_sigma=0.0)
        n_instances = len(np.unique(gt.instance[gt.instance >= 1]))
        sel = select_queries_isa(field, max(n_instances, 10))
        assert selection_stats(sel, gt).coverage_rate == 1.0

    def test_exact_probabilities_give_pure_tree_selection(self, small_forest):
        vox = voxelize(small_forest, 0.2)
        gt = voxel_labels_from_points(vox, small_forest)
        field = oracle_embeddings(vox, gt)
        sel = select_queries_isa(field, 200)
        assert selection_stats(sel, gt).tree_voxel_ratio == 1.0

    def test_codebook_exhaustion(self):
        # 10**5 instances need 10**5 + 1 codes with the background's, one
        # more than the extent-10 lattice holds; the count is checked before
        # any code is enumerated.
        n = LATTICE_EXTENT**5
        vox = voxelize(PointCloud(positions=np.c_[np.arange(n), np.zeros((n, 2))]), 1.0)
        gt = VoxelLabels(semantic=np.full(n, WOOD), instance=np.arange(1, n + 1))
        with pytest.raises(CodebookExhausted, match=f"{n + 1} codes requested"):
            oracle_embeddings(vox, gt)


class TestFilterTreeVoxels:
    def test_direct_filter(self):
        field = _field(np.zeros((3, 5)), [0.9, 0.2, 0.6])
        assert filter_tree_voxels(field, 0.5).tolist() == [0, 2]

    def test_all_below_threshold(self):
        field = _field(np.zeros((3, 5)), [0.1, 0.2, 0.3])
        with pytest.raises(NoTreeVoxels):
            filter_tree_voxels(field, 0.5)

    def test_matches_linear_scan_oracle(self, rng):
        probs = rng.uniform(0.0, 1.0, size=1000)
        field = _field(rng.normal(size=(1000, 5)), probs)
        got = filter_tree_voxels(field, 0.37).tolist()
        assert got == [i for i in range(1000) if probs[i] >= 0.37]

    def test_embedding_dim_enforced(self):
        with pytest.raises(ShapeMismatch):
            EmbeddingField(embeddings=np.zeros((3, 4)), tree_prob=np.ones(3))


class TestFps:
    def test_k_one_returns_point_zero(self, rng):
        pts = rng.normal(size=(30, 5))
        assert fps(pts, 1).tolist() == [0]

    def test_empty_point_set_rejected(self):
        with pytest.raises(ConfigError, match="cannot sample from an empty point set"):
            fps(np.empty((0, 5)), 3)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_rejected(self, rng, k):
        with pytest.raises(ConfigError, match=f"k must be >= 1, got {k}"):
            fps(rng.normal(size=(5, 5)), k)

    def test_unit_square_diagonal(self):
        corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        assert fps(corners, 2).tolist() == [0, 3]

    def test_truncates_when_k_exceeds_count(self, rng):
        pts = rng.normal(size=(6, 3))
        sel = fps(pts, 50)
        assert sorted(sel.tolist()) == list(range(6))

    def test_each_pick_matches_greedy_oracle(self, rng):
        pts = rng.normal(size=(100, 5))
        sel = fps(pts, 10)
        chosen = [0]
        for step in range(1, 10):
            # recompute min distance to the chosen set for every point
            best_idx, best_val = None, -1.0
            for i in range(100):
                if i in chosen:
                    continue
                d = min(float(np.linalg.norm(pts[i] - pts[j])) for j in chosen)
                if d > best_val + 1e-12:
                    best_idx, best_val = i, d
            assert sel[step] == best_idx
            chosen.append(best_idx)

    def test_permutation_stability_of_selected_set(self, rng):
        pts = rng.normal(size=(40, 5))
        sel = fps(pts, 8)
        # point 0 stays first, so both runs start from the same physical point
        perm = np.r_[0, 1 + rng.permutation(39)]
        sel_perm = fps(pts[perm], 8)
        original_set = {tuple(pts[i]) for i in sel}
        permuted_set = {tuple(pts[perm][i]) for i in sel_perm}
        assert original_set == permuted_set


class TestSelectQueries:
    def test_separated_clusters_all_covered(self, rng):
        # 4 clusters far apart in embedding space; k >= 4 reaches them all
        codes = np.eye(4, 5) * 10.0
        labels = np.repeat(np.arange(4), 25)
        emb = codes[labels] + rng.normal(0, 0.05, size=(100, 5))
        field = _field(emb, np.ones(100))
        sel = select_queries_isa(field, 4)
        assert set(labels[sel.voxel_indices]) == {0, 1, 2, 3}

    def test_identical_embeddings_take_lowest_indices(self):
        field = _field(np.zeros((10, 5)), np.ones(10))
        sel = select_queries_isa(field, 4)
        assert sel.voxel_indices.tolist() == [0, 1, 2, 3]

    def test_deterministic(self, rng):
        field = _uniform_field(50, rng)
        a = select_queries_isa(field, 10)
        b = select_queries_isa(field, 10)
        assert np.array_equal(a.voxel_indices, b.voxel_indices)

    def test_selection_size_invariant(self, rng):
        field = _field(rng.normal(size=(20, 5)), np.r_[np.ones(12), np.zeros(8)])
        assert select_queries_isa(field, 30).k == 12  # min(k, candidates)
        assert select_queries_isa(field, 5).k == 5

    def test_filter_error_propagates(self, rng):
        field = _field(rng.normal(size=(5, 5)), np.zeros(5))
        with pytest.raises(NoTreeVoxels):
            select_queries_isa(field, 3)

    def test_starts_at_lowest_candidate(self, rng):
        # Voxels 0-2 are filtered out, so the first pick is candidate 3.
        field = _field(rng.normal(size=(10, 5)), np.r_[np.zeros(3), np.ones(7)])
        sel = select_queries_isa(field, 4)
        assert sel.voxel_indices[0] == 3
        assert np.array_equal(sel.voxel_indices, 3 + fps(field.embeddings[3:], 4))

    def test_fps_euclidean_starts_at_voxel_zero(self, small_forest):
        vox = voxelize(small_forest, 0.2)
        sel = select_queries_fps_euclidean(vox, 20)
        assert sel.voxel_indices[0] == 0
        assert np.array_equal(sel.voxel_indices, fps(vox.voxel_centers(), 20))

    def test_fps_euclidean_baseline_runs_over_all_voxels(self, small_forest):
        vox = voxelize(small_forest, 0.2)
        sel = select_queries_fps_euclidean(vox, 50)
        assert sel.method == "fps_euclidean"
        assert sel.k == 50


class TestSelectionStats:
    def _labels(self, instances):
        inst = np.asarray(instances)
        return VoxelLabels(semantic=np.where(inst >= 1, 1, 0), instance=inst)

    def _selection(self, indices):
        from forestseg.isa_select import QuerySelection

        return QuerySelection(voxel_indices=np.asarray(indices), method="isa", k_requested=len(indices))

    def test_full_coverage(self):
        gt = self._labels([1, 2, 3, 4, 5, 0])
        stats = selection_stats(self._selection([0, 1, 2, 3, 4]), gt)
        assert stats.coverage_rate == 1.0

    def test_partial_coverage(self):
        gt = self._labels([1, 2, 3, 4, 0, 0])
        stats = selection_stats(self._selection([0, 1, 2, 2]), gt)
        assert stats.coverage_rate == 0.75

    def test_ground_only_selection(self):
        gt = self._labels([0, 0, 1])
        stats = selection_stats(self._selection([0, 1]), gt)
        assert stats.tree_voxel_ratio == 0.0

    def test_no_instances_reports_absent(self):
        gt = self._labels([0, 0, 0])
        stats = selection_stats(self._selection([0, 1]), gt)
        assert stats.coverage_rate is None

    def test_perfect_binary_labels_give_ratio_one(self, small_forest):
        vox = voxelize(small_forest, 0.2)
        gt = voxel_labels_from_points(vox, small_forest)
        field = oracle_embeddings(vox, gt, noise_sigma=0.0)
        sel = select_queries_isa(field, 100)
        assert selection_stats(sel, gt).tree_voxel_ratio == 1.0


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: EmbeddingField(np.zeros((3, 5)), np.zeros(2)), ShapeMismatch,
                 "tree_prob length must match the embedding count", id="tree-prob-length"),
    pytest.param(lambda: EmbeddingField(np.full((1, 5), np.nan), np.zeros(1)), InvalidGeometry,
                 "embeddings contain NaN or Inf", id="nan-embedding"),
    pytest.param(lambda: EmbeddingField(np.zeros((2, 5)), np.array([0.0, 1.5])), InvalidGeometry,
                 r"tree probabilities must lie in \[0, 1\]", id="tree-prob-range"),
    pytest.param(lambda: oracle_embeddings(voxelize(PointCloud(positions=np.eye(3)), 0.5), VoxelLabels([0], [0])),
                 ConfigError, "labels cover 1 voxels but the grid has 3", id="labels-of-another-grid"),
    pytest.param(lambda: fps(np.zeros(3), 1), ShapeMismatch, r"points must be 2-D, got shape \(3,\)",
                 id="fps-points-1d"),
    pytest.param(lambda: selection_stats(QuerySelection([2], "isa", 1), VoxelLabels([0, 0], [0, 0])), ShapeMismatch,
                 "selection references voxels beyond the label arrays", id="selection-beyond-labels"),
])
def test_rejections_raise_their_class_and_message(call, error, message):
    with pytest.raises(error, match=message):
        call()
