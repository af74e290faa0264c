"""Voxelization and label transfer against brute-force oracles."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestseg.core import (
    PointCloud,
    VoxelLabels,
    voxel_labels_from_points,
    voxelize,
)
from forestseg.errors import (
    ConfigError,
    EmptyInput,
    InvalidGeometry,
    InvalidLabel,
    MissingLabels,
    ShapeMismatch,
)


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


class TestPointCloudValidation:
    def test_label_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            PointCloud(positions=np.zeros((3, 3)), semantic=[0, 0])

    def test_tree_instance_requires_tree_class(self):
        with pytest.raises(InvalidLabel):
            PointCloud(positions=np.zeros((1, 3)), semantic=[0], instance=[2])

    def test_ground_instance_requires_ground_class(self):
        with pytest.raises(InvalidLabel):
            PointCloud(positions=np.zeros((1, 3)), semantic=[1], instance=[0])


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: PointCloud(positions=np.zeros((3, 2))), ShapeMismatch,
                 r"positions must have shape \(N, 3\), got \(3, 2\)", id="positions-not-xyz"),
    pytest.param(lambda: PointCloud(positions=np.zeros((2, 3)), semantic=[0, 3]), InvalidLabel,
                 r"semantic classes must be in \{0 \(ground\), 1 \(wood\), 2 \(leaf\)\}", id="semantic-class"),
    pytest.param(lambda: PointCloud(positions=np.zeros((2, 3)), instance=[0, -1]), InvalidLabel,
                 "instance ids must be >= 0", id="negative-instance"),
    pytest.param(lambda: VoxelLabels(semantic=[0, 1], instance=[0]), ShapeMismatch,
                 "semantic and instance label arrays must have equal length", id="voxel-label-lengths"),
    pytest.param(lambda: voxel_labels_from_points(voxelize(PointCloud(positions=np.eye(3)), 0.5),
                                                  PointCloud(np.zeros((2, 3)), semantic=[0, 0], instance=[0, 0])),
                 ShapeMismatch, "voxelization covers 3 points, cloud has 2", id="voxelization-of-another-cloud"),
])
def test_rejections_raise_their_class_and_message(call, error, message):
    with pytest.raises(error, match=message):
        call()
