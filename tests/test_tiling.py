"""Cylinder crops and sliding-window grids against distance oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestseg import tiling
from forestseg.core import PointCloud
from forestseg.errors import ConfigError, EmptyInput
from forestseg.tiling import MAX_GRID_CELLS, Tiling, sliding_window_centers, tile_cloud
from synthgen_reference import reference_cylinder_crop


def _cloud_at(xy_points):
    xy = np.asarray(xy_points, dtype=float)
    return PointCloud(positions=np.c_[xy, np.zeros(len(xy))])


def _crop(cloud, center, radius):
    """The blocks of a one-center tiling: a list of at most one block."""
    return list(Tiling(cloud.positions, np.asarray([center], dtype=float), radius))


class TestCylinderCrop:
    def test_interior_point_included(self):
        [block] = _crop(_cloud_at([[15.9, 0.0]]), (0.0, 0.0), 16.0)
        assert block.n == 1

    def test_exterior_point_excluded(self):
        [block] = _crop(_cloud_at([[16.1, 0.0], [1.0, 1.0]]), (0.0, 0.0), 16.0)
        assert np.array_equal(block.point_indices, [1])

    def test_boundary_inclusive(self):
        # The first center is the bounds minimum (0, 0); the others are 100 m from it, far from every point.
        blocks = list(tile_cloud(_cloud_at([[0.0, 0.0], [16.0, 0.0], [16.1, 0.0], [0.0, 16.0]]), 16.0, 100.0))
        assert [(b.block_id, b.point_indices.tolist()) for b in blocks] == [(0, [0, 1, 3])]

    def test_membership_matches_brute_force(self, rng):
        xy = rng.uniform(-20.0, 20.0, size=(5000, 2))
        center = np.array([2.0, -3.0])
        radius = 9.5
        [block] = _crop(_cloud_at(xy), center, radius)
        expected = sorted(
            i for i in range(5000) if np.hypot(xy[i, 0] - center[0], xy[i, 1] - center[1]) <= radius
        )
        assert block.point_indices.tolist() == expected

    def test_monotone_in_radius(self, rng):
        cloud = _cloud_at(rng.uniform(-10, 10, size=(800, 2)))
        small, large = tile_cloud(cloud, 4.0, 4.0), tile_cloud(cloud, 7.0, 4.0)
        larger = {b.block_id: set(b.point_indices.tolist()) for b in large}
        assert all(set(b.point_indices.tolist()) <= larger[b.block_id] for b in small)

    def test_empty_crop_yields_no_block(self):
        tiling = Tiling(_cloud_at([[50.0, 50.0]]).positions, np.array([[0.0, 0.0], [50.0, 50.0]]), 1.0)
        assert [b.block_id for b in tiling] == [1]
        assert len(tiling) == 1

    def test_bad_radius(self):
        with pytest.raises(ConfigError):
            Tiling(_cloud_at([[0, 0]]).positions, np.zeros((1, 2)), 0.0)

    @pytest.mark.parametrize("radius", [float("nan"), float("inf"), 1e200])
    def test_radius_without_finite_square_rejected(self, radius):
        # Rejected when the tiling is made, before any block is cropped.
        with pytest.raises(ConfigError, match="radius must be positive with a finite square"):
            Tiling(_cloud_at([[0, 0]]).positions, np.zeros((1, 2)), radius)

    @settings(deadline=None)
    @given(
        center=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
        radius=st.floats(0.01, 40.0),
        xy=st.lists(st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)), max_size=30),
        on_circle=st.lists(st.sampled_from([(1.0, 0.0), (0.0, -1.0), (-1.0, 0.0), (0.6, 0.8), (-0.8, -0.6)]),
                           max_size=6),
    )
    def test_matches_delta_reference(self, center, radius, xy, on_circle):
        # A center anywhere, not only on a grid over the points. Offsets of exactly one radius along
        # an axis, and 3-4-5 offsets that land on the circle up to rounding, probe the inclusive boundary.
        xy = xy + [(center[0] + radius * a, center[1] + radius * b) for a, b in on_circle]
        if not xy:
            return
        cloud = _cloud_at(xy)
        expected = reference_cylinder_crop(cloud, center, radius, block_id=0)
        blocks = _crop(cloud, center, radius)
        if expected is None:
            assert blocks == []
            return
        [block] = blocks
        assert block.point_indices.dtype == np.int64
        assert np.array_equal(block.point_indices, expected.point_indices)


class TestSlidingWindow:
    def test_exact_grid(self):
        centers = sliding_window_centers((0.0, 0.0), (16.0, 16.0), 4.0)
        assert len(centers) == 25
        xs = sorted(set(centers[:, 0].tolist()))
        assert xs == [0.0, 4.0, 8.0, 12.0, 16.0]

    @pytest.mark.parametrize("stride", [float("nan"), float("inf"), 1e200])
    def test_stride_without_finite_square_rejected(self, stride):
        with pytest.raises(ConfigError, match="stride must be positive with a finite square"):
            sliding_window_centers((0.0, 0.0), (16.0, 16.0), stride)

    @pytest.mark.parametrize("radius, stride, name", [
        (0.0, 4.0, "radius"), (-1.0, 4.0, "radius"), (float("nan"), 4.0, "radius"), (float("inf"), 4.0, "radius"),
        (1e200, 4.0, "radius"), (4.0, float("inf"), "stride"),
    ])
    def test_tile_cloud_rejects_unusable_radius_or_stride(self, radius, stride, name):
        with pytest.raises(ConfigError, match=f"{name} must be positive with a finite square"):
            tile_cloud(_cloud_at([[0.0, 0.0], [10.0, 10.0]]), radius, stride)

    def test_tile_cloud_rejects_an_empty_cloud(self):
        with pytest.raises(EmptyInput, match="cannot tile an empty point cloud"):
            tile_cloud(PointCloud(positions=np.empty((0, 3))), 16.0, 4.0)

    def test_degenerate_bounds(self):
        centers = sliding_window_centers((3.0, 5.0), (3.0, 5.0), 4.0)
        assert centers.shape == (1, 2)
        assert centers[0].tolist() == [3.0, 5.0]

    def test_last_center_reaches_bounds(self):
        centers = sliding_window_centers((0.0, 0.0), (9.0, 7.0), 4.0)
        assert centers[:, 0].max() >= 9.0
        assert centers[:, 1].max() >= 7.0

    @settings(max_examples=200, deadline=None)
    @given(lo=st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
           steps=st.tuples(st.integers(0, 300), st.integers(0, 300)),
           fraction=st.sampled_from([0.0, 1e-12, 0.5, 1.0 - 1e-12]),
           stride=st.floats(0.01, 50.0))
    def test_counted_cells_match_the_grid(self, lo, steps, fraction, stride):
        # Spans at and near whole multiples of the stride, where float noise could add a row.
        hi = tuple(a + (k + fraction) * stride for a, k in zip(lo, steps))
        counted = tiling._axis_count(hi[0] - lo[0], stride) * tiling._axis_count(hi[1] - lo[1], stride)
        assert counted <= MAX_GRID_CELLS
        assert counted == len(sliding_window_centers(lo, hi, stride))

    @pytest.mark.parametrize("hi, stride", [((1e5, 1e5), 4.0), ((6.0, 6.0), 0.0005), ((4000.0, 4004.0), 4.0),
                                            ((1.0, 1.0), 1e-300), ((1e308, 0.0), 1.0)])
    def test_oversized_grid_rejected_before_it_is_built(self, hi, stride):
        with pytest.raises(ConfigError, match=r"m extent at stride .* needs .* block cells, more than the 1,000,000"):
            sliding_window_centers((-hi[0], 0.0), hi, stride)

    def test_grid_at_the_cap_accepted(self, monkeypatch):
        monkeypatch.setattr(tiling, "MAX_GRID_CELLS", 20)
        assert len(sliding_window_centers((0.0, 0.0), (16.0, 12.0), 4.0)) == 20
        with pytest.raises(ConfigError, match="needs 25 block cells, more than the 20 allowed"):
            sliding_window_centers((0.0, 0.0), (16.0, 16.0), 4.0)

    def test_row_major_order(self):
        centers = sliding_window_centers((0.0, 0.0), (4.0, 4.0), 4.0)
        assert centers.tolist() == [[0, 0], [0, 4], [4, 0], [4, 4]]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), stride=st.floats(0.5, 4.0))
    def test_coverage_of_all_points(self, seed, stride):
        gen = np.random.default_rng(seed)
        xy = gen.uniform(-15.0, 15.0, size=(300, 2))
        radius = stride  # radius >= stride guarantees coverage
        centers = sliding_window_centers(xy.min(axis=0), xy.max(axis=0), stride)
        dist = np.hypot(xy[:, None, 0] - centers[None, :, 0], xy[:, None, 1] - centers[None, :, 1])
        assert np.all(dist.min(axis=1) <= radius + 1e-9)

    def test_tile_cloud_covers_everything(self, rng):
        cloud = _cloud_at(rng.uniform(0.0, 10.0, size=(400, 2)))
        blocks = tile_cloud(cloud, radius=4.0, stride=4.0)
        covered = np.zeros(cloud.n, dtype=bool)
        for block in blocks:
            covered[block.point_indices] = True
        assert covered.all()

    @settings(max_examples=40, deadline=None)
    @given(
        xy=st.lists(st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0)), min_size=1, max_size=60),
        radius=st.floats(0.1, 20.0),
        stride=st.floats(2.0, 10.0),
        on_circle=st.lists(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)]), max_size=3),
    )
    def test_tile_cloud_matches_crop_reference(self, xy, radius, stride, on_circle):
        # Offsets of one radius from the bounds minimum, the first grid center, probe the inclusive boundary.
        lo = np.min(xy, axis=0)
        cloud = _cloud_at(xy + [(lo[0] + radius * a, lo[1] + radius * b) for a, b in on_circle])
        centers = sliding_window_centers(cloud.positions[:, :2].min(axis=0), cloud.positions[:, :2].max(axis=0),
                                         stride)
        expected = [reference_cylinder_crop(cloud, center, radius, block_id=block_id)
                    for block_id, center in enumerate(centers)]
        expected = [block for block in expected if block is not None]
        blocks = tile_cloud(cloud, radius, stride)
        assert [b.block_id for b in blocks] == [e.block_id for e in expected]
        for block, ref in zip(blocks, expected):
            assert block.point_indices.dtype == np.int64
            assert np.array_equal(block.point_indices, ref.point_indices)

    def test_tiling_length_counts_its_blocks(self, rng):
        # Two clusters leave empty cells between them, which the tiling skips.
        cloud = _cloud_at(np.r_[rng.uniform(0.0, 3.0, size=(100, 2)), rng.uniform(20.0, 23.0, size=(100, 2))])
        tiling = tile_cloud(cloud, radius=4.0, stride=4.0)
        blocks = list(tiling)
        assert len(tiling) == len(blocks)
        assert 0 < len(blocks) < len(sliding_window_centers((0.0, 0.0), (23.0, 23.0), 4.0))

    def test_tiling_iterates_again_with_equal_blocks(self, rng):
        cloud = _cloud_at(rng.uniform(0.0, 10.0, size=(400, 2)))
        tiling = tile_cloud(cloud, radius=4.0, stride=4.0)
        first, second = list(tiling), list(tiling)
        assert [b.block_id for b in first] == [b.block_id for b in second]
        for a, b in zip(first, second):
            assert np.array_equal(a.point_indices, b.point_indices)
            assert a.point_indices is not b.point_indices

    def test_block_ids_are_grid_indices(self, rng):
        cloud = _cloud_at(rng.uniform(0.0, 8.0, size=(200, 2)))
        blocks = tile_cloud(cloud, radius=16.0, stride=4.0)
        ids = [b.block_id for b in blocks]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

