"""Cylindrical cropping and sliding-window tiling over large scenes.

Cylinders avoid cutting trees vertically; blocks are addressed by a
deterministic row-major grid index. ``tile_cloud`` crops lazily: its blocks
are built one at a time as the tiling is iterated, so only the blocks a caller
still holds stay alive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import numpy.typing as npt

from .core import PointCloud
from .errors import ConfigError, EmptyInput

# Tolerance when counting grid steps, so exact-multiple spans do not gain a
# spurious extra row from floating-point noise.
_GRID_EPS = 1e-9
# The most cells a sliding-window grid may have: a square of about 4 km at the
# default 4 m stride, where a 10 M-point scene of default density needs about
# 32,000. A larger grid is rejected before it is built. It also bounds the
# votes a point gets in the pipeline, one per block.
MAX_GRID_CELLS = 1_000_000


@dataclass(eq=False)
class CylinderBlock:
    """A vertical cylinder crop around grid cell ``block_id``: member point indices into the parent cloud."""

    point_indices: npt.NDArray[np.int64]
    block_id: int

    def __post_init__(self) -> None:
        self.point_indices = np.asarray(self.point_indices, dtype=np.int64)

    @property
    def n(self) -> int:
        return len(self.point_indices)


def _axis_count(span: float, stride: float) -> float:
    """The number of grid centers along an axis, as a float: infinite when ``span / stride`` overflows."""
    return float(np.ceil(span / stride - _GRID_EPS)) + 1 if span > 0 else 1.0


def sliding_window_centers(min_xy, max_xy, stride: float) -> npt.NDArray[np.float64]:
    """Axis-aligned grid of block centers covering the bounds.

    The first center sits at the bounds minimum and the last center of each
    axis is >= the bounds maximum. Centers are returned in row-major order
    (x slow, y fast), which also defines block ids.

    Raises:
        ConfigError: the grid would have more than ``MAX_GRID_CELLS`` cells.
    """
    if not (stride > 0 and math.isfinite(stride * stride)):
        raise ConfigError(f"stride must be positive with a finite square, got {stride}")
    lo = np.asarray(min_xy, dtype=np.float64).reshape(2)
    hi = np.asarray(max_xy, dtype=np.float64).reshape(2)
    if np.any(hi < lo):
        raise ConfigError(f"bounds min {tuple(lo)} exceeds max {tuple(hi)}")
    span_x, span_y = (float(h) - float(l) for l, h in zip(lo, hi))  # Python floats overflow to inf silently
    nx, ny = _axis_count(span_x, stride), _axis_count(span_y, stride)
    if nx * ny > MAX_GRID_CELLS:
        raise ConfigError(f"a {span_x:g} x {span_y:g} m extent at stride {stride:g} needs "
                          f"{nx * ny:,.0f} block cells, more than the {MAX_GRID_CELLS:,} allowed")
    xs = lo[0] + stride * np.arange(int(nx))
    ys = lo[1] + stride * np.arange(int(ny))
    grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
    return grid.reshape(-1, 2)


class Tiling:
    """The nonempty blocks of a sliding-window grid over a cloud, in block id order.

    A block holds the points within horizontal distance ``radius`` of its
    center, boundary inclusive. Blocks are cropped only as the tiling is
    iterated. Each iteration copies the x and y columns and allocates its own
    scratch buffers, so a tiling of many blocks allocates only each block's
    point ids, iterations never share buffers, and the tiling can be
    iterated again; ``len()`` runs one crop pass to count the blocks.
    """

    def __init__(self, positions: npt.NDArray[np.float64], centers: npt.NDArray[np.float64], radius: float) -> None:
        # Written so that NaN fails too; the crop squares the radius.
        if not (radius > 0 and math.isfinite(radius * radius)):
            raise ConfigError(f"radius must be positive with a finite square, got {radius}")
        self._positions = positions
        self._centers = centers
        self._radius = float(radius)

    def __iter__(self) -> Iterator[CylinderBlock]:
        x = np.ascontiguousarray(self._positions[:, 0])
        y = np.ascontiguousarray(self._positions[:, 1])
        dx, dy = np.empty_like(x), np.empty_like(y)
        inside = np.empty(len(x), dtype=bool)
        radius_sq = self._radius**2
        for block_id, center in enumerate(self._centers):
            np.subtract(x, center[0], out=dx)
            np.multiply(dx, dx, out=dx)
            np.subtract(y, center[1], out=dy)
            np.multiply(dy, dy, out=dy)
            np.add(dx, dy, out=dx)
            np.less_equal(dx, radius_sq, out=inside)
            indices = np.flatnonzero(inside)
            if len(indices):
                yield CylinderBlock(point_indices=indices, block_id=block_id)

    def __len__(self) -> int:
        return sum(1 for _ in self)


def tile_cloud(cloud: PointCloud, radius: float, stride: float) -> Tiling:
    """Tile a cloud with cylinders on the sliding-window grid of its xy extent.

    Block ids are the row-major grid indices; empty cells are skipped but
    keep their id reserved so ids stay stable across configurations. The
    grid and the radius are checked here; the blocks are cropped as the
    returned tiling is iterated.
    """
    if cloud.n == 0:
        raise EmptyInput("cannot tile an empty point cloud")
    centers = sliding_window_centers(cloud.positions[:, :2].min(axis=0), cloud.positions[:, :2].max(axis=0), stride)
    return Tiling(cloud.positions, centers, radius)
