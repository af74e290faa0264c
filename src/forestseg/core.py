"""Point-cloud and sparse-voxel-grid types, voxelization, and point-to-voxel
label aggregation.

Coordinates are meters in float64. Voxel keys are ``floor(p / resolution)``
as signed 64-bit integers with the origin at world (0, 0, 0), so forest plots
spanning hundreds of meters stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .errors import (
    ConfigError,
    EmptyInput,
    InvalidGeometry,
    InvalidLabel,
    MissingLabels,
    ShapeMismatch,
)

GROUND = 0
WOOD = 1
LEAF = 2
SEMANTIC_NAMES = {GROUND: "ground", WOOD: "wood", LEAF: "leaf"}
N_CLASSES = len(SEMANTIC_NAMES)
# The domain each label column must keep, as its error message states it.
_LABEL_RULES = {"instance": "instance ids must be >= 0",
                "semantic": "semantic classes must be in {0 (ground), 1 (wood), 2 (leaf)}"}


def _as_float_positions(positions) -> npt.NDArray[np.float64]:
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ShapeMismatch(f"positions must have shape (N, 3), got {pos.shape}")
    return pos


def _as_labels(values, name: str, n: int) -> npt.NDArray[np.int64]:
    arr = np.asarray(values, dtype=np.int64)
    if arr.shape != (n,):
        raise ShapeMismatch(f"{name} must have shape ({n},), got {arr.shape}")
    return arr


@dataclass(eq=False)
class PointCloud:
    """N points with xyz positions and optional per-point labels.

    ``semantic`` uses classes ground=0, wood=1, leaf=2. ``instance`` uses
    0 for unassigned (ground) and ids >= 1 for individual trees.
    """

    positions: npt.NDArray[np.float64]
    semantic: npt.NDArray[np.int64] | None = None
    instance: npt.NDArray[np.int64] | None = None

    def __post_init__(self) -> None:
        self.positions = _as_float_positions(self.positions)
        if not np.all(np.isfinite(self.positions)):
            raise InvalidGeometry("positions contain NaN or Inf coordinates")
        n = len(self.positions)
        if self.semantic is not None:
            self.semantic = _as_labels(self.semantic, "semantic", n)
            if self.semantic.size and not np.all(np.isin(self.semantic, (GROUND, WOOD, LEAF))):
                raise InvalidLabel(_LABEL_RULES["semantic"])
        if self.instance is not None:
            self.instance = _as_labels(self.instance, "instance", n)
            if self.instance.size and self.instance.min() < 0:
                raise InvalidLabel(_LABEL_RULES["instance"])
        if self.semantic is not None and self.instance is not None:
            on_tree = self.instance >= 1
            if np.any(on_tree & (self.semantic == GROUND)):
                raise InvalidLabel("points with instance >= 1 must be wood or leaf")
            if np.any(~on_tree & (self.semantic != GROUND)):
                raise InvalidLabel("points with instance 0 must be ground")

    @property
    def n(self) -> int:
        return len(self.positions)

    @property
    def has_labels(self) -> bool:
        return self.semantic is not None and self.instance is not None


@dataclass(eq=False)
class SparseVoxelization:
    """Occupied-voxel set at fixed resolution with the point-to-voxel map.

    ``voxel_keys`` are unique and lexicographically sorted; ``point_to_voxel``
    gives each point's row in ``voxel_keys``.
    """

    resolution: float
    voxel_keys: npt.NDArray[np.int64]
    point_to_voxel: npt.NDArray[np.int64]

    @property
    def m(self) -> int:
        return len(self.voxel_keys)

    @property
    def n(self) -> int:
        return len(self.point_to_voxel)

    def voxel_centers(self) -> npt.NDArray[np.float64]:
        """World-space center of each occupied voxel, shape (M, 3)."""
        return (self.voxel_keys.astype(np.float64) + 0.5) * self.resolution


@dataclass(eq=False)
class VoxelLabels:
    """Per-voxel semantic class and instance id (0 = none)."""

    semantic: npt.NDArray[np.int64]
    instance: npt.NDArray[np.int64]

    def __post_init__(self) -> None:
        self.semantic = np.asarray(self.semantic, dtype=np.int64)
        self.instance = np.asarray(self.instance, dtype=np.int64)
        if self.semantic.shape != self.instance.shape:
            raise ShapeMismatch("semantic and instance label arrays must have equal length")

    @property
    def m(self) -> int:
        return len(self.semantic)


def voxelize(cloud: PointCloud, resolution: float) -> SparseVoxelization:
    """Quantize a cloud onto a sparse grid of occupied voxels.

    Voxel order is deterministic: lexicographic by integer key.

    Raises:
        EmptyInput: the cloud has no points.
        ConfigError: resolution is not positive, or so small that a voxel
            key overflows int64.
    """
    if resolution <= 0 or not np.isfinite(resolution):
        raise ConfigError(f"resolution must be positive, got {resolution}")
    if cloud.n == 0:
        raise EmptyInput("cannot voxelize an empty point cloud")
    reach = float(np.abs(cloud.positions).max())
    if not reach / resolution < 2.0**63:  # also rejects the infinite quotient
        raise ConfigError(f"resolution must keep voxel keys within int64, got {resolution} "
                          f"for coordinates up to {reach}")
    keys = np.floor(cloud.positions / resolution).astype(np.int64)
    voxel_keys, inverse = np.unique(keys, axis=0, return_inverse=True)
    return SparseVoxelization(
        resolution=float(resolution),
        voxel_keys=voxel_keys,
        point_to_voxel=inverse.reshape(-1).astype(np.int64),
    )


def _majority_per_group(
    group_index: npt.NDArray[np.int64],
    values: npt.NDArray[np.int64],
    n_groups: int,
) -> npt.NDArray[np.int64]:
    # Majority value per group; ties resolved toward the lowest value.
    order = np.lexsort((values, group_index))
    g = group_index[order]
    v = values[order]
    new_pair = np.r_[True, (g[1:] != g[:-1]) | (v[1:] != v[:-1])]
    starts = np.flatnonzero(new_pair)
    counts = np.diff(np.r_[starts, len(g)])
    pair_group = g[starts]
    pair_value = v[starts]
    # Sorting by (group, -count, value) puts each group's winner first.
    winner_order = np.lexsort((pair_value, -counts, pair_group))
    first_of_group = np.r_[True, pair_group[winner_order][1:] != pair_group[winner_order][:-1]]
    out = np.empty(n_groups, dtype=np.int64)
    out[pair_group[winner_order][first_of_group]] = pair_value[winner_order][first_of_group]
    return out


def voxel_labels_from_points(vox: SparseVoxelization, cloud: PointCloud) -> VoxelLabels:
    """Aggregate per-point labels to voxels by majority vote.

    Ties break toward the lowest class or id value. Semantic and instance
    majorities are computed independently.
    """
    if cloud.semantic is None or cloud.instance is None:
        raise MissingLabels("cloud must carry both semantic and instance labels")
    if cloud.n != vox.n:
        raise ShapeMismatch(f"voxelization covers {vox.n} points, cloud has {cloud.n}")
    sem = _majority_per_group(vox.point_to_voxel, cloud.semantic, vox.m)
    inst = _majority_per_group(vox.point_to_voxel, cloud.instance, vox.m)
    return VoxelLabels(semantic=sem, instance=inst)
