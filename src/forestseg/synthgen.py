"""Deterministic synthetic forests and the oracle predictor for pipeline checks.

The generator builds multi-scale scenes (large canopy trees plus small
understory trees over a ground plane). The oracle emits per-block instance
masks whose quality degrades under controlled corruption, standing in for a
trained network so every downstream stage can be verified end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .core import GROUND, LEAF, WOOD, PointCloud
from .errors import ConfigError, MissingLabels, PlacementFailed
from .merging import InstanceMask
from .tiling import CylinderBlock

# Fraction of a split tree shared by both fragments. Keeping split pairs
# overlapping above typical NMS thresholds lets duplicate suppression see
# them; a disjoint split would be invisible to IoU-based NMS.
SPLIT_OVERLAP = 0.4
_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class ForestParams:
    """Scene recipe; every field has a desk-scale default."""

    n_trees: int = 30
    plot_size: float = 20.0
    trunk_height_range: tuple[float, float] = (2.0, 6.0)
    crown_radius_range: tuple[float, float] = (0.8, 2.0)
    points_per_tree_range: tuple[int, int] = (300, 800)
    understory_fraction: float = 0.25
    ground_density: float = 20.0
    min_spacing: float = 1.5
    seed: int = 0

    def __post_init__(self) -> None:
        # Written so that NaN fails too; the ground sample count squares plot_size.
        if self.n_trees < 1:
            raise ConfigError("n_trees must be >= 1")
        if not (self.plot_size > 0 and math.isfinite(self.plot_size * self.plot_size)):
            raise ConfigError(f"plot_size must be positive with a finite square, got {self.plot_size}")
        for name in ("trunk_height_range", "crown_radius_range", "points_per_tree_range"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi < math.inf:
                raise ConfigError(f"{name} must be a finite positive (low, high) range, got {(lo, hi)}")
        if not 0.0 <= self.understory_fraction <= 1.0:
            raise ConfigError("understory_fraction must be in [0, 1]")
        if not (math.isfinite(self.ground_density) and self.ground_density >= 0):
            raise ConfigError(f"ground_density must be finite and >= 0, got {self.ground_density}")
        # Point counts are drawn and allocated as int64.
        high = self.points_per_tree_range[1]
        if high > _INT64_MAX:
            raise ConfigError(f"points_per_tree_range must have a high that fits int64, got {high}")
        n_ground = self.ground_density * self.plot_size**2
        if not (math.isfinite(n_ground) and round(n_ground) <= _INT64_MAX):
            raise ConfigError(f"ground_density must give a ground point count that fits int64, got {n_ground:g} points")
        if not self.min_spacing >= 0:
            raise ConfigError(f"min_spacing must be >= 0, got {self.min_spacing}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class CorruptionParams:
    """Error injection mirroring the usual failure modes of a predictor:
    over-segmentation (splits), under-segmentation (merges), missed trees
    (drops), membership noise, and score noise.

    ``point_noise`` is the upper bound of a per-mask noise fraction drawn
    uniformly from [0, point_noise], so a corrupted scene contains the whole
    quality spectrum from exact masks down to mostly-junk ones.
    """

    split_prob: float = 0.0
    merge_prob: float = 0.0
    drop_prob: float = 0.0
    point_noise: float = 0.0
    score_noise: float = 0.0

    def __post_init__(self) -> None:
        for name in ("split_prob", "merge_prob", "drop_prob", "point_noise"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if not (math.isfinite(self.score_noise) and self.score_noise >= 0):
            raise ConfigError(f"score_noise must be finite and >= 0, got {self.score_noise}")


def generate_forest(params: ForestParams) -> PointCloud:
    """Sample a labeled forest plot; fully deterministic given the seed.

    Trees are a vertical trunk segment (wood) topped by an ellipsoidal crown
    (leaf); tree centers are rejection-sampled to respect the minimum
    spacing. Ground points carry class ground and instance 0; tree points
    carry instance ids 1..n_trees in placement order.
    """
    rng = np.random.default_rng(params.seed)
    centers: list[np.ndarray] = []
    max_attempts = 1000 + 200 * params.n_trees
    attempts = 0
    while len(centers) < params.n_trees:
        attempts += 1
        if attempts > max_attempts:
            raise PlacementFailed(
                f"placed {len(centers)}/{params.n_trees} trees after {max_attempts} attempts; "
                f"min_spacing {params.min_spacing} m is infeasible on a {params.plot_size} m plot"
            )
        cand = rng.uniform(0.0, params.plot_size, size=2)
        if all(np.hypot(*(cand - c)) >= params.min_spacing for c in centers):
            centers.append(cand)

    n_under = int(round(params.understory_fraction * params.n_trees))
    under = np.zeros(params.n_trees, dtype=bool)
    if n_under:
        under[rng.choice(params.n_trees, size=n_under, replace=False)] = True

    positions = []
    semantic = []
    instance = []
    lo_pts, hi_pts = params.points_per_tree_range
    for t in range(params.n_trees):
        height = rng.uniform(*params.trunk_height_range)
        crown_r = rng.uniform(*params.crown_radius_range)
        n_pts = int(rng.integers(lo_pts, hi_pts + 1))
        if under[t]:
            height *= 0.35
            crown_r *= 0.45
            n_pts = max(40, int(n_pts * 0.3))
        n_trunk = max(8, int(0.3 * n_pts))
        n_crown = max(8, n_pts - n_trunk)

        trunk = np.empty((n_trunk, 3))
        trunk[:, :2] = centers[t] + rng.normal(0.0, 0.03, size=(n_trunk, 2))
        trunk[:, 2] = rng.uniform(0.0, height, size=n_trunk)

        crown_rz = 0.8 * crown_r
        direction = rng.normal(size=(n_crown, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radial = rng.uniform(0.0, 1.0, size=(n_crown, 1)) ** (1.0 / 3.0)
        crown = direction * radial * np.array([crown_r, crown_r, crown_rz])
        crown += np.array([centers[t][0], centers[t][1], height + 0.3 * crown_rz])

        positions.append(np.vstack([trunk, crown]))
        semantic.append(np.r_[np.full(n_trunk, WOOD), np.full(n_crown, LEAF)])
        instance.append(np.full(n_trunk + n_crown, t + 1))

    n_ground = int(round(params.ground_density * params.plot_size**2))
    if n_ground:
        ground = np.empty((n_ground, 3))
        ground[:, :2] = rng.uniform(0.0, params.plot_size, size=(n_ground, 2))
        ground[:, 2] = rng.uniform(0.0, 0.05, size=n_ground)
        positions.append(ground)
        semantic.append(np.full(n_ground, GROUND))
        instance.append(np.zeros(n_ground, dtype=np.int64))

    return PointCloud(
        positions=np.vstack(positions),
        semantic=np.concatenate(semantic),
        instance=np.concatenate(instance),
    )


def _overlap_split(
    positions: npt.NDArray[np.float64],
    members: npt.NDArray[np.int64],
    rng: np.random.Generator,
) -> list[npt.NDArray[np.int64]]:
    # Random vertical plane through the xy centroid; each fragment takes its
    # side plus the shared band so the pair overlaps by SPLIT_OVERLAP.
    theta = rng.uniform(0.0, 2.0 * np.pi)
    normal = np.array([np.cos(theta), np.sin(theta)])
    xy = positions[members, :2]
    s = (xy - xy.mean(axis=0)) @ normal
    order = np.argsort(s, kind="stable")
    m = len(members)
    take = min(m, max(1, int(np.ceil(m * (1.0 + SPLIT_OVERLAP) / 2.0))))
    return [np.sort(members[order[:take]]), np.sort(members[order[m - take:]])]


def oracle_predictor(
    block: CylinderBlock,
    cloud: PointCloud,
    corruption: CorruptionParams = CorruptionParams(),
    seed=0,
    tree_sizes: npt.NDArray[np.int64] | None = None,
) -> list[InstanceMask]:
    """Emit instance masks for one block, starting from ground truth.

    Corruption applies drops, then nearest-neighbor merges, then overlapping
    splits, then membership noise. Each mask's score is the IoU between the
    emitted mask and the full ground-truth mask of its source tree (best
    source for merged masks) plus clipped Gaussian noise, so scores
    correlate with quality the way the score supervision intends. In
    particular a tree clipped by the block boundary scores below 1 even
    without corruption.

    Per block, one stable argsort groups the points by tree; the tree sizes
    are ``tree_sizes`` (``np.bincount(cloud.instance)``, computed here when
    not given, so a caller predicting many blocks passes it once). After
    that a mask costs at most O(block). A noisy mask draws its added points
    from the block's points outside the mask, taken with a boolean mask over
    the block's ascending point ids, so the pool stays ascending and the
    random draws are those of a sorted set difference. ``point_indices`` are
    taken to be unique.
    """
    if not cloud.has_labels:
        raise MissingLabels("oracle predictor requires ground-truth labels on the cloud")
    rng = np.random.default_rng(seed)
    pts = block.point_indices
    inst = cloud.instance[pts]
    present = np.unique(inst[inst >= 1])
    if len(present) == 0:
        return []

    # A stable sort by tree keeps each tree's points in block order.
    order = np.argsort(inst, kind="stable")
    by_tree, tree_of = pts[order], inst[order]
    lo = np.searchsorted(tree_of, present, side="left")
    hi = np.searchsorted(tree_of, present, side="right")
    local = {int(uid): by_tree[a:b] for uid, a, b in zip(present, lo, hi)}
    if tree_sizes is None:
        tree_sizes = np.bincount(cloud.instance)
    ordered = pts if np.all(pts[1:] > pts[:-1]) else np.unique(pts)

    survivors = [int(uid) for uid in present if rng.random() >= corruption.drop_prob]

    centroids: dict[int, np.ndarray] = {}
    if corruption.merge_prob > 0:
        centroids = {uid: cloud.positions[local[uid], :2].mean(axis=0) for uid in survivors}
    consumed: set[int] = set()
    units: list[tuple[tuple[int, ...], np.ndarray]] = []
    for uid in survivors:
        if uid in consumed:
            continue
        if rng.random() < corruption.merge_prob:
            others = [v for v in survivors if v not in consumed and v != uid]
            if others:
                dists = [float(np.hypot(*(centroids[v] - centroids[uid]))) for v in others]
                partner = others[int(np.argmin(dists))]
                consumed.update((uid, partner))
                units.append(((uid, partner), np.sort(np.concatenate([local[uid], local[partner]]))))
                continue
        consumed.add(uid)
        units.append(((uid,), local[uid]))

    emitted: list[tuple[tuple[int, ...], np.ndarray]] = []
    for source, members in units:
        if rng.random() < corruption.split_prob:
            emitted.extend((source, frag) for frag in _overlap_split(cloud.positions, members, rng))
        else:
            emitted.append((source, members))

    result = []
    for query_index, (source, members) in enumerate(emitted):
        if corruption.point_noise > 0 and len(members):
            n_swap = int(rng.uniform(0.0, corruption.point_noise) * len(members))
            if n_swap:
                drop_idx = rng.choice(len(members), size=n_swap, replace=False)
                kept = np.delete(members, drop_idx)
                outside = np.ones(len(ordered), dtype=bool)
                outside[np.searchsorted(ordered, members)] = False
                pool = ordered[outside]
                n_add = min(n_swap, len(pool))
                added = rng.choice(pool, size=n_add, replace=False) if n_add else np.empty(0, dtype=np.int64)
                # kept and added are disjoint, so sorting their concatenation is their union.
                members = np.sort(np.concatenate([kept, added]))
        score = 0.0
        for uid in source:
            inter = int(np.count_nonzero(cloud.instance[members] == uid))
            if inter:
                score = max(score, inter / (len(members) + int(tree_sizes[uid]) - inter))
        if corruption.score_noise > 0:
            score = float(np.clip(score + rng.normal(0.0, corruption.score_noise), 0.0, 1.0))
        result.append(
            InstanceMask(point_ids=members, score=score, block_id=block.block_id, query_index=query_index)
        )
    return result
