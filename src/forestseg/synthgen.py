"""Deterministic synthetic forests and the oracle predictor for pipeline checks.

The generator builds multi-scale scenes (large canopy trees plus small
understory trees over a ground plane). The oracle emits per-block instance
masks whose quality degrades under controlled corruption, standing in for a
trained network so every downstream stage can be verified end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .core import GROUND, LEAF, WOOD, PointCloud, _setting
from .errors import ConfigError, MissingLabels, PlacementFailed
from .merging import BlockMasks
from .tiling import CylinderBlock

# Fraction of a split tree shared by both fragments. Keeping split pairs
# overlapping above typical NMS thresholds lets duplicate suppression see
# them; a disjoint split would be invisible to IoU-based NMS.
SPLIT_OVERLAP = 0.4
# The most points a ForestParams may ask for. Generating takes about 100 bytes
# per point, so the cap keeps a scene near 1 GB; the 480-tree, 80 m scene asks
# for at most 512,000.
MAX_SCENE_POINTS = 10_000_000
# An understory tree keeps at least this many points.
_UNDERSTORY_MIN_POINTS = 40


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
        # Numbers are stored as their rules return them, which JSON takes; the ground count squares plot_size.
        for name, rule in (("n_trees", "int >= 1"), ("plot_size", "length"), ("understory_fraction", "[0, 1]"),
                           ("ground_density", "finite >= 0"), ("min_spacing", "finite >= 0"), ("seed", "int >= 0")):
            object.__setattr__(self, name, _setting(name, getattr(self, name), rule))
        for name, rule in (("trunk_height_range", "finite >= 0"), ("crown_radius_range", "finite >= 0"),
                           ("points_per_tree_range", "int >= 0")):
            try:
                lo, hi = getattr(self, name)
            except (TypeError, ValueError):
                raise ConfigError(f"{name} must be a (low, high) pair, got {getattr(self, name)!r}") from None
            message = f"{name} must be a finite positive (low, high) range, got {(lo, hi)}"
            lo, hi = (_setting(f"each {name} bound", bound, rule, message) for bound in (lo, hi))
            if not 0 < lo <= hi:
                raise ConfigError(message)
            object.__setattr__(self, name, (lo, hi))
        # Every point is held in memory at once, so the largest count the recipe allows is capped.
        tree_points = self.n_trees * max(self.points_per_tree_range[1], _UNDERSTORY_MIN_POINTS)
        if tree_points > MAX_SCENE_POINTS:
            raise ConfigError(f"n_trees and points_per_tree_range must allow at most {MAX_SCENE_POINTS:,} points, "
                              f"got up to {tree_points:,} tree points")
        ground_points = self.ground_density * self.plot_size**2
        if not ground_points <= MAX_SCENE_POINTS - tree_points:
            raise ConfigError(f"ground_density must keep the scene within {MAX_SCENE_POINTS:,} points, got up to "
                              f"{tree_points:,} tree points and {ground_points:,.0f} ground points")


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
        for name, rule in (("split_prob", "[0, 1]"), ("merge_prob", "[0, 1]"), ("drop_prob", "[0, 1]"),
                           ("point_noise", "[0, 1]"), ("score_noise", "finite >= 0")):
            object.__setattr__(self, name, _setting(name, getattr(self, name), rule))


def _place_centers(params: ForestParams, rng: np.random.Generator) -> npt.NDArray[np.float64]:
    """Rejection-sample ``params.n_trees`` tree centers at least
    ``params.min_spacing`` apart, one uniform candidate per attempt; each
    candidate is checked against all placed centers in one vectorized call."""
    centers = np.empty((params.n_trees, 2))
    placed = 0
    max_attempts = 1000 + 200 * params.n_trees
    for _ in range(max_attempts):
        cand = rng.uniform(0.0, params.plot_size, size=2)
        if np.all(np.hypot(cand[0] - centers[:placed, 0], cand[1] - centers[:placed, 1]) >= params.min_spacing):
            centers[placed] = cand
            placed += 1
            if placed == params.n_trees:
                return centers
    raise PlacementFailed(
        f"placed {placed}/{params.n_trees} trees after {max_attempts} attempts; "
        f"min_spacing {params.min_spacing} m is infeasible on a {params.plot_size} m plot"
    )


def generate_forest(params: ForestParams) -> PointCloud:
    """Sample a labeled forest plot; fully deterministic given the seed.

    Trees are a vertical trunk segment (wood) topped by an ellipsoidal crown
    (leaf); tree centers are rejection-sampled to respect the minimum
    spacing. Ground points carry class ground and instance 0; tree points
    carry instance ids 1..n_trees in placement order.
    """
    rng = np.random.default_rng(params.seed)
    centers = _place_centers(params, rng)

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
            n_pts = max(_UNDERSTORY_MIN_POINTS, int(n_pts * 0.3))
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
) -> BlockMasks:
    """Emit one block's instance masks, packed, starting from ground truth.

    Corruption applies drops, then nearest-neighbor merges, then overlapping
    splits, then membership noise. Each mask's score is the IoU between the
    emitted mask and the full ground-truth mask of its source tree (best
    source for merged masks) plus clipped Gaussian noise, so scores
    correlate with quality the way the score supervision intends. In
    particular a tree clipped by the block boundary scores below 1 even
    without corruption.

    Per block, one stable argsort groups the points by tree, and the runs
    of that order name the trees present; the tree sizes are ``tree_sizes``
    (``np.bincount(cloud.instance)``, computed here when not given, so a
    caller predicting many blocks passes it once). The drop coins come from
    one draw of as many uniforms as there are trees, the stream of one draw
    per tree. Without merges, splits or noise the masks are the runs of the
    surviving trees, packed as the sort left them, each scored
    ``run length / tree size``: the draws a corrupted block makes after the
    coins would change none of them. A noisy mask draws its added points
    from the pool of the block's points outside the mask, in ascending
    order, so the random draws are those of a sorted set difference. The
    pool is never built: the draw picks ranks into it, and each rank maps to
    a point id through the mask's sorted positions among the block's ids, so
    a noisy mask costs O(mask log block).
    ``point_indices`` are taken to be unique.
    """
    if not cloud.has_labels:
        raise MissingLabels("oracle predictor requires ground-truth labels on the cloud")
    rng = np.random.default_rng(seed)
    pts = block.point_indices
    inst = cloud.instance[pts]
    # A stable sort by tree keeps each tree's points in block order; ground
    # (id 0) sorts first, and each tree's points form one run after it.
    order = np.argsort(inst, kind="stable")
    by_tree, tree_of = pts[order], inst[order]
    first = int(np.searchsorted(tree_of, 1))
    if first == len(tree_of):
        return BlockMasks()
    starts = np.flatnonzero(np.diff(tree_of[first:], prepend=-1)) + first
    ends = np.append(starts[1:], len(tree_of))
    present = tree_of[starts]
    if tree_sizes is None:
        tree_sizes = np.bincount(cloud.instance)
    survives = rng.random(len(present)) >= corruption.drop_prob
    if corruption == CorruptionParams(drop_prob=corruption.drop_prob):  # no merge, split or noise
        runs = ends - starts
        point_ids = by_tree[first:] if survives.all() else by_tree[first:][np.repeat(survives, runs)]
        sizes = runs[survives]
        return BlockMasks(point_ids, sizes, sizes / tree_sizes[present[survives]])

    local = {int(uid): by_tree[a:b] for uid, a, b in zip(present, starts, ends)}
    survivors = present[survives].tolist()

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

    if corruption.point_noise > 0:
        ordered = pts if (pts[1:] > pts[:-1]).all() else np.unique(pts)
    masks, scores = [], []
    for source, members in emitted:
        if corruption.point_noise > 0 and len(members):
            n_swap = int(rng.uniform(0.0, corruption.point_noise) * len(members))
            if n_swap:
                keep = np.ones(len(members), dtype=bool)
                keep[rng.choice(len(members), size=n_swap, replace=False)] = False
                kept = members[keep]
                n_pool = len(ordered) - len(members)
                n_add = min(n_swap, n_pool)
                added = np.empty(0, dtype=np.int64)
                if n_add:
                    # choice draws the same ranks over range(n_pool) as over the ascending pool of the
                    # block's other points. The rank-k pool point is found without building the pool:
                    # it follows k pool points and every member placed before it.
                    rank = rng.choice(n_pool, size=n_add, replace=False)
                    pool_before = np.sort(np.searchsorted(ordered, members)) - np.arange(len(members))
                    added = ordered[rank + np.searchsorted(pool_before, rank, side="right")]
                # kept and added are disjoint, so sorting their concatenation is their union.
                members = np.sort(np.concatenate([kept, added]))
        score = 0.0
        for uid in source:
            inter = int(np.count_nonzero(cloud.instance[members] == uid))
            if inter:
                score = max(score, inter / (len(members) + int(tree_sizes[uid]) - inter))
        if corruption.score_noise > 0:
            score = float(np.clip(score + rng.normal(0.0, corruption.score_noise), 0.0, 1.0))
        masks.append(members)
        scores.append(score)
    return BlockMasks.pack(masks, scores)
