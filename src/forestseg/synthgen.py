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

from .core import GROUND, LEAF, WOOD, PointCloud, _setting, _shown
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
            pair = getattr(self, name)
            try:
                lo, hi = pair
            except (TypeError, ValueError):
                raise ConfigError(f"{name} must be a (low, high) pair, got {_shown(pair, repr)}") from None
            message = (f"{name} must be a finite positive (low, high) range, "
                       f"got ({_shown(lo, repr)}, {_shown(hi, repr)})")
            lo, hi = (_setting(f"each {name} bound", bound, rule, message) for bound in (lo, hi))
            if not 0 < lo <= hi:
                raise ConfigError(message)
            object.__setattr__(self, name, (lo, hi))
        # Every point is held in memory at once, so the largest count the recipe allows is capped.
        tree_points = self.n_trees * max(self.points_per_tree_range[1], _UNDERSTORY_MIN_POINTS)
        if tree_points > MAX_SCENE_POINTS:
            raise ConfigError(f"n_trees and points_per_tree_range must allow at most {MAX_SCENE_POINTS:,} points, "
                              f"got up to {_shown(tree_points, '{:,}'.format)} tree points")
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


def _overlap_split(xy: npt.NDArray[np.float64], theta: float, take: int) -> list[npt.NDArray[np.bool_]]:
    # Random vertical plane through the xy centroid; each fragment takes its side plus the shared band
    # so the pair overlaps by SPLIT_OVERLAP. The fragments are the take lowest and highest projections,
    # as the two ends of a stable sort hold them: of the ties at a bound, the first keeps the front ones.
    s = (xy - xy.mean(axis=0)) @ np.array([np.cos(theta), np.sin(theta)])
    bounds = np.sort(s)
    low, high = bounds[take - 1], bounds[len(s) - take]
    first, last = s <= low, s >= high
    excess = np.count_nonzero(first) - take
    if excess:
        first[np.flatnonzero(s == low)[-excess:]] = False
    excess = np.count_nonzero(last) - take
    if excess:
        last[np.flatnonzero(s == high)[:excess]] = False
    return [first, last]


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
    coins would change none of them. A corrupted block takes two passes:
    the first makes every other draw from mask sizes alone, in the order of
    one loop over the masks; the second builds all masks as positions into
    the block's sorted ids with block-sized array operations, but for one
    sort of each split's projections. A noisy mask adds the points of its
    ranks in the ascending pool of the block's points outside it, which is
    never built: the ranks of all masks map to positions through one
    ``searchsorted``. ``point_indices`` are taken to be unique.
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
    runs = ends - starts
    if corruption.merge_prob == corruption.split_prob == corruption.point_noise == corruption.score_noise == 0:
        point_ids = by_tree[first:] if survives.all() else by_tree[first:][np.repeat(survives, runs)]
        sizes = runs[survives]
        return BlockMasks(point_ids, sizes, sizes / tree_sizes[present[survives]])

    # Pass 1: every other draw, from sizes alone. A tree is named by the index of its run.
    survivors, lengths = np.flatnonzero(survives).tolist(), runs.tolist()
    if not survivors:
        return BlockMasks()
    if corruption.merge_prob > 0:
        centroids = {r: cloud.positions[by_tree[starts[r]:ends[r]], :2].mean(axis=0) for r in survivors}
    consumed: set[int] = set()
    units: list[tuple[int, ...]] = []
    for r in survivors:
        if r in consumed:
            continue
        unit: tuple[int, ...] = (r,)
        if rng.random() < corruption.merge_prob:
            others = [v for v in survivors if v not in consumed and v != r]
            if others:
                dists = [float(np.hypot(*(centroids[v] - centroids[r]))) for v in others]
                unit = (r, others[int(np.argmin(dists))])
        consumed.update(unit)
        units.append(unit)
    angles, sizes = [], []  # per unit its split angle (None if kept whole), per mask its size
    for unit in units:
        m = sum(lengths[r] for r in unit)
        angles.append(rng.uniform(0.0, 2.0 * np.pi) if rng.random() < corruption.split_prob else None)
        sizes += [m] if angles[-1] is None else [min(m, max(1, int(np.ceil(m * (1.0 + SPLIT_OVERLAP) / 2.0))))] * 2
    n = len(pts)
    drops, ranks, score_noise = [], [], []
    for m in sizes:
        n_swap = int(rng.uniform(0.0, corruption.point_noise) * m) if corruption.point_noise > 0 else 0
        n_add = min(n_swap, n - m)
        drops.append(rng.choice(m, size=n_swap, replace=False) if n_swap else np.empty(0, dtype=np.int64))
        # choice draws the same ranks over range(n - m) as over the ascending pool of the other points.
        ranks.append(rng.choice(n - m, size=n_add, replace=False) if n_add else np.empty(0, dtype=np.int64))
        if corruption.score_noise > 0:
            score_noise.append(rng.normal(0.0, corruption.score_noise))

    # Pass 2: each mask as positions into the sorted ids, its members in the order its drops index: a
    # tree's run keeps block order, and merged units and fragments are sorted. Offset by n per mask,
    # positions sort each mask within its own range of keys.
    in_order = bool((pts[1:] > pts[:-1]).all())
    ordered = pts if in_order else np.sort(pts)
    pos = order if in_order else np.searchsorted(ordered, by_tree)
    tree_pos = [pos[a:b] for a, b in zip(starts.tolist(), ends.tolist())]
    masks, sources = [], []
    for unit, theta in zip(units, angles):
        members = tree_pos[unit[0]] if len(unit) == 1 else np.sort(np.concatenate([tree_pos[r] for r in unit]))
        if theta is None:
            masks.append(members)
        else:
            fragments = _overlap_split(cloud.positions[ordered[members], :2], theta, sizes[len(masks)])
            masks += [members[f] if in_order else np.sort(members[f]) for f in fragments]
        sources += [(unit[0], unit[-1])] * (len(masks) - len(sources))
    sizes, offset = np.array(sizes), np.arange(len(masks)) * n
    key = np.repeat(offset, sizes) + np.concatenate(masks)
    if corruption.point_noise > 0:
        start = np.cumsum(sizes) - sizes
        dropped = np.concatenate(drops) + np.repeat(start, [len(drop) for drop in drops])
        # A member's sorted position less its rank in its mask counts the pool points before it; offset
        # by n + 1 per mask, these counts ascend across the block, and so do the sorted queries.
        before = (key if in_order else np.sort(key, kind="stable")) - np.arange(len(key))
        before += np.repeat(start + np.arange(len(masks)), sizes)
        query = np.sort(np.repeat(offset + np.arange(len(masks)), [len(r) for r in ranks]) + np.concatenate(ranks))
        of = query // (n + 1)  # the mask of each query
        added = query - of + np.searchsorted(before, query, side="right") - start[of]
        key = np.concatenate([np.delete(key, dropped), added])
        sizes += [len(rank) - len(drop) for rank, drop in zip(ranks, drops)]
    if corruption.point_noise > 0 or not in_order:
        key = np.sort(key, kind="stable")  # runs of sorted keys, which a stable sort merges
    mask_of = np.repeat(np.arange(len(masks)), sizes)
    key -= mask_of * n
    # Each mask's IoU with its source trees (a lone tree twice), the best one for a merged unit.
    source = present[np.array(sources).T]
    tree = (inst if in_order else cloud.instance[ordered])[key]
    inter = np.array([np.bincount(mask_of[tree == np.repeat(trees, sizes)], minlength=len(masks)) for trees in source])
    score = np.where(inter > 0, inter / (sizes + tree_sizes[source] - inter), 0.0).max(axis=0)
    if corruption.score_noise > 0:
        score = np.clip(score + score_noise, 0.0, 1.0)
    return BlockMasks(ordered[key], sizes, score)
