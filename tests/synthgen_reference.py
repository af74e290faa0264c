"""Set-operation reference for ``forestseg.synthgen.oracle_predictor``, and
loop references for tree placement in ``forestseg.synthgen.generate_forest``
and for the crop of each ``forestseg.tiling.tile_cloud`` block.

The oracle here draws each noisy mask's pool with ``np.setdiff1d`` over the
whole block, joins members with ``np.union1d``, finds each tree's points with
``np.flatnonzero`` over the whole cloud and scores with ``np.intersect1d``.
The fast predictor must return exactly the masks this returns, and consume the
same random stream.
"""

import numpy as np

from forestseg.errors import ConfigError, MissingLabels, PlacementFailed
from forestseg.merging import InstanceMask
from forestseg.synthgen import CorruptionParams, _overlap_split
from forestseg.tiling import CylinderBlock


def reference_place_centers(params, rng):
    centers = []
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
    return np.array(centers)


def reference_cylinder_crop(cloud, center_xy, radius, block_id=0):
    """The block of the points within horizontal distance ``radius`` of the center, or None when there are none."""
    if radius <= 0:
        raise ConfigError(f"radius must be positive, got {radius}")
    center = np.asarray(center_xy, dtype=np.float64).reshape(2)
    delta = cloud.positions[:, :2] - center
    inside = (delta[:, 0] ** 2 + delta[:, 1] ** 2) <= radius**2
    indices = np.flatnonzero(inside)
    if len(indices) == 0:
        return None
    return CylinderBlock(point_indices=indices, block_id=block_id)


def reference_oracle_predictor(block, cloud, corruption=CorruptionParams(), seed=0):
    if not cloud.has_labels:
        raise MissingLabels("oracle predictor requires ground-truth labels on the cloud")
    rng = np.random.default_rng(seed)
    pts = block.point_indices
    inst = cloud.instance[pts]
    present = np.unique(inst[inst >= 1])
    if len(present) == 0:
        return []

    local = {int(uid): pts[inst == uid] for uid in present}
    full = {int(uid): np.flatnonzero(cloud.instance == uid) for uid in present}

    survivors = [int(uid) for uid in present if rng.random() >= corruption.drop_prob]

    centroids = {uid: cloud.positions[local[uid], :2].mean(axis=0) for uid in survivors}
    consumed = set()
    units = []
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

    emitted = []
    for source, members in units:
        if rng.random() < corruption.split_prob:
            emitted.extend((source, frag) for frag in _overlap_split(cloud.positions, members, rng))
        else:
            emitted.append((source, members))

    result = []
    for query_index, (source, members) in enumerate(emitted):
        original = members
        if corruption.point_noise > 0 and len(members):
            n_swap = int(rng.uniform(0.0, corruption.point_noise) * len(members))
            if n_swap:
                drop_idx = rng.choice(len(members), size=n_swap, replace=False)
                kept = np.delete(members, drop_idx)
                pool = np.setdiff1d(pts, original, assume_unique=False)
                n_add = min(n_swap, len(pool))
                added = rng.choice(pool, size=n_add, replace=False) if n_add else np.empty(0, dtype=np.int64)
                members = np.union1d(kept, added)
        score = 0.0
        for uid in source:
            inter = len(np.intersect1d(members, full[uid], assume_unique=True))
            if inter:
                score = max(score, inter / (len(members) + len(full[uid]) - inter))
        if corruption.score_noise > 0:
            score = float(np.clip(score + rng.normal(0.0, corruption.score_noise), 0.0, 1.0))
        result.append(
            InstanceMask(point_ids=members, score=score, block_id=block.block_id, query_index=query_index)
        )
    return result
