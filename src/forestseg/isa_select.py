"""The embedding space and query point selection in it.

The guided strategy first drops voxels whose tree probability falls below a
threshold, then runs FPS in the per-voxel 5-D embedding space so that every
tree cluster is reached early. Plain FPS over voxel centers in Euclidean
space is kept as the baseline. The oracle embeddings, which stand in for the
network, place each instance on a lattice codebook spaced by the push margin
of the discriminative loss.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .core import SparseVoxelization, VoxelLabels
from .errors import CodebookExhausted, ConfigError, InvalidGeometry, NoTreeVoxels, ShapeMismatch

EMBEDDING_DIM = 5
# Push margin of the discriminative loss (De Brabandere et al., 2017):
# instance centers closer than 2 * DELTA_D repel each other.
DELTA_D = 1.5
# Oracle instance codes are integer 5-vectors with coordinates below this; one
# code goes to the background, so a scene may hold LATTICE_EXTENT**5 - 1 trees.
LATTICE_EXTENT = 10


@dataclass(eq=False)
class EmbeddingField:
    """Per-voxel 5-D embedding plus tree probability in [0, 1]."""

    embeddings: npt.NDArray[np.float64]
    tree_prob: npt.NDArray[np.float64]

    def __post_init__(self) -> None:
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.tree_prob = np.asarray(self.tree_prob, dtype=np.float64)
        if self.embeddings.ndim != 2 or self.embeddings.shape[1] != EMBEDDING_DIM:
            raise ShapeMismatch(
                f"embeddings must have shape (M, {EMBEDDING_DIM}), got {self.embeddings.shape}"
            )
        if self.tree_prob.shape != (len(self.embeddings),):
            raise ShapeMismatch("tree_prob length must match the embedding count")
        if not np.all(np.isfinite(self.embeddings)):
            raise InvalidGeometry("embeddings contain NaN or Inf")
        if self.tree_prob.size and (self.tree_prob.min() < 0 or self.tree_prob.max() > 1):
            raise InvalidGeometry("tree probabilities must lie in [0, 1]")


def _lattice_codes(count: int) -> npt.NDArray[np.float64]:
    """First ``count`` nonnegative integer 5-vectors ordered by (L1 norm, lex).

    Distinct vectors differ by L1 distance >= 1, so scaling by 2 * DELTA_D
    yields codes at least the push margin apart.
    """
    if count > LATTICE_EXTENT**EMBEDDING_DIM:
        raise CodebookExhausted(f"{count} codes requested but lattice extent {LATTICE_EXTENT} "
                                f"offers only {LATTICE_EXTENT**EMBEDDING_DIM}")
    vecs: list[tuple[int, ...]] = []
    shell = 0
    while len(vecs) < count:
        width = min(LATTICE_EXTENT, shell + 1)
        vecs.extend(
            sorted(v for v in itertools.product(range(width), repeat=EMBEDDING_DIM) if sum(v) == shell)
        )
        shell += 1
    return np.array(vecs[:count], dtype=np.float64)


def oracle_embeddings(
    vox: SparseVoxelization,
    gt: VoxelLabels,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> EmbeddingField:
    """Per-voxel embeddings clustered by instance, plus binary tree probability.

    Every instance receives a fixed 5-D code with pairwise L1 distance at
    least the push margin ``2 * DELTA_D``; background voxels sit at the
    origin code. Gaussian noise of the given sigma is added per voxel, and
    tree probabilities are exact 0/1 indicators.
    """
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ConfigError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if gt.m != vox.m:
        raise ConfigError(f"labels cover {gt.m} voxels but the grid has {vox.m}")
    rng = np.random.default_rng(seed)
    present = np.unique(gt.instance[gt.instance >= 1])
    codes = _lattice_codes(len(present) + 1) * (2 * DELTA_D)
    table = np.zeros((int(gt.instance.max(initial=0)) + 1, EMBEDDING_DIM))
    table[0] = codes[0]
    for i, uid in enumerate(present):
        table[uid] = codes[i + 1]
    emb = table[gt.instance].copy()
    if noise_sigma > 0:
        emb += rng.normal(0.0, noise_sigma, size=emb.shape)
    return EmbeddingField(embeddings=emb, tree_prob=(gt.instance >= 1).astype(np.float64))


@dataclass(eq=False)
class QuerySelection:
    """Selected voxel indices in selection order."""

    voxel_indices: npt.NDArray[np.int64]
    method: str
    k_requested: int

    def __post_init__(self) -> None:
        self.voxel_indices = np.asarray(self.voxel_indices, dtype=np.int64)

    @property
    def k(self) -> int:
        return len(self.voxel_indices)


def filter_tree_voxels(field: EmbeddingField, threshold: float) -> npt.NDArray[np.int64]:
    """Indices of voxels with tree probability >= threshold, ascending.

    Raises:
        NoTreeVoxels: nothing passes the threshold; selection aborts.
    """
    if not 0 <= threshold <= 1:
        raise ConfigError(f"threshold must be in [0, 1], got {threshold}")
    candidates = np.flatnonzero(field.tree_prob >= threshold)
    if len(candidates) == 0:
        raise NoTreeVoxels(f"no voxel has tree probability >= {threshold}")
    return candidates


def fps(points, k: int) -> npt.NDArray[np.int64]:
    """Greedy farthest-point sampling from point 0, returning indices in selection order.

    Each pick maximizes the minimum Euclidean distance to the already-selected
    set; ties break toward the lowest index. Requesting more points than exist
    truncates to the point count.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ShapeMismatch(f"points must be 2-D, got shape {pts.shape}")
    n = len(pts)
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if n == 0:
        raise ConfigError("cannot sample from an empty point set")
    k = min(k, n)
    selected = np.empty(k, dtype=np.int64)
    min_dist = np.full(n, np.inf)
    nxt = 0
    for i in range(k):
        selected[i] = nxt
        # Squared distances preserve the max-min ordering exactly.
        diff = pts - pts[nxt]
        np.minimum(min_dist, np.einsum("ij,ij->i", diff, diff), out=min_dist)
        min_dist[nxt] = -np.inf
        nxt = int(np.argmax(min_dist))
    return selected


def select_queries_isa(field: EmbeddingField, k: int, threshold: float = 0.5) -> QuerySelection:
    """Guided selection: filter non-tree voxels, then FPS in embedding space
    from the lowest-index candidate."""
    candidates = filter_tree_voxels(field, threshold)
    local = fps(field.embeddings[candidates], k)
    return QuerySelection(voxel_indices=candidates[local], method="isa", k_requested=k)


def select_queries_fps_euclidean(vox: SparseVoxelization, k: int) -> QuerySelection:
    """Baseline: plain Euclidean FPS over all voxel centers from voxel 0, no filtering."""
    indices = fps(vox.voxel_centers(), k)
    return QuerySelection(voxel_indices=indices, method="fps_euclidean", k_requested=k)


@dataclass(frozen=True)
class SelectionStats:
    """Coverage of ground-truth instances and tree purity of a selection.

    ``coverage_rate`` is None when the block contains no instances (the
    ratio is undefined, not zero).
    """

    coverage_rate: float | None
    tree_voxel_ratio: float


def selection_stats(sel: QuerySelection, gt: VoxelLabels) -> SelectionStats:
    """Fraction of instances hit by the selection, and tree-voxel purity."""
    if sel.k and sel.voxel_indices.max() >= gt.m:
        raise ShapeMismatch("selection references voxels beyond the label arrays")
    selected_ids = gt.instance[sel.voxel_indices]
    present = np.unique(gt.instance[gt.instance >= 1])
    if len(present) == 0:
        coverage = None
    else:
        hit = np.unique(selected_ids[selected_ids >= 1])
        coverage = float(len(hit) / len(present))
    ratio = float(np.mean(selected_ids >= 1)) if sel.k else 0.0
    return SelectionStats(coverage_rate=coverage, tree_voxel_ratio=ratio)
