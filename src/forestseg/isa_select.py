"""Query point selection: semantic filtering plus farthest-point sampling.

The guided strategy first drops voxels whose tree probability falls below a
threshold, then runs FPS in the per-voxel 5-D embedding space so that every
tree cluster is reached early. Plain FPS over voxel centers in Euclidean
space is kept as the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .core import SparseVoxelization, VoxelLabels
from .errors import ConfigError, InvalidGeometry, NoTreeVoxels, ShapeMismatch

EMBEDDING_DIM = 5


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

    @property
    def m(self) -> int:
        return len(self.embeddings)


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


def fps(points, k: int, start_index: int = 0) -> npt.NDArray[np.int64]:
    """Greedy farthest-point sampling, returning indices in selection order.

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
    if not 0 <= start_index < n:
        raise ConfigError(f"start_index {start_index} out of range for {n} points")
    k = min(k, n)
    selected = np.empty(k, dtype=np.int64)
    min_dist = np.full(n, np.inf)
    nxt = start_index
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
