"""Forest point-cloud instance and semantic segmentation pipeline.

Library layout:

* :mod:`forestseg.core` -- point clouds, sparse voxel grids, point-to-voxel labels
* :mod:`forestseg.tiling` -- cylindrical crops and sliding-window centers
* :mod:`forestseg.isa_select` -- the embedding space, oracle embeddings, query point selection
* :mod:`forestseg.losses` -- loss stack with analytic gradients
* :mod:`forestseg.merging` -- score-based block merging and voting
* :mod:`forestseg.metrics` -- detection scores, coverage, semantic mIoU
* :mod:`forestseg.synthgen` -- synthetic forests and the oracle predictor
* :mod:`forestseg.pipeline` -- end-to-end orchestration
* :mod:`forestseg.io` -- PLY/TSV/JSON readers and writers
* :mod:`forestseg.cli` -- the `forestseg` command
"""

from .core import (
    GROUND,
    LEAF,
    WOOD,
    PointCloud,
    SparseVoxelization,
    VoxelLabels,
    voxel_labels_from_points,
    voxelize,
)
from .isa_select import (
    EmbeddingField,
    QuerySelection,
    SelectionStats,
    filter_tree_voxels,
    fps,
    oracle_embeddings,
    select_queries_fps_euclidean,
    select_queries_isa,
    selection_stats,
)
from .losses import (
    Association,
    LossBreakdown,
    bce_mask_loss,
    binary_tree_loss,
    compose_losses,
    dice_loss,
    discriminative_loss,
    one_to_many_associate,
    run_gradient_checks,
    score_loss,
    score_target,
    semantic_ce_loss,
)
from .merging import (
    BlockPrediction,
    InstanceMask,
    discard_boundary_masks,
    overlap_merge_baseline,
    resolve_points,
    score_filter,
    score_nms,
    semantic_vote_arrays,
)
from .metrics import (
    EvalReport,
    MatchResult,
    coverage,
    detection_scores,
    evaluate_labels,
    match_instances,
    semantic_miou,
)
from .pipeline import PipelineConfig, PipelineResult, run_pipeline, run_pipeline_from_blocks
from .synthgen import (
    CorruptionParams,
    ForestParams,
    generate_forest,
    oracle_predictor,
)
from .tiling import CylinderBlock, cylinder_crop, sliding_window_centers, tile_cloud

__version__ = "0.1.0"
