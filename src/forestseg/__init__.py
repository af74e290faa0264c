"""Forest point-cloud instance and semantic segmentation pipeline.

Library layout; each name is imported from the module that defines it:

* :mod:`forestseg.core` -- point clouds, sparse voxel grids, point-to-voxel labels
* :mod:`forestseg.tiling` -- cylindrical crops and sliding-window centers
* :mod:`forestseg.isa_select` -- the embedding space, oracle embeddings, query point selection
* :mod:`forestseg.losses` -- loss stack with analytic gradients
* :mod:`forestseg.merging` -- score-based block merging and voting
* :mod:`forestseg.metrics` -- detection scores, coverage, semantic mIoU
* :mod:`forestseg.synthgen` -- synthetic forests and the oracle predictor
* :mod:`forestseg.pipeline` -- end-to-end orchestration
* :mod:`forestseg.io` -- PLY/TSV/JSON readers and writers
* :mod:`forestseg.errors` -- error classes and their exit codes
* :mod:`forestseg.cli` -- the `forestseg` command
"""
