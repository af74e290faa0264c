"""Point clouds, the semantic classes and per-point label checks.

Coordinates are meters in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .errors import InvalidGeometry, InvalidLabel, ShapeMismatch

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
