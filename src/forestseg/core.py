"""Point clouds, semantic classes, label checks, and the rules of id arrays and numeric settings.

Coordinates are meters in float64.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .errors import ConfigError, InvalidGeometry, InvalidLabel, ShapeMismatch

GROUND = 0
WOOD = 1
LEAF = 2
SEMANTIC_NAMES = {GROUND: "ground", WOOD: "wood", LEAF: "leaf"}
N_CLASSES = len(SEMANTIC_NAMES)
# The domain each label column must keep, as its error message states it.
_LABEL_RULES = {"instance": "instance ids must be >= 0",
                "semantic": "semantic classes must be in {0 (ground), 1 (wood), 2 (leaf)}"}
# Each rule a numeric setting may keep: the number type it needs, its test, and its statement in a message.
_SETTING_RULES = {
    "[0, 1]": (numbers.Real, lambda v: 0 <= v <= 1, "in [0, 1]"),
    # Written so that NaN fails too; tiling and boundary discard square a length.
    "length": (numbers.Real, lambda v: v > 0 and math.isfinite(v * v), "positive with a finite square"),
    "finite >= 0": (numbers.Real, lambda v: math.isfinite(v) and v >= 0, "finite and >= 0"),
    ">= 0": (numbers.Real, lambda v: v >= 0, ">= 0"),
    "int >= 0": (numbers.Integral, lambda v: v >= 0, ">= 0"),
    "int >= 1": (numbers.Integral, lambda v: v >= 1, ">= 1"),
}


def _setting(name: str, value, rule: str, message: str | None = None) -> int | float:
    """``value`` as a Python number if it keeps the rule ``_SETTING_RULES[rule]``, else ConfigError (with
    ``message``, if given, for a number that breaks the rule).

    A bool is no number. An integer stays an ``int`` (a float setting takes it if a float can hold it), and
    any other real number becomes a ``float``, so numpy numbers serialize to JSON. The rule is tested on the
    value as given, as callers once tested it, and as returned, which a long double may not match."""
    kind, test, statement = _SETTING_RULES[rule]
    try:
        if isinstance(value, bool) or not isinstance(value, kind):
            raise TypeError
        number = int(value) if isinstance(value, numbers.Integral) else float(value)
        if kind is numbers.Real:
            float(number)  # an integer no float can hold raises OverflowError
    except (TypeError, OverflowError):
        raise ConfigError(f"{name} must be {'an integer' if kind is numbers.Integral else 'a float'}, "
                          f"got {value!r}") from None
    try:
        kept = test(value) and test(number)
    except OverflowError:  # the square of an integer too large for a float
        kept = False
    if not kept:
        raise ConfigError(message or f"{name} must be {statement}, got {value}")
    return number


def _int64_ids(values: npt.ArrayLike, what: str) -> npt.NDArray[np.int64]:
    """``values`` as int64, if it holds integers that fit int64; otherwise ShapeMismatch.

    Converting with ``dtype=np.int64`` would truncate fractions and read
    booleans as 0 and 1, so a nonempty array must have an integer dtype and
    no uint64 value above 2**63 - 1. An empty array may have any dtype, as
    ``np.asarray([])`` is float64.
    """
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        raise ShapeMismatch(f"{what} must be integers, got dtype {array.dtype}")
    if array.size and array.dtype.kind == "u" and array.max() > np.iinfo(np.int64).max:
        raise ShapeMismatch(f"{what} must fit int64, got {array.max()}")
    return array.astype(np.int64, copy=False)


def _as_float_positions(positions) -> npt.NDArray[np.float64]:
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ShapeMismatch(f"positions must have shape (N, 3), got {pos.shape}")
    return pos


def _as_labels(values, name: str, n: int) -> npt.NDArray[np.int64]:
    arr = _int64_ids(values, name)
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
