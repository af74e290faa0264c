"""Exception hierarchy for the segmentation pipeline.

The base classes carry the CLI exit code:

* :class:`InputDataError` (2): malformed or inconsistent input data.
* :class:`ConfigError` (3): invalid or infeasible configuration.
* :class:`InternalInvariantError` (4): a pipeline invariant was violated.
"""

from __future__ import annotations


class ForestSegError(Exception):
    """Base class for all forestseg errors."""

    exit_code = 4


class InputDataError(ForestSegError):
    exit_code = 2


class ConfigError(ForestSegError):
    exit_code = 3


class InternalInvariantError(ForestSegError):
    exit_code = 4


class ParseError(InputDataError):
    """A file could not be parsed; the message names the offending line."""


class EmptyInput(InputDataError):
    """An operation received an empty point cloud or empty arrays."""


class InvalidGeometry(InputDataError):
    """Coordinates or numeric fields are non-finite or out of range."""


class MissingLabels(InputDataError):
    """Semantic or instance labels are required but absent."""


class ShapeMismatch(InputDataError):
    """Array lengths or dimensions do not line up."""


class InvalidLabel(InputDataError):
    """A semantic class or instance id is outside its valid domain."""


class UnknownBlock(InputDataError):
    """Block or mask ids are unknown, repeated or inconsistent."""


class Unvoted(InputDataError):
    """A point received no semantic votes."""


class NoGroundTruth(InputDataError):
    """Evaluation requires at least one ground-truth instance."""


class PlacementFailed(ConfigError):
    """Tree placement could not satisfy the minimum spacing."""
