"""Exception taxonomy shared by every module.

Configuration problems, misuse of the API, and bad input data map to
distinct classes so the CLI can translate them into stable exit codes.
"""


class MonodistilError(Exception):
    """Base class for all package errors."""


class DimensionError(MonodistilError, ValueError):
    """Tensor shapes do not line up for the requested operation."""


class ConfigurationError(MonodistilError, ValueError):
    """A config value violates its documented constraint."""


class UsageError(MonodistilError, RuntimeError):
    """The API was called in an unsupported order or state."""


class DataError(MonodistilError, ValueError):
    """An input file or record could not be ingested."""


class NoMaskedPositionsError(MonodistilError, ValueError):
    """A masked loss was requested but no supervised positions exist."""


class TrainingDivergedError(MonodistilError):
    """Training produced a non-finite loss or non-finite parameters."""


class VocabularyError(MonodistilError, ValueError):
    """A token id or token set is inconsistent with the vocabulary."""


class EvaluationError(MonodistilError, ValueError):
    """Predictions and references cannot be compared as given."""


class CheckpointError(MonodistilError, RuntimeError):
    """Base class for checkpoint load/save failures."""


class CheckpointCorruptError(CheckpointError):
    """Payload bytes or manifest do not parse into a consistent model."""


class VocabMismatchError(CheckpointError):
    """Checkpoint was produced under a different vocabulary."""


class CheckpointShapeError(CheckpointError):
    """Tensor table disagrees with the shapes implied by the config."""
