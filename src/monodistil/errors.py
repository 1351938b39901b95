"""Exception taxonomy shared by every module, and the one input-file reader.

Configuration problems, misuse of the API, and bad input data map to
distinct classes so the CLI can translate them into stable exit codes.
"""

from pathlib import Path


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


def read_text(path, what: str, error: type = DataError) -> str:
    """The UTF-8 text of the ``what`` input file at ``path``, newlines as
    stored. A path that is missing or cannot be read (a directory, say) or
    bytes that are not UTF-8 raise ``error`` naming the path."""
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise error(f"{what} file not found: {path}") from exc
    except OSError as exc:
        raise error(f"{what} file cannot be read ({exc.strerror}): {path}") from exc
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"invalid UTF-8 on line {line} of {what} file {path}") from exc
