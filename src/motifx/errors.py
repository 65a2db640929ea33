"""Exception types shared across the package."""


class MotifxError(Exception):
    """Base class for all package errors."""


class IngestError(MotifxError):
    """A CSV row could not be parsed; message carries the line number."""


class SchemaError(MotifxError):
    """Input breaks the graph schema: column lengths, node ids, timestamps, attribute width."""


class ShapeError(MotifxError):
    """Array shapes are incompatible for an operation."""


class NonFiniteError(MotifxError):
    """A loss or gradient became NaN/Inf."""


class EnumerationLimitError(MotifxError):
    """Exhaustive enumeration refused: history larger than the size guard."""


class InvariantError(MotifxError):
    """An internal contract was violated (e.g. a motif class missing from the null probabilities)."""


class AdapterProtocolError(MotifxError):
    """External predictor broke the wire protocol (bad handshake, timeout, out-of-range value)."""


class DependencyError(MotifxError):
    """A command needs an artifact that an earlier command has not produced."""


class ConfigError(MotifxError):
    """A configuration value is outside the range the pipeline can run with."""


class CheckpointError(MotifxError, ValueError):
    """A checkpoint is not JSON, has another format, lacks a key, or holds bad data."""
