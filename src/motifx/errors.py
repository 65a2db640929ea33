"""Exception types shared across the package, and the file reads and writes that raise them."""
import json


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


class InvariantError(MotifxError):
    """An internal contract was violated (e.g. a motif class missing from the null probabilities)."""


class DependencyError(MotifxError):
    """A command needs an artifact that an earlier command has not produced."""


class ConfigError(MotifxError):
    """A configuration value is outside the range the pipeline can run with."""


class CheckpointError(MotifxError, ValueError):
    """A checkpoint is unreadable, not JSON, of another format, lacks a key or holds bad data."""


def read_text(path, error: type[MotifxError]) -> str:
    """The UTF-8 text of the file at `path`, line ends as written; a file that cannot be
    opened or decoded raises `error`, naming it."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: cannot be read as UTF-8 text ({exc})") from exc


def write_text(path, text: str, error: type[MotifxError]) -> None:
    """Write `text` to the file at `path` as UTF-8, line ends as given; a file that
    cannot be written raises `error`, naming it."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise error(f"{path}: cannot be written ({exc})") from exc


def read_json(path, error: type[MotifxError]):
    """`read_text`'s text, decoded; text that is not JSON or nests too deep raises `error`."""
    try:
        return json.loads(read_text(path, error))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{path}: not JSON ({exc})") from exc
