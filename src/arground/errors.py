"""Exception types shared across the toolkit.

Grouping matters for the CLI exit-code policy: backend-side failures
(BackendError and friends, AuthError, LogCorrupt) map to exit 3, every
other ArgroundError maps to exit 2 (data error).
"""


class ArgroundError(Exception):
    """Base class for all toolkit errors."""


# --- schema / dataset ------------------------------------------------------

class InvalidKey(ArgroundError):
    """A key canonicalizes to the empty string."""


class InvalidArgumentMap(ArgroundError):
    """Outside data does not form an argument map (see schema.argument_map_from_obj)."""


class ParseError(ArgroundError):
    """Malformed catalog or dataset document."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class DuplicateApi(ArgroundError):
    """Two catalog entries share an api_name."""


class SchemaInvalid(ArgroundError):
    """An API schema or slot violates its invariants."""


class DatasetInvalid(ArgroundError):
    """A dialogue record violates its invariants."""


# --- model-output parsing --------------------------------------------------

class NoArgumentObject(ArgroundError):
    """Raw model output contains no balanced brace region."""


class MalformedArguments(ArgroundError):
    """A brace region was found but cannot be parsed even after relaxations."""

    def __init__(self, message: str, span: str = ""):
        super().__init__(f"{message}: {span!r}" if span else message)
        self.span = span


# --- scoring / metrics -----------------------------------------------------

class GoldSchemaMismatch(ArgroundError):
    """A gold argument key does not exist in the schema (dataset bug)."""


class EmptyCorpus(ArgroundError):
    """A corpus-level metric was asked to score zero samples."""


class AlignmentError(ArgroundError):
    """Predictions and references cannot be aligned by index/id."""


class InvalidBreakdown(ArgroundError):
    """A serialized error breakdown that classify_errors could not have written."""


# --- prompting -------------------------------------------------------------

class EmptySlotResponse(ArgroundError):
    """A slot-prompt reply contained no usable line."""


# --- generation backends ---------------------------------------------------

class BackendError(ArgroundError):
    """Generation failed after retries; carries the failing slot if any."""

    def __init__(self, message: str, slot: str | None = None):
        super().__init__(message)
        self.slot = slot


class ReplayMiss(BackendError):
    """Replay log holds no record for this request's content hash."""


class AuthError(ArgroundError):
    """Authentication failure; never retried."""


class LogCorrupt(ArgroundError):
    """Record log contains an unreadable entry."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(f"{message} (byte offset {offset})" if offset is not None else message)
        self.offset = offset


# --- dataset splitting -----------------------------------------------------

class EmptyDataset(ArgroundError):
    """Split requested over zero dialogues."""


class DegenerateSplit(ArgroundError):
    """Split would leave one side empty."""


class UnknownDomain(ArgroundError):
    """Holdout domain not present in the data or the synonym map."""
