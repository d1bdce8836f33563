"""Exception types shared across the toolkit.

Each class carries the exit code the CLI returns for it, as ``exit_code``:
1 for a bad command-line option (UsageError), 3 for a backend-side failure
(BackendError and its subclass ReplayMiss, AuthError, LogCorrupt), and 2, a
data error, for every other ArgroundError.
"""


class ArgroundError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class UsageError(ArgroundError):
    """A command-line option that breaks its rule; raised before any input is read."""

    exit_code = 1


# --- schema / dataset ------------------------------------------------------

class InvalidArgumentMap(ArgroundError):
    """Outside data does not form an argument map (see schema.argument_map_from_obj)."""


class ParseError(ArgroundError):
    """Malformed catalog or dataset document; the message names the position."""


class SchemaInvalid(ArgroundError):
    """An API schema or slot violates its invariants, or two share an api_name."""


class DatasetInvalid(ArgroundError):
    """A dialogue record violates its invariants or does not fit its catalog."""


class DegenerateSplit(ArgroundError):
    """A split over no dialogues or an unknown holdout domain, or leaving a side empty."""


# --- model-output parsing --------------------------------------------------

class NoArgumentObject(ArgroundError):
    """Raw model output contains no balanced brace region."""


class MalformedArguments(ArgroundError):
    """A brace region was found but cannot be parsed even after relaxations."""

    def __init__(self, message: str, span: str = ""):
        super().__init__(f"{message}: {span!r}" if span else message)
        self.span = span


# --- scoring / metrics -----------------------------------------------------

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
    """Generation failed after retries."""

    exit_code = 3


class ReplayMiss(BackendError):
    """Replay log holds no record for this request."""


class AuthError(ArgroundError):
    """Authentication failure; never retried, and not a BackendError, so no run skips past it."""

    exit_code = 3


class LogCorrupt(ArgroundError):
    """Record log contains an unreadable entry."""

    exit_code = 3

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(f"{message} (byte offset {offset})" if offset is not None else message)
        self.offset = offset
