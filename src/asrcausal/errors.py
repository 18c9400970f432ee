"""Typed error hierarchy for the toolkit.

Every data-level failure raises a ``ToolkitError`` subclass carrying a
stable machine-readable ``code``, so callers (and the CLI, which maps
these to exit code 1) can dispatch without parsing messages.  Malformed
input never yields a partially constructed value: validation raises
before any object escapes.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all data-level errors."""

    code = "E_ERROR"

    def __init__(self, message: str, *, record_id: str | None = None):
        self.record_id = record_id
        if record_id is not None:
            message = f"{message} (record {record_id!r})"
        super().__init__(message)


class SchemaError(ToolkitError):
    """Missing, mistyped, or out-of-range field in an input document."""

    code = "E_SCHEMA"

    def __init__(self, message: str, *, line: int | None = None,
                 record_id: str | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message, record_id=record_id)


class DuplicateIdError(ToolkitError):
    code = "E_DUPLICATE_ID"


class EmptyInputError(ToolkitError):
    code = "E_EMPTY"


class CycleError(ToolkitError):
    code = "E_CYCLE"


class UnknownNodeError(ToolkitError):
    code = "E_UNKNOWN_NODE"


class SelfLoopError(ToolkitError):
    code = "E_SELF_LOOP"


class IoError(ToolkitError):
    code = "E_IO"


class EmptyReferenceError(ToolkitError):
    """Reference transcript has no tokens; WER is undefined at N=0."""

    code = "E_EMPTY_REF"


class MissingModelError(ToolkitError):
    code = "E_MISSING_MODEL"


class ZeroPosteriorError(ToolkitError):
    """A phone's summed posterior is zero on some frame, so its log is
    undefined; callers may opt into the 1e-10 floor instead."""

    code = "E_ZERO_POSTERIOR"


class TooShortError(ToolkitError):
    code = "E_TOO_SHORT"


class SilentAudioError(ToolkitError):
    code = "E_SILENT"


class TooFewValuesError(ToolkitError):
    code = "E_TOO_FEW"


class MissingVariableError(ToolkitError):
    code = "E_MISSING_VARIABLE"


class NotNormalizedError(ToolkitError):
    code = "E_NOT_NORMALIZED"


class UnknownLevelError(ToolkitError):
    code = "E_UNKNOWN_LEVEL"


class EmptyStratumError(ToolkitError):
    """A required (treatment, adjustment-set) cell has no observations."""

    code = "E_EMPTY_STRATUM"


class InvalidSpecError(ToolkitError):
    code = "E_INVALID_SPEC"


class StateExplosionError(ToolkitError):
    """Exact enumeration refused: joint state space exceeds 10**7."""

    code = "E_STATE_EXPLOSION"
