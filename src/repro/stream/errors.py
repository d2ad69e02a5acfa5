"""Errors of the out-of-core streaming subsystem."""

from __future__ import annotations


class StreamError(Exception):
    """A streaming pipeline was misconfigured or fed inconsistent state."""


class CheckpointError(StreamError):
    """A checkpoint file is unreadable or belongs to a different run."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint payload failed CRC or schema-version verification.

    Distinct from a *missing* checkpoint: corruption means the file was
    written and then damaged (torn write, bit rot, a crash mid-rename),
    and resuming from it would silently produce a half-marked relation.
    The error names the file and the byte offset where verification
    failed so operators can inspect the damage; resume falls back to the
    last verified (``.prev``) checkpoint when one survives.
    """

    def __init__(self, path, reason: str, offset: int = 0):
        self.path = str(path)
        self.reason = reason
        self.offset = offset
        super().__init__(
            f"corrupt checkpoint {self.path} (offset {offset}): {reason}"
        )

    def __reduce__(self):
        return (CheckpointCorruptError, (self.path, self.reason, self.offset))


class BadRowError(StreamError, ValueError):
    """A CSV record could not be parsed under the declared schema.

    Subclasses ``ValueError`` for compatibility with the historical
    ``parse_row`` arity error; carries the 1-based data-row number so
    ``on_bad_rows='quarantine'`` sidecars and error messages can point
    at the exact line.
    """

    def __init__(self, path, number: int, reason: str):
        self.path = str(path)
        self.number = number
        self.reason = reason
        super().__init__(f"{self.path}: bad CSV row {number}: {reason}")

    def __reduce__(self):
        # Exceptions pickle as ``cls(*args)`` by default, which would
        # re-call this three-argument __init__ with just the message;
        # parallel workers raise BadRowError across the process boundary,
        # so spell out the real constructor arguments.
        return (BadRowError, (self.path, self.number, self.reason))
