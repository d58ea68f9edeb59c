"""Toolkit exception hierarchy, mapped to CLI exit codes."""


class SpikeKitError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class PreconditionError(SpikeKitError):
    """An operation was called with inputs that violate its contract."""

    exit_code = 2


class DataIOError(SpikeKitError):
    """A file could not be read, written, or has the wrong size/format."""

    exit_code = 3
