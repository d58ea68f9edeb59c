"""Toolkit exception hierarchy, mapped to CLI exit codes, and the size
check that makes a size past numpy's index range a ``MemoryError``."""

import sys


class SpikeKitError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class PreconditionError(SpikeKitError):
    """An operation was called with inputs that violate its contract."""

    exit_code = 2


class DataIOError(SpikeKitError):
    """A file could not be read, written, or has the wrong size/format."""

    exit_code = 3


def in_index_range(n: int, what: str) -> int:
    """``n``, the byte count or index that ``what`` reach ("a frame's
    bytes"), once it fits numpy's index type ``intp`` (``sys.maxsize``).
    Past it numpy raises ``ValueError`` or ``OverflowError``, and int64
    arithmetic wraps, so this raises the ``MemoryError`` that a size past
    the host's memory raises, which the CLI reports with exit code 2."""
    if n > sys.maxsize:
        raise MemoryError(   # a str() of over 4,300 digits raises
            f"{what} reach 2**{n.bit_length() - 1} or more, past numpy's "
            f"index range (below 2**{sys.maxsize.bit_length()})")
    return n
