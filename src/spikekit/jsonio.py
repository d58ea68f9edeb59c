"""The JSON artifact format: one reader and one writer for every module,
the one text reader, and the atomic file writer that every artifact goes
through.

Artifacts are UTF-8 JSON with 2-space indent and a trailing newline, hold
only finite numbers, and are written atomically.
Any failure to read, write or parse a file becomes a ``DataIOError``, so
the CLI reports it with exit code 3 instead of a traceback.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

from .errors import DataIOError


def write_bytes(data, path) -> None:
    """Write ``data``, bytes or another C-contiguous buffer such as a uint8
    array, to ``path`` whole or not at all: into a temporary file beside
    ``path`` that then replaces it, so a failure leaves any previous file
    as it was and no temporary file behind."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise DataIOError(f"cannot write {path}: {exc}") from exc


def write_json(obj, path) -> None:
    """Serialize ``obj``, refusing NaN and infinities, then write it."""
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise DataIOError(f"cannot write {path}: {exc}") from exc
    write_bytes((text + "\n").encode("utf-8"), path)


def read_text(path) -> str:
    """The UTF-8 text of ``path``, with newlines read as ``\\n``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataIOError(f"{path} is not UTF-8 text: {exc}") from exc


def read_json(path):
    text = read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:   # also an int of over 4,300 digits
        raise DataIOError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DataIOError(f"{path} nests JSON too deeply to read") from exc


def is_a(kind: str, value) -> bool:
    """Whether a JSON value is of ``kind``: "int", "float", "bool", "str",
    "dict", "list", "count" (an int >= 0) or "[k]" (a list of kind k, so
    "[[float]]" is a matrix). A bool is no number, 2.5 is no int, an int
    is a float, and a number is finite."""
    if kind.startswith("["):
        return isinstance(value, list) \
            and all(is_a(kind[1:-1], item) for item in value)
    if kind == "count":
        return is_a("int", value) and value >= 0
    if kind in ("bool", "str", "dict", "list") or isinstance(value, bool):
        return type(value).__name__ == kind
    return isinstance(value, int if kind == "int" else (int, float)) \
        and abs(value) <= sys.float_info.max


def checked(obj, kinds: dict[str, str], where: str) -> dict:
    """The fields ``kinds`` names of the JSON object ``obj``, each of its
    kind (see :func:`is_a`), with "float" fields as Python floats. A kind
    that ends in "?" marks a field that may be left out. Anything else is
    a ``DataIOError`` naming ``where``, the field and the start of the bad
    value's repr."""
    if not isinstance(obj, dict):
        raise DataIOError(f"{where} must be a JSON object, got {obj!r:.40}")
    out = {}
    for name, kind in kinds.items():
        if name not in obj:
            if kind.endswith("?"):
                continue
            raise DataIOError(f"{where} is missing field {name!r}")
        value, kind = obj[name], kind.removesuffix("?")
        if not is_a(kind, value):
            raise DataIOError(f"{where} field {name!r} must be {kind}, got "
                              f"{value!r:.40}")
        out[name] = float(value) if kind == "float" else value
    return out

