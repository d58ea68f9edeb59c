"""The JSON artifact format: one reader and one writer for every module.

Artifacts are UTF-8 JSON with 2-space indent and a trailing newline.
Any failure to read, write or parse a file becomes a ``DataIOError``, so
the CLI reports it with exit code 3 instead of a traceback.
"""

from __future__ import annotations

import json

from .errors import DataIOError


def write_json(obj, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise DataIOError(f"cannot write {path}: {exc}") from exc


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataIOError(f"{path} is not valid JSON: {exc}") from exc
