"""Flat binary weight archive: one little-endian float32 blob per tensor.

A directory holds ``manifest.json``, a list of {name, dtype, shape}
records, plus one ``<name>.bin`` file per tensor; a name holding a path
separator (``/`` or ``\\``) or a NUL, or named by two records, does not
load. Tensors are loaded back as float64 for numerically tight forward
passes; the on-disk dtype stays f32, and a blob that holds NaN or an
infinity does not load. Each file is written whole or not at all
(``jsonio.write_bytes``).
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import DataIOError
from .jsonio import checked, read_json, write_bytes, write_json

MANIFEST_NAME = "manifest.json"


def save_weights(weights: dict[str, np.ndarray], directory) -> None:
    os.makedirs(directory, exist_ok=True)
    manifest = []
    for name in sorted(weights):
        arr = np.asarray(weights[name], dtype="<f4")
        write_bytes(arr.tobytes(), os.path.join(directory, name + ".bin"))
        manifest.append({"name": name, "dtype": "f32",
                         "shape": list(arr.shape)})
    write_json(manifest, os.path.join(directory, MANIFEST_NAME))


def load_weights(directory) -> dict[str, np.ndarray]:
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    manifest = read_json(manifest_path)
    if not isinstance(manifest, list):
        raise DataIOError(f"{manifest_path}: manifest must be a JSON list")

    weights = {}
    for entry in manifest:
        record = checked(entry, {"name": "str", "shape": "[count]",
                                 "dtype": "str?"},
                         f"{manifest_path}: tensor record")
        name, shape = record["name"], tuple(record["shape"])
        # The blob is <name>.bin in this directory: a name with a path
        # separator could reach outside it, and the OS refuses a NUL.
        if set(name) & {"/", "\\", "\0"}:
            raise DataIOError(f"{manifest_path}: tensor record name "
                              f"{name!r} is not a file name")
        if name in weights:
            raise DataIOError(f"{manifest_path}: tensor {name!r} is named "
                              f"by more than one record")
        if record.get("dtype", "f32") != "f32":
            raise DataIOError(f"{name}: unsupported dtype {record['dtype']}")
        blob = os.path.join(directory, name + ".bin")
        try:
            flat = np.fromfile(blob, dtype="<f4")
        except OSError as exc:
            raise DataIOError(f"cannot read {blob}: {exc}") from exc
        expected = math.prod(shape)
        if flat.size != expected:
            raise DataIOError(
                f"{blob}: has {flat.size} values, manifest says {expected}")
        if not np.isfinite(flat).all():
            raise DataIOError(f"{blob}: holds a non-finite value")
        try:    # numpy refuses some shapes of no values, such as (0, 2**63)
            weights[name] = flat.reshape(shape).astype(np.float64)
        except ValueError as exc:
            raise DataIOError(f"{blob}: cannot take shape {shape}: "
                              f"{exc}") from exc
    return weights
