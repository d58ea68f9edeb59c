"""Intensity-video file I/O.

Accepted input forms for a video: a directory of numbered 8-bit PGM (or
PNG-free grayscale) frames, a self-describing ``.npy`` array [T, H, W],
or a raw planar little-endian float32 file with a ``.meta.json`` sidecar
carrying ``t_len``/``height``/``width``.
"""

from __future__ import annotations

import os

import numpy as np

from .camera import IntensityVideo, to_grayscale
from .errors import DataIOError
from .jsonio import checked, read_json, write_bytes
from .stream import read_only


def quantize_u8(frame: np.ndarray) -> np.ndarray:
    """The 8-bit pixels a PGM frame stores for [0, 1] intensities;
    ``read_pgm`` reads them back as ``pixels / 255``."""
    return np.round(255.0 * np.clip(frame, 0.0, 1.0)).astype(np.uint8)


def write_pgm_frame(frame: np.ndarray, path) -> None:
    pixels = quantize_u8(frame)
    header = f"P5\n{frame.shape[1]} {frame.shape[0]}\n255\n".encode("ascii")
    write_bytes(header + pixels.tobytes(), path)


def write_pgm_clip(video: IntensityVideo, clip_dir) -> None:
    os.makedirs(clip_dir, exist_ok=True)
    for t in range(video.n_frames):
        write_pgm_frame(video.frames[t],
                        os.path.join(clip_dir, f"frame_{t:05d}.pgm"))


def read_pgm(path) -> np.ndarray:
    """Read a binary 8-bit PGM (or PPM, luma-converted) into a [0, 1]
    float frame."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataIOError(f"{path}: malformed PGM/PPM header")
        fields.append(data[start:pos])
    if fields[0] not in (b"P5", b"P6"):
        raise DataIOError(f"{path}: not a binary PGM/PPM file")
    channels = 3 if fields[0] == b"P6" else 1
    try:
        width, height, maxval = (int(f) for f in fields[1:])
    except ValueError as exc:
        raise DataIOError(f"{path}: malformed PGM/PPM header ({exc})") from exc
    if width < 1 or height < 1 or maxval != 255:
        raise DataIOError(f"{path}: only 8-bit PGM/PPM of positive size "
                          f"supported, got {width}x{height}, maxval {maxval}")
    pos += 1
    count = height * width * channels
    if len(data) - pos < count:
        raise DataIOError(f"{path}: truncated PGM/PPM body")
    body = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos)
    if channels == 3:
        rgb = body.reshape(height, width, 3).astype(np.float64) / 255.0
        return to_grayscale(rgb)
    return body.reshape(height, width).astype(np.float64) / 255.0


def read_pgm_clip(clip_dir) -> IntensityVideo:
    names = sorted(n for n in os.listdir(clip_dir)
                   if n.endswith((".pgm", ".ppm")))
    if not names:
        raise DataIOError(f"{clip_dir}: no .pgm/.ppm frames found")
    frames = [read_pgm(os.path.join(clip_dir, n)) for n in names]
    if len({f.shape for f in frames}) != 1:
        raise DataIOError(f"{clip_dir}: frames differ in size")
    return IntensityVideo(read_only(np.stack(frames)))


def read_video_raw(path) -> IntensityVideo:
    sidecar = os.fspath(path) + ".meta.json"
    meta = checked(read_json(sidecar), {"t_len": "int", "height": "int",
                                         "width": "int", "dtype": "str?"},
                   sidecar)
    shape = (meta["t_len"], meta["height"], meta["width"])
    if min(shape) < 1 or meta.get("dtype", "f32") != "f32":
        raise DataIOError(f"{sidecar}: a raw-video sidecar needs positive "
                          f"dimensions and dtype \"f32\", got {meta}")
    try:
        flat = np.fromfile(path, dtype="<f4")
    except OSError as exc:
        raise DataIOError(f"cannot read raw video {path}: {exc}") from exc
    if flat.size != shape[0] * shape[1] * shape[2]:
        raise DataIOError(
            f"{path}: {flat.size} values do not match sidecar shape {shape}")
    return IntensityVideo(read_only(flat.reshape(shape).astype(np.float64)))


def load_video(path) -> IntensityVideo:
    """Dispatch on path form: frame directory, .npy tensor, or raw+sidecar."""
    path_str = os.fspath(path)
    if os.path.isdir(path_str):
        return read_pgm_clip(path_str)
    if path_str.endswith(".npy"):
        try:
            arr = np.load(path_str)
        except (OSError, ValueError, EOFError) as exc:
            raise DataIOError(f"cannot read {path_str}: {exc}") from exc
        if arr.dtype.kind not in "biuf":
            raise DataIOError(f"{path_str}: video dtype {arr.dtype} is not "
                              f"bool, integer or float")
        if arr.ndim == 4 and arr.shape[3] == 3:
            arr = to_grayscale(arr)
        # The array is fresh from the file, so the video may own it.
        return IntensityVideo(read_only(np.asarray(arr, dtype=np.float64)))
    if os.path.exists(path_str + ".meta.json"):
        return read_video_raw(path_str)
    raise DataIOError(
        f"{path_str}: not a frame directory, .npy video, or raw file with "
        f".meta.json sidecar")
