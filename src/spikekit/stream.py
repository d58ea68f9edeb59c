"""Core spike-stream types, the bit-exact ``.dat`` codec, and clip windowing.

A spike stream is a binary tensor S(t, y, x) of per-pixel, per-poll spike
flags. On disk it is a headerless packed bitstream: elements flattened in
(t, y, x) order with x fastest, 8 spikes per byte, MSB first, a single
zero-padded byte at the end. Dimensions travel separately in a
``StreamMeta``, which ``write_dat`` persists as a ``.meta.json`` sidecar.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataIOError, PreconditionError
from .jsonio import checked, read_json, write_bytes, write_json

META_SUFFIX = ".meta.json"


def is_binary(arr) -> bool:
    """True when every element of ``arr`` is exactly 0 or 1."""
    arr = np.asarray(arr)
    if arr.dtype.kind in "biu":     # a range check; unsigned needs no min
        return bool((arr.dtype.kind == "u" or arr.min(initial=0) >= 0)
                    and arr.max(initial=0) <= 1)
    return bool(((arr == 0) | (arr == 1)).all())


def read_only(arr: np.ndarray) -> np.ndarray:
    """Mark ``arr`` read-only and return it: how a producer hands the array
    it just made to a ``SpikeStream`` or ``IntensityVideo`` to own."""
    arr.flags.writeable = False
    return arr


def owned(raw, dtype) -> np.ndarray:
    """The one ownership rule of ``SpikeStream`` and ``IntensityVideo``.

    A read-only, C-contiguous ndarray of ``dtype`` is adopted as it is, so
    whoever made it must not make it writable again. Anything else (a
    writable array, another dtype, a non-contiguous array or a list) is
    copied into a read-only array of ``dtype`` that the value owns.
    """
    if (type(raw) is np.ndarray and raw.dtype == dtype
            and raw.flags.c_contiguous and not raw.flags.writeable):
        return raw
    return read_only(np.array(raw, dtype=dtype))


@dataclass(frozen=True)
class SpikeStream:
    """Binary spatiotemporal event tensor of shape [t_len, height, width].

    ``data`` holds one uint8 per logical element, each exactly 0 or 1, in
    a read-only array (see :func:`owned`). Operations return new streams.
    """

    data: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.data)
        # Checked before the uint8 cast, which would truncate or wrap.
        if not is_binary(raw):
            raise PreconditionError("spike stream elements must be 0 or 1")
        arr = owned(raw, np.uint8)
        if arr.ndim != 3:
            raise PreconditionError(
                f"spike stream must be 3-D [t, y, x], got shape {arr.shape}")
        if any(s < 1 for s in arr.shape):
            raise PreconditionError(
                f"all stream dimensions must be >= 1, got {arr.shape}")
        object.__setattr__(self, "data", arr)

    @property
    def t_len(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def n_elements(self) -> int:
        return self.data.size

    def spike_count(self) -> int:
        return int(self.data.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpikeStream):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(
            np.array_equal(self.data, other.data))


# The JSON kind of each sidecar field (see ``jsonio.is_a``).
_META_KINDS = {"height": "int", "width": "int", "t_len": "int",
               "threshold_theta": "float?", "tick_seconds": "float?"}


@dataclass(frozen=True)
class StreamMeta:
    """Sidecar metadata for a headerless ``.dat`` stream file."""

    height: int
    width: int
    t_len: int
    threshold_theta: float = 5.0
    tick_seconds: float | None = None

    def __post_init__(self):
        if self.height < 1 or self.width < 1 or self.t_len < 1:
            raise PreconditionError(
                f"stream dimensions must be positive, got "
                f"t_len={self.t_len}, height={self.height}, width={self.width}")
        if not 0 < self.threshold_theta < math.inf:
            raise PreconditionError(
                f"threshold_theta must be finite and > 0, got "
                f"{self.threshold_theta}")

    @property
    def n_elements(self) -> int:
        return self.t_len * self.height * self.width

    @property
    def packed_size(self) -> int:
        return (self.n_elements + 7) // 8

    @classmethod
    def for_stream(cls, stream: SpikeStream,
                   threshold_theta: float = 5.0) -> "StreamMeta":
        return cls(height=stream.height, width=stream.width,
                   t_len=stream.t_len, threshold_theta=threshold_theta)

    def to_json_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_json_dict(cls, obj) -> "StreamMeta":
        """The meta of a sidecar's JSON object. A missing dimension, or a
        field that is not of its JSON kind (``jsonio.is_a``), is a
        ``DataIOError``."""
        return cls(**checked(obj, _META_KINDS, "stream meta"))


@dataclass(frozen=True)
class ClipWindowSpec:
    """Sliding-window parameters for cutting long streams into clips."""

    window_len: int = 800
    stride: int = 200

    def __post_init__(self):
        if self.window_len < 1:
            raise PreconditionError("window_len must be >= 1")
        if self.stride < 1:
            raise PreconditionError("stride must be >= 1")


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------

def pack_spikes(stream: SpikeStream) -> bytes:
    """Pack a stream into the continuous MSB-first bitstream.

    Element order is (t, y, x) with x fastest; the final byte is
    zero-padded. Output length is ceil(t*h*w / 8) exactly.
    """
    return np.packbits(stream.data.ravel(order="C"), bitorder="big").tobytes()


def unpack_spikes(buf: bytes, meta: StreamMeta) -> SpikeStream:
    """Exact inverse of :func:`pack_spikes`; padding bits are discarded."""
    expected = meta.packed_size
    if len(buf) != expected:
        raise DataIOError(
            f"packed buffer has {len(buf)} bytes but meta "
            f"{meta.t_len}x{meta.height}x{meta.width} requires {expected}")
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8),
                         count=meta.n_elements, bitorder="big")
    return SpikeStream(read_only(bits).reshape(meta.t_len, meta.height,
                                               meta.width))


def write_dat(stream: SpikeStream, meta: StreamMeta, path) -> None:
    """Write the packed bitstream to ``path`` and ``meta`` to its sidecar.

    The file body is exactly the pack_spikes output; read_dat(write_dat(s))
    is the identity. Body and sidecar are each written whole or not at all
    (``jsonio.write_bytes``).
    """
    if (meta.t_len, meta.height, meta.width) != (
            stream.t_len, stream.height, stream.width):
        raise PreconditionError(
            f"meta dimensions {meta.t_len}x{meta.height}x{meta.width} do not "
            f"match stream {stream.t_len}x{stream.height}x{stream.width}")
    write_bytes(pack_spikes(stream), path)
    write_meta(meta, sidecar_path(path))


def read_dat(path, meta: StreamMeta) -> SpikeStream:
    """Read a headerless ``.dat`` file using externally supplied meta."""
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc
    if len(buf) != meta.packed_size:
        raise DataIOError(
            f"{path}: file has {len(buf)} bytes, expected {meta.packed_size} "
            f"for {meta.t_len}x{meta.height}x{meta.width} (truncated or wrong meta)")
    return unpack_spikes(buf, meta)


def sidecar_path(dat_path) -> str:
    base, _ = os.path.splitext(os.fspath(dat_path))
    return base + META_SUFFIX


def write_meta(meta: StreamMeta, path) -> None:
    write_json(meta.to_json_dict(), path)


def read_meta(path) -> StreamMeta:
    return StreamMeta.from_json_dict(read_json(path))


# ---------------------------------------------------------------------------
# Windowing
# ---------------------------------------------------------------------------

def clip_count(t_len: int, spec: ClipWindowSpec) -> int:
    if t_len < spec.window_len:
        raise PreconditionError(
            f"stream of {t_len} steps is shorter than window {spec.window_len}")
    return (t_len - spec.window_len) // spec.stride + 1


def slice_clips(stream: SpikeStream,
                spec: ClipWindowSpec) -> Iterator[SpikeStream]:
    """Cut a stream into overlapping clips, made one at a time as they are
    iterated; a stream shorter than one window raises at the call.

    Clip k covers [k*stride, k*stride + window_len); the clip count is
    floor((T - window_len) / stride) + 1. Each clip owns its storage: one
    copy of its window of the stream.
    """
    starts = range(0, clip_count(stream.t_len, spec) * spec.stride,
                   spec.stride)
    return (SpikeStream(read_only(stream.data[s:s + spec.window_len].copy()))
            for s in starts)


def subsample_indices(t_len: int, target_len: int) -> np.ndarray:
    """Uniformly spaced frame indices: idx[i] = floor(i * t_len / target_len)."""
    if target_len < 1:
        raise PreconditionError("target_len must be >= 1")
    if target_len > t_len:
        raise PreconditionError(
            f"target_len {target_len} exceeds stream length {t_len}")
    return (np.arange(target_len, dtype=np.int64) * t_len) // target_len


def subsample_temporal(stream: SpikeStream, target_len: int) -> SpikeStream:
    """Select target_len uniformly spaced frames, copied once.

    Binary values are preserved; no rebinning of spikes takes place, so
    spike statistics of the kept frames are untouched.
    """
    idx = subsample_indices(stream.t_len, target_len)
    return SpikeStream(read_only(stream.data[idx]))
