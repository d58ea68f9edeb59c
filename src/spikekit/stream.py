"""Core spike-stream types, the bit-exact ``.dat`` codec, and clip windowing.

A spike stream is a binary tensor S(t, y, x) of per-pixel, per-poll spike
flags. On disk it is a headerless packed bitstream: elements flattened in
(t, y, x) order with x fastest, 8 spikes per byte, MSB first, a single
final byte whose padding bits are zero. Dimensions travel separately in a
``StreamMeta``, which ``write_dat`` persists as a ``.meta.json`` sidecar.

In memory a ``SpikeStream`` holds the same bits as one read-only uint8 row
per frame: ceil(H*W/8) bytes, MSB first, padding bits zero. When H*W is a
multiple of 8 the rows are exactly the ``.dat`` body, so the codec writes
and keeps the bytes as they are; otherwise it converts between the rows
and the continuous bitstream eight frames, H*W whole bytes of it, at a
time. Only this module knows the layout:
producers hand it binary frames (``SpikeStream.from_chunks``) or whole
rows, and consumers unpack only the frames they read
(``SpikeStream.unpack``).
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import DataIOError, PreconditionError
from .jsonio import checked, read_json, write_bytes, write_json

META_SUFFIX = ".meta.json"

# The number of set bits of each byte value: a popcount that numpy < 2.0,
# which has no ``np.bitwise_count``, can run.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def is_binary(arr) -> bool:
    """True when every element of ``arr`` is exactly 0 or 1."""
    arr = np.asarray(arr)
    if arr.dtype.kind in "biu":     # a range check; unsigned needs no min
        return bool((arr.dtype.kind == "u" or arr.min(initial=0) >= 0)
                    and arr.max(initial=0) <= 1)
    return bool(((arr == 0) | (arr == 1)).all())


def read_only(arr: np.ndarray) -> np.ndarray:
    """Mark ``arr`` read-only and return it: how a producer hands the array
    it just made to a value to own."""
    arr.flags.writeable = False
    return arr


def _pack(frames: np.ndarray) -> np.ndarray:
    """The packed rows [n, ceil(H*W/8)] of frames [n, H, W]; a nonzero
    element is a spike."""
    return np.packbits(frames.reshape(len(frames), -1), axis=1,
                       bitorder="big")


class SpikeStream:
    """Binary spatiotemporal event tensor of shape [t_len, height, width].

    The spikes are held packed, one read-only row of ceil(H*W/8) bytes per
    frame (see the module docstring). ``SpikeStream(array)`` checks an
    outside array and packs a copy of it; :meth:`unpack` and :attr:`data`
    give frames back. Operations return new streams.
    """

    __slots__ = ("_rows", "_shape")

    def __init__(self, data):
        raw = np.asarray(data)
        # Checked before packing, which would turn 2 or 0.5 into a spike.
        if not is_binary(raw):
            raise PreconditionError("spike stream elements must be 0 or 1")
        if raw.ndim != 3:
            raise PreconditionError(
                f"spike stream must be 3-D [t, y, x], got shape {raw.shape}")
        if any(s < 1 for s in raw.shape):
            raise PreconditionError(
                f"all stream dimensions must be >= 1, got {raw.shape}")
        self._rows = read_only(_pack(raw.astype(np.bool_, copy=False)))
        self._shape = raw.shape

    @classmethod
    def _of_rows(cls, rows: np.ndarray, height: int,
                 width: int) -> "SpikeStream":
        """The stream that owns ``rows``, packed rows made in this module."""
        stream = cls.__new__(cls)
        stream._rows = read_only(rows)
        stream._shape = (len(rows), height, width)
        return stream

    @classmethod
    def from_chunks(cls, chunks: Iterable[np.ndarray],
                    shape: tuple[int, int, int]) -> "SpikeStream":
        """The stream of ``shape`` [t_len, H, W] whose frames are, in order,
        those of ``chunks``: boolean arrays [n, H, W] that together hold
        t_len frames. Each chunk is packed as it arrives, so a producer may
        refill one buffer; booleans are bits, so no binary check runs."""
        t_len, height, width = shape
        rows = np.empty((t_len, (height * width + 7) // 8), dtype=np.uint8)
        t = 0
        for chunk in chunks:
            rows[t:t + len(chunk)] = _pack(chunk)
            t += len(chunk)
        return cls._of_rows(rows, height, width)

    @property
    def t_len(self) -> int:
        return self._shape[0]

    @property
    def height(self) -> int:
        return self._shape[1]

    @property
    def width(self) -> int:
        return self._shape[2]

    @property
    def n_elements(self) -> int:
        return math.prod(self._shape)

    def unpack(self, start: int, stop: int) -> np.ndarray:
        """Frames ``start`` to ``stop - 1`` as a new read-only uint8 array
        [n, H, W] of 0s and 1s: a consumer unpacks only what it reads."""
        _, h, w = self._shape
        rows = self._rows[start:stop]
        return read_only(np.unpackbits(rows, axis=1, count=h * w,
                                       bitorder="big").reshape(-1, h, w))

    @property
    def data(self) -> np.ndarray:
        """The whole stream unpacked, [t_len, H, W]: a new read-only uint8
        array on each access, eight times the size of the stream."""
        return self.unpack(0, self.t_len)

    def spike_count(self) -> int:
        return int(_POPCOUNT[self._rows].sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpikeStream):
            return NotImplemented
        # Padding bits are zero, so equal rows are equal spikes.
        return self._shape == other._shape and bool(
            np.array_equal(self._rows, other._rows))


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

def _whole_bytes(height: int, width: int) -> bool:
    """True when a frame fills whole bytes, so the rows are the bitstream."""
    return height * width % 8 == 0


def pack_spikes(stream: SpikeStream) -> memoryview:
    """Pack a stream into the continuous MSB-first bitstream, returned as
    a read-only bytes-like view.

    Element order is (t, y, x) with x fastest; the final byte is
    zero-padded. Output length is ceil(t*h*w / 8) exactly. When frames fill
    whole bytes the view is of the stream's rows themselves. Otherwise
    eight frames, which are H*W whole bytes of the bitstream, are packed
    into a new buffer at a time.
    """
    if _whole_bytes(stream.height, stream.width):
        body = stream._rows.reshape(-1)
    else:
        hw = stream.height * stream.width
        body = np.empty((stream.n_elements + 7) // 8, dtype=np.uint8)
        for t in range(0, stream.t_len, 8):
            piece = np.packbits(stream.unpack(t, t + 8), bitorder="big")
            body[t // 8 * hw:][:len(piece)] = piece
    return memoryview(read_only(body))


def unpack_spikes(buf, meta: StreamMeta) -> SpikeStream:
    """Exact inverse of :func:`pack_spikes` on any bytes-like ``buf``;
    padding bits are discarded. When frames do not fill whole bytes, eight
    frames, H*W whole bytes, are unpacked at a time."""
    expected = meta.packed_size
    if len(buf) != expected:
        raise DataIOError(
            f"packed buffer has {len(buf)} bytes but meta "
            f"{meta.t_len}x{meta.height}x{meta.width} requires {expected}")
    if _whole_bytes(meta.height, meta.width):
        # bytes(buf) is buf itself when it is bytes, else an immutable
        # copy, so the stream can keep it.
        rows = np.frombuffer(bytes(buf), dtype=np.uint8).reshape(
            meta.t_len, -1)
        return SpikeStream._of_rows(rows, meta.height, meta.width)
    hw = meta.height * meta.width
    rows = np.empty((meta.t_len, (hw + 7) // 8), dtype=np.uint8)
    for t in range(0, meta.t_len, 8):
        n = min(8, meta.t_len - t)
        piece = np.frombuffer(buf, dtype=np.uint8, count=(n * hw + 7) // 8,
                              offset=t // 8 * hw)
        rows[t:t + n] = _pack(np.unpackbits(piece, count=n * hw,
                                            bitorder="big").reshape(n, hw))
    return SpikeStream._of_rows(rows, meta.height, meta.width)


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


def _read_rows(fh, meta: StreamMeta) -> tuple[np.ndarray, bytes]:
    """The packed rows of ``meta``'s stream from the open ``.dat`` file
    ``fh``, and the file's final byte. Frames that fill whole bytes are
    read at once. Others are read and unpacked eight frames, H*W whole
    bytes, at a time, so only one such piece is held besides the rows."""
    if _whole_bytes(meta.height, meta.width):
        body = fh.read(meta.packed_size)
        return unpack_spikes(body, meta)._rows, body[-1:]
    rows = np.empty((meta.t_len, (meta.height * meta.width + 7) // 8),
                    dtype=np.uint8)
    for t in range(0, meta.t_len, 8):
        part = replace(meta, t_len=min(8, meta.t_len - t))
        piece = fh.read(part.packed_size)
        rows[t:t + part.t_len] = unpack_spikes(piece, part)._rows
    return rows, piece[-1:]


def read_dat(path, meta: StreamMeta) -> SpikeStream:
    """Read a headerless ``.dat`` file using externally supplied meta.

    The file's size must be the meta's packed size, which is checked
    before anything is read, and the padding bits of its final byte must
    be zero; anything else is a ``DataIOError``.
    """
    expected = meta.packed_size
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != expected:
                raise DataIOError(
                    f"{path}: file has {size} bytes, expected {expected} "
                    f"for {meta.t_len}x{meta.height}x{meta.width} "
                    f"(truncated or wrong meta)")
            rows, last = _read_rows(fh, meta)
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc
    pad = 8 * expected - meta.n_elements
    if last[0] & ((1 << pad) - 1):
        raise DataIOError(f"{path}: the {pad} padding bit(s) of the final "
                          f"byte must be zero")
    return SpikeStream._of_rows(rows, meta.height, meta.width)


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
    return (SpikeStream._of_rows(stream._rows[s:s + spec.window_len].copy(),
                                 stream.height, stream.width)
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
    return SpikeStream._of_rows(stream._rows[idx], stream.height,
                                stream.width)
