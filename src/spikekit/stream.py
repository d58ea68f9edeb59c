"""Core spike-stream types, the bit-exact ``.dat`` codec, and clip windowing.

A spike stream is a binary tensor S(t, y, x) of per-pixel, per-poll spike
flags. On disk it is a headerless packed bitstream: elements flattened in
(t, y, x) order with x fastest, 8 spikes per byte, MSB first, a single
final byte whose padding bits are zero. Dimensions travel separately in a
``StreamMeta``, which ``write_dat`` persists as a ``.meta.json`` sidecar.

In memory a ``SpikeStream`` holds the ``.dat`` body itself: one read-only
uint8 array of ceil(T*H*W/8) bytes whose padding bits are zero. So the
codec writes and adopts those bytes as they are, and a frame range is
unpacked from the bytes that hold it. Only this module knows the layout:
producers hand it binary frames one at a time (``SpikeStream.from_frames``)
or a whole body, and consumers unpack only the frames they read
(``SpikeStream.unpack``). Eight frames are H*W whole bytes of the body, so
``from_frames`` packs eight frames at a time, and a frame that does not
fill whole bytes is repacked only when frames are sliced or subsampled.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataIOError, PreconditionError, in_index_range
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


class SpikeStream:
    """Binary spatiotemporal event tensor of shape [t_len, height, width].

    The spikes are held packed as the ``.dat`` body (see the module
    docstring). ``SpikeStream(array)`` checks an outside array and packs
    its frames with :meth:`from_frames`; :meth:`unpack` and :attr:`data`
    give frames back.
    Operations return new streams.
    """

    __slots__ = ("_body", "_shape")

    def __init__(self, data):
        raw = np.asarray(data)
        # Checked before packing, which would turn 2 or 0.5 into a spike.
        if not is_binary(raw):
            raise PreconditionError("spike stream elements must be 0 or 1")
        if raw.ndim != 3:
            raise PreconditionError(
                f"spike stream must be 3-D [t, y, x], got shape {raw.shape}")
        packed = self.from_frames(
            (frame.astype(np.bool_, copy=False) for frame in raw), raw.shape)
        self._body, self._shape = packed._body, packed._shape

    @classmethod
    def _of_body(cls, body: np.ndarray,
                 shape: tuple[int, int, int]) -> "SpikeStream":
        """The stream that owns ``body``, a body made in this module."""
        stream = cls.__new__(cls)
        stream._body = read_only(body)
        stream._shape = tuple(shape)
        return stream

    @classmethod
    def from_frames(cls, frames: Iterable[np.ndarray],
                    shape: tuple[int, int, int]) -> "SpikeStream":
        """The stream of ``shape`` [t_len, H, W] whose frames are, in order,
        the t_len boolean [H, W] arrays of ``frames``. They are copied into
        one buffer and packed eight at a time, so a producer may refill its
        own; booleans are bits, so no binary check runs. Anything else, or
        a ``shape`` that is not three dimensions of at least 1, is a
        ``PreconditionError``."""
        if len(shape) != 3 or any(s < 1 for s in shape):
            raise PreconditionError(
                f"stream shape must be 3 dimensions, each >= 1, got {shape}")
        t_len, height, width = shape
        body = np.empty(in_index_range((t_len * height * width + 7) // 8,
                                       "a stream body's bytes"),
                        dtype=np.uint8)
        buf = np.empty((8, height, width), dtype=np.bool_)
        t = 0
        for frame in frames:
            if not (isinstance(frame, np.ndarray) and frame.dtype == np.bool_
                    and frame.shape == (height, width)):
                raise PreconditionError(
                    f"frames must be boolean [{height}, {width}] arrays")
            if t == t_len:
                raise PreconditionError(f"got more than {t_len} frames")
            buf[t % 8] = frame
            t += 1
            if t % 8 == 0 or t == t_len:
                # Eight frames are H*W whole bytes, so a group starts on one.
                bits = np.packbits(buf[:(t - 1) % 8 + 1], bitorder="big")
                body[(t - 1) // 8 * height * width:][:len(bits)] = bits
        if t != t_len:
            raise PreconditionError(f"got {t} of {t_len} frames")
        return cls._of_body(body, shape)

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
        [n, H, W] of 0s and 1s: a consumer unpacks only what it reads.
        ``0 <= start <= stop <= t_len`` must hold."""
        t_len, h, w = self._shape
        if not 0 <= start <= stop <= t_len:
            raise PreconditionError(
                f"frames [{start}, {stop}) are not a range in [0, {t_len})")
        first, end = start * h * w, stop * h * w
        bits = np.unpackbits(self._body[first // 8:(end + 7) // 8],
                             bitorder="big")
        return read_only(bits[first % 8:][:end - first].reshape(-1, h, w))

    @property
    def data(self) -> np.ndarray:
        """The whole stream unpacked, [t_len, H, W]: a new read-only uint8
        array on each access, eight times the size of the stream."""
        return self.unpack(0, self.t_len)

    def spike_count(self) -> int:
        return int(_POPCOUNT[self._body].sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpikeStream):
            return NotImplemented
        # Padding bits are zero, so equal bodies are equal spikes.
        return self._shape == other._shape and bool(
            np.array_equal(self._body, other._body))


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

def pack_spikes(stream: SpikeStream) -> memoryview:
    """The stream's continuous MSB-first bitstream, the ``.dat`` body, as a
    read-only view of the bytes the stream holds.

    Element order is (t, y, x) with x fastest; the final byte is
    zero-padded. Output length is ceil(t*h*w / 8) exactly.
    """
    return memoryview(stream._body)


def unpack_spikes(buf, meta: StreamMeta) -> SpikeStream:
    """Exact inverse of :func:`pack_spikes` on any bytes-like ``buf``. A
    buffer that is not the meta's packed size, or whose final byte has a
    padding bit set, is a ``DataIOError``. The stream adopts ``buf`` when
    it is ``bytes``; any other buffer, which its owner could still change,
    is copied once."""
    expected = meta.packed_size
    if len(buf) != expected:
        raise DataIOError(
            f"packed buffer has {len(buf)} bytes but meta "
            f"{meta.t_len}x{meta.height}x{meta.width} requires {expected}")
    body = np.frombuffer(buf, dtype=np.uint8)
    padding = 8 * expected - meta.n_elements
    if body[-1] & ((1 << padding) - 1):
        raise DataIOError(f"the {padding} padding bit(s) of the final byte "
                          f"must be zero")
    if not isinstance(buf, bytes):
        body = body.copy()
    return SpikeStream._of_body(body, (meta.t_len, meta.height, meta.width))


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
    """Read a headerless ``.dat`` file using externally supplied meta.

    The file's size must be the meta's packed size, which is checked
    before anything is read, and the padding bits of its final byte must
    be zero (``unpack_spikes``); anything else is a ``DataIOError`` that
    names the file. The body is read once and the stream adopts it.
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
            body = fh.read(expected)
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc
    try:
        return unpack_spikes(body, meta)    # checks the length read
    except DataIOError as exc:
        raise DataIOError(f"{path}: {exc}") from exc


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
    return (_take_frames(stream, np.arange(s, s + spec.window_len))
            for s in starts)


def subsample_indices(t_len: int, target_len: int) -> np.ndarray:
    """Uniformly spaced frame indices: idx[i] = floor(i * t_len / target_len)."""
    if target_len < 1:
        raise PreconditionError("target_len must be >= 1")
    if target_len > t_len:
        raise PreconditionError(
            f"target_len {target_len} exceeds stream length {t_len}")
    in_index_range((target_len - 1) * t_len, "frame index products")
    return (np.arange(target_len, dtype=np.int64) * t_len) // target_len


def subsample_temporal(stream: SpikeStream, target_len: int) -> SpikeStream:
    """Select target_len uniformly spaced frames, copied once.

    Binary values are preserved; no rebinning of spikes takes place, so
    spike statistics of the kept frames are untouched.
    """
    return _take_frames(stream, subsample_indices(stream.t_len, target_len))


def _take_frames(stream: SpikeStream, idx: np.ndarray) -> SpikeStream:
    """The stream of frames ``idx`` of ``stream``, copied once. Frames that
    fill whole bytes are byte rows of the body. Others are unpacked one at
    a time and packed again by ``SpikeStream.from_frames``."""
    t_len, h, w = stream._shape
    if h * w % 8 == 0:
        rows = stream._body.reshape(t_len, -1)
        return SpikeStream._of_body(rows[idx].reshape(-1), (len(idx), h, w))
    return SpikeStream.from_frames(
        (stream.unpack(i, i + 1)[0].view(np.bool_) for i in idx),
        (len(idx), h, w))
