"""The integrate-and-fire video-to-spike encoder.

The encoder accumulates per-frame intensities in [0, 1] against a
threshold theta (default 5.0), one [H, W] frame at a time, as the camera
polls its pixels, and hands each frame's spikes to
``SpikeStream.from_frames``, which alone knows how they are packed. The
continuous pixel model it discretizes, charge alpha * I(t) integrated
over wall-clock time and polled at a fixed tick, is the test suite's
reference (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .stream import SpikeStream, read_only

# Relative slack on the discrete-encoder threshold comparison. Decimal frame
# intensities (e.g. 0.6) round down in binary, so exact-arithmetic firing
# frames would otherwise be missed by one; slack far below any physical
# intensity scale restores them.
_THRESH_RTOL = 1e-9

GRAY_WEIGHTS = (0.299, 0.587, 0.114)


def in_unit_range(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr``, unless a value lies outside [0, 1], which is a
    ``PreconditionError``; NaN fails both tests."""
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise PreconditionError(f"{what} must be finite and lie in [0, 1]")
    return arr


def owned(raw, dtype) -> np.ndarray:
    """The ownership rule of ``IntensityVideo``.

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
class IntensityVideo:
    """Sequence of H x W grayscale frames with values in [0, 1], held in
    one read-only float64 [n, h, w] array (see :func:`owned`)."""

    frames: np.ndarray

    def __post_init__(self):
        arr = owned(self.frames, np.float64)
        if arr.ndim != 3 or arr.size == 0:
            raise PreconditionError(f"intensity video must be a non-empty "
                                    f"[n, h, w] array, got shape {arr.shape}")
        in_unit_range(arr, "intensity values")
        object.__setattr__(self, "frames", arr)


@dataclass(frozen=True)
class EncoderConfig:
    """Discrete encoder settings: threshold and additive-noise amplitude."""

    theta: float = 5.0
    noise_amplitude: float = 0.0

    def __post_init__(self):
        if not 0 < self.theta < math.inf:
            raise PreconditionError(
                f"theta must be finite and > 0, got {self.theta}")
        # The noise is drawn over the range 2a, which must be finite too.
        if not 0 <= 2 * self.noise_amplitude < math.inf:
            raise PreconditionError(
                f"noise_amplitude must be >= 0 with a finite range 2a, "
                f"got {self.noise_amplitude}")


# ---------------------------------------------------------------------------
# Discrete encoding
# ---------------------------------------------------------------------------

def encode_video(video: IntensityVideo, cfg: EncoderConfig = EncoderConfig(),
                 seed: int | None = None) -> SpikeStream:
    """Encode an intensity video into a spike stream by charge accumulation.

    Per pixel, V accumulates frame intensities; whenever V reaches theta a
    spike is emitted and theta is subtracted (soft reset). Optional noise of
    amplitude a is drawn per frame and pixel as ``-a + 2a * u``, with ``u``
    from ``Generator.random`` of ``default_rng(seed)``: numpy's own
    ``uniform(-a, a)`` formula on the same stream, so the values of
    ``Generator.uniform(-a, a)``. It is added to the intensity, and the
    result clamped back to [0, 1] before accumulation. The config requires
    a finite range ``2a``, and the noise seed must be non-negative. With
    noise_amplitude 0 the output is deterministic and seed-independent.

    The video's frames go to :func:`encode_frames`.
    """
    return encode_frames(video.frames, video.frames.shape, cfg, seed)


def encode_frames(frames: Iterable[np.ndarray], shape: tuple[int, int, int],
                  cfg: EncoderConfig = EncoderConfig(),
                  seed: int | None = None) -> SpikeStream:
    """The spike stream that :func:`encode_video` makes of the video of
    ``shape`` [t_len, H, W] whose float [H, W] frames of intensities in
    [0, 1] ``frames`` yields. The range is the producer's to check, as
    ``IntensityVideo`` and ``pipeline.encode_clip`` do; a second scan of
    each frame here cost ``stream-io`` about 7% of its pass.

    The noise-seed rules are checked at the call, before any frame is read.
    Each frame is encoded and handed to ``SpikeStream.from_frames`` before
    the next is read, so a producer may refill one buffer, and besides the
    packed body the loop holds only reused buffers. A frame that is not an
    [H, W] array, or frames that do not make ``shape``, are a
    ``PreconditionError``.
    """
    a = cfg.noise_amplitude
    rng = None
    if a > 0:
        if seed is None:
            raise PreconditionError("noise injection requires an explicit seed")
        if seed < 0:
            raise PreconditionError(
                f"the noise seed must be non-negative, got {seed}")
        rng = np.random.default_rng(seed)
    return SpikeStream.from_frames(_fired(frames, shape, cfg, rng), shape)


def _fired(frames: Iterable[np.ndarray], shape: tuple[int, int, int],
           cfg: EncoderConfig,
           rng: np.random.Generator | None) -> Iterator[np.ndarray]:
    """The spike flags of ``frames`` (see :func:`encode_frames`) in one
    [H, W] boolean buffer, refilled once its consumer has taken them. Each
    frame's noise is drawn into one reused [H, W] buffer."""
    a = cfg.noise_amplitude
    thresh = cfg.theta * (1.0 - _THRESH_RTOL)
    v = np.zeros(shape[1:], dtype=np.float64)
    spent = np.empty_like(v)
    fired = np.empty(v.shape, dtype=np.bool_)
    noise = None if rng is None else np.empty_like(v)
    for frame in frames:
        if not (isinstance(frame, np.ndarray) and frame.shape == v.shape):
            raise PreconditionError(
                f"frames must be [{v.shape[0]}, {v.shape[1]}] arrays")
        if noise is not None:
            rng.random(out=noise)
            noise *= 2 * a
            noise += -a
            noise += frame
            frame = np.clip(noise, 0.0, 1.0, out=noise)
        v += frame
        np.greater_equal(v, thresh, out=fired)
        # Subtract theta where fired and 0 elsewhere, which leaves V as it
        # is: the same bits as a masked subtraction, and faster.
        np.multiply(fired, cfg.theta, out=spent)
        v -= spent
        yield fired


def to_grayscale(rgb: np.ndarray) -> np.ndarray:
    """ITU-R 601 luma conversion of an H x W x 3 frame, or of a
    T x H x W x 3 stack of frames, in [0, 1]."""
    arr = np.asarray(rgb, dtype=np.float64)
    if arr.ndim not in (3, 4) or arr.shape[-1] != 3:
        raise PreconditionError(
            f"expected [T x] H x W x 3 frames, got shape {arr.shape}")
    in_unit_range(arr, "RGB values")
    gray = (GRAY_WEIGHTS[0] * arr[..., 0] + GRAY_WEIGHTS[1] * arr[..., 1]
            + GRAY_WEIGHTS[2] * arr[..., 2])
    return np.clip(gray, 0.0, 1.0)


def upsampled_length(n_frames: int, factor: int) -> int:
    """Frames in a video of ``n_frames`` upsampled in time by ``factor``:
    ``(n_frames - 1) * factor + 1``. A factor below 1 is a
    ``PreconditionError``."""
    if factor < 1:
        raise PreconditionError("upsampling factor must be >= 1")
    return (n_frames - 1) * factor + 1


def upsampled_frames(frames: Iterable[np.ndarray],
                     factor: int) -> Iterator[np.ndarray]:
    """``frames`` upsampled in time by ``factor``, one frame at a time:
    each frame as it is (so bit-exactly), then the ``factor - 1`` blends
    ``(1 - f) * frame + f * next``, ``f = s / factor``, toward the next
    one; :func:`upsampled_length` frames in all. This stands in for
    learned frame interpolation. A frame is held until the next is read,
    so ``frames`` must not refill a buffer. A factor below 1 is a
    ``PreconditionError`` once the first frame is asked for."""
    if factor < 1:
        raise PreconditionError("upsampling factor must be >= 1")
    prev = None
    for frame in frames:
        if prev is not None:
            for s in range(1, factor):
                f = s / factor
                yield (1.0 - f) * prev + f * frame
        yield frame
        prev = frame
