"""The integrate-and-fire video-to-spike encoder.

The encoder accumulates per-frame intensities in [0, 1] against a
threshold theta (default 5.0). The continuous pixel model it
discretizes, charge alpha * I(t) integrated over wall-clock time and
polled at a fixed tick, is the test suite's reference
(``tests/oracles.py``).
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


def _check_unit_range(arr: np.ndarray, what: str) -> None:
    """Raise unless every value lies in [0, 1]; NaN fails both tests."""
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise PreconditionError(f"{what} must be finite and lie in [0, 1]")


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
    """Sequence of H x W grayscale frames with values in [0, 1], held in a
    read-only float64 array (see :func:`owned`)."""

    frames: np.ndarray

    def __post_init__(self):
        arr = owned(self.frames, np.float64)
        if arr.ndim != 3 or arr.size == 0:
            raise PreconditionError(f"intensity video must be a non-empty "
                                    f"[n, h, w] array, got shape {arr.shape}")
        _check_unit_range(arr, "intensity values")
        object.__setattr__(self, "frames", arr)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]


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

    The video's frames go to :func:`encode_chunks` as slices of eight.
    """
    frames = video.frames
    return encode_chunks((frames[t:t + 8] for t in range(0, len(frames), 8)),
                         frames.shape, cfg, seed)


def encode_chunks(chunks: Iterable[np.ndarray], shape: tuple[int, int, int],
                  cfg: EncoderConfig = EncoderConfig(),
                  seed: int | None = None) -> SpikeStream:
    """The spike stream that :func:`encode_video` makes of the video of
    ``shape`` [t_len, H, W] whose frames come in ``chunks``: float arrays
    [n, H, W] of intensities in [0, 1], eight frames each but the last.
    The range is the producer's to check, as ``IntensityVideo`` and
    :func:`frame_chunks` do; a second scan of each chunk here cost
    ``stream-io`` about 7% of its pass.

    The noise-seed rules are checked at the call, before any chunk is read.
    Each chunk is encoded and packed before the next is read, so a
    producer may refill one buffer, and no whole clip is held: besides the
    packed body, the frame loop allocates only reused buffers, the noise
    and the spike flags of eight frames and the charge spent by the reset.
    A chunk that is not [n <= 8, H, W], or chunks that do not make
    ``shape`` (see ``SpikeStream.from_chunks``), are a
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
    return SpikeStream.from_chunks(_fired_chunks(chunks, shape, cfg, rng),
                                   shape)


def _fired_chunks(chunks: Iterable[np.ndarray], shape: tuple[int, int, int],
                  cfg: EncoderConfig,
                  rng: np.random.Generator | None) -> Iterator[np.ndarray]:
    """The spike flags of ``chunks`` (see :func:`encode_chunks`), one chunk
    at a time, as views of one [8, H, W] boolean buffer that is refilled
    once its consumer has taken them. With an ``rng``, a chunk's noise is
    drawn in one call, which fills the [8, H, W] noise buffer in C order
    and so gives the doubles of eight per-frame draws; the affine map and
    the clip run on the whole chunk. Charge, compare and reset run frame by
    frame."""
    a = cfg.noise_amplitude
    thresh = cfg.theta * (1.0 - _THRESH_RTOL)
    v = np.zeros(shape[1:], dtype=np.float64)
    spent = np.empty_like(v)
    fired = np.empty((8,) + v.shape, dtype=np.bool_)
    noisy = None if rng is None else np.empty(fired.shape, dtype=np.float64)
    for chunk in chunks:
        if not (isinstance(chunk, np.ndarray) and chunk.ndim == 3
                and len(chunk) <= 8 and chunk.shape[1:] == v.shape):
            raise PreconditionError(
                f"chunks must be [n <= 8, {v.shape[0]}, {v.shape[1]}] arrays")
        if noisy is not None:
            drawn = noisy[:len(chunk)]
            rng.random(out=drawn)
            drawn *= 2 * a
            drawn += -a
            drawn += chunk
            chunk = np.clip(drawn, 0.0, 1.0, out=drawn)
        for frame, now in zip(chunk, fired):
            v += frame
            np.greater_equal(v, thresh, out=now)
            # Subtract theta where fired and 0 elsewhere, which leaves V as
            # it is: the same bits as a masked subtraction, and faster.
            np.multiply(now, cfg.theta, out=spent)
            v -= spent
        yield fired[:len(chunk)]


def frame_chunks(frames: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """The [H, W] arrays of ``frames`` eight at a time, as views [n, H, W]
    of one float64 buffer that is refilled once its consumer has taken
    them: the chunks :func:`encode_chunks` reads. A chunk with a value
    outside [0, 1] is a ``PreconditionError``."""
    buf, n = None, 0
    for frame in frames:
        if buf is None:
            buf = np.empty((8,) + frame.shape)
        buf[n] = frame
        n += 1
        if n == 8:
            _check_unit_range(buf, "intensity values")
            yield buf
            n = 0
    if n:
        _check_unit_range(buf[:n], "intensity values")
        yield buf[:n]


def to_grayscale(rgb: np.ndarray) -> np.ndarray:
    """ITU-R 601 luma conversion of an H x W x 3 frame, or of a
    T x H x W x 3 stack of frames, in [0, 1]."""
    arr = np.asarray(rgb, dtype=np.float64)
    if arr.ndim not in (3, 4) or arr.shape[-1] != 3:
        raise PreconditionError(
            f"expected [T x] H x W x 3 frames, got shape {arr.shape}")
    _check_unit_range(arr, "RGB values")
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
