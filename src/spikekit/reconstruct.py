"""Texture-from-interval grayscale reconstruction.

Shorter inter-spike intervals mean a brighter pixel: a pixel that needed
only ISI time steps to accumulate one threshold's worth of charge was,
on average, theta / ISI bright. Pixels without two spikes inside the
search window fall back to a configurable default intensity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import IntensityVideo
from .errors import PreconditionError
from .stream import SpikeStream, read_only


@dataclass(frozen=True)
class TfiConfig:
    delta_t_max: int = 40
    theta: float = 5.0
    default_value: float = 0.0

    def __post_init__(self):
        if self.delta_t_max < 1:
            raise PreconditionError("delta_t_max must be >= 1")
        if not 0 < self.theta < math.inf:
            raise PreconditionError(
                f"theta must be finite and > 0, got {self.theta}")
        if not 0.0 <= self.default_value <= 1.0:
            raise PreconditionError("default_value must lie in [0, 1]")


def _tfi_frames(stream: SpikeStream, ts, cfg: TfiConfig) -> np.ndarray:
    """TFI frames [len(ts), H, W] of ``stream`` at the ascending time steps
    ``ts``.

    A forward sweep keeps, per pixel, the latest spike at or before each
    sampled t; a backward sweep, the same on the reversed stream, keeps the
    earliest spike after it and maps each interval to an intensity. A
    sweep reads only the frames within cfg.delta_t_max of some sampled
    step, each once, in ``SpikeStream.unpack`` calls of at most eight
    frames: it stamps a chunk's spike flags with their times and reduces
    the frames up to each sampled step to one [H, W] maximum. Besides the
    output, this holds one time per pixel per sampled step, and one
    [8, H, W] chunk.
    """
    t_len, h, w = stream.t_len, stream.height, stream.width
    reach = min(cfg.delta_t_max, t_len)
    ts = list(ts)
    # A sweep stamps its frame s (frame s forward, t_len - 1 - s backward)
    # with 1 + s, so that 0 means "none yet", the nearer spike is the
    # maximum, and the smallest unsigned type that holds t_len serves: the
    # sweeps are memory-bound.
    dtype = np.min_scalar_type(t_len)
    stamped = np.empty((8, h, w), dtype=dtype)
    hit = np.empty((h, w), dtype=dtype)
    befores = np.empty((len(ts), h, w), dtype=dtype)
    out = np.empty((len(ts), h, w), dtype=np.float64)
    # The intensity of each interval up to 2 * reach, from a table. Entry 0
    # is default_value, for a pixel whose latest spike before t or earliest
    # after it lies outside [t - reach, t + reach]: one read for another
    # sampled step, or none (time 0). The signed type holds -t_len - 2, so
    # +-(t_len + 1).
    table = np.minimum(1.0, cfg.theta / np.maximum(
        np.arange(2 * reach + 1, dtype=np.float64), 1.0))
    table[0] = cfg.default_value
    isi = np.empty((h, w), dtype=np.min_scalar_type(-t_len - 2))
    for backward in (False, True):
        # Sampled step k is recorded once the sweep has read its window,
        # frames [end - width, end) of the sweep.
        if backward:
            ends, width = [t_len - 1 - t for t in reversed(ts)], reach
        else:
            ends, width = [t + 1 for t in ts], reach + 1
        # The end of the run of touching windows that window k is in: a
        # chunk reads no frame past it.
        run_ends = ends[:]
        for k in reversed(range(len(ends) - 1)):
            if ends[k + 1] - width <= ends[k]:
                run_ends[k] = run_ends[k + 1]
        nearest = np.zeros((h, w), dtype=dtype)
        lo = hi = done = 0                  # stamped holds frames [lo, hi)
        for k, end in enumerate(ends):
            s = max(done, end - width)
            while s < end:
                if s >= hi:
                    lo, hi = s, min(s + 8, run_ends[k])
                    frames = (stream.unpack(t_len - hi, t_len - lo)[::-1]
                              if backward else stream.unpack(lo, hi))
                    np.multiply(frames, np.arange(lo + 1, hi + 1, dtype=dtype)
                                [:, None, None], out=stamped[:hi - lo])
                e = min(end, hi)
                np.maximum(nearest, stamped[s - lo:e - lo].max(axis=0,
                                                                out=hit),
                           out=nearest)
                s = e
            done = end
            if not backward:
                befores[k] = nearest
                continue
            # t_after - t_before is (t_len - nearest) - (before - 1).
            j = len(ts) - 1 - k
            t, before = ts[j], befores[j]
            np.subtract(t_len + 1, before, out=isi, dtype=isi.dtype)
            isi -= nearest
            isi *= ((before > max(t - reach, 0))
                    & (nearest > max(t_len - 1 - t - reach, 0)))
            table.take(isi, out=out[j], mode="clip")
    return out


def tfi_reconstruct(stream: SpikeStream, t: int,
                    cfg: TfiConfig = TfiConfig()) -> np.ndarray:
    """Reconstruct the H x W intensity frame around time step ``t``.

    Per pixel, finds the nearest spike at or before t and the nearest spike
    strictly after t, each within cfg.delta_t_max steps of t. When t itself
    carries a spike it counts as the "before" endpoint. The interval length
    ISI between the two maps to intensity min(1, theta / ISI); missing
    spikes yield cfg.default_value.
    """
    if not 0 <= t < stream.t_len:
        raise PreconditionError(
            f"t={t} out of range for stream of {stream.t_len} steps")
    return _tfi_frames(stream, [t], cfg)[0]


def tfi_video(stream: SpikeStream, stride: int,
              cfg: TfiConfig = TfiConfig()) -> IntensityVideo:
    """Apply tfi_reconstruct at t = 0, stride, 2*stride, ... < t_len, in
    one forward and one backward sweep over the stream."""
    if stride < 1:
        raise PreconditionError("stride must be >= 1")
    return IntensityVideo(read_only(_tfi_frames(
        stream, range(0, stream.t_len, stride), cfg)))
