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

    A forward sweep keeps, per pixel, the latest spike at or before t and
    records it at each sampled t; a backward sweep keeps the earliest spike
    after t. Each sweep unpacks a frame at most once, and only the frames
    within cfg.delta_t_max of some sampled step. Besides the output, it
    holds two running [H, W] arrays and one time per pixel per sampled step.
    """
    t_len, h, w = stream.t_len, stream.height, stream.width
    reach = min(cfg.delta_t_max, t_len)
    # Spike times are kept as 1 + t (forward) and t_len - t (backward), so
    # that 0 means "none yet", a newer spike is a maximum, and the smallest
    # unsigned type that holds t_len serves: the sweeps are memory-bound.
    dtype = np.min_scalar_type(t_len)
    hit = np.empty((h, w), dtype=dtype)
    latest = np.zeros((h, w), dtype=dtype)
    befores = np.empty((len(ts), h, w), dtype=dtype)
    todo = 0                                # first frame not yet read
    for k, t in enumerate(ts):
        for u in range(max(todo, t - reach), t + 1):
            np.multiply(stream.unpack(u, u + 1)[0], dtype.type(u + 1),
                        out=hit)
            np.maximum(latest, hit, out=latest)
        todo = t + 1
        befores[k] = latest

    out = np.full((len(ts), h, w), cfg.default_value, dtype=np.float64)
    earliest = np.zeros((h, w), dtype=dtype)
    todo = t_len - 1                        # last frame not yet read
    for k in reversed(range(len(ts))):
        t = ts[k]
        for u in range(min(todo, t + reach), t, -1):
            np.multiply(stream.unpack(u, u + 1)[0], dtype.type(t_len - u),
                        out=hit)
            np.maximum(earliest, hit, out=earliest)
        todo = t
        # A spike read for an earlier sampled step, or none (-1 and t_len),
        # falls outside [lo, hi) and leaves the pixel at default_value.
        t_before = befores[k].astype(np.int64) - 1
        t_after = t_len - earliest.astype(np.int64)
        both = ((t_before >= max(0, t - reach))
                & (t_after < min(t_len, t + reach + 1)))
        isi = (t_after - t_before).astype(np.float64)
        np.copyto(out[k], np.minimum(1.0, cfg.theta / np.maximum(isi, 1.0)),
                  where=both)
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
