"""Texture-from-interval grayscale reconstruction.

Shorter inter-spike intervals mean a brighter pixel: a pixel that needed
only ISI time steps to accumulate one threshold's worth of charge was,
on average, theta / ISI bright. Pixels without two spikes inside the
search window fall back to a configurable default intensity. All sampled
steps come from one forward and one backward sweep, each reading a frame
at most once, and only if it lies in some sampled step's window.
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


def _nearest(stream: SpikeStream, steps, reach: int, backward: bool):
    """After each ascending sweep step s of ``steps``, yield per pixel the
    stamp 1 + i of the latest spiking sweep frame i read so far (0: none),
    in one reused [H, W] array of the least unsigned type that holds t_len
    (the sweeps are memory-bound). Sweep frame i is stream frame i
    forward, t_len - 1 - i backward. Step s reads the frames of
    [s - reach, s] that no earlier step read, at most eight per
    ``SpikeStream.unpack`` call."""
    t_len = stream.t_len
    dtype = np.min_scalar_type(t_len)
    stamped = np.empty((8, stream.height, stream.width), dtype=dtype)
    hit = np.empty(stamped.shape[1:], dtype=dtype)
    nearest = np.zeros_like(hit)
    done = 0
    for s in steps:
        for lo in range(max(done, s - reach), s + 1, 8):
            hi = min(lo + 8, s + 1)
            frames = (stream.unpack(t_len - hi, t_len - lo)[::-1]
                      if backward else stream.unpack(lo, hi))
            np.multiply(frames, np.arange(lo + 1, hi + 1, dtype=dtype)
                        [:, None, None], out=stamped[:hi - lo])
            np.maximum(nearest, stamped[:hi - lo].max(axis=0, out=hit),
                       out=nearest)
        done = s + 1
        yield nearest


def _tfi_frames(stream: SpikeStream, ts, cfg: TfiConfig) -> np.ndarray:
    """TFI frames [len(ts), H, W] of ``stream`` at the ascending time steps
    ``ts``: the latest spike at or before each t from the forward sweep,
    the earliest after it from the backward one. Besides the output, this
    holds one time per pixel per sampled step, and one [8, H, W] chunk."""
    t_len, h, w = stream.t_len, stream.height, stream.width
    reach = min(cfg.delta_t_max, t_len)
    ts = list(ts)
    befores = [n.copy() for n in _nearest(stream, ts, reach, False)]
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
    # Backward, t's window t + 1 .. t + reach is sweep frame t_len - 2 - t
    # and the reach - 1 frames before it.
    afters = _nearest(stream, [t_len - 2 - t for t in reversed(ts)],
                      reach - 1, True)
    for j, after in zip(reversed(range(len(ts))), afters):
        # t_after - t_before is (t_len - after) - (before - 1).
        t, before = ts[j], befores[j]
        np.subtract(t_len + 1, before, out=isi, dtype=isi.dtype)
        isi -= after
        isi *= ((before > max(t - reach, 0))
                & (after > max(t_len - 1 - t - reach, 0)))
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
