"""Texture-from-interval grayscale reconstruction.

Shorter inter-spike intervals mean a brighter pixel: a pixel that needed
only ISI time steps to accumulate one threshold's worth of charge was,
on average, theta / ISI bright. Pixels without two spikes inside the
search window fall back to a configurable default intensity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import IntensityVideo
from .errors import PreconditionError
from .stream import SpikeStream


@dataclass(frozen=True)
class TfiConfig:
    delta_t_max: int = 40
    theta: float = 5.0
    default_value: float = 0.0

    def __post_init__(self):
        if self.delta_t_max < 1:
            raise PreconditionError("delta_t_max must be >= 1")
        if self.theta <= 0:
            raise PreconditionError("theta must be > 0")
        if not 0.0 <= self.default_value <= 1.0:
            raise PreconditionError("default_value must lie in [0, 1]")


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
    data = stream.data
    h, w = stream.height, stream.width

    # Nearest spike at or before t: scan the window backward and take the
    # first hit via argmax on the reversed slice.
    lo = max(0, t - cfg.delta_t_max)
    before_window = data[lo:t + 1][::-1]          # index 0 == time t
    has_before = before_window.any(axis=0)
    back_offset = before_window.argmax(axis=0)    # steps back from t
    t_before = t - back_offset

    hi = min(stream.t_len, t + cfg.delta_t_max + 1)
    after_window = data[t + 1:hi]
    if after_window.shape[0] == 0:
        has_after = np.zeros((h, w), dtype=bool)
        t_after = np.zeros((h, w), dtype=np.int64)
    else:
        has_after = after_window.any(axis=0)
        t_after = t + 1 + after_window.argmax(axis=0)

    out = np.full((h, w), cfg.default_value, dtype=np.float64)
    both = has_before & has_after
    isi = (t_after - t_before).astype(np.float64)
    np.copyto(out, np.minimum(1.0, cfg.theta / np.maximum(isi, 1.0)),
              where=both)
    return out


def tfi_video(stream: SpikeStream, stride: int,
              cfg: TfiConfig = TfiConfig()) -> IntensityVideo:
    """Apply tfi_reconstruct at t = 0, stride, 2*stride, ... < t_len."""
    if stride < 1:
        raise PreconditionError("stride must be >= 1")
    frames = [tfi_reconstruct(stream, t, cfg)
              for t in range(0, stream.t_len, stride)]
    return IntensityVideo(np.stack(frames))
