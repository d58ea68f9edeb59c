"""Integrate-and-fire pixel simulation and the video-to-spike encoder.

Two unit conventions coexist deliberately. The continuous pixel model
integrates charge alpha * I(t) over wall-clock time and is polled at a
fixed tick; the discrete encoder accumulates per-frame intensities in
[0, 1] against a threshold theta (default 5.0). The toolkit does not
assert a canonical alpha bridging the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PreconditionError
from .stream import SpikeStream

# Relative slack on the discrete-encoder threshold comparison. Decimal frame
# intensities (e.g. 0.6) round down in binary, so exact-arithmetic firing
# frames would otherwise be missed by one; slack far below any physical
# intensity scale restores them.
_THRESH_RTOL = 1e-9

GRAY_WEIGHTS = (0.299, 0.587, 0.114)


@dataclass(frozen=True)
class PixelModel:
    """Continuous integrate-and-fire pixel: charge rate, threshold, poll tick."""

    alpha: float = 1.0
    theta: float = 5.0
    tick: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise PreconditionError("alpha must be > 0")
        if self.theta <= 0:
            raise PreconditionError("theta must be > 0")
        if self.tick <= 0:
            raise PreconditionError("tick must be > 0")


def _check_unit_range(arr: np.ndarray, what: str) -> None:
    """Raise unless every value lies in [0, 1]; NaN fails both tests."""
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise PreconditionError(f"{what} must be finite and lie in [0, 1]")


@dataclass(frozen=True)
class IntensityVideo:
    """Sequence of H x W grayscale frames with values in [0, 1]."""

    frames: np.ndarray

    def __post_init__(self):
        arr = np.array(self.frames, dtype=np.float64)   # private snapshot
        if arr.ndim != 3 or arr.size == 0:
            raise PreconditionError(f"intensity video must be a non-empty "
                                    f"[n, h, w] array, got shape {arr.shape}")
        _check_unit_range(arr, "intensity values")
        arr.flags.writeable = False
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
        if self.theta <= 0:
            raise PreconditionError("theta must be > 0")
        if self.noise_amplitude < 0:
            raise PreconditionError("noise_amplitude must be >= 0")


# ---------------------------------------------------------------------------
# Continuous simulation
# ---------------------------------------------------------------------------

def _sample(intensity: Callable[[float], float],
            times: np.ndarray) -> np.ndarray:
    """``intensity`` at every time in ``times``: in one call when it maps
    the array to an array of its shape, else one point at a time."""
    try:
        values = np.asarray(intensity(times), dtype=np.float64)
        if values.shape != times.shape:
            raise ValueError
    except (TypeError, ValueError):
        values = np.array([float(intensity(t)) for t in times])
    return values


def simulate_pixel(intensity: Callable[[float], float], model: PixelModel,
                   duration: float, dt: float,
                   record_charge: bool = False):
    """Simulate one pixel and return its discrete spike train S(n).

    Charge accumulates as alpha * I(t) integrated with midpoint steps of
    (at most) ``dt``; every crossing of theta subtracts theta and sets a
    pending flag. At each poll instant n*tick the flag is emitted as
    S(n) in {0, 1} and cleared, so at most one spike is reported per poll
    even if several crossings occurred. Residual charge stays in
    [0, theta) throughout.

    With ``record_charge`` the per-step residual trace is returned as a
    second value.
    """
    if duration <= 0:
        raise PreconditionError("duration must be > 0")
    if dt > model.tick:
        raise PreconditionError(
            f"integration step dt={dt} must not exceed tick={model.tick}")
    if dt <= 0:
        raise PreconditionError("dt must be > 0")

    n_polls = int(math.floor(duration / model.tick + 1e-12))
    # Refine dt so an integer number of steps lands exactly on each poll.
    steps_per_poll = max(1, int(math.ceil(model.tick / dt - 1e-12)))
    dt_eff = model.tick / steps_per_poll

    # Midpoint sampling: exact for linear intensity ramps.
    values = _sample(intensity, (np.arange(n_polls * steps_per_poll,
                                           dtype=np.float64) + 0.5) * dt_eff)
    if np.any(values < 0):
        raise PreconditionError("intensity must be >= 0 everywhere")
    increments = model.alpha * values * dt_eff

    spikes = np.zeros(n_polls, dtype=np.uint8)
    charge_trace = np.empty(increments.size) if record_charge else None
    charge = 0.0
    pending = False
    step = 0
    for n in range(n_polls):
        for _ in range(steps_per_poll):
            charge += increments[step]
            while charge >= model.theta:
                charge -= model.theta
                pending = True
            if record_charge:
                charge_trace[step] = charge
            step += 1
        if pending:
            spikes[n] = 1
            pending = False
    if record_charge:
        return spikes, charge_trace
    return spikes


def continuous_spike_count(intensity: Callable[[float], float],
                           model: PixelModel, duration: float,
                           dt: float) -> int:
    """Floor of the integrated charge over theta: the ideal crossing count."""
    mids = (np.arange(int(math.ceil(duration / dt)), dtype=np.float64) + 0.5) * dt
    values = _sample(intensity, mids[mids < duration])
    total = float(np.sum(model.alpha * values * dt))
    return int(total // model.theta)


# ---------------------------------------------------------------------------
# Discrete encoding
# ---------------------------------------------------------------------------

def encode_video(video: IntensityVideo, cfg: EncoderConfig = EncoderConfig(),
                 seed: int | None = None) -> SpikeStream:
    """Encode an intensity video into a spike stream by charge accumulation.

    Per pixel, V accumulates frame intensities; whenever V reaches theta a
    spike is emitted and theta is subtracted (soft reset). Optional noise is
    drawn per frame and pixel from uniform(-a, a), added to the intensity,
    and the result clamped back to [0, 1] before accumulation. With
    noise_amplitude 0 the output is deterministic and seed-independent.
    """
    rng = None
    if cfg.noise_amplitude > 0:
        if seed is None:
            raise PreconditionError("noise injection requires an explicit seed")
        rng = np.random.default_rng(seed)

    thresh = cfg.theta * (1.0 - _THRESH_RTOL)
    frames = video.frames
    v = np.zeros(frames.shape[1:], dtype=np.float64)
    out = np.empty(frames.shape, dtype=np.uint8)
    for t in range(frames.shape[0]):
        frame = frames[t]
        if rng is not None:
            frame = frame + rng.uniform(-cfg.noise_amplitude,
                                        cfg.noise_amplitude, size=frame.shape)
            frame = np.clip(frame, 0.0, 1.0)
        v += frame
        fired = v >= thresh
        v[fired] -= cfg.theta
        out[t] = fired
    return SpikeStream(out)


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


def upsample_temporal(video: IntensityVideo, factor: int) -> IntensityVideo:
    """Insert factor-1 linearly blended frames between consecutive frames.

    Output length is (n - 1) * factor + 1; the original frames are carried
    over bit-exactly. This stands in for learned frame interpolation.
    """
    if factor < 1:
        raise PreconditionError("upsampling factor must be >= 1")
    if factor == 1 or video.n_frames == 1:
        return IntensityVideo(video.frames)
    frames = video.frames
    n = frames.shape[0]
    out = np.empty(((n - 1) * factor + 1,) + frames.shape[1:], dtype=np.float64)
    for i in range(n - 1):
        out[i * factor] = frames[i]
        for s in range(1, factor):
            f = s / factor
            out[i * factor + s] = (1.0 - f) * frames[i] + f * frames[i + 1]
    out[-1] = frames[-1]
    return IntensityVideo(out)
