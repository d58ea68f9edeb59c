"""Reference models and thin wrappers the tests share.

The continuous integrate-and-fire pixel model is the paper's camera: the
encoder in ``spikekit.camera`` discretizes it, and the tests check both
against it. The loss wrappers call the few-shot trainer's own loss and
gradient, ``spikekit.align._forward_backward``, on a batch of one head,
so the acceptance gates test the code that trains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from spikekit.align import AlignmentHead, Temperature, _forward_backward
from spikekit.errors import PreconditionError


# ---------------------------------------------------------------------------
# Continuous pixel model
# ---------------------------------------------------------------------------

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
# Synthetic-clip motion
# ---------------------------------------------------------------------------

def brightness_centroid(frame: np.ndarray) -> tuple[float, float]:
    """Intensity-weighted (y, x) centroid of one frame."""
    total = frame.sum()
    if total <= 0:
        raise PreconditionError("frame has no brightness")
    gy, gx = np.mgrid[0:frame.shape[0], 0:frame.shape[1]]
    return float((gy * frame).sum() / total), float((gx * frame).sum() / total)


# ---------------------------------------------------------------------------
# The trainer's loss and gradient, one head at a time
# ---------------------------------------------------------------------------

def loss_and_grads(v_feat, t_feat, head: AlignmentHead):
    """Loss of [b, d_in] raw features through ``head`` and its gradients
    with respect to the projection, the bias and log(1/tau)."""
    loss, d_proj, d_bias, d_log_inv_tau = _forward_backward(
        np.asarray(v_feat, dtype=np.float64)[None],
        np.asarray(t_feat, dtype=np.float64)[None],
        head.projection[None], head.bias[None], [head.temperature])
    return float(loss[0]), d_proj[0], d_bias[0], d_log_inv_tau[0]


def contrastive_loss(video, text, temp: Temperature) -> float:
    """Loss of [b, d] embeddings themselves: through an identity
    projection and a zero bias, which ``x @ I + 0`` leaves exact."""
    d = np.shape(video)[-1]
    head = AlignmentHead(np.eye(d), np.zeros(d), temp)
    return loss_and_grads(video, text, head)[0]
