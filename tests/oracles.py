"""Reference models and thin wrappers the tests share.

The continuous integrate-and-fire pixel model is the paper's camera: the
encoder in ``spikekit.camera`` discretizes it, and the tests check both
against it. The loss wrappers call the few-shot trainer's own loss and
gradient, ``spikekit.align._forward_backward``, on a batch of one head,
so the acceptance gates test the code that trains. ``conv2d_loops`` is
the plain-loop convolution that ``spikekit.nnops.conv2d`` is checked
against. ``mtf_forward_branches`` and ``spatial_attention_of_branches``
are HSFE's branch and attention stages as they were first written: a
list of branch maps, each averaged one frame at a time by
``moving_average_same``. ``spikekit.hsfe`` passes one stacked array and
must give their bytes on frames of two or more pixels (on one pixel,
numpy sums a window of 8 or more frames pairwise).
``encode_video_per_frame`` is the spike encoder as it was first
written, allocating every step of every frame, drawing its noise with
``Generator.uniform`` and returning unpacked flags:
``spikekit.camera.encode_video`` must give its bits.
``encode_upsampled_whole`` is ``spikekit encode --upsample`` as it was
when it held the whole upsampled clip. ``pack_bits``,
``slice_clips_unpacked``, ``subsample_unpacked`` and
``tfi_frames_unpacked`` are the codec, windowing and TFI as they were
while a stream held one uint8 per spike: the packed ``SpikeStream`` must
give their bytes on frames of every size. ``fsve_forward_with_stages``,
``esdsa_forward_with_internals`` and ``sn_threshold_with_level`` are the spiking forwards as they were when
they returned every stage they made: the package's forwards return only
their output, which must equal these bytes for bytes, with the same
ledger, while the tests check the stages here. ``write_video_raw`` writes
the raw-video form that ``spikekit encode`` reads, and ``run_cli`` runs
one command as the CLI fuzz tests do.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import pathlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from spikekit.align import AlignmentHead, _forward_backward
from spikekit.camera import _THRESH_RTOL, EncoderConfig, IntensityVideo
from spikekit.cli import main
from spikekit.energy import EnergyLedger
from spikekit.errors import PreconditionError
from spikekit.nnops import conv2d, linear, sigmoid
from spikekit.reconstruct import TfiConfig
from spikekit.snn import _spiking_stem, spiking_residual_block
from spikekit.stream import (ClipWindowSpec, SpikeStream, clip_count,
                             subsample_indices, subsample_temporal)


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
# The discrete encoder, per frame
# ---------------------------------------------------------------------------

def encode_video_per_frame(video: IntensityVideo, cfg: EncoderConfig,
                           seed: int | None = None) -> np.ndarray:
    """The discrete encoder one frame at a time, with fresh arrays: noise
    from ``uniform(-a, a)``, added and clipped to [0, 1]; fire where the
    charge reaches theta (less the relative slack), and subtract theta.
    Returns the unpacked uint8 spike flags [t, H, W]."""
    rng = np.random.default_rng(seed) if cfg.noise_amplitude > 0 else None
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
    return out


def encode_upsampled_whole(video: IntensityVideo, factor: int,
                           cfg: EncoderConfig,
                           seed: int | None = None) -> np.ndarray:
    """``spikekit encode --upsample factor`` as it was when it held the
    whole upsampled clip: every frame and blend written into one array,
    made an ``IntensityVideo`` and encoded. Returns the unpacked spike
    flags of ``encode_video_per_frame``."""
    frames = video.frames
    n = frames.shape[0]
    out = np.empty(((n - 1) * factor + 1,) + frames.shape[1:])
    for i in range(n - 1):
        out[i * factor] = frames[i]
        for s in range(1, factor):
            f = s / factor
            out[i * factor + s] = (1.0 - f) * frames[i] + f * frames[i + 1]
    out[-1] = frames[-1]
    return encode_video_per_frame(IntensityVideo(out), cfg, seed)


# ---------------------------------------------------------------------------
# The unpacked stream
# ---------------------------------------------------------------------------

def pack_bits(bits: np.ndarray) -> bytes:
    """The ``.dat`` body of the uint8 spike flags ``bits`` [t, H, W]: the
    elements in (t, y, x) order, 8 per byte, MSB first, zero-padded."""
    return np.packbits(bits.ravel(), bitorder="big").tobytes()


def slice_clips_unpacked(bits: np.ndarray,
                         spec: ClipWindowSpec) -> list[np.ndarray]:
    """Clip k of ``bits``: frames k*stride .. k*stride + window_len - 1."""
    return [bits[s:s + spec.window_len]
            for s in range(0, clip_count(len(bits), spec) * spec.stride,
                           spec.stride)]


def subsample_unpacked(bits: np.ndarray, target_len: int) -> np.ndarray:
    return bits[subsample_indices(len(bits), target_len)]


def tfi_frames_unpacked(data: np.ndarray, ts, cfg: TfiConfig) -> np.ndarray:
    """TFI frames [len(ts), H, W] of the uint8 spike flags ``data``
    [t_len, H, W] at the ascending time steps ``ts``: the forward and
    backward sweeps of ``spikekit.reconstruct``, indexing whole frames."""
    t_len, h, w = data.shape
    reach = min(cfg.delta_t_max, t_len)
    dtype = np.min_scalar_type(t_len)
    hit = np.empty((h, w), dtype=dtype)
    latest = np.zeros((h, w), dtype=dtype)
    befores = np.empty((len(ts), h, w), dtype=dtype)
    todo = 0
    for k, t in enumerate(ts):
        for u in range(max(todo, t - reach), t + 1):
            np.multiply(data[u], dtype.type(u + 1), out=hit)
            np.maximum(latest, hit, out=latest)
        todo = t + 1
        befores[k] = latest

    out = np.full((len(ts), h, w), cfg.default_value, dtype=np.float64)
    earliest = np.zeros((h, w), dtype=dtype)
    todo = t_len - 1
    for k in reversed(range(len(ts))):
        t = ts[k]
        for u in range(min(todo, t + reach), t, -1):
            np.multiply(data[u], dtype.type(t_len - u), out=hit)
            np.maximum(earliest, hit, out=earliest)
        todo = t
        t_before = befores[k].astype(np.int64) - 1
        t_after = t_len - earliest.astype(np.int64)
        both = ((t_before >= max(0, t - reach))
                & (t_after < min(t_len, t + reach + 1)))
        isi = (t_after - t_before).astype(np.float64)
        np.copyto(out[k], np.minimum(1.0, cfg.theta / np.maximum(isi, 1.0)),
                  where=both)
    return out


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
        head.projection[None], head.bias[None], [head.log_inv_tau])
    return float(loss[0]), d_proj[0], d_bias[0], d_log_inv_tau[0]


def contrastive_loss(video, text, log_inv_tau: float) -> float:
    """Loss of [b, d] embeddings themselves: through an identity
    projection and a zero bias, which ``x @ I + 0`` leaves exact."""
    d = np.shape(video)[-1]
    head = AlignmentHead(np.eye(d), np.zeros(d), log_inv_tau)
    return loss_and_grads(video, text, head)[0]


def conv2d_loops(x, kernel, bias=None, stride=1, padding=1):
    """Dense convolution oracle: plain quintuple loop."""
    c_out, c_in, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    h_out = (xp.shape[1] - kh) // stride + 1
    w_out = (xp.shape[2] - kw) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    for o in range(c_out):
        for y in range(h_out):
            for w in range(w_out):
                acc = 0.0
                for c in range(c_in):
                    for i in range(kh):
                        for j in range(kw):
                            acc += (xp[c, y * stride + i, w * stride + j]
                                    * kernel[o, c, i, j])
                out[o, y, w] = acc + (bias[o] if bias is not None else 0.0)
    return out


# ---------------------------------------------------------------------------
# HSFE's branch stage, one branch at a time
# ---------------------------------------------------------------------------

def moving_average_same(x: np.ndarray, width: int) -> np.ndarray:
    """Centered moving average along axis 0 with same-length output, each
    window summed from its first frame to its last (numpy's ``sum`` may
    pair the terms of a window that is one pixel wide). Edge windows
    shrink to the valid range and are normalized by the actual tap
    count."""
    x = np.asarray(x, dtype=np.float64)
    if width == 1:
        return x.copy()
    t = x.shape[0]
    half_lo = (width - 1) // 2
    half_hi = width // 2
    out = np.empty_like(x)
    for i in range(t):
        lo = max(0, i - half_lo)
        hi = min(t, i + half_hi + 1)
        out[i] = functools.reduce(np.add, x[lo:hi]) / (hi - lo)
    return out


def mtf_forward_branches(block: np.ndarray,
                         weights: dict[str, np.ndarray]) -> list[np.ndarray]:
    """Multi-scale temporal filtering as a list of per-branch [c_out, H, W]
    maps: central k_i frames, mask, moving average, branch conv."""
    block_len = block.shape[0]
    outputs = []
    for i in range(weights["hsfe.sa.conv.w"].shape[0]):
        mask = np.asarray(weights[f"hsfe.branch{i}.mask"], dtype=np.float64)
        start = (block_len - len(mask)) // 2
        sub = np.multiply(block[start:start + len(mask)],
                          mask[:, None, None], dtype=np.float64)
        width = int(round(block_len / len(mask)))
        if width > 1:
            sub = moving_average_same(sub, width)
        outputs.append(conv2d(sub, weights[f"hsfe.branch{i}.conv.w"],
                              bias=None, stride=1, padding=1))
    return outputs


def spatial_attention_of_branches(features: list[np.ndarray],
                                  weights: dict[str, np.ndarray]
                                  ) -> np.ndarray:
    """Spatial attention over a list of branch maps: concatenate them,
    gate branch i with the logistic of the SA conv's logit map i."""
    m = len(features)
    stacked = np.concatenate(features, axis=0)
    gates = sigmoid(conv2d(stacked, weights["hsfe.sa.conv.w"],
                           weights["hsfe.sa.conv.b"], stride=1, padding=1))
    return (gates[:, None] * stacked.reshape(m, *features[0].shape)
            ).reshape(stacked.shape)


# ---------------------------------------------------------------------------
# The spiking forwards, every stage kept
# ---------------------------------------------------------------------------

def sn_threshold_with_level(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Spike normalization and its level: fire where x >= V_th, the mean
    absolute value of the whole tensor."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise PreconditionError("sn_threshold needs a non-empty array")
    v_th = float(np.abs(x).mean())
    return (x >= v_th).astype(np.uint8), v_th


def esdsa_forward_with_internals(u: np.ndarray,
                                 weights: dict[str, np.ndarray],
                                 ledger: EnergyLedger):
    """Spike-driven self-attention over [tokens, d_model], returning the
    output and a dict of its binary stages Q_S, K_S, V_S and the attention
    spikes."""
    prefix = "fsve.sdsa"
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2:
        raise PreconditionError(f"tokens must be [n, d], got shape {u.shape}")
    n_tokens, d_model = u.shape
    w = weights
    events = int(np.count_nonzero(u))

    projections = {}
    for name in ("q", "k", "v"):
        raw = linear(u, w[f"{prefix}.{name}.w"], w[f"{prefix}.{name}.b"])
        projections[name], _ = sn_threshold_with_level(raw)
        d_out = raw.shape[1]
        ledger.record(f"{prefix}.{name}_proj", spike_count=events,
                      fan_out=d_out, actual_sops=events * d_out,
                      neuron_ops=raw.size,
                      max_sops=n_tokens * d_model * d_out,
                      element_count=u.size)
    q_s, k_s, v_s = projections["q"], projections["k"], projections["v"]

    corr = q_s.astype(np.float64) @ k_s.T.astype(np.float64)
    corr_sops = int((q_s.sum(axis=0).astype(np.int64)
                     * k_s.sum(axis=0).astype(np.int64)).sum())
    attn_spikes = (corr * (n_tokens * n_tokens) >= corr_sops).astype(np.uint8)

    gated = attn_spikes.astype(np.float64) @ v_s.astype(np.float64)
    out = linear(gated, w[f"{prefix}.out.w"], w[f"{prefix}.out.b"])

    ledger.record(f"{prefix}.attn_corr",
                  spike_count=int(q_s.sum()) + int(k_s.sum()),
                  fan_out=n_tokens, actual_sops=corr_sops,
                  neuron_ops=corr.size,
                  max_sops=n_tokens * n_tokens * q_s.shape[1],
                  element_count=q_s.size + k_s.size)
    apply_sops = int((attn_spikes.sum(axis=0).astype(np.int64)
                      * v_s.sum(axis=1).astype(np.int64)).sum())
    ledger.record(f"{prefix}.attn_apply",
                  spike_count=int(attn_spikes.sum()),
                  fan_out=v_s.shape[1], actual_sops=apply_sops,
                  neuron_ops=0,
                  max_sops=n_tokens * n_tokens * v_s.shape[1],
                  element_count=attn_spikes.size)
    dense = n_tokens * gated.shape[1] * out.shape[1]
    ledger.record(f"{prefix}.out_proj", spike_count=0,
                  fan_out=out.shape[1], actual_sops=dense,
                  neuron_ops=0, max_sops=dense)

    return out, {"q_s": q_s, "k_s": k_s, "v_s": v_s,
                 "attn_spikes": attn_spikes}


def fsve_forward_with_stages(stream: SpikeStream,
                             weights: dict[str, np.ndarray], timesteps: int,
                             ledger: EnergyLedger):
    """The full-spiking path over a stream: the mean spike-rate embedding
    and a dict of every binary stage, the input, the stems, the residual
    block and each time step's attention internals."""
    x = subsample_temporal(stream, timesteps).data[:, None]    # [T, 1, H, W]
    stages: dict[str, np.ndarray] = {"input": x}

    s1 = _spiking_stem(x, weights, "fsve.stem1", ledger)
    stages["stem1"] = s1
    s2 = _spiking_stem(s1, weights, "fsve.stem2", ledger)
    stages["stem2"] = s2
    s3 = spiking_residual_block(s2, weights, ledger)
    stages["resblock"] = s3

    outputs = []
    for t, maps in enumerate(s3):
        tokens = maps.reshape(len(maps), -1).T          # [N, C]
        out, internals = esdsa_forward_with_internals(tokens, weights, ledger)
        outputs.append(out)
        stages.update({f"sdsa.t{t}.{key}": value
                       for key, value in internals.items()})

    embedding = np.mean([o.mean(axis=0) for o in outputs], axis=0)
    return embedding, stages


# ---------------------------------------------------------------------------
# CLI inputs and runs
# ---------------------------------------------------------------------------

def write_video_raw(video: IntensityVideo, path) -> None:
    """Raw planar little-endian float32 frames at ``path``, and the
    ``.meta.json`` sidecar beside it that names their shape."""
    pathlib.Path(path).write_bytes(video.frames.astype("<f4").tobytes())
    t_len, height, width = video.frames.shape
    pathlib.Path(os.fspath(path) + ".meta.json").write_text(json.dumps(
        {"t_len": t_len, "height": height, "width": width, "dtype": "f32"},
        indent=2) + "\n")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """The exit code and stderr text of ``spikekit`` run on ``argv``, with
    its stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()
