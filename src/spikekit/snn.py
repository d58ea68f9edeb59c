"""Full-spiking components: LIF neurons, time-pooled batch normalization,
spiking residual blocks, and spike-driven self-attention.

Everything is forward-only with spike-count instrumentation; the
rectangular surrogate gradient is exposed as a value for unit testing and
head-side experiments, but no backpropagation through this module is
implemented. Spike-valued tensors contain only {0, 1} after every
operation; the Heaviside convention here is that the boundary fires
(Theta(0) = 1, matching the >= in the firing rule).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import (EnergyLedger, count_conv_sops, dense_conv_macs,
                     dense_linear_macs)
from .errors import InvariantError, PreconditionError
from .nnops import conv2d, he_init, linear
from .stream import SpikeStream, is_binary, subsample_temporal

TDBN_EPS = 1e-5     # added to the pooled variance before the square root


@dataclass(frozen=True)
class LifParams:
    """Leaky integrate-and-fire settings.

    ``soft_reset`` switches the post-spike reset from hard (u <- 0) to
    subtract-threshold, which makes the neuron reproduce the discrete
    video encoder when decay = 1.
    """

    thresh: float = 0.5
    decay: float = 0.5
    lens: float = 0.5
    soft_reset: bool = False

    def __post_init__(self):
        if self.thresh <= 0:
            raise PreconditionError("thresh must be > 0")
        if not 0.0 < self.decay <= 1.0:
            raise PreconditionError("decay must lie in (0, 1]")
        if self.lens <= 0:
            raise PreconditionError("lens must be > 0")


def lif_step(u: np.ndarray, inputs: np.ndarray,
             p: LifParams) -> tuple[np.ndarray, np.ndarray]:
    """One LIF update of the potentials ``u``: u <- decay*u + input, fire
    where u >= thresh. Returns the spikes and the new potentials.

    Fired neurons reset (hard to 0, or minus thresh in soft mode); the
    rest keep their potential.
    """
    u = np.asarray(u, dtype=np.float64)
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.shape != u.shape:
        raise PreconditionError(
            f"input shape {inputs.shape} does not match membrane {u.shape}")
    u = p.decay * u + inputs
    if not np.all(np.isfinite(u)):
        raise PreconditionError(
            "membrane potentials and inputs must be finite")
    fired = u >= p.thresh
    if p.soft_reset:
        u[fired] -= p.thresh
    else:
        u[fired] = 0.0
    return fired.astype(np.uint8), u


def surrogate_grad(u, p: LifParams):
    """Rectangular surrogate of dS/du: 1/(2*lens) inside
    |u - thresh| <= lens (boundary included), 0 outside."""
    u = np.asarray(u, dtype=np.float64)
    value = 1.0 / (2.0 * p.lens)
    out = np.where(np.abs(u - p.thresh) <= p.lens, value, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def tdbn(x: np.ndarray, gamma, beta) -> np.ndarray:
    """Batch normalization with statistics pooled over the time and
    spatial axes (channel axis is axis 1 of [T, C, ...]).

    Pooling over time is what distinguishes this from plain batch norm;
    per channel the output has mean ~= beta and variance ~= gamma^2. The
    spiking path runs one sample, so tdBN's pooling over time, batch and
    space is this pooling over time and space.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise PreconditionError(
            f"tdbn input must be [t, c, ...], got shape {x.shape}")
    reduce_axes = (0,) + tuple(range(2, x.ndim))
    if x.size // x.shape[1] < 2:
        raise PreconditionError(
            "tdbn needs at least 2 pooled elements per channel")
    mean = x.mean(axis=reduce_axes, keepdims=True)
    var = x.var(axis=reduce_axes, keepdims=True)
    shape = (1, -1) + (1,) * (x.ndim - 2)
    gamma = np.reshape(np.asarray(gamma, dtype=np.float64), shape)
    beta = np.reshape(np.asarray(beta, dtype=np.float64), shape)
    return (x - mean) / np.sqrt(var + TDBN_EPS) * gamma + beta


def _conv_tdbn(s: np.ndarray, weights: dict[str, np.ndarray], prefix: str,
               stride: int, ledger: EnergyLedger) -> np.ndarray:
    """One spiking conv stage up to the membrane input: a 3x3 conv of the
    binary [C, H, W] maps of every time step of ``s`` [T, C, H, W], then
    TDBN. Records the stage's SOPs in the ledger, with one neuron update
    per normalized output element."""
    kernel = weights[f"{prefix}.conv.w"]
    conv_out = np.array([conv2d(frame.astype(np.float64), kernel, None,
                                stride=stride, padding=1) for frame in s])
    normed = tdbn(conv_out, weights[f"{prefix}.tdbn.gamma"],
                  weights[f"{prefix}.tdbn.beta"])
    c_out = kernel.shape[0]
    ledger.record(f"{prefix}.conv", spike_count=int(s.sum()),
                  fan_out=9 * c_out,
                  actual_sops=count_conv_sops(s, c_out, stride=stride),
                  neuron_ops=normed.size,
                  max_sops=dense_conv_macs(s.shape[1:], c_out,
                                           stride=stride) * len(s),
                  element_count=s.size)
    return normed


def spiking_residual_block(s: np.ndarray, weights: dict[str, np.ndarray],
                           p: LifParams, ledger: EnergyLedger) -> np.ndarray:
    """Spiking residual unit: conv, TDBN, add the binary identity, spike,
    with the ``fsve.block`` weights.

    Input and output are binary [T, C, H, W] tensors. With zero conv
    weights and beta 0, any position carrying an input spike contributes
    potential 1 >= thresh (for thresh <= 1), so the block passes the
    identity through.
    """
    s = np.asarray(s)
    if not is_binary(s):
        raise PreconditionError("residual block input must be binary (0/1)")
    if s.ndim != 4:
        raise PreconditionError(
            f"residual block input must be [t, c, h, w], got {s.shape}")
    normed = _conv_tdbn(s, weights, "fsve.block", 1, ledger)
    return (normed + s >= p.thresh).astype(np.uint8)


def sn_threshold(x: np.ndarray, alpha_sn: float = 1.0
                 ) -> tuple[np.ndarray, float]:
    """Spike normalization: fire where x >= V_th with V_th = alpha_sn
    times the mean absolute value of the whole tensor.

    An all-zero input gives V_th = 0 and every position fires, per the
    Theta(0) = 1 boundary convention.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise PreconditionError("sn_threshold needs a non-empty array")
    if alpha_sn <= 0:
        raise PreconditionError("alpha_sn must be > 0")
    v_th = float(alpha_sn * np.abs(x).mean())
    return (x >= v_th).astype(np.uint8), v_th


def esdsa_forward(u: np.ndarray, weights: dict[str, np.ndarray],
                  ledger: EnergyLedger):
    """Spike-driven self-attention over [tokens, d_model].

    Q/K/V are spike-normalized linear projections (binary) whose width d
    is the q projection's output width. Binary Q_S and K_S make every
    correlation c = Q_S K_S^T an integer, and their sum
    S = colsum(Q_S) . colsum(K_S) an exact one. Spike normalization of the
    scaled map c / d fires where it reaches its mean; for N tokens that is
    where c * N^2 >= S, so the threshold is decided by an exact integer
    test, and entries equal to the mean fire (Theta(0) = 1). The binary
    attention map gates V_S and a final linear layer produces the output.
    All SN stage spike counts go to the ledger; a non-binary input is
    priced dense, with its nonzero entries as its spike count. Returns the
    output and a dict of the binary stages.
    """
    prefix = "fsve.sdsa"
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2:
        raise PreconditionError(f"tokens must be [n, d], got shape {u.shape}")
    n_tokens, d_model = u.shape
    w = weights
    input_binary = is_binary(u)
    events = int(np.count_nonzero(u))     # the spike count of binary input

    projections = {}
    for name in ("q", "k", "v"):
        raw = linear(u, w[f"{prefix}.{name}.w"], w[f"{prefix}.{name}.b"])
        projections[name], _ = sn_threshold(raw)
        d_out = raw.shape[1]
        dense = dense_linear_macs(n_tokens, d_model, d_out)
        actual = events * d_out if input_binary else dense
        ledger.record(f"{prefix}.{name}_proj", spike_count=events,
                      fan_out=d_out, actual_sops=actual,
                      neuron_ops=raw.size, max_sops=dense,
                      element_count=u.size)
    q_s, k_s, v_s = projections["q"], projections["k"], projections["v"]

    # Sums of binary products are exact in float64, and so is their N^2
    # multiple. S is also the correlation's SOP count: a product
    # accumulates only where both operands spike.
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
    dense = dense_linear_macs(n_tokens, gated.shape[1], out.shape[1])
    ledger.record(f"{prefix}.out_proj", spike_count=0,
                  fan_out=out.shape[1], actual_sops=dense,
                  neuron_ops=0, max_sops=dense)

    return out, {"q_s": q_s, "k_s": k_s, "v_s": v_s,
                 "attn_spikes": attn_spikes}


# ---------------------------------------------------------------------------
# Desk-scale full-spiking encoder path (drives the snn-forward command)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FsveConfig:
    """The width of ``init_fsve_weights``; the forward reads it back."""

    channels: int = 8

    def __post_init__(self):
        if self.channels < 1:
            raise PreconditionError("channels must be >= 1")


def init_fsve_weights(cfg: FsveConfig, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    c = cfg.channels
    weights: dict[str, np.ndarray] = {}
    for name, c_in in (("stem1", 1), ("stem2", c), ("block", c)):
        weights[f"fsve.{name}.conv.w"] = he_init(rng, (c, c_in, 3, 3),
                                                 fan_in=c_in * 9)
        weights[f"fsve.{name}.tdbn.gamma"] = np.ones(c)
        weights[f"fsve.{name}.tdbn.beta"] = np.zeros(c)
    for name in ("q", "k", "v", "out"):
        weights[f"fsve.sdsa.{name}.w"] = he_init(rng, (c, c), fan_in=c)
        weights[f"fsve.sdsa.{name}.b"] = np.zeros(c)
    return weights


def _spiking_stem(s: np.ndarray, weights: dict[str, np.ndarray],
                  p: LifParams, prefix: str,
                  ledger: EnergyLedger) -> np.ndarray:
    """Stride-2 spiking convolution stage: conv, TDBN, stateful LIF."""
    normed = _conv_tdbn(s, weights, prefix, 2, ledger)
    u = np.zeros(normed.shape[1:])
    spikes = np.empty(normed.shape, dtype=np.uint8)
    for t in range(normed.shape[0]):
        spikes[t], u = lif_step(u, normed[t], p)
    return spikes


def fsve_forward(stream: SpikeStream, weights: dict[str, np.ndarray],
                 timesteps: int, ledger: EnergyLedger):
    """Run the desk-scale full-spiking path over a stream.

    The stream is subsampled to ``timesteps`` frames, passed through two
    stride-2 spiking stem stages, a spiking residual block, and per-step
    spike-driven attention over the spatial token grid. Every stage is
    [T, C, H, W] and records its counts in ``ledger``. Returns the mean
    spike-rate embedding plus a dict of every binary stage for
    invariant scanning.
    """
    x = subsample_temporal(stream, timesteps).data[:, None]    # [T, 1, H, W]
    stages: dict[str, np.ndarray] = {"input": x}

    lif = LifParams()
    s1 = _spiking_stem(x, weights, lif, "fsve.stem1", ledger)
    stages["stem1"] = s1
    s2 = _spiking_stem(s1, weights, lif, "fsve.stem2", ledger)
    stages["stem2"] = s2
    s3 = spiking_residual_block(s2, weights, lif, ledger)
    stages["resblock"] = s3

    outputs = []
    for t, maps in enumerate(s3):
        tokens = maps.reshape(len(maps), -1).T          # [N, C]
        out, internals = esdsa_forward(tokens, weights, ledger)
        outputs.append(out)
        stages.update({f"sdsa.t{t}.{key}": value
                       for key, value in internals.items()})

    for key, value in stages.items():
        if not is_binary(value):
            raise InvariantError(f"stage {key} is not binary")

    embedding = np.mean([o.mean(axis=0) for o in outputs], axis=0)
    return embedding, stages
