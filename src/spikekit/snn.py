"""Full-spiking components: LIF neurons, time-pooled batch normalization,
spiking residual blocks, and spike-driven self-attention.

Everything is forward-only with spike-count instrumentation: the spiking
path runs for its energy ledger, and nothing backpropagates through it.
The LIF neurons share one threshold and one leak and reset hard.
Spike-valued tensors contain only {0, 1} after every operation; the
Heaviside convention here is that the boundary fires (Theta(0) = 1,
matching the >= in the firing rule).

The encoder's one size is its width, the int that ``init_fsve_weights``
takes; ``fsve_forward`` and its stages read it back from the weights.
"""

from __future__ import annotations

import numpy as np

from .energy import EnergyLedger, count_conv_sops
from .errors import PreconditionError
from .nnops import conv2d, he_init, linear
from .stream import SpikeStream, is_binary, subsample_temporal

TDBN_EPS = 1e-5     # added to the pooled variance before the square root
LIF_THRESH = 0.5    # firing threshold of every LIF neuron
LIF_DECAY = 0.5     # membrane leak per time step


def lif_step(u: np.ndarray,
             inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LIF update of the potentials ``u``: u <- LIF_DECAY*u + input,
    fire where u >= LIF_THRESH. Returns the spikes and the new potentials.

    Fired neurons reset to 0; the rest keep their potential.
    """
    u = np.asarray(u, dtype=np.float64)
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.shape != u.shape:
        raise PreconditionError(
            f"input shape {inputs.shape} does not match membrane {u.shape}")
    u = LIF_DECAY * u + inputs
    if not np.all(np.isfinite(u)):
        raise PreconditionError(
            "membrane potentials and inputs must be finite")
    fired = u >= LIF_THRESH
    u[fired] = 0.0
    return fired.astype(np.uint8), u


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
    TDBN. Records the stage in the ledger: a neuron update per normalized
    output and, as ``max_sops``, each conv output times its fan-in."""
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
                  max_sops=conv_out.size * kernel[0].size,
                  element_count=s.size)
    return normed


def spiking_residual_block(s: np.ndarray, weights: dict[str, np.ndarray],
                           ledger: EnergyLedger) -> np.ndarray:
    """Spiking residual unit: conv, TDBN, add the binary identity, spike,
    with the ``fsve.block`` weights.

    Input and output are binary [T, C, H, W] tensors. With zero conv
    weights and beta 0, any position carrying an input spike contributes
    potential 1 >= LIF_THRESH, so the block passes the identity through.
    """
    s = np.asarray(s)
    if not is_binary(s):
        raise PreconditionError("residual block input must be binary (0/1)")
    if s.ndim != 4:
        raise PreconditionError(
            f"residual block input must be [t, c, h, w], got {s.shape}")
    normed = _conv_tdbn(s, weights, "fsve.block", 1, ledger)
    return (normed + s >= LIF_THRESH).astype(np.uint8)


def sn_threshold(x: np.ndarray) -> np.ndarray:
    """Spike normalization: fire where x >= V_th with V_th the mean
    absolute value of the whole tensor.

    An all-zero input gives V_th = 0 and every position fires, per the
    Theta(0) = 1 boundary convention.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise PreconditionError("sn_threshold needs a non-empty array")
    return (x >= np.abs(x).mean()).astype(np.uint8)


def esdsa_forward(u: np.ndarray, weights: dict[str, np.ndarray],
                  ledger: EnergyLedger) -> np.ndarray:
    """Spike-driven self-attention over binary [tokens, d_model] spikes.

    Q/K/V are spike-normalized linear projections (binary) whose width d
    is the q projection's output width. Binary Q_S and K_S make every
    correlation c = Q_S K_S^T an integer, and their sum
    S = colsum(Q_S) . colsum(K_S) an exact one. Spike normalization of the
    scaled map c / d fires where it reaches its mean; for N tokens that is
    where c * N^2 >= S, so the threshold is decided by an exact integer
    test, and entries equal to the mean fire (Theta(0) = 1). The binary
    attention map gates V_S and a final linear layer produces the output,
    which is returned. All SN stage spike counts go to the ledger.
    """
    prefix = "fsve.sdsa"
    u = np.asarray(u)
    if u.ndim != 2:
        raise PreconditionError(f"tokens must be [n, d], got shape {u.shape}")
    if not is_binary(u):
        raise PreconditionError("tokens must be binary (0/1)")
    n_tokens, d_model = u.shape
    w = weights
    events = int(np.count_nonzero(u))
    u = np.asarray(u, dtype=np.float64)

    projections = {}
    for name in ("q", "k", "v"):
        raw = linear(u, w[f"{prefix}.{name}.w"], w[f"{prefix}.{name}.b"])
        projections[name] = sn_threshold(raw)
        d_out = raw.shape[1]
        ledger.record(f"{prefix}.{name}_proj", spike_count=events,
                      fan_out=d_out, actual_sops=events * d_out,
                      neuron_ops=raw.size, max_sops=raw.size * d_model,
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
                  max_sops=corr.size * q_s.shape[1],
                  element_count=q_s.size + k_s.size)
    apply_sops = int((attn_spikes.sum(axis=0).astype(np.int64)
                      * v_s.sum(axis=1).astype(np.int64)).sum())
    ledger.record(f"{prefix}.attn_apply",
                  spike_count=int(attn_spikes.sum()),
                  fan_out=v_s.shape[1], actual_sops=apply_sops,
                  neuron_ops=0,
                  max_sops=gated.size * n_tokens,
                  element_count=attn_spikes.size)
    dense = out.size * gated.shape[1]
    ledger.record(f"{prefix}.out_proj", spike_count=0,
                  fan_out=out.shape[1], actual_sops=dense,
                  neuron_ops=0, max_sops=dense)
    return out


# ---------------------------------------------------------------------------
# Desk-scale full-spiking encoder path (drives the snn-forward command)
# ---------------------------------------------------------------------------

def init_fsve_weights(channels: int, seed: int) -> dict[str, np.ndarray]:
    """Seeded weights of the full-spiking path, every stage ``channels``
    wide; a width below 1 is a ``PreconditionError``."""
    if channels < 1:
        raise PreconditionError(f"channels must be >= 1, got {channels}")
    rng = np.random.default_rng(seed)
    c = channels
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
                  prefix: str, ledger: EnergyLedger) -> np.ndarray:
    """Stride-2 spiking convolution stage: conv, TDBN, stateful LIF."""
    normed = _conv_tdbn(s, weights, prefix, 2, ledger)
    u = np.zeros(normed.shape[1:])
    spikes = np.empty(normed.shape, dtype=np.uint8)
    for t in range(normed.shape[0]):
        spikes[t], u = lif_step(u, normed[t])
    return spikes


def fsve_forward(stream: SpikeStream, weights: dict[str, np.ndarray],
                 timesteps: int, ledger: EnergyLedger) -> np.ndarray:
    """Run the desk-scale full-spiking path over a stream.

    The stream is subsampled to ``timesteps`` frames, passed through two
    stride-2 spiking stem stages, a spiking residual block, and per-step
    spike-driven attention over the spatial token grid. Every stage is
    [T, C, H, W], binary by construction (the next stage refuses anything
    else), and records its counts in ``ledger``. Returns the mean
    spike-rate embedding.
    """
    x = subsample_temporal(stream, timesteps).data[:, None]    # [T, 1, H, W]
    s1 = _spiking_stem(x, weights, "fsve.stem1", ledger)
    s2 = _spiking_stem(s1, weights, "fsve.stem2", ledger)
    s3 = spiking_residual_block(s2, weights, ledger)
    outputs = [esdsa_forward(maps.reshape(len(maps), -1).T,    # [N, C]
                             weights, ledger)
               for maps in s3]
    return np.mean([o.mean(axis=0) for o in outputs], axis=0)
