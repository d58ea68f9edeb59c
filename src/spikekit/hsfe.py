"""Hierarchical spike feature extraction.

A stream is cut into overlapping temporal blocks around evenly spaced key
steps. Each block feeds parallel filtering branches that trade channel
count against temporal coverage: a branch with many input channels sees a
short, sharp slice of time, a branch with few channels integrates a wider
averaged window, and the product of the two stays (nearly) constant,
the same way a fixed amount of fluid fills a wide short or narrow tall
container. A spatial-attention head then gates each branch per pixel and
the gated maps are stacked into one coarse intensity estimate per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .nnops import conv2d, he_init, moving_average_same, sigmoid
from .stream import SpikeStream


@dataclass(frozen=True)
class BlockSpec:
    """Temporal block slicing: window radius, center spacing, block count."""

    r_win: int = 30
    step: int = 45
    n_blocks: int = 5

    def __post_init__(self):
        if self.r_win < 0:
            raise PreconditionError("r_win must be >= 0")
        if self.step < 1:
            raise PreconditionError("step must be >= 1")
        if self.n_blocks < 1:
            raise PreconditionError("n_blocks must be >= 1")

    @property
    def block_len(self) -> int:
        return 2 * self.r_win + 1

    @property
    def required_t_len(self) -> int:
        return (self.n_blocks - 1) * self.step + self.block_len

    def centers(self) -> list[int]:
        """Key time steps t_i = r_win + i*step (first center is the
        earliest legal one)."""
        return [self.r_win + i * self.step for i in range(self.n_blocks)]


@dataclass(frozen=True)
class BranchSpec:
    """Filtering-branch layout: branch count, channel decrement, output
    width. It sizes the weights (:func:`init_hsfe_weights`); the forwards
    read the layout back from the masks and kernels."""

    m: int = 3
    channel_step: int = 20
    c_out: int = 16

    def __post_init__(self):
        if self.m < 1:
            raise PreconditionError("branch count m must be >= 1")
        if self.channel_step < 0:
            raise PreconditionError("channel_step must be >= 0")
        if self.c_out < 1:
            raise PreconditionError("c_out must be >= 1")


@dataclass(frozen=True)
class BranchAllocation:
    """One branch's share: k input channels, paired averaging width w."""

    channels: int
    avg_width: int


def slice_blocks(stream: SpikeStream, spec: BlockSpec) -> list[np.ndarray]:
    """Cut the stream into n_blocks overlapping time-blocks.

    Block i spans [t_i - r_win, t_i + r_win] around center t_i; every
    block has 2*r_win + 1 frames. Streams too short for the last block
    raise instead of being padded; silent zero padding would corrupt
    spike statistics.
    """
    need = spec.required_t_len
    if stream.t_len < need:
        raise PreconditionError(
            f"stream of {stream.t_len} steps is too short for {spec.n_blocks} "
            f"blocks (needs >= {need})")
    blocks = []
    for center in spec.centers():
        lo = center - spec.r_win
        blocks.append(stream.data[lo:lo + spec.block_len].copy())
    return blocks


def _avg_width(total_channels: int, k: int) -> int:
    """The averaging width of k of total_channels input channels: the one
    width rule of :func:`allocate_channels` and :func:`mtf_forward`."""
    return int(round(total_channels / k))


def allocate_channels(total_channels: int, m: int,
                      channel_step: int) -> list[BranchAllocation]:
    """Split a block's time steps across branches, photon-conserving.

    Branch i gets k_i = total_channels - i*channel_step input channels
    (branch 0 is the finest) and an averaging window w_i = round(K / k_i)
    with K = max k = total_channels, so k_i * w_i is constant across
    branches within rounding. channel_step = 0 degenerates to identical
    branches (the no-slicing ablation configuration).
    """
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if channel_step < 0:
        raise PreconditionError("channel_step must be >= 0")
    if total_channels < m:
        raise PreconditionError(
            f"total_channels={total_channels} must be >= branch count m={m}")
    ks = [total_channels - i * channel_step for i in range(m)]
    if ks[-1] < 1:
        raise PreconditionError(
            f"channel_step={channel_step} drives branch {m - 1} to "
            f"{ks[-1]} channels (< 1)")
    return [BranchAllocation(k, _avg_width(total_channels, k)) for k in ks]


def _branch_slice(block_len: int, k: int) -> slice:
    start = (block_len - k) // 2
    return slice(start, start + k)


def mtf_forward(block: np.ndarray,
                weights: dict[str, np.ndarray]) -> list[np.ndarray]:
    """Multi-scale temporal filtering of one block.

    The branch count is the spatial-attention kernel's output width, and
    branch i's channel count k_i is the length of its temporal mask. Per
    branch: take the central k_i frames, weight them with the mask,
    average over round(block_len / k_i) frames, then run a 3x3 (padding 1)
    convolution of the k_i channels with the branch kernel. Branch 0 spans
    the block, so these are the widths of :func:`allocate_channels`.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 3:
        raise PreconditionError(f"block must be [len, h, w], got {block.shape}")
    block_len = block.shape[0]
    masks = [np.asarray(weights[f"hsfe.branch{i}.mask"], dtype=np.float64)
             for i in range(weights["hsfe.sa.conv.w"].shape[0])]
    if not (masks and all(mask.ndim == 1 and 1 <= len(mask) <= block_len
                          for mask in masks) and len(masks[0]) == block_len):
        raise PreconditionError(
            f"branch masks of shapes {[mask.shape for mask in masks]} must "
            f"be 1-D, of 1 to {block_len} frames, the first of {block_len}")
    outputs = []
    for i, mask in enumerate(masks):
        sub = block[_branch_slice(block_len, len(mask))] * mask[:, None, None]
        sub = moving_average_same(sub, _avg_width(block_len, len(mask)))
        kernel = np.asarray(weights[f"hsfe.branch{i}.conv.w"], dtype=np.float64)
        outputs.append(conv2d(sub, kernel, bias=None, stride=1, padding=1))
    return outputs


def spatial_attention(features: list[np.ndarray],
                      weights: dict[str, np.ndarray]) -> np.ndarray:
    """Gate each branch per pixel and stack the weighted maps.

    A 3x3 convolution over the channel-concatenated branches produces one
    logit map per branch; logistic squashing turns it into gates strictly
    inside (0, 1). Output shape is [m * c_out, H, W].
    """
    if not features:
        raise PreconditionError("spatial_attention needs at least one feature map")
    shape = features[0].shape
    for i, feat in enumerate(features):
        if feat.shape != shape:
            raise PreconditionError(
                f"feature {i} has shape {feat.shape}, expected {shape}")
    m = len(features)
    stacked = np.concatenate([np.asarray(f, dtype=np.float64)
                              for f in features], axis=0)
    kernel = np.asarray(weights["hsfe.sa.conv.w"], dtype=np.float64)
    bias = np.asarray(weights["hsfe.sa.conv.b"], dtype=np.float64)
    if kernel.shape != (m, stacked.shape[0], 3, 3):
        raise PreconditionError(
            f"sa kernel has shape {kernel.shape}, expected "
            f"({m}, {stacked.shape[0]}, 3, 3)")
    gates = sigmoid(conv2d(stacked, kernel, bias, stride=1, padding=1))
    return np.concatenate([gates[i:i + 1] * features[i] for i in range(m)],
                          axis=0)


def hsfe_forward(stream: SpikeStream, spec: BlockSpec,
                 weights: dict[str, np.ndarray]) -> list[np.ndarray]:
    """Full extractor: slice blocks, filter, gate; one coarse intensity
    estimate per block, in temporal order."""
    estimates = []
    for block in slice_blocks(stream, spec):
        feats = mtf_forward(block, weights)
        est = spatial_attention(feats, weights)
        if not np.all(np.isfinite(est)):
            raise PreconditionError("non-finite values in coarse estimate")
        estimates.append(est)
    return estimates


def init_hsfe_weights(block_len: int, branches: BranchSpec,
                      seed: int) -> dict[str, np.ndarray]:
    """Seeded weight set: all-ones masks, He-scaled branch convolutions,
    zero-bias attention head."""
    rng = np.random.default_rng(seed)
    allocs = allocate_channels(block_len, branches.m, branches.channel_step)
    weights: dict[str, np.ndarray] = {}
    for i, alloc in enumerate(allocs):
        weights[f"hsfe.branch{i}.mask"] = np.ones(alloc.channels)
        weights[f"hsfe.branch{i}.conv.w"] = he_init(
            rng, (branches.c_out, alloc.channels, 3, 3),
            fan_in=alloc.channels * 9)
    total = branches.m * branches.c_out
    weights["hsfe.sa.conv.w"] = he_init(rng, (branches.m, total, 3, 3),
                                        fan_in=total * 9)
    weights["hsfe.sa.conv.b"] = np.zeros(branches.m)
    return weights
