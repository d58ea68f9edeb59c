"""Hierarchical spike feature extraction.

A stream is cut into overlapping temporal blocks around evenly spaced key
steps. Each block feeds parallel filtering branches that trade channel
count against temporal coverage: a branch with many input channels sees a
short, sharp slice of time, a branch with few channels integrates a wider
averaged window, and the product of the two stays (nearly) constant,
the same way a fixed amount of fluid fills a wide short or narrow tall
container. Each branch is masked and averaged in the buffer its conv
reads: a mean overwrites its frame, so the earlier frames of a window are
masked again from the block. A spatial-attention head then gates each
branch per pixel and the gated maps are stacked into one coarse intensity
estimate per block. Those buffers come from ``nnops.padded_zeros``:
``nnops`` alone knows how a conv lays out its padded input.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .nnops import conv2d, he_init, padded_zeros, sigmoid
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


def slice_blocks(stream: SpikeStream,
                 spec: BlockSpec) -> Iterator[np.ndarray]:
    """Cut the stream into n_blocks overlapping time-blocks, unpacked one at
    a time as they are iterated into read-only [block_len, H, W] arrays.

    Block i spans [t_i - r_win, t_i + r_win] around center t_i; every
    block has 2*r_win + 1 frames. Streams too short for the last block
    raise at the call instead of being padded; silent zero padding would
    corrupt spike statistics.
    """
    need = spec.required_t_len
    if stream.t_len < need:
        raise PreconditionError(
            f"stream of {stream.t_len} steps is too short for {spec.n_blocks} "
            f"blocks (needs >= {need})")
    return (stream.unpack(center - spec.r_win, center + spec.r_win + 1)
            for center in spec.centers())


def _avg_width(total_channels: int, k: int) -> int:
    """The averaging width of k of total_channels input channels: the one
    width rule, which :func:`mtf_forward` applies to each branch."""
    return int(round(total_channels / k))


def allocate_channels(total_channels: int, m: int,
                      channel_step: int) -> list[int]:
    """Split a block's time steps across branches, photon-conserving: the
    input channel count k_i of each branch.

    Branch i gets k_i = total_channels - i*channel_step input channels
    (branch 0 is the finest), which the forward averages over
    w_i = round(K / k_i) steps (:func:`_avg_width`) with K = max k =
    total_channels, so k_i * w_i is constant across branches within
    rounding. channel_step = 0 degenerates to identical branches (the
    no-slicing ablation configuration).
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
    return ks


def mtf_forward(block: np.ndarray,
                weights: dict[str, np.ndarray]) -> np.ndarray:
    """Multi-scale temporal filtering of one block: the [m * c_out, H, W]
    branch maps, stacked in branch order.

    The branch count is the spatial-attention kernel's output width, and
    branch i's channel count k_i is the length of its temporal mask. Per
    branch: take the central k_i frames, weight them with the mask,
    average over round(block_len / k_i) frames (fewer at the edges), then
    run a 3x3 (padding 1) convolution of the k_i channels with the branch
    kernel. Branch 0 spans the block, so these are the widths of
    :func:`allocate_channels`.

    Each branch's frames are masked into the first k_i maps of one
    ``nnops.padded_zeros`` buffer, sized for branch 0 and reused by the
    narrower branches, and averaged there in frame order, each window
    summed first to last. A mean overwrites its frame t, so the window's
    frames before t are masked again from the block. Each conv reads its
    frames in place and writes its maps into its slice of a second such
    buffer, the result, which ``conv2d`` in :func:`spatial_attention` also
    reads without a copy.
    """
    block = np.asarray(block)
    if block.ndim != 3:
        raise PreconditionError(f"block must be [len, h, w], got {block.shape}")
    block_len, h, w = block.shape
    masks = [np.asarray(weights[f"hsfe.branch{i}.mask"], dtype=np.float64)
             for i in range(weights["hsfe.sa.conv.w"].shape[0])]
    if not (masks and all(mask.ndim == 1 and 1 <= len(mask) <= block_len
                          for mask in masks) and len(masks[0]) == block_len):
        raise PreconditionError(
            f"branch masks of shapes {[mask.shape for mask in masks]} must "
            f"be 1-D, of 1 to {block_len} frames, the first of {block_len}")
    kernels = [np.asarray(weights[f"hsfe.branch{i}.conv.w"], dtype=np.float64)
               for i in range(len(masks))]
    c_out = kernels[0].shape[0] if kernels[0].ndim else 0
    if not all(kernel.shape == (c_out, len(mask), 3, 3)
               for kernel, mask in zip(kernels, masks)):
        raise PreconditionError(
            f"branch kernels of shapes {[k.shape for k in kernels]} must be "
            f"(c_out, k_i, 3, 3), one c_out, k_i each mask's length")
    frames = padded_zeros(block_len, h, w)
    maps = padded_zeros(len(masks) * c_out, h, w)
    for i, (mask, kernel) in enumerate(zip(masks, kernels)):
        start = (block_len - len(mask)) // 2
        inputs = frames[:len(mask)]
        np.multiply(block[start:start + len(mask)], mask[:, None, None],
                    out=inputs)
        width = _avg_width(block_len, len(mask))
        if width > 1:
            for t in range(len(mask)):
                lo = max(t - (width - 1) // 2, 0)
                hi = min(t + width // 2 + 1, len(mask))
                total = inputs[t] if lo == t else block[start + lo] * mask[lo]
                for j in range(lo + 1, hi):
                    total += inputs[j] if j >= t else block[start + j] * mask[j]
                np.divide(total, hi - lo, out=inputs[t])
        conv2d(inputs, kernel, bias=None, stride=1, padding=1,
               out=maps[i * c_out:(i + 1) * c_out])
    return maps


def spatial_attention(features: np.ndarray,
                      weights: dict[str, np.ndarray]) -> np.ndarray:
    """Gate each branch per pixel: features are the [m * c_out, H, W]
    branch maps of :func:`mtf_forward`, and so is the output.

    A 3x3 convolution over all the maps produces one logit map per branch;
    logistic squashing turns it into gates strictly inside (0, 1), and
    gate i scales branch i's c_out maps. The branch count m is the
    kernel's output width. Maps from :func:`mtf_forward` are convolved
    inside their ``nnops.padded_zeros`` buffer; ``conv2d`` copies any
    other array into one.
    """
    features = np.asarray(features, dtype=np.float64)
    kernel = np.asarray(weights["hsfe.sa.conv.w"], dtype=np.float64)
    bias = np.asarray(weights["hsfe.sa.conv.b"], dtype=np.float64)
    m = kernel.shape[0] if kernel.ndim == 4 else 0
    if not (features.ndim == 3 and m >= 1 and features.shape[0] % m == 0
            and kernel.shape[1:] == (features.shape[0], 3, 3)):
        raise PreconditionError(
            f"features of shape {features.shape} need an sa kernel of shape "
            f"(m, C, 3, 3) with m dividing C, got {kernel.shape}")
    c, h, w = features.shape
    gates = sigmoid(conv2d(features, kernel, bias, stride=1, padding=1))
    return (gates[:, None] * features.reshape(m, c // m, h, w)
            ).reshape(features.shape)


def _coarse_estimate(block: np.ndarray,
                     weights: dict[str, np.ndarray]) -> np.ndarray:
    est = spatial_attention(mtf_forward(block, weights), weights)
    if not np.all(np.isfinite(est)):
        raise PreconditionError("non-finite values in coarse estimate")
    return est


def hsfe_forward(stream: SpikeStream, spec: BlockSpec,
                 weights: dict[str, np.ndarray]) -> Iterator[np.ndarray]:
    """Full extractor: slice blocks, filter, gate; one coarse intensity
    estimate per block, in temporal order.

    Each estimate is made as it is iterated, so a consumer that keeps only
    what it derives from one holds a single [m * c_out, H, W] estimate; a
    stream too short for the blocks raises at the call.
    """
    return (_coarse_estimate(block, weights)
            for block in slice_blocks(stream, spec))


def init_hsfe_weights(block_len: int, branches: BranchSpec,
                      seed: int) -> dict[str, np.ndarray]:
    """Seeded weight set: all-ones masks, He-scaled branch convolutions,
    zero-bias attention head."""
    rng = np.random.default_rng(seed)
    ks = allocate_channels(block_len, branches.m, branches.channel_step)
    weights: dict[str, np.ndarray] = {}
    for i, k in enumerate(ks):
        weights[f"hsfe.branch{i}.mask"] = np.ones(k)
        weights[f"hsfe.branch{i}.conv.w"] = he_init(
            rng, (branches.c_out, k, 3, 3), fan_in=k * 9)
    total = branches.m * branches.c_out
    weights["hsfe.sa.conv.w"] = he_init(rng, (branches.m, total, 3, 3),
                                        fan_in=total * 9)
    weights["hsfe.sa.conv.b"] = np.zeros(branches.m)
    return weights
