"""Miniature attention-pooling ResNet plus temporal-attention fusion.

Each coarse intensity estimate runs through a convolutional stem (three
3x3 stride-2 layers), four residual groups, and a multi-head attention
pool over its ceil(H/32) x ceil(W/32) token grid, producing one vector.
The per-block vectors are stacked along time, mixed by one self-attention
encoder layer, and mean-pooled into a single clip embedding.

Toy widths stand in for a production-scale backbone; counts, strides and
head counts keep the reference shape (stem /8, downsampling in groups 2
and 3 for /32 total, 8 attention heads).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .nnops import conv2d, he_init, linear, relu, softmax


# The backbone's fixed shape. The stem halves the map three times (/8);
# each group is (width, residual blocks, stride of its first block), and
# groups 2 and 3 halve it once more each, for /32 in all.
STEM_CHANNELS = 16
GROUPS = ((16, 2, 1), (32, 2, 2), (64, 2, 2), (128, 2, 1))
HEADS = 8
FFN_DIM = 128


@dataclass(frozen=True)
class MiniMapResNetConfig:
    embed_dim: int = 64

    def __post_init__(self):
        if self.embed_dim < 1 or self.embed_dim % HEADS != 0:
            raise PreconditionError(f"embed_dim must be a positive multiple "
                                    f"of {HEADS}, got {self.embed_dim}")


# ---------------------------------------------------------------------------
# Backbone
# ---------------------------------------------------------------------------

def _residual_block(x: np.ndarray, prefix: str, stride: int, out_ch: int,
                    weights: dict[str, np.ndarray]) -> np.ndarray:
    """Bottleneck block: 1x1 reduce, strided 3x3, 1x1 expand, plus a
    shortcut (1x1 projection when the shape changes)."""
    w = weights
    y = relu(conv2d(x, w[f"{prefix}.conv1.w"], w[f"{prefix}.conv1.b"],
                    stride=1, padding=0))
    y = relu(conv2d(y, w[f"{prefix}.conv2.w"], w[f"{prefix}.conv2.b"],
                    stride=stride, padding=1))
    y = conv2d(y, w[f"{prefix}.conv3.w"], w[f"{prefix}.conv3.b"],
               stride=1, padding=0)
    if f"{prefix}.proj.w" in w:
        shortcut = conv2d(x, w[f"{prefix}.proj.w"], None,
                          stride=stride, padding=0)
    else:
        if stride != 1 or x.shape[0] != out_ch:
            raise PreconditionError(
                f"{prefix}: missing projection for {x.shape[0]} -> {out_ch} "
                f"at stride {stride}")
        shortcut = x
    return relu(y + shortcut)


def _attend(queries: np.ndarray, seq: np.ndarray,
            weights: dict[str, np.ndarray],
            prefix: str) -> tuple[np.ndarray, np.ndarray]:
    """``HEADS``-head scaled dot-product attention of ``queries`` [Q, C]
    over ``seq`` [N, C] through the ``{prefix}.q/k/v/out`` projections.

    Returns the out-projected context [Q, D] and the attention weights
    [HEADS, Q, N], each row summing to one.
    """
    c = seq.shape[1]
    if c % HEADS != 0:
        raise PreconditionError(
            f"width {c} must be divisible by {HEADS} heads")
    dh = c // HEADS
    w = weights
    q = linear(queries, w[f"{prefix}.q.w"], w[f"{prefix}.q.b"])
    k = linear(seq, w[f"{prefix}.k.w"], w[f"{prefix}.k.b"])
    v = linear(seq, w[f"{prefix}.v.w"], w[f"{prefix}.v.b"])
    qh = q.reshape(len(queries), HEADS, dh)
    kh = k.reshape(-1, HEADS, dh)
    vh = v.reshape(-1, HEADS, dh)
    scores = np.einsum("qhd,nhd->hqn", qh, kh) / np.sqrt(dh)
    attn = softmax(scores, axis=-1)
    ctx = np.einsum("hqn,nhd->qhd", attn, vh).reshape(len(queries), c)
    return linear(ctx, w[f"{prefix}.out.w"], w[f"{prefix}.out.b"]), attn


def attention_pool(tokens: np.ndarray,
                   weights: dict[str, np.ndarray]) -> np.ndarray:
    """Multi-head attention pooling over [N, C] tokens.

    The query is the mean token; mean and tokens each get a learnable
    positional code, so the pooled sequence has N + 1 entries. The output
    is projected to the embedding width.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 2:
        raise PreconditionError(f"tokens must be [n, c], got {tokens.shape}")
    pos = weights["star.attnpool.pos"]
    seq = np.concatenate([tokens.mean(axis=0, keepdims=True), tokens], axis=0)
    if pos.shape != seq.shape:
        raise PreconditionError(
            f"positional codes {pos.shape} do not match token sequence "
            f"{seq.shape} (grid size mismatch)")
    seq = seq + pos
    return _attend(seq[:1], seq, weights, "star.attnpool")[0][0]


def mini_mapresnet_forward(estimate: np.ndarray,
                           weights: dict[str, np.ndarray]) -> np.ndarray:
    """Map one coarse estimate [C, H, W] to an embedding vector [D]."""
    x = np.asarray(estimate, dtype=np.float64)
    if x.ndim != 3:
        raise PreconditionError(
            f"estimate must be [c, h, w], got shape {x.shape}")
    for i in (1, 2, 3):
        x = relu(conv2d(x, weights[f"star.stem.conv{i}.w"],
                        weights[f"star.stem.conv{i}.b"], stride=2, padding=1))
    for g, (width, n_blocks, stride) in enumerate(GROUPS):
        for b in range(n_blocks):
            x = _residual_block(x, f"star.group{g + 1}.block{b}",
                                stride if b == 0 else 1, width, weights)
    c = x.shape[0]
    tokens = x.reshape(c, -1).T            # [N, C]
    return attention_pool(tokens, weights)


# ---------------------------------------------------------------------------
# Temporal fusion
# ---------------------------------------------------------------------------

def temporal_attention(seq, weights: dict[str, np.ndarray]) -> np.ndarray:
    """One encoder layer over the time axis of a [T, D] sequence.

    Multi-head self-attention, followed by a position-wise feed-forward,
    both with residual connections. Shape is preserved.
    """
    x = np.asarray(seq, dtype=np.float64)
    if x.ndim != 2:
        raise PreconditionError(f"sequence must be [t, d], got {x.shape}")
    w = weights
    ctx, _ = _attend(x, x, w, "star.temporal.attn")
    y1 = x + ctx
    ffn = linear(relu(linear(y1, w["star.temporal.ffn.fc1.w"],
                             w["star.temporal.ffn.fc1.b"])),
                 w["star.temporal.ffn.fc2.w"], w["star.temporal.ffn.fc2.b"])
    return y1 + ffn


def temporal_pool(seq) -> np.ndarray:
    """Arithmetic mean of a [T, D] sequence over time. For D > 1 it is
    accumulated strictly left to right: numpy reduces axis 0 of a
    C-contiguous array one row at a time, in order. One column (D = 1) is
    summed pairwise; the backbone pools D = embed_dim >= HEADS."""
    x = np.ascontiguousarray(seq, dtype=np.float64)
    if x.ndim != 2:
        raise PreconditionError(f"sequence must be [t, d], got {x.shape}")
    if x.shape[0] < 1:
        raise PreconditionError("cannot pool an empty time axis")
    return x.mean(axis=0)


def star_net_forward(estimates: Iterable[np.ndarray],
                     weights: dict[str, np.ndarray]) -> np.ndarray:
    """Full path: per-estimate backbone, temporal attention, mean pool.

    ``estimates`` may be any iterable, such as the generator of
    ``hsfe.hsfe_forward``; it is read once, and each estimate is dropped
    before the next one is asked for. Returns one clip embedding, as wide
    as the weights' embedding.
    """
    vectors = list(map(lambda e: mini_mapresnet_forward(e, weights),
                       estimates))
    if not vectors:
        raise PreconditionError("star_net_forward needs at least one estimate")
    return temporal_pool(temporal_attention(np.stack(vectors), weights))


# ---------------------------------------------------------------------------
# Weight generation
# ---------------------------------------------------------------------------

def init_starnet_weights(cfg: MiniMapResNetConfig, in_channels: int,
                         spatial_hw: tuple[int, int],
                         seed: int) -> dict[str, np.ndarray]:
    """Seeded random weights for the given input geometry.

    Biases start at zero. Positional codes fit any ``spatial_hw``: the five
    stride-2 stages (3x3 with padding 1, or a 1x1 projection) each map a
    side n to ceil(n/2), for ceil(H/32) x ceil(W/32) tokens plus the mean.
    """
    rng = np.random.default_rng(seed)
    weights: dict[str, np.ndarray] = {}

    def conv(name, c_out, c_in, k):
        weights[f"{name}.w"] = he_init(rng, (c_out, c_in, k, k),
                                       fan_in=c_in * k * k)
        weights[f"{name}.b"] = np.zeros(c_out)

    def dense(name, d_in, d_out):
        weights[f"{name}.w"] = he_init(rng, (d_in, d_out), fan_in=d_in)
        weights[f"{name}.b"] = np.zeros(d_out)

    c_in = in_channels
    for i in (1, 2, 3):
        conv(f"star.stem.conv{i}", STEM_CHANNELS, c_in, 3)
        c_in = STEM_CHANNELS

    for g, (width, n_blocks, first_stride) in enumerate(GROUPS):
        for b in range(n_blocks):
            stride = first_stride if b == 0 else 1
            prefix = f"star.group{g + 1}.block{b}"
            mid = width // 4
            conv(f"{prefix}.conv1", mid, c_in, 1)
            conv(f"{prefix}.conv2", mid, mid, 3)
            conv(f"{prefix}.conv3", width, mid, 1)
            if stride != 1 or c_in != width:
                weights[f"{prefix}.proj.w"] = he_init(
                    rng, (width, c_in, 1, 1), fan_in=c_in)
            c_in = width

    c = GROUPS[-1][0]
    n_tokens = -(-spatial_hw[0] // 32) * -(-spatial_hw[1] // 32)
    weights["star.attnpool.pos"] = rng.normal(0.0, 0.02, (n_tokens + 1, c))
    for name in ("q", "k", "v"):
        dense(f"star.attnpool.{name}", c, c)
    dense("star.attnpool.out", c, cfg.embed_dim)

    d = cfg.embed_dim
    for name in ("q", "k", "v", "out"):
        dense(f"star.temporal.attn.{name}", d, d)
    dense("star.temporal.ffn.fc1", d, FFN_DIM)
    dense("star.temporal.ffn.fc2", FFN_DIM, d)
    return weights
