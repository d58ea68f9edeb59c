"""Miniature attention-pooling ResNet plus temporal-attention fusion.

Each coarse intensity estimate runs through a convolutional stem (three
3x3 stride-2 layers), four residual groups, and a multi-head attention
pool over the flattened H/32 x W/32 token grid, producing one vector.
The per-block vectors are stacked along time, mixed by one self-attention
encoder layer, and mean-pooled into a single clip embedding.

Toy widths stand in for a production-scale backbone; counts, strides and
head counts keep the reference shape (stem /8, downsampling in groups 2
and 3 for /32 total, 8 attention heads).
"""

from __future__ import annotations

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
        if self.embed_dim % HEADS != 0:
            raise PreconditionError("embed_dim must be divisible by heads")


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
    if x.shape[1] < 32 or x.shape[2] < 32:
        raise PreconditionError(
            f"spatial dims {x.shape[1]}x{x.shape[2]} too small; the backbone "
            f"reduces by 32x and needs at least 32x32")
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
    """Arithmetic mean of a [T, D] sequence over time, accumulated
    strictly left to right so two runs bit-compare equal."""
    x = np.asarray(seq, dtype=np.float64)
    if x.ndim != 2:
        raise PreconditionError(f"sequence must be [t, d], got {x.shape}")
    if x.shape[0] < 1:
        raise PreconditionError("cannot pool an empty time axis")
    acc = x[0].copy()
    for t in range(1, x.shape[0]):
        acc += x[t]
    return acc / x.shape[0]


def star_net_forward(estimates: list[np.ndarray],
                     weights: dict[str, np.ndarray]) -> np.ndarray:
    """Full path: per-estimate backbone, temporal attention, mean pool.

    Returns one clip embedding, as wide as the weights' embedding.
    """
    if not estimates:
        raise PreconditionError("star_net_forward needs at least one estimate")
    vectors = [mini_mapresnet_forward(e, weights) for e in estimates]
    return temporal_pool(temporal_attention(np.stack(vectors), weights))


# ---------------------------------------------------------------------------
# Weight generation
# ---------------------------------------------------------------------------

def init_starnet_weights(cfg: MiniMapResNetConfig, in_channels: int,
                         spatial_hw: tuple[int, int],
                         seed: int) -> dict[str, np.ndarray]:
    """Seeded random weights for the given input geometry.

    Biases start at zero. Positional codes are sized for the token grid
    (H/32 x W/32) implied by ``spatial_hw``.
    """
    h, w = spatial_hw
    if h < 32 or w < 32:
        raise PreconditionError("spatial dims must be at least 32x32")
    rng = np.random.default_rng(seed)
    weights: dict[str, np.ndarray] = {}

    def conv(name, c_out, c_in, k):
        weights[f"{name}.w"] = he_init(rng, (c_out, c_in, k, k),
                                       fan_in=c_in * k * k)
        weights[f"{name}.b"] = np.zeros(c_out)

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
    n_tokens = (h // 32) * (w // 32)
    weights["star.attnpool.pos"] = rng.normal(0.0, 0.02, (n_tokens + 1, c))
    for name in ("q", "k", "v"):
        weights[f"star.attnpool.{name}.w"] = he_init(rng, (c, c), fan_in=c)
        weights[f"star.attnpool.{name}.b"] = np.zeros(c)
    weights["star.attnpool.out.w"] = he_init(rng, (c, cfg.embed_dim), fan_in=c)
    weights["star.attnpool.out.b"] = np.zeros(cfg.embed_dim)

    d = cfg.embed_dim
    for name in ("q", "k", "v", "out"):
        weights[f"star.temporal.attn.{name}.w"] = he_init(rng, (d, d), fan_in=d)
        weights[f"star.temporal.attn.{name}.b"] = np.zeros(d)
    weights["star.temporal.ffn.fc1.w"] = he_init(rng, (d, FFN_DIM), fan_in=d)
    weights["star.temporal.ffn.fc1.b"] = np.zeros(FFN_DIM)
    weights["star.temporal.ffn.fc2.w"] = he_init(rng, (FFN_DIM, d),
                                                 fan_in=FFN_DIM)
    weights["star.temporal.ffn.fc2.b"] = np.zeros(d)
    return weights
