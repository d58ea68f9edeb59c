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


@dataclass(frozen=True)
class MiniMapResNetConfig:
    stem_channels: int = 16
    group_widths: tuple[int, int, int, int] = (16, 32, 64, 128)
    blocks_per_group: tuple[int, int, int, int] = (2, 2, 2, 2)
    heads: int = 8
    embed_dim: int = 64
    ffn_dim: int = 128

    def __post_init__(self):
        if self.embed_dim % self.heads != 0:
            raise PreconditionError("embed_dim must be divisible by heads")
        if self.group_widths[-1] % self.heads != 0:
            raise PreconditionError(
                "final group width must be divisible by heads")
        if any(w < 1 for w in self.group_widths):
            raise PreconditionError("group widths must be positive")
        if any(b < a for a, b in zip(self.group_widths, self.group_widths[1:])):
            raise PreconditionError("group widths must be non-decreasing")

    # Stride plan: stem /8, then groups 2 and 3 halve once each -> /32.
    def group_stride(self, g: int) -> int:
        return 2 if g in (1, 2) else 1


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


def attention_pool(tokens: np.ndarray, weights: dict[str, np.ndarray],
                   heads: int, prefix: str = "star.attnpool",
                   return_attention: bool = False):
    """Multi-head attention pooling over [N, C] tokens.

    The query is the mean token; mean and tokens each get a learnable
    positional code, so the pooled sequence has N + 1 entries. The output
    is projected to the embedding width.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 2:
        raise PreconditionError(f"tokens must be [n, c], got {tokens.shape}")
    pos = weights[f"{prefix}.pos"]
    seq = np.concatenate([tokens.mean(axis=0, keepdims=True), tokens], axis=0)
    if pos.shape != seq.shape:
        raise PreconditionError(
            f"positional codes {pos.shape} do not match token sequence "
            f"{seq.shape} (grid size mismatch)")
    seq = seq + pos

    c = seq.shape[1]
    if c % heads != 0:
        raise PreconditionError("token width must be divisible by heads")
    dh = c // heads
    q = linear(seq[:1], weights[f"{prefix}.q.w"], weights[f"{prefix}.q.b"])
    k = linear(seq, weights[f"{prefix}.k.w"], weights[f"{prefix}.k.b"])
    v = linear(seq, weights[f"{prefix}.v.w"], weights[f"{prefix}.v.b"])
    qh = q.reshape(1, heads, dh)
    kh = k.reshape(-1, heads, dh)
    vh = v.reshape(-1, heads, dh)
    scores = np.einsum("qhd,nhd->hqn", qh, kh) / np.sqrt(dh)   # [h, 1, N+1]
    attn = softmax(scores, axis=-1)
    ctx = np.einsum("hqn,nhd->qhd", attn, vh).reshape(1, c)
    pooled = linear(ctx, weights[f"{prefix}.out.w"],
                    weights[f"{prefix}.out.b"])[0]
    if return_attention:
        return pooled, attn.reshape(heads, -1)
    return pooled


def mini_mapresnet_forward(estimate: np.ndarray, cfg: MiniMapResNetConfig,
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
    for g, (width, n_blocks) in enumerate(zip(cfg.group_widths,
                                              cfg.blocks_per_group)):
        for b in range(n_blocks):
            stride = cfg.group_stride(g) if b == 0 else 1
            x = _residual_block(x, f"star.group{g + 1}.block{b}", stride,
                                width, weights)
    c = x.shape[0]
    tokens = x.reshape(c, -1).T            # [N, C]
    return attention_pool(tokens, weights, cfg.heads)


# ---------------------------------------------------------------------------
# Temporal fusion
# ---------------------------------------------------------------------------

def temporal_attention(seq, weights: dict[str, np.ndarray], heads: int = 8,
                       prefix: str = "star.temporal",
                       return_attention: bool = False):
    """One encoder layer over the time axis of a [T, B, D] sequence.

    Multi-head self-attention runs independently per batch element,
    followed by a position-wise feed-forward, both with residual
    connections. Shape is preserved.
    """
    x = np.asarray(seq, dtype=np.float64)
    if x.ndim != 3:
        raise PreconditionError(f"sequence must be [t, b, d], got {x.shape}")
    t_len, batch, dim = x.shape
    if dim % heads != 0:
        raise PreconditionError("embedding dim must be divisible by heads")
    dh = dim // heads
    w = weights
    out = np.empty_like(x)
    attn_all = np.empty((batch, heads, t_len, t_len))
    for b in range(batch):
        xb = x[:, b, :]
        q = linear(xb, w[f"{prefix}.attn.q.w"], w[f"{prefix}.attn.q.b"])
        k = linear(xb, w[f"{prefix}.attn.k.w"], w[f"{prefix}.attn.k.b"])
        v = linear(xb, w[f"{prefix}.attn.v.w"], w[f"{prefix}.attn.v.b"])
        qh = q.reshape(t_len, heads, dh)
        kh = k.reshape(t_len, heads, dh)
        vh = v.reshape(t_len, heads, dh)
        scores = np.einsum("ihd,jhd->hij", qh, kh) / np.sqrt(dh)
        attn = softmax(scores, axis=-1)
        attn_all[b] = attn
        ctx = np.einsum("hij,jhd->ihd", attn, vh).reshape(t_len, dim)
        y1 = xb + linear(ctx, w[f"{prefix}.attn.out.w"],
                         w[f"{prefix}.attn.out.b"])
        ffn = linear(relu(linear(y1, w[f"{prefix}.ffn.fc1.w"],
                                 w[f"{prefix}.ffn.fc1.b"])),
                     w[f"{prefix}.ffn.fc2.w"], w[f"{prefix}.ffn.fc2.b"])
        out[:, b, :] = y1 + ffn
    if return_attention:
        return out, attn_all
    return out


def temporal_pool(seq) -> np.ndarray:
    """Arithmetic mean over the time axis, accumulated strictly left to
    right so two runs bit-compare equal."""
    x = np.asarray(seq, dtype=np.float64)
    if x.ndim != 3:
        raise PreconditionError(f"sequence must be [t, b, d], got {x.shape}")
    if x.shape[0] < 1:
        raise PreconditionError("cannot pool an empty time axis")
    acc = x[0].copy()
    for t in range(1, x.shape[0]):
        acc += x[t]
    return acc / x.shape[0]


def star_net_forward(estimates: list[np.ndarray], cfg: MiniMapResNetConfig,
                     weights: dict[str, np.ndarray]) -> np.ndarray:
    """Full path: per-estimate backbone, temporal attention, mean pool.

    Returns one clip embedding of length cfg.embed_dim.
    """
    if not estimates:
        raise PreconditionError("star_net_forward needs at least one estimate")
    vectors = [mini_mapresnet_forward(e, cfg, weights) for e in estimates]
    seq = np.stack(vectors)[:, None, :]           # [T, 1, D]
    fused = temporal_attention(seq, weights, heads=cfg.heads)
    return temporal_pool(fused)[0]


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
        conv(f"star.stem.conv{i}", cfg.stem_channels, c_in, 3)
        c_in = cfg.stem_channels

    for g, (width, n_blocks) in enumerate(zip(cfg.group_widths,
                                              cfg.blocks_per_group)):
        for b in range(n_blocks):
            stride = cfg.group_stride(g) if b == 0 else 1
            prefix = f"star.group{g + 1}.block{b}"
            mid = max(1, width // 4)
            conv(f"{prefix}.conv1", mid, c_in, 1)
            conv(f"{prefix}.conv2", mid, mid, 3)
            conv(f"{prefix}.conv3", width, mid, 1)
            if stride != 1 or c_in != width:
                weights[f"{prefix}.proj.w"] = he_init(
                    rng, (width, c_in, 1, 1), fan_in=c_in)
            c_in = width

    c = cfg.group_widths[-1]
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
    weights["star.temporal.ffn.fc1.w"] = he_init(rng, (d, cfg.ffn_dim), fan_in=d)
    weights["star.temporal.ffn.fc1.b"] = np.zeros(cfg.ffn_dim)
    weights["star.temporal.ffn.fc2.w"] = he_init(rng, (cfg.ffn_dim, d),
                                                 fan_in=cfg.ffn_dim)
    weights["star.temporal.ffn.fc2.b"] = np.zeros(d)
    return weights
