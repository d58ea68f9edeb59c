"""Backbone, attention-pooling, and temporal-fusion tests.

Attention paths are checked against naive quadratic loop oracles; pooling
against an explicit left-to-right accumulation.
"""

import numpy as np
import pytest

from spikekit.errors import PreconditionError
from spikekit.nnops import relu, softmax
from spikekit.starnet import (GROUPS, HEADS, MiniMapResNetConfig, _attend,
                              attention_pool, init_starnet_weights,
                              mini_mapresnet_forward, star_net_forward,
                              temporal_attention, temporal_pool)

CFG = MiniMapResNetConfig()


def make_weights(in_channels=6, hw=(64, 64), seed=0, cfg=CFG):
    return init_starnet_weights(cfg, in_channels, hw, seed)


def naive_multihead_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads):
    """O(T^2) reference: per-head loops, explicit softmax rows."""
    t_len, dim = x.shape
    dh = dim // heads
    q = x @ wq + bq
    k = x @ wk + bk
    v = x @ wv + bv
    ctx = np.zeros((t_len, dim))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        for i in range(t_len):
            scores = np.array([q[i, sl] @ k[j, sl] for j in range(t_len)])
            weights = softmax(scores / np.sqrt(dh))
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            ctx[i, sl] = sum(weights[j] * v[j, sl] for j in range(t_len))
    return ctx @ wo + bo


# ---------------------------------------------------------------------------
# Backbone
# ---------------------------------------------------------------------------

def test_forward_shapes_and_token_grid():
    weights = make_weights()
    rng = np.random.default_rng(60)
    out = mini_mapresnet_forward(rng.normal(size=(6, 64, 64)), weights)
    assert out.shape == (CFG.embed_dim,)
    # 64/32 = 2 tokens per side: positional table has 2*2 + 1 rows.
    assert weights["star.attnpool.pos"].shape[0] == 5


def test_spatial_too_small_raises():
    weights = make_weights()
    with pytest.raises(PreconditionError):
        mini_mapresnet_forward(np.zeros((6, 16, 16)), weights)


def test_zero_input_zero_biases_gives_zero_embedding():
    weights = make_weights(seed=61)
    weights["star.attnpool.pos"] = np.zeros_like(weights["star.attnpool.pos"])
    out = mini_mapresnet_forward(np.zeros((6, 64, 64)), weights)
    assert out == pytest.approx(np.zeros(CFG.embed_dim))


def test_attention_pool_rows_sum_to_one():
    weights = make_weights(seed=62)
    rng = np.random.default_rng(62)
    tokens = rng.normal(size=(4, GROUPS[-1][0]))
    pooled = attention_pool(tokens, weights)
    assert pooled.shape == (CFG.embed_dim,)
    seq = np.concatenate([tokens.mean(axis=0, keepdims=True), tokens])
    seq = seq + weights["star.attnpool.pos"]
    _, attn = _attend(seq[:1], seq, weights, "star.attnpool")
    assert attn.shape == (HEADS, 1, 5)
    np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-6)


def test_attention_pool_matches_loop_oracle():
    weights = make_weights(seed=63)
    rng = np.random.default_rng(63)
    c = GROUPS[-1][0]
    tokens = rng.normal(size=(4, c))
    pooled = attention_pool(tokens, weights)

    seq = np.concatenate([tokens.mean(axis=0, keepdims=True), tokens])
    seq = seq + weights["star.attnpool.pos"]
    q = seq[0] @ weights["star.attnpool.q.w"] + weights["star.attnpool.q.b"]
    k = seq @ weights["star.attnpool.k.w"] + weights["star.attnpool.k.b"]
    v = seq @ weights["star.attnpool.v.w"] + weights["star.attnpool.v.b"]
    dh = c // HEADS
    ctx = np.zeros(c)
    for h in range(HEADS):
        sl = slice(h * dh, (h + 1) * dh)
        scores = np.array([q[sl] @ k[j, sl] for j in range(5)])
        w = softmax(scores / np.sqrt(dh))
        ctx[sl] = sum(w[j] * v[j, sl] for j in range(5))
    expected = ctx @ weights["star.attnpool.out.w"] \
        + weights["star.attnpool.out.b"]
    np.testing.assert_allclose(pooled, expected, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# Temporal attention
# ---------------------------------------------------------------------------

def test_temporal_attention_singleton_time_axis():
    weights = make_weights(seed=65)
    rng = np.random.default_rng(65)
    x = rng.normal(size=(1, CFG.embed_dim))
    out = temporal_attention(x, weights)
    _, attn = _attend(x, x, weights, "star.temporal.attn")
    assert out.shape == x.shape
    assert attn == pytest.approx(np.ones_like(attn))


def test_temporal_attention_identical_frames_stay_identical():
    weights = make_weights(seed=66)
    rng = np.random.default_rng(66)
    frame = rng.normal(size=CFG.embed_dim)
    x = np.repeat(frame[None], 5, axis=0)
    out = temporal_attention(x, weights)
    for t in range(1, 5):
        np.testing.assert_allclose(out[t], out[0], rtol=1e-12, atol=1e-12)


def test_temporal_attention_matches_naive_oracle():
    weights = make_weights(seed=67)
    rng = np.random.default_rng(67)
    w = weights
    for _ in range(100):
        t_len = int(rng.integers(1, 7))
        batch = int(rng.integers(1, 3))
        x = rng.normal(size=(t_len, batch, CFG.embed_dim))
        for b in range(batch):
            out = temporal_attention(x[:, b, :], w)
            _, attn = _attend(x[:, b, :], x[:, b, :], w,
                              "star.temporal.attn")
            np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-6)
            ctx = naive_multihead_attention(
                x[:, b, :], w["star.temporal.attn.q.w"],
                w["star.temporal.attn.q.b"], w["star.temporal.attn.k.w"],
                w["star.temporal.attn.k.b"], w["star.temporal.attn.v.w"],
                w["star.temporal.attn.v.b"], w["star.temporal.attn.out.w"],
                w["star.temporal.attn.out.b"], HEADS)
            y1 = x[:, b, :] + ctx
            ffn = relu(y1 @ w["star.temporal.ffn.fc1.w"]
                       + w["star.temporal.ffn.fc1.b"]) \
                @ w["star.temporal.ffn.fc2.w"] + w["star.temporal.ffn.fc2.b"]
            np.testing.assert_allclose(out, y1 + ffn, rtol=1e-5,
                                       atol=1e-10)


# ---------------------------------------------------------------------------
# Temporal pooling
# ---------------------------------------------------------------------------

def test_pool_single_frame_is_identity():
    rng = np.random.default_rng(70)
    x = rng.normal(size=(1, 24))
    assert np.array_equal(temporal_pool(x), x[0])


def test_pool_antisymmetric_frames_cancel():
    rng = np.random.default_rng(71)
    v = rng.normal(size=(1, 16))
    x = np.concatenate([v, -v], axis=0)
    assert temporal_pool(x) == pytest.approx(np.zeros(16))


def test_pool_equals_left_to_right_loop_exactly():
    rng = np.random.default_rng(72)
    x = rng.normal(size=(4, 16))
    acc = x[0].copy()
    for t in range(1, 4):
        acc = acc + x[t]
    np.testing.assert_array_equal(temporal_pool(x), acc / 4)


def test_pool_of_replicated_frame_is_t_independent():
    rng = np.random.default_rng(73)
    frame = rng.normal(size=16)
    for t_len in (1, 2, 5, 9):
        x = np.repeat(frame[None], t_len, axis=0)
        np.testing.assert_allclose(temporal_pool(x), frame, rtol=1e-12)


def test_pool_empty_time_axis_raises():
    with pytest.raises(PreconditionError):
        temporal_pool(np.zeros((0, 8)))


# ---------------------------------------------------------------------------
# Full clip path
# ---------------------------------------------------------------------------

def test_star_forward_equals_manual_composition():
    weights = make_weights(in_channels=4, seed=74)
    rng = np.random.default_rng(74)
    estimates = [rng.normal(size=(4, 64, 64)) for _ in range(5)]
    emb = star_net_forward(estimates, weights)
    vectors = [mini_mapresnet_forward(e, weights) for e in estimates]
    manual = temporal_pool(temporal_attention(np.stack(vectors), weights))
    np.testing.assert_array_equal(emb, manual)
    assert emb.shape == (CFG.embed_dim,)


def test_star_forward_identical_estimates_collapse_to_single():
    weights = make_weights(in_channels=4, seed=75)
    rng = np.random.default_rng(75)
    estimate = rng.normal(size=(4, 64, 64))
    five = star_net_forward([estimate] * 5, weights)
    one = star_net_forward([estimate], weights)
    np.testing.assert_allclose(five, one, rtol=1e-9, atol=1e-12)


def test_star_forward_zero_estimates_zero_embedding():
    weights = make_weights(in_channels=4, seed=76)
    weights["star.attnpool.pos"] = np.zeros_like(weights["star.attnpool.pos"])
    emb = star_net_forward([np.zeros((4, 64, 64))] * 5, weights)
    assert emb == pytest.approx(np.zeros(CFG.embed_dim))


def test_star_forward_is_bit_deterministic():
    weights = make_weights(in_channels=4, seed=77)
    rng = np.random.default_rng(77)
    estimates = [rng.normal(size=(4, 64, 64)) for _ in range(3)]
    a = star_net_forward(estimates, weights)
    b = star_net_forward(estimates, weights)
    assert np.array_equal(a, b)


def test_config_invariants():
    with pytest.raises(PreconditionError):
        MiniMapResNetConfig(embed_dim=30)                 # not divisible by 8
