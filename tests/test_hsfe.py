"""Hierarchical spike feature extractor tests.

Convolution outputs are gated against a naive triple-loop oracle; the
photon-conservation bound is swept over hundreds of allocations.
"""

import numpy as np
import pytest

from spikekit.errors import PreconditionError
from spikekit.hsfe import (BlockSpec, BranchAllocation, BranchSpec,
                           allocate_channels, hsfe_forward, init_hsfe_weights,
                           mtf_forward, slice_blocks, spatial_attention)
from spikekit.nnops import conv2d, moving_average_same, sigmoid
from spikekit.stream import SpikeStream


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


def random_stream(rng, t, h, w):
    return SpikeStream(rng.integers(0, 2, size=(t, h, w), dtype=np.uint8))


# ---------------------------------------------------------------------------
# Block slicing
# ---------------------------------------------------------------------------

def test_default_block_centers_and_lengths():
    rng = np.random.default_rng(40)
    stream = random_stream(rng, 250, 4, 4)
    spec = BlockSpec()
    blocks = slice_blocks(stream, spec)
    assert spec.centers() == [30, 75, 120, 165, 210]
    assert len(blocks) == 5
    for i, block in enumerate(blocks):
        assert block.shape == (61, 4, 4)
        center = 30 + 45 * i
        assert np.array_equal(block, stream.data[center - 30:center + 31])


def test_zero_radius_blocks_are_single_frames():
    rng = np.random.default_rng(41)
    stream = random_stream(rng, 3, 2, 2)
    blocks = slice_blocks(stream, BlockSpec(r_win=0, step=1, n_blocks=3))
    for i, block in enumerate(blocks):
        assert block.shape == (1, 2, 2)
        assert np.array_equal(block[0], stream.data[i])


def test_too_short_stream_raises_not_pads():
    rng = np.random.default_rng(42)
    stream = random_stream(rng, 240, 2, 2)
    with pytest.raises(PreconditionError):
        slice_blocks(stream, BlockSpec())
    assert BlockSpec().required_t_len == 241


def test_center_spacing_is_exactly_step():
    spec = BlockSpec(r_win=7, step=13, n_blocks=6)
    centers = spec.centers()
    assert all(b - a == 13 for a, b in zip(centers, centers[1:]))


# ---------------------------------------------------------------------------
# Channel allocation
# ---------------------------------------------------------------------------

def test_allocation_default_example():
    allocs = allocate_channels(61, 3, 20)
    assert [a.channels for a in allocs] == [61, 41, 21]
    assert [a.avg_width for a in allocs] == [1, 1, 3]


def test_allocation_zero_step_gives_identical_branches():
    allocs = allocate_channels(40, 4, 0)
    assert all(a.channels == 40 and a.avg_width == 1 for a in allocs)


def test_allocation_single_branch():
    assert allocate_channels(61, 1, 20) == \
        [BranchAllocation(channels=61, avg_width=1)]


def test_allocation_errors():
    with pytest.raises(PreconditionError):
        allocate_channels(10, 3, 5)       # third branch would get 0
    with pytest.raises(PreconditionError):
        allocate_channels(2, 3, 0)        # fewer channels than branches


def test_photon_conservation_bound_500_configs():
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 500:
        m = int(rng.integers(1, 6))
        total = int(rng.integers(m, 200))
        max_step = (total - 1) // (m - 1) if m > 1 else 0
        step = int(rng.integers(0, max_step + 1))
        allocs = allocate_channels(total, m, step)
        products = [(a.channels, a.channels * a.avg_width) for a in allocs]
        for (ki, pi) in products:
            for (kj, pj) in products:
                assert abs(pi - pj) <= max(ki, kj), \
                    f"total={total} m={m} step={step}: {products}"
        checked += 1


# ---------------------------------------------------------------------------
# Multi-scale temporal filtering
# ---------------------------------------------------------------------------

def test_mtf_identity_construction_passes_frame_through():
    # Single branch, all-one mask, kernel = 1 at the center tap of one
    # input channel: the output must be exactly that (central) frame.
    rng = np.random.default_rng(44)
    block = rng.integers(0, 2, size=(9, 6, 6)).astype(np.float64)
    weights = {"hsfe.branch0.mask": np.ones(9),
               "hsfe.branch0.conv.w": np.zeros((1, 9, 3, 3)),
               "hsfe.sa.conv.w": np.zeros((1, 1, 3, 3))}
    weights["hsfe.branch0.conv.w"][0, 4, 1, 1] = 1.0
    outs = mtf_forward(block, weights)
    assert len(outs) == 1
    assert outs[0][0] == pytest.approx(block[4])


def test_mtf_zero_mask_zero_output():
    branches = BranchSpec(m=2, channel_step=3, c_out=4)
    rng = np.random.default_rng(45)
    block = rng.integers(0, 2, size=(11, 5, 5)).astype(np.float64)
    weights = init_hsfe_weights(11, branches, seed=0)
    weights["hsfe.branch0.mask"] = np.zeros(11)
    weights["hsfe.branch1.mask"] = np.zeros(8)
    outs = mtf_forward(block, weights)
    for out in outs:
        assert out == pytest.approx(np.zeros_like(out))


def test_mtf_matches_dense_loop_oracle():
    branches = BranchSpec(m=3, channel_step=2, c_out=3)
    rng = np.random.default_rng(46)
    block = rng.normal(size=(9, 6, 6))
    weights = init_hsfe_weights(9, branches, seed=1)
    for i, mask_len in enumerate((9, 7, 5)):
        weights[f"hsfe.branch{i}.mask"] = rng.normal(size=mask_len)
    outs = mtf_forward(block, weights)
    allocs = allocate_channels(9, 3, 2)
    for i, alloc in enumerate(allocs):
        start = (9 - alloc.channels) // 2
        sub = block[start:start + alloc.channels] \
            * weights[f"hsfe.branch{i}.mask"][:, None, None]
        sub = moving_average_same(sub, alloc.avg_width)
        expected = conv2d_loops(sub, weights[f"hsfe.branch{i}.conv.w"])
        np.testing.assert_allclose(outs[i], expected, rtol=1e-6, atol=1e-12)


@pytest.mark.parametrize("size", [8, 32])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("with_bias", [False, True])
def test_conv2d_matches_loop_oracle(size, k, padding, stride, with_bias):
    # 8x8 maps take the pixel-major branch; 32x32 maps take the tap-major
    # one except at stride 2 with padding 0 and a 3x3 kernel (15x15 out).
    rng = np.random.default_rng([48, size, k, padding, stride])
    x = rng.normal(size=(2, size, size))
    kernel = rng.normal(size=(3, 2, k, k))
    bias = rng.normal(size=3) if with_bias else None
    got = conv2d(x, kernel, bias, stride=stride, padding=padding)
    want = conv2d_loops(x, kernel, bias, stride=stride, padding=padding)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_mtf_is_linear_in_input():
    branches = BranchSpec(m=2, channel_step=4, c_out=2)
    weights = init_hsfe_weights(13, branches, seed=2)
    rng = np.random.default_rng(47)
    for _ in range(5):
        x = rng.normal(size=(13, 4, 4))
        y = rng.normal(size=(13, 4, 4))
        a, b = rng.normal(size=2)
        mixed = mtf_forward(a * x + b * y, weights)
        xs = mtf_forward(x, weights)
        ys = mtf_forward(y, weights)
        for m_out, x_out, y_out in zip(mixed, xs, ys):
            np.testing.assert_allclose(m_out, a * x_out + b * y_out,
                                       rtol=1e-5, atol=1e-10)


def test_mtf_shape_mismatch_errors():
    weights = {"hsfe.branch0.mask": np.ones(5),
               "hsfe.branch0.conv.w": np.zeros((2, 5, 3, 3)),
               "hsfe.sa.conv.w": np.zeros((1, 2, 3, 3))}
    with pytest.raises(PreconditionError):
        mtf_forward(np.zeros((7, 4, 4)), weights)


# ---------------------------------------------------------------------------
# Spatial attention
# ---------------------------------------------------------------------------

def test_attention_saturated_gates_pass_features_through():
    rng = np.random.default_rng(48)
    feats = [rng.normal(size=(3, 5, 5)) for _ in range(2)]
    weights = {"hsfe.sa.conv.w": np.zeros((2, 6, 3, 3)),
               "hsfe.sa.conv.b": np.full(2, 50.0)}
    out = spatial_attention(feats, weights)
    np.testing.assert_allclose(out, np.concatenate(feats), atol=1e-4)


def test_attention_zero_features_zero_output():
    feats = [np.zeros((3, 4, 4)) for _ in range(3)]
    weights = {"hsfe.sa.conv.w": np.ones((3, 9, 3, 3)),
               "hsfe.sa.conv.b": np.zeros(3)}
    out = spatial_attention(feats, weights)
    assert out == pytest.approx(np.zeros((9, 4, 4)))


def test_attention_gates_strictly_inside_unit_interval():
    rng = np.random.default_rng(49)
    branches = BranchSpec(m=3, channel_step=0, c_out=4)
    weights = init_hsfe_weights(7, branches, seed=3)
    for _ in range(10):
        feats = [rng.normal(size=(4, 6, 6)) for _ in range(3)]
        out = spatial_attention(feats, weights)
        # The gates are the SA conv's logits through the logistic.
        gates = sigmoid(conv2d(np.concatenate(feats),
                               weights["hsfe.sa.conv.w"],
                               weights["hsfe.sa.conv.b"], stride=1, padding=1))
        assert gates.min() > 0.0 and gates.max() < 1.0
        np.testing.assert_array_equal(
            out, np.concatenate([gates[i:i + 1] * feats[i] for i in range(3)]))


def test_attention_shape_mismatch():
    weights = {"hsfe.sa.conv.w": np.zeros((2, 6, 3, 3)),
               "hsfe.sa.conv.b": np.zeros(2)}
    with pytest.raises(PreconditionError):
        spatial_attention([np.zeros((3, 4, 4)), np.zeros((3, 5, 5))], weights)


# ---------------------------------------------------------------------------
# Full extractor
# ---------------------------------------------------------------------------

def test_forward_zero_stream_gives_zero_estimates():
    stream = SpikeStream(np.zeros((250, 8, 8), dtype=np.uint8))
    weights = init_hsfe_weights(61, BranchSpec(), seed=4)
    for est in hsfe_forward(stream, BlockSpec(), weights):
        assert est == pytest.approx(np.zeros_like(est))


def test_forward_time_constant_stream_gives_equal_estimates():
    rng = np.random.default_rng(50)
    frame = rng.integers(0, 2, size=(6, 6), dtype=np.uint8)
    stream = SpikeStream(np.broadcast_to(frame, (250, 6, 6)).copy())
    branches = BranchSpec(m=2, channel_step=10, c_out=3)
    weights = init_hsfe_weights(61, branches, seed=5)
    estimates = hsfe_forward(stream, BlockSpec(), weights)
    for est in estimates[1:]:
        np.testing.assert_allclose(est, estimates[0], rtol=1e-12, atol=1e-12)


def test_forward_equals_manual_composition():
    rng = np.random.default_rng(51)
    stream = random_stream(rng, 60, 6, 6)
    spec = BlockSpec(r_win=5, step=10, n_blocks=3)
    branches = BranchSpec(m=2, channel_step=4, c_out=2)
    weights = init_hsfe_weights(spec.block_len, branches, seed=6)
    estimates = hsfe_forward(stream, spec, weights)
    assert len(estimates) == spec.n_blocks
    for block, est in zip(slice_blocks(stream, spec), estimates):
        manual = spatial_attention(mtf_forward(block, weights), weights)
        np.testing.assert_array_equal(est, manual)
