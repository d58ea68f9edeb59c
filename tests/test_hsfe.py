"""Hierarchical spike feature extractor tests.

Convolution outputs are gated against a naive triple-loop oracle; the
photon-conservation bound is swept over hundreds of allocations.
"""

import numpy as np
import pytest

from spikekit.errors import PreconditionError
from spikekit.hsfe import (BlockSpec, BranchSpec, _avg_width,
                           allocate_channels, hsfe_forward, init_hsfe_weights,
                           mtf_forward, slice_blocks, spatial_attention)
from spikekit.nnops import conv2d, sigmoid
from spikekit.stream import SpikeStream

from oracles import (conv2d_loops, moving_average_same, mtf_forward_branches,
                     spatial_attention_of_branches)


def random_stream(rng, t, h, w):
    return SpikeStream(rng.integers(0, 2, size=(t, h, w), dtype=np.uint8))


# ---------------------------------------------------------------------------
# Block slicing
# ---------------------------------------------------------------------------

def test_default_block_centers_and_lengths():
    rng = np.random.default_rng(40)
    stream = random_stream(rng, 250, 4, 4)
    spec = BlockSpec()
    blocks = list(slice_blocks(stream, spec))
    assert spec.centers() == [30, 75, 120, 165, 210]
    assert len(blocks) == 5
    for i, block in enumerate(blocks):
        assert block.shape == (61, 4, 4) and not block.flags.writeable
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
    ks = allocate_channels(61, 3, 20)
    assert ks == [61, 41, 21]
    assert [_avg_width(61, k) for k in ks] == [1, 1, 3]


def test_allocation_zero_step_gives_identical_branches():
    ks = allocate_channels(40, 4, 0)
    assert all(k == 40 and _avg_width(40, k) == 1 for k in ks)


def test_allocation_single_branch():
    assert allocate_channels(61, 1, 20) == [61]
    assert _avg_width(61, 61) == 1


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
        products = [(k, k * _avg_width(total, k))
                    for k in allocate_channels(total, m, step)]
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
    out = mtf_forward(block, weights)
    assert out.shape == (1, 6, 6)
    assert out[0] == pytest.approx(block[4])


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
    for i, k in enumerate(allocate_channels(9, 3, 2)):
        start = (9 - k) // 2
        sub = block[start:start + k] \
            * weights[f"hsfe.branch{i}.mask"][:, None, None]
        sub = moving_average_same(sub, _avg_width(9, k))
        expected = conv2d_loops(sub, weights[f"hsfe.branch{i}.conv.w"])
        np.testing.assert_allclose(outs[3 * i:3 * (i + 1)], expected,
                                   rtol=1e-6, atol=1e-12)


# Block length 41 and these branch lengths give averaging widths 1 to 8,
# then 10, 20 and 41: branches of 4, 2 and 1 frames, shorter than their
# windows. A 45-frame block's 5-frame branch averages over 9, and an
# 81-frame block's 9-frame branch has a whole window of 9 frames.
WIDTH_SWEEP = ((41, (41, 20, 14, 10, 8, 7, 6, 5, 4, 2, 1)), (45, (45, 5)),
               (81, (81, 9)))


@pytest.mark.parametrize("block_len, ks", WIDTH_SWEEP)
@pytest.mark.parametrize("frame", [(1, 1), (1, 2), (2, 1), (5, 7), (16, 16)])
def test_branch_and_attention_bytes_equal_the_branch_list_oracle(
        frame, block_len, ks):
    assert [[_avg_width(n, k) for k in sweep] for n, sweep in WIDTH_SWEEP] \
        == [[*range(1, 9), 10, 20, 41], [1, 9], [1, 9]]
    rng = np.random.default_rng([52, block_len, *frame])
    c_out, m = 2, len(ks)
    for _ in range(3):
        block = rng.integers(0, 2, size=(block_len, *frame), dtype=np.uint8)
        weights = {"hsfe.sa.conv.w": rng.normal(size=(m, m * c_out, 3, 3)),
                   "hsfe.sa.conv.b": rng.normal(size=m)}
        for i, k in enumerate(ks):
            weights[f"hsfe.branch{i}.mask"] = rng.normal(size=k)
            weights[f"hsfe.branch{i}.conv.w"] = rng.normal(size=(c_out, k, 3, 3))
        stacked = mtf_forward(block, weights)
        branches = mtf_forward_branches(block, weights)
        assert stacked.tobytes() == np.concatenate(branches).tobytes()
        assert spatial_attention(stacked, weights).tobytes() == \
            spatial_attention_of_branches(branches, weights).tobytes()


@pytest.mark.parametrize("frame", [(37, 21), (64, 64), (128, 128), (5, 7),
                                   (12, 9)])
@pytest.mark.parametrize("channel_step", [20, 0])
def test_coarse_estimates_keep_the_bytes_of_the_unfused_oracles(
        frame, channel_step):
    # The default three branches of a 61-frame block (branch 2 averages
    # over 3 frames when channel_step is 20; channel_step 0 makes three
    # full-width branches), with masks holding negative and zero entries,
    # on ragged, 64 and 128 px blocks and maps under 16x16 (pixel-major
    # convs). The maps HSFE writes into its bordered buffers, and the
    # estimate gated from them, have the bytes of the branch-list oracle;
    # so has spatial attention of a plain contiguous copy of the maps.
    rng = np.random.default_rng([58, channel_step, *frame])
    weights = init_hsfe_weights(61, BranchSpec(channel_step=channel_step),
                                seed=7)
    for i in range(3):
        mask = rng.normal(size=weights[f"hsfe.branch{i}.mask"].shape)
        mask[::4] = 0.0
        weights[f"hsfe.branch{i}.mask"] = mask
    if channel_step:
        assert _avg_width(61, len(weights["hsfe.branch2.mask"])) == 3
    weights["hsfe.sa.conv.b"] = rng.normal(size=3)
    block = rng.integers(0, 2, size=(61, *frame), dtype=np.uint8)
    maps = mtf_forward(block, weights)
    estimate = spatial_attention(maps, weights)
    branches = mtf_forward_branches(block, weights)
    want = spatial_attention_of_branches(branches, weights).tobytes()
    assert maps.tobytes() == np.concatenate(branches).tobytes()
    assert estimate.tobytes() == want
    plain = np.ascontiguousarray(maps)
    assert plain.base is None
    assert spatial_attention(plain, weights).tobytes() == want


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
    feats = rng.normal(size=(6, 5, 5))
    weights = {"hsfe.sa.conv.w": np.zeros((2, 6, 3, 3)),
               "hsfe.sa.conv.b": np.full(2, 50.0)}
    out = spatial_attention(feats, weights)
    np.testing.assert_allclose(out, feats, atol=1e-4)


def test_attention_zero_features_zero_output():
    feats = np.zeros((9, 4, 4))
    weights = {"hsfe.sa.conv.w": np.ones((3, 9, 3, 3)),
               "hsfe.sa.conv.b": np.zeros(3)}
    out = spatial_attention(feats, weights)
    assert out == pytest.approx(np.zeros((9, 4, 4)))


def test_attention_gates_strictly_inside_unit_interval():
    rng = np.random.default_rng(49)
    branches = BranchSpec(m=3, channel_step=0, c_out=4)
    weights = init_hsfe_weights(7, branches, seed=3)
    for _ in range(10):
        feats = rng.normal(size=(12, 6, 6))
        out = spatial_attention(feats, weights)
        # The gates are the SA conv's logits through the logistic; gate i
        # scales branch i, the maps [4 * i, 4 * (i + 1)).
        gates = sigmoid(conv2d(feats, weights["hsfe.sa.conv.w"],
                               weights["hsfe.sa.conv.b"], stride=1, padding=1))
        assert gates.min() > 0.0 and gates.max() < 1.0
        np.testing.assert_array_equal(
            out, np.concatenate([gates[i:i + 1] * feats[4 * i:4 * (i + 1)]
                                 for i in range(3)]))


def test_sigmoid_has_the_bits_of_the_two_branch_formula():
    # 1 / (1 + exp(-x)) where x >= 0, exp(x) / (1 + exp(x)) elsewhere,
    # each on its own elements: NaNs of either sign, ±0.0, ±inf, logits
    # whose exp would overflow, and random logits at several scales, in
    # a contiguous array and in a strided view of it.
    rng = np.random.default_rng(57)
    x = np.concatenate([
        rng.normal(scale=1.0, size=999), rng.normal(scale=40.0, size=999),
        [0.0, -0.0, 1e3, -1e3, 800.0, -800.0, np.inf, -np.inf, np.nan,
         -np.nan, 5e-324, -5e-324]])
    rng.shuffle(x)
    for logits in (x, x[::3], x.reshape(6, -1)):
        want = np.empty_like(logits)
        pos = logits >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
        ex = np.exp(logits[~pos])
        want[~pos] = ex / (1.0 + ex)
        got = sigmoid(logits)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_attention_shape_mismatch():
    for features, kernel_shape in [
            ((6, 4), (2, 6, 3, 3)),         # features not 3-D
            ((5, 4, 4), (2, 6, 3, 3)),      # kernel reads 6 maps, not 5
            ((5, 4, 4), (2, 5, 3, 3)),      # 2 branches do not divide 5 maps
            ((6, 4, 4), (0, 6, 3, 3)),      # no branch
            ((6, 4, 4), (2, 6, 1, 1)),      # not a 3x3 kernel
            ((6, 4, 4), (2, 6))]:           # not a conv kernel
        weights = {"hsfe.sa.conv.w": np.zeros(kernel_shape),
                   "hsfe.sa.conv.b": np.zeros(2)}
        with pytest.raises(PreconditionError):
            spatial_attention(np.zeros(features), weights)


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
    estimates = list(hsfe_forward(stream, BlockSpec(), weights))
    for est in estimates[1:]:
        np.testing.assert_allclose(est, estimates[0], rtol=1e-12, atol=1e-12)


def test_forward_rejects_a_short_stream_at_the_call():
    # The estimates are made as they are read, but the length check is not.
    stream = SpikeStream(np.zeros((100, 4, 4), dtype=np.uint8))
    with pytest.raises(PreconditionError):
        hsfe_forward(stream, BlockSpec(), weights={})


def test_forward_equals_manual_composition():
    rng = np.random.default_rng(51)
    stream = random_stream(rng, 60, 6, 6)
    spec = BlockSpec(r_win=5, step=10, n_blocks=3)
    branches = BranchSpec(m=2, channel_step=4, c_out=2)
    weights = init_hsfe_weights(spec.block_len, branches, seed=6)
    estimates = list(hsfe_forward(stream, spec, weights))
    assert len(estimates) == spec.n_blocks
    for block, est in zip(slice_blocks(stream, spec), estimates):
        manual = spatial_attention(mtf_forward(block, weights), weights)
        np.testing.assert_array_equal(est, manual)
