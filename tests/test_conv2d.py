"""conv2d is byte-identical to the pixel-major im2col conv it replaced.

The few-shot fine-tune is chaotic: one ulp in an embedding can move a
top-1 value. So every conv shape a default pipeline config runs (HSFE
branches and spatial attention, the backbone stem and blocks, the FSVE
stems and block) must give the reference's exact bytes, on random and on
binary inputs.
"""

import numpy as np
import pytest

from spikekit import hsfe, nnops, snn, starnet
from spikekit.energy import EnergyLedger
from spikekit.nnops import TAP_MAJOR_MIN_PIXELS, conv2d
from spikekit.pipeline import (PipelineConfig, build_feature_weights,
                               featurize_stream)
from spikekit.stream import SpikeStream


def reference_conv2d(x, kernel, bias=None, stride=1, padding=1):
    """The earlier conv: np.pad, sliding_window_view, pixel-major columns."""
    c_out, c_in, kh, kw = kernel.shape
    xp = np.pad(x.astype(np.float64, copy=False),
                ((0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw),
                                                       axis=(1, 2))
    windows = windows[:, ::stride, ::stride]          # [C_in, H', W', kh, kw]
    _, h_out, w_out = windows.shape[:3]
    cols = windows.transpose(1, 2, 0, 3, 4).reshape(h_out * w_out,
                                                    c_in * kh * kw)
    out = cols @ kernel.reshape(c_out, -1).T          # [H'*W', C_out]
    if bias is not None:
        out = out + bias
    return out.T.reshape(c_out, h_out, w_out)


def _out_pixels(x_shape, k_shape, stride, padding):
    h_out = (x_shape[1] + 2 * padding - k_shape[2]) // stride + 1
    w_out = (x_shape[2] + 2 * padding - k_shape[3]) // stride + 1
    return h_out * w_out


@pytest.fixture(scope="module")
def pipeline_conv_shapes():
    """(x.shape, kernel.shape, stride, padding, has_bias) of every conv
    that featurize_stream and fsve_forward run under a default config."""
    cfg = PipelineConfig(seed=0)
    rng = np.random.default_rng(150)
    stream = SpikeStream((rng.random((cfg.frames, cfg.height, cfg.width))
                          < 0.2).astype(np.uint8))
    seen = set()

    def recording_conv2d(x, kernel, bias=None, stride=1, padding=1):
        seen.add((x.shape, kernel.shape, stride, padding, bias is not None))
        return nnops.conv2d(x, kernel, bias, stride, padding)

    with pytest.MonkeyPatch.context() as mp:
        for module in (hsfe, starnet, snn):
            mp.setattr(module, "conv2d", recording_conv2d)
        block_spec = cfg.block_spec()
        branches = cfg.branch_spec()
        star_cfg = cfg.star_config()
        weights = build_feature_weights(block_spec.block_len, branches,
                                        star_cfg, (cfg.height, cfg.width),
                                        cfg.seed)
        featurize_stream(stream, block_spec, branches, star_cfg, weights)
        fsve_cfg = snn.FsveConfig(channels=cfg.snn_channels,
                                  timesteps=cfg.timesteps)
        snn.fsve_forward(stream, snn.init_fsve_weights(fsve_cfg, seed=1),
                         fsve_cfg, EnergyLedger())
    return sorted(seen)


def test_recorded_shapes_cover_both_layouts(pipeline_conv_shapes):
    pixels = [_out_pixels(x, k, s, p)
              for x, k, s, p, _ in pipeline_conv_shapes]
    assert min(pixels) < TAP_MAJOR_MIN_PIXELS <= max(pixels)
    # HSFE branch 0 and spatial attention at full 64x64 resolution.
    assert ((61, 64, 64), (16, 61, 3, 3), 1, 1, False) in pipeline_conv_shapes
    assert ((48, 64, 64), (3, 48, 3, 3), 1, 1, True) in pipeline_conv_shapes


@pytest.mark.parametrize("binary", [False, True], ids=["random", "binary"])
def test_conv2d_bytes_match_reference(pipeline_conv_shapes, binary):
    rng = np.random.default_rng(151 + binary)
    mismatched = []
    for x_shape, k_shape, stride, padding, has_bias in pipeline_conv_shapes:
        if binary:
            x = (rng.random(x_shape) < 0.3).astype(np.float64)
        else:
            x = rng.normal(size=x_shape)
        kernel = rng.normal(size=k_shape)
        bias = rng.normal(size=k_shape[0]) if has_bias else None
        got = conv2d(x, kernel, bias, stride=stride, padding=padding)
        want = reference_conv2d(x, kernel, bias, stride=stride,
                                padding=padding)
        if got.shape != want.shape or got.tobytes() != want.tobytes():
            mismatched.append((x_shape, k_shape, stride, padding))
    assert mismatched == []
