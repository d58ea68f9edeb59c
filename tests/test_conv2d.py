"""conv2d is byte-identical to the pixel-major im2col conv it replaced.

The few-shot fine-tune is chaotic: one ulp in an embedding can move a
top-1 value. So every conv shape a default pipeline config runs (HSFE
branches and spatial attention, the backbone stem and blocks, the FSVE
stems and block) must give the reference's exact bytes, on random and on
binary inputs; so must the HSFE convs and the first backbone stem conv
at 128 and 256 px, where the tap-major GEMM runs in several bands.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from spikekit import hsfe, nnops, snn, starnet
from spikekit.energy import EnergyLedger
from spikekit.errors import PreconditionError
from spikekit.nnops import SMALL_GEMM_MACS, TAP_MAJOR_MIN_PIXELS, conv2d
from spikekit.pipeline import (PipelineConfig, build_feature_weights,
                               featurize_stream)
from spikekit.stream import SpikeStream

from oracles import conv2d_loops

# (x.shape, kernel.shape, stride, padding, has_bias) of the default HSFE
# branch and spatial-attention convs and the first, stride-2 backbone stem
# conv at 128 and 256 px.
BANDED_SHAPES = [
    shape for n in (128, 256) for shape in (
        ((61, n, n), (16, 61, 3, 3), 1, 1, False),
        ((41, n, n), (16, 41, 3, 3), 1, 1, False),
        ((21, n, n), (16, 21, 3, 3), 1, 1, False),
        ((48, n, n), (3, 48, 3, 3), 1, 1, True),
        ((48, n, n), (16, 48, 3, 3), 2, 1, True))]


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

    def recording_conv2d(x, kernel, bias=None, stride=1, padding=1, **out):
        seen.add((x.shape, kernel.shape, stride, padding, bias is not None))
        return nnops.conv2d(x, kernel, bias, stride, padding, **out)

    with pytest.MonkeyPatch.context() as mp:
        for module in (hsfe, starnet, snn):
            mp.setattr(module, "conv2d", recording_conv2d)
        block_spec = cfg.block_spec()
        star_cfg = cfg.star_config()
        weights = build_feature_weights(block_spec.block_len,
                                        cfg.branch_spec(), star_cfg,
                                        (cfg.height, cfg.width), cfg.seed)
        featurize_stream(stream, block_spec, weights)
        fsve_cfg = snn.FsveConfig(channels=cfg.snn_channels)
        snn.fsve_forward(stream, snn.init_fsve_weights(fsve_cfg, seed=1),
                         cfg.timesteps, EnergyLedger())
    return sorted(seen)


def test_recorded_shapes_cover_both_layouts(pipeline_conv_shapes):
    pixels = [_out_pixels(x, k, s, p)
              for x, k, s, p, _ in pipeline_conv_shapes]
    assert min(pixels) < TAP_MAJOR_MIN_PIXELS <= max(pixels)
    # HSFE branch 0 and spatial attention at full 64x64 resolution.
    assert ((61, 64, 64), (16, 61, 3, 3), 1, 1, False) in pipeline_conv_shapes
    assert ((48, 64, 64), (3, 48, 3, 3), 1, 1, True) in pipeline_conv_shapes


def _bands(x_shape, k_shape, stride, padding):
    """How many tap-major bands a conv of these shapes runs."""
    c_out, c_in, kh, kw = k_shape
    h_out = (x_shape[1] + 2 * padding - kh) // stride + 1
    w_out = (x_shape[2] + 2 * padding - kw) // stride + 1
    row_cols = x_shape[2] + 2 * padding if stride == 1 else w_out
    return h_out // nnops._band_rows(c_in * kh * kw, c_out, h_out, row_cols)


def _shapes_run_at(n):
    """(x.shape, kernel.shape, stride, padding) of every conv that
    ``run_pipeline`` runs on n px clips (featurize and the spiking
    forward), recorded by a stand-in conv that returns zeros. The spiking
    forward stops at its self-attention, which runs no conv."""
    cfg = dataclasses.replace(PipelineConfig(seed=0), height=n, width=n)
    stream = SpikeStream(np.zeros((cfg.frames, n, n), dtype=np.uint8))
    seen = set()

    def shape_only(x, kernel, bias=None, stride=1, padding=1, out=None):
        seen.add((x.shape, kernel.shape, stride, padding))
        c_out, _, kh, kw = kernel.shape
        shape = (c_out, (x.shape[1] + 2 * padding - kh) // stride + 1,
                 (x.shape[2] + 2 * padding - kw) // stride + 1)
        return np.zeros(shape) if out is None else out

    class Stop(Exception):
        pass

    def stop(*args):
        raise Stop

    with pytest.MonkeyPatch.context() as mp:
        for module in (hsfe, starnet, snn):
            mp.setattr(module, "conv2d", shape_only)
        mp.setattr(snn, "esdsa_forward", stop)
        block_spec = cfg.block_spec()
        featurize_stream(stream, block_spec, build_feature_weights(
            block_spec.block_len, cfg.branch_spec(), cfg.star_config(),
            (n, n), cfg.seed))
        with pytest.raises(Stop):
            snn.fsve_forward(stream, snn.init_fsve_weights(
                snn.FsveConfig(channels=cfg.snn_channels), seed=1),
                cfg.timesteps, EnergyLedger())
    return seen


@pytest.mark.parametrize("band_bytes", [1 << 18, 1 << 20, 4 << 20])
def test_every_band_is_legal_and_no_larger_than_it_must_be(band_bytes,
                                                           monkeypatch):
    # A legal band is a multiple of 8 columns above SMALL_GEMM_MACS, so it
    # keeps the whole-map GEMM's bits. The band of about BAND_BYTES is
    # rounded up to the smallest legal one where it falls short, and the
    # map runs as one band only when two such bands do not fit. At 1 MiB
    # bands, a rule that ran such a map whole instead ran 64 px spatial
    # attention as one 14.6 MB band.
    monkeypatch.setattr(nnops, "BAND_BYTES", band_bytes)
    shapes = set().union(*map(_shapes_run_at, (64, 128, 256)))
    shapes |= {shape[:4] for shape in BANDED_SHAPES}
    banded = 0
    for x_shape, (c_out, c_in, kh, kw), stride, padding in sorted(shapes):
        h_out = (x_shape[1] + 2 * padding - kh) // stride + 1
        w_out = (x_shape[2] + 2 * padding - kw) // stride + 1
        if h_out * w_out < TAP_MAJOR_MIN_PIXELS:
            continue
        k = c_in * kh * kw
        row_cols = x_shape[2] + 2 * padding if stride == 1 else w_out
        legal = [r for r in range(1, h_out + 1) if r * row_cols % 8 == 0
                 and c_out * k * r * row_cols > SMALL_GEMM_MACS]
        fits = [r for r in range(1, h_out + 1) if r * row_cols % 8 == 0
                and 8 * k * r * row_cols <= band_bytes]
        such = max(min(legal, default=h_out + 1), max(fits, default=0))
        rows = nnops._band_rows(k, c_out, h_out, row_cols)
        case = (x_shape, c_out, stride)
        if 2 * such > h_out:
            assert rows == h_out, case
            continue
        banded += 1
        assert rows == such, case
        last = h_out - (h_out // rows - 1) * rows
        for band in (rows, last):
            assert band * row_cols % 8 == 0, case
            assert c_out * k * band * row_cols > SMALL_GEMM_MACS, case
    assert banded >= 10


def test_banded_shapes_run_several_bands():
    assert min(_bands(x, k, s, p) for x, k, s, p, _ in BANDED_SHAPES) > 1


@pytest.mark.parametrize("binary", [False, True], ids=["random", "binary"])
def test_conv2d_bytes_match_reference(pipeline_conv_shapes, binary):
    rng = np.random.default_rng(151 + binary)
    mismatched = []
    for x_shape, k_shape, stride, padding, has_bias in (
            pipeline_conv_shapes + BANDED_SHAPES):
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


def test_bands_with_a_ragged_tail_match_loop_oracle():
    # 65 output rows of 67 padded columns: 4355 columns, not a multiple of
    # 8, run as a band of 32 rows and a last band of 33 whose GEMM ends in
    # the BLAS tail kernels. The bytes may move there; the values may not.
    rng = np.random.default_rng(153)
    x = rng.normal(size=(26, 65, 65))
    kernel = rng.normal(size=(2, 26, 3, 3))
    bias = rng.normal(size=2)
    assert _bands(x.shape, kernel.shape, 1, 1) == 2
    got = conv2d(x, kernel, bias)
    want = conv2d_loops(x, kernel, bias)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_featurize_memory_is_bounded_and_bands_keep_bytes(monkeypatch):
    # Only one band of tap-major columns and one HSFE estimate are alive at
    # a time, and HSFE writes each block's branch inputs and maps once,
    # into the zero-bordered buffers its convs read: the peaks are 5.5,
    # 17.3 and 63.8 MiB at 64, 128 and 256 px. With a float copy of each
    # branch input, a padded copy of it and of the stacked maps, and the
    # maps concatenated, they were 7.0, 20.8 and 77.9 MiB. A 128 px
    # featurize peaked at 129 MiB when each conv held all its columns, and
    # at 50 MiB (194 MiB at 256 px) when the five estimates were held
    # together; a 64 px one peaked at 9.7 MiB with 4 MiB bands.
    def inputs(n):
        cfg = dataclasses.replace(PipelineConfig(seed=0), height=n, width=n)
        rng = np.random.default_rng(154)
        stream = SpikeStream((rng.random((cfg.frames, n, n)) < 0.2)
                             .astype(np.uint8))
        block_spec = cfg.block_spec()
        return stream, block_spec, build_feature_weights(
            block_spec.block_len, cfg.branch_spec(), cfg.star_config(),
            (n, n), cfg.seed)

    for n, bound_mib in ((64, 6.25), (256, 70), (128, 19)):
        args = inputs(n)
        tracemalloc.start()
        try:
            banded = featurize_stream(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2 ** 20, n
    monkeypatch.setattr(nnops, "BAND_BYTES", 2 ** 62)
    assert banded.tobytes() == featurize_stream(*args).tobytes()


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("n", [8, 32])
def test_transposed_view_input_gives_the_contiguous_bytes(k, n):
    # A pixel-major conv returns a transposed view, which the next conv
    # copies once at padding 0 (8 px runs pixel-major, 32 px tap-major).
    rng = np.random.default_rng(n + k)
    x = rng.standard_normal((n * n, 12)).T.reshape(12, n, n)
    assert not x.flags.c_contiguous
    kernel = rng.standard_normal((20, 12, k, k))
    bias = rng.standard_normal(20)
    for stride in (1, 2):
        got = conv2d(x, kernel, bias, stride=stride, padding=0)
        want = conv2d(np.ascontiguousarray(x), kernel, bias, stride=stride,
                      padding=0)
        assert got.tobytes() == want.tobytes(), stride


def _bordered(x, padding, spare):
    """x inside a caller's zeroed buffer: its interior view, and the flat
    buffer of the [C, H + 2p, W + 2p] maps and ``spare`` zeros after them."""
    c, h, w = x.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    flat = np.zeros(c * hp * wp + spare)
    view = flat[:c * hp * wp].reshape(c, hp, wp)[
        :, padding:padding + h, padding:padding + w]
    view[...] = x
    return view, flat


def _spare(x_shape, k_shape, stride, padding):
    """The zeros a conv reads after its padded input: ``kw - 1`` for a
    stride-1 tap-major conv, else none."""
    tap_major = (_out_pixels(x_shape, k_shape, stride, padding)
                 >= TAP_MAJOR_MIN_PIXELS)
    return k_shape[3] - 1 if tap_major and stride == 1 else 0


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_conv2d_reads_a_callers_padded_buffer_in_place_into_its_out():
    # Every conv run_pipeline runs at 64, 128 and 256 px, and the banded
    # shapes: read in place from a caller's zero-bordered buffer and
    # written into a slice of a caller's array, each gives the bytes of
    # the conv of the unpadded input, and holds no copy of its input.
    shapes = set().union(*map(_shapes_run_at, (64, 128, 256)))
    shapes |= {shape[:4] for shape in BANDED_SHAPES}
    rng = np.random.default_rng(155)
    in_place = 0
    for x_shape, k_shape, stride, padding in sorted(shapes):
        x = rng.normal(size=x_shape)
        kernel = rng.normal(size=k_shape)
        bias = rng.normal(size=k_shape[0])
        want = conv2d(x, kernel, bias, stride, padding)
        spare = _spare(x_shape, k_shape, stride, padding)
        view, flat = _bordered(x, padding, spare)
        held = nnops._held_padding(view, padding, spare)
        assert held is not None and np.shares_memory(held, flat)
        maps = np.zeros((k_shape[0] + 2, *want.shape[1:]))
        out = maps[1:-1]
        before = flat.tobytes()
        assert conv2d(view, kernel, bias, stride, padding, out) is out
        case = (x_shape, k_shape, stride, padding)
        assert out.tobytes() == want.tobytes(), case
        assert not maps[0].any() and not maps[-1].any(), case
        assert flat.tobytes() == before, case
        # The copy a plain input takes is all that the in-place read
        # saves; an unpadded input with no spare zeros is its own buffer.
        copied = (padding or spare) and flat.nbytes
        plain = _traced_peak(lambda: conv2d(x, kernel, bias, stride,
                                            padding, out))
        held_peak = _traced_peak(lambda: conv2d(view, kernel, bias, stride,
                                                padding, out))
        assert held_peak + copied <= plain + 4096, case
        in_place += bool(copied)
    assert in_place >= 20


@pytest.mark.parametrize("n", [8, 64])
def test_padded_zeros_maps_are_read_in_place_whole_and_as_their_first_k(n):
    # HSFE's branch inputs are the first k maps of one padded_zeros buffer
    # and its branch maps the whole of another. conv2d reads either in
    # place, the pixel-major 8 px maps and the tap-major 64 px ones that
    # read two spare zeros, and gives the bits of the conv of a plain copy.
    rng = np.random.default_rng(158)
    maps = nnops.padded_zeros(6, n, n)
    flat = maps.base
    assert maps.shape == (6, n, n) and flat.size == 6 * (n + 2) ** 2 + 2
    assert not flat.any()
    maps[...] = rng.normal(size=maps.shape)
    for k in (6, 4, 1):
        x = maps[:k]
        kernel = rng.normal(size=(5, k, 3, 3))
        for stride in (1, 2):
            spare = _spare(x.shape, kernel.shape, stride, 1)
            xp = nnops._padded(x, 1, spare)
            assert xp.base is flat and xp.shape == (k, n + 2, n + 2)
            assert np.shares_memory(xp[:, 1:-1, 1:-1], x)
            got = conv2d(x, kernel, stride=stride)
            want = conv2d(np.array(x), kernel, stride=stride)
            assert got.tobytes() == want.tobytes(), (k, stride)


@pytest.mark.parametrize("poison", [1.0, -0.0, np.nan])
def test_memory_that_is_not_zero_is_never_read_as_padding(poison):
    # Each border side and the spare zeros after the maps: a value that is
    # not +0.0 in every bit makes conv2d copy the input into zeros.
    rng = np.random.default_rng(156)
    x = rng.normal(size=(3, 20, 18))
    kernel = rng.normal(size=(4, 3, 3, 3))
    want = conv2d(x, kernel)
    hp, wp = 22, 20
    size = 3 * hp * wp
    spots = [1 * hp * wp + 0 * wp + 5,          # top row of map 1
             2 * hp * wp + (hp - 1) * wp + 7,   # bottom row of map 2
             0 * hp * wp + 9 * wp + 0,          # left column of map 0
             1 * hp * wp + 4 * wp + wp - 1,     # right column of map 1
             size, size + 1]                    # the spare zeros
    for spot in spots:
        view, flat = _bordered(x, 1, 2)
        flat[spot] = poison
        assert nnops._held_padding(view, 1, 2) is None, spot
        assert conv2d(view, kernel).tobytes() == want.tobytes(), spot
    # A buffer one zero short of the spare is not read in place either.
    view, flat = _bordered(x, 1, 1)
    assert nnops._held_padding(view, 1, 2) is None
    assert conv2d(view, kernel).tobytes() == want.tobytes()


def test_conv2d_refuses_an_out_it_cannot_write_as_it_is():
    rng = np.random.default_rng(157)
    x = rng.normal(size=(2, 16, 16))
    kernel = rng.normal(size=(3, 2, 3, 3))
    for out in (np.empty((3, 16, 15)), np.empty((3, 16, 16), np.float32),
                np.empty((2, 16, 16))):
        with pytest.raises(PreconditionError):
            conv2d(x, kernel, out=out)
    flat = np.zeros(3 * 18 * 18 + 2)
    view = flat[:3 * 18 * 18].reshape(3, 18, 18)[:, 1:-1, 1:-1]
    with pytest.raises(PreconditionError):     # out overlaps the input
        conv2d(view[:2], kernel, out=view)
