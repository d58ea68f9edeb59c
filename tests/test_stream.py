"""Codec, .dat I/O, and windowing tests for the stream module."""

import tracemalloc

import numpy as np
import pytest

from oracles import (pack_bits, run_cli, slice_clips_unpacked,
                     subsample_unpacked, tfi_frames_unpacked)
from spikekit import synth
from spikekit.camera import EncoderConfig, IntensityVideo, encode_video
from spikekit.errors import DataIOError, PreconditionError
from spikekit.reconstruct import TfiConfig, tfi_video
from spikekit.stream import (ClipWindowSpec, SpikeStream, StreamMeta,
                             clip_count, pack_spikes, read_dat, read_meta,
                             sidecar_path, slice_clips, subsample_indices,
                             subsample_temporal, unpack_spikes, write_dat,
                             write_meta)


def make_stream(bits, shape):
    return SpikeStream(np.array(bits, dtype=np.uint8).reshape(shape))


def random_stream(rng, t, h, w):
    return SpikeStream(rng.integers(0, 2, size=(t, h, w), dtype=np.uint8))


# ---------------------------------------------------------------------------
# pack / unpack
# ---------------------------------------------------------------------------

def test_pack_msb_first_single_byte():
    # [1,0,1,0,0,0,0,0] MSB-first is 0xA0; forced by the declared bit order.
    s = make_stream([1, 0, 1, 0, 0, 0, 0, 0], (1, 1, 8))
    assert pack_spikes(s) == bytes([0xA0])


def test_pack_all_zero_single_byte():
    s = make_stream([0] * 8, (2, 2, 2))
    assert pack_spikes(s) == bytes([0x00])


def test_pack_length_is_ceil_of_bits():
    rng = np.random.default_rng(0)
    for t, h, w in [(1, 1, 1), (3, 5, 7), (7, 5, 3), (10, 4, 4), (13, 3, 11)]:
        s = random_stream(rng, t, h, w)
        assert len(pack_spikes(s)) == (t * h * w + 7) // 8


def test_pack_element_order_t_outermost_x_fastest():
    # One spike at (t=1, y=0, x=0) in a 2x1x4 stream lands in bit 4 of the
    # single packed byte: flat index 4, MSB-first.
    data = np.zeros((2, 1, 4), dtype=np.uint8)
    data[1, 0, 0] = 1
    assert pack_spikes(SpikeStream(data)) == bytes([0b00001000])


def test_unpack_all_ones_byte():
    meta = StreamMeta(height=1, width=8, t_len=1)
    s = unpack_spikes(bytes([0xFF]), meta)
    assert s.data.tolist() == [[[1] * 8]]


def test_unpack_rejects_set_padding_bits():
    meta = StreamMeta(height=1, width=1, t_len=1)
    s = unpack_spikes(bytes([0x80]), meta)
    assert s.data.tolist() == [[[1]]]
    # The 7 bits of 0xFF beyond element 0 are padding, which must be zero,
    # in any buffer.
    for buf in (bytes([0xFF]), bytearray([0x81]), memoryview(bytes([0x01]))):
        with pytest.raises(DataIOError, match="7 padding bit"):
            unpack_spikes(buf, meta)


def test_unpack_length_mismatch_raises():
    meta = StreamMeta(height=4, width=4, t_len=4)
    with pytest.raises(DataIOError):
        unpack_spikes(bytes(3), meta)


def test_roundtrip_1000_random_streams():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        t = int(rng.integers(1, 40))
        h = int(rng.integers(1, 12))
        w = int(rng.integers(1, 12))
        s = random_stream(rng, t, h, w)
        meta = StreamMeta.for_stream(s)
        back = unpack_spikes(pack_spikes(s), meta)
        assert back == s


def test_stream_rejects_non_binary():
    with pytest.raises(PreconditionError):
        SpikeStream(np.full((1, 1, 1), 2, dtype=np.uint8))


@pytest.mark.parametrize("value,dtype", [
    (0.7, np.float64), (1.5, np.float64), (-1.0, np.float64),
    (np.nan, np.float64), (256, np.int64), (-1, np.int8)])
def test_stream_rejects_values_the_uint8_cast_would_change(value, dtype):
    data = np.zeros((2, 2, 2), dtype=dtype)
    data[1, 0, 1] = value
    with pytest.raises(PreconditionError):
        SpikeStream(data)


def test_stream_accepts_exact_binary_of_any_dtype():
    bits = np.array([0, 1, 1, 0, 1, 0, 0, 1]).reshape(2, 2, 2)
    expected = bits.astype(np.uint8)
    for dtype in (np.float64, np.int64, np.bool_, np.uint8):
        assert np.array_equal(SpikeStream(bits.astype(dtype)).data, expected)


def test_stream_rejects_bad_rank_and_empty_dims():
    with pytest.raises(PreconditionError):
        SpikeStream(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(PreconditionError):
        SpikeStream(np.zeros((0, 2, 2), dtype=np.uint8))


# ---------------------------------------------------------------------------
# .dat files
# ---------------------------------------------------------------------------

def test_write_read_dat_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    s = random_stream(rng, 2000, 4, 4)
    meta = StreamMeta.for_stream(s)
    path = tmp_path / "stream.dat"
    write_dat(s, meta, path)
    assert read_dat(path, meta) == s


def test_dat_file_size_matches_format_arithmetic(tmp_path):
    # 250 frames of 240x320 pack to exactly ceil(250*240*320/8) bytes.
    s = SpikeStream(np.zeros((250, 240, 320), dtype=np.uint8))
    meta = StreamMeta.for_stream(s)
    path = tmp_path / "big.dat"
    write_dat(s, meta, path)
    assert path.stat().st_size == 2_400_000


def test_zero_t_len_request_is_dimension_error():
    with pytest.raises(PreconditionError):
        StreamMeta(height=4, width=4, t_len=0)


def test_read_dat_checks_the_size_before_reading(tmp_path):
    # A sparse 64 MiB file against a 1x8x8 sidecar fails on its size
    # alone, before a byte of it is read.
    path = tmp_path / "huge.dat"
    with open(path, "wb") as fh:
        fh.truncate(64 << 20)
    meta = StreamMeta(height=8, width=8, t_len=1)
    tracemalloc.start()
    try:
        with pytest.raises(DataIOError,
                           match=f"file has {64 << 20} bytes, expected 8 "):
            read_dat(path, meta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_read_dat_truncated_file(tmp_path):
    path = tmp_path / "short.dat"
    path.write_bytes(bytes(3))
    meta = StreamMeta(height=4, width=4, t_len=4)
    with pytest.raises(DataIOError):
        read_dat(path, meta)


def test_meta_sidecar_roundtrip(tmp_path):
    meta = StreamMeta(height=3, width=5, t_len=9, threshold_theta=5.0,
                      tick_seconds=1e-6)
    path = tmp_path / "x.meta.json"
    write_meta(meta, path)
    assert read_meta(path) == meta
    assert sidecar_path(tmp_path / "x.dat") == str(tmp_path / "x.meta.json")


def test_write_dat_meta_mismatch():
    s = make_stream([0] * 8, (2, 2, 2))
    wrong = StreamMeta(height=2, width=2, t_len=3)
    with pytest.raises(PreconditionError):
        write_dat(s, wrong, "/tmp/never-written.dat")


# ---------------------------------------------------------------------------
# Clip windowing
# ---------------------------------------------------------------------------

def test_slice_single_window():
    s = SpikeStream(np.zeros((800, 2, 2), dtype=np.uint8))
    clips = list(slice_clips(s, ClipWindowSpec(800, 200)))
    assert len(clips) == 1


def test_slice_starts_enumeration():
    rng = np.random.default_rng(5)
    s = random_stream(rng, 1400, 2, 3)
    spec = ClipWindowSpec(800, 200)
    clips = list(slice_clips(s, spec))
    assert len(clips) == 4
    starts = [0, 200, 400, 600]
    for clip, start in zip(clips, starts):
        assert np.array_equal(clip.data, s.data[start:start + 800])


def test_slice_makes_one_clip_at_a_time():
    # 91 windows of 6,400 bytes: taking the first must not build them all.
    s = SpikeStream(np.zeros((1000, 8, 8), dtype=np.uint8))
    first = s.data[:100]    # unpacked before tracing: 64,000 bytes
    tracemalloc.start()
    try:
        clips = slice_clips(s, ClipWindowSpec(100, 10))
        assert np.array_equal(next(clips).data, first)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 6400
    assert len(list(clips)) == 90


def test_slice_too_short_raises():
    s = SpikeStream(np.zeros((799, 1, 1), dtype=np.uint8))
    with pytest.raises(PreconditionError):
        slice_clips(s, ClipWindowSpec(800, 200))


def test_clip_count_matches_bruteforce_enumeration():
    # Oracle: walk starts 0, stride, 2*stride, ... while the window fits.
    for t in range(1, 60):
        for window in range(1, t + 1):
            for stride in (1, 2, 3, 7):
                brute = 0
                k = 0
                while k + window <= t:
                    brute += 1
                    k += stride
                assert clip_count(t, ClipWindowSpec(window, stride)) == brute


def test_clips_own_their_storage_and_values_are_frozen():
    s = SpikeStream(np.zeros((10, 1, 1), dtype=np.uint8))
    clips = list(slice_clips(s, ClipWindowSpec(5, 5)))
    for clip in clips:
        assert not np.shares_memory(clip.data, s.data)
    # values are immutable after construction
    assert not s.data.flags.writeable
    with pytest.raises(ValueError):
        clips[0].data[0, 0, 0] = 1
    # and the constructor snapshots: mutating the source array afterwards
    # does not reach into the stream
    source = np.zeros((2, 2, 2), dtype=np.uint8)
    stream = SpikeStream(source)
    source[0, 0, 0] = 1
    assert stream.data[0, 0, 0] == 0


@pytest.mark.parametrize("value, dtype", [(SpikeStream, np.uint8),
                                          (IntensityVideo, np.float64)])
def test_values_adopt_read_only_arrays_and_snapshot_the_rest(value, dtype):
    def held(arr):
        return value(arr).data if value is SpikeStream else value(arr).frames

    made = np.zeros((4, 3, 2), dtype=dtype)
    made.flags.writeable = False
    if value is SpikeStream:
        # A stream packs every source, so it shares memory with none.
        assert not np.shares_memory(held(made), made)
    else:
        assert held(made) is made
    writable = np.zeros((4, 3, 2), dtype=dtype)
    copy = held(writable)
    writable[0, 0, 0] = 1
    assert copy[0, 0, 0] == 0 and not copy.flags.writeable
    other = np.zeros((4, 3, 2), dtype=np.int16 if dtype == np.uint8 else
                     np.float32)
    strided = np.zeros((4, 3, 4), dtype=dtype)[:, :, ::2]
    for source in (other, strided):
        source.flags.writeable = False
        copy = held(source)
        assert not np.shares_memory(copy, source)
        assert copy.dtype == dtype and copy.flags.c_contiguous
    # The checks run on an adopted array too.
    bad = np.full((4, 3, 2), 2, dtype=dtype)
    bad.flags.writeable = False
    with pytest.raises(PreconditionError):
        value(bad)
    with pytest.raises(PreconditionError):
        value(made[0])


def _render_clip(tmp_path):
    rng = np.random.default_rng(3)
    return lambda: synth.render_clip("wave", 200, 64, 64, rng)


def _encode_video(tmp_path):
    video = synth.render_clip("clap", 400, 64, 64, np.random.default_rng(4))
    return lambda: encode_video(video, EncoderConfig(noise_amplitude=0.05),
                                seed=5)


def _read_dat(tmp_path):
    s = random_stream(np.random.default_rng(6), 400, 64, 64)
    meta = StreamMeta.for_stream(s)
    write_dat(s, meta, tmp_path / "s.dat")
    return lambda: read_dat(tmp_path / "s.dat", meta)


def _subsample_temporal(tmp_path):
    s = random_stream(np.random.default_rng(7), 400, 64, 64)
    return lambda: subsample_temporal(s, 300)


def _tfi_video(tmp_path):
    # Under 256 steps, TFI keeps one byte per sampled pixel besides its
    # float64 output.
    s = random_stream(np.random.default_rng(8), 200, 32, 32)
    return lambda: tfi_video(s, 1)


@pytest.mark.parametrize("setup", [_render_clip, _encode_video, _read_dat,
                                   _subsample_temporal, _tfi_video])
def test_each_producer_holds_one_copy_of_its_output(setup, tmp_path):
    make = setup(tmp_path)
    tracemalloc.start()
    try:
        out = make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if isinstance(out, SpikeStream):
        # A stream holds the .dat body. The encoder also keeps eleven
        # frames' worth of float64 buffers: charge, reset, eight frames of
        # noise (one draw per chunk) and eight frames of spike flags.
        held = StreamMeta.for_stream(out).packed_size
        buffers = 11 * 8 * out.height * out.width
        assert peak <= 1.25 * held + buffers, (peak, held)
    else:
        assert peak <= 1.25 * out.frames.nbytes, (peak, out.frames.nbytes)


# ---------------------------------------------------------------------------
# Frames that do not fill whole bytes
# ---------------------------------------------------------------------------

# H x W of 1, 15, 63 and 65 pixels, and 37 frames: neither the frames nor
# the stream fill whole bytes. A 4 x 6 frame does, for contrast.
FRAME_SIZES = [(1, 1), (3, 5), (7, 9), (5, 13), (4, 6)]


def odd_bits(h, w, t=37):
    return np.random.default_rng(h * 100 + w).integers(
        0, 2, size=(t, h, w), dtype=np.uint8)


@pytest.mark.parametrize("h, w", FRAME_SIZES)
def test_codec_gives_the_unpacked_bytes_on_any_frame_size(h, w, tmp_path):
    bits = odd_bits(h, w)
    s = SpikeStream(bits)
    assert np.array_equal(s.data, bits)
    assert np.array_equal(s.unpack(5, 20), bits[5:20])
    assert s.spike_count() == int(bits.sum())
    meta = StreamMeta.for_stream(s)
    write_dat(s, meta, tmp_path / "s.dat")
    assert (tmp_path / "s.dat").read_bytes() == pack_bits(bits)
    back = read_dat(tmp_path / "s.dat", meta)
    assert back == s and np.array_equal(back.data, bits)
    assert back.spike_count() == s.spike_count()


@pytest.mark.parametrize("h, w", FRAME_SIZES)
@pytest.mark.parametrize("t", [1, 7, 8, 9, 17])
def test_codec_converts_eight_frames_at_a_time_on_any_frame_size(h, w, t):
    # Frame counts that end at, before and after an eight-frame chunk.
    bits = odd_bits(h, w, t)
    s = SpikeStream(bits)
    meta = StreamMeta.for_stream(s)
    assert pack_spikes(s) == pack_bits(bits)
    assert unpack_spikes(pack_bits(bits), meta) == s
    assert unpack_spikes(bytearray(pack_bits(bits)), meta) == s


def test_codec_memory_on_ragged_frames_is_one_packed_copy(tmp_path):
    # 127 x 129 pixels fill no whole byte, yet the stream holds the .dat
    # body itself: writing copies none of it, and reading makes only the
    # copy the stream keeps.
    shape = (400, 127, 129)
    rng = np.random.default_rng(9)
    s = SpikeStream.from_frames((rng.random(shape[1:]) < 0.2
                                 for _ in range(shape[0])), shape)
    meta = StreamMeta.for_stream(s)
    path = tmp_path / "s.dat"
    peaks = []
    for run in (lambda: write_dat(s, meta, path),
                lambda: read_dat(path, meta)):
        tracemalloc.start()
        try:
            back = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    write_peak, read_peak = peaks
    assert write_peak <= 0.05 * meta.packed_size, (write_peak, meta)
    assert read_peak <= 1.05 * meta.packed_size, (read_peak, meta)
    assert path.read_bytes() == pack_bits(s.data)
    assert back == s

    def shared(a, b):
        return np.shares_memory(np.frombuffer(a, dtype=np.uint8),
                                np.frombuffer(b, dtype=np.uint8))

    assert shared(pack_spikes(s), pack_spikes(s))
    body = path.read_bytes()
    assert shared(pack_spikes(unpack_spikes(body, meta)), body)
    # A buffer its owner can still change is copied.
    mutable = bytearray(body)
    adopted = unpack_spikes(mutable, meta)
    mutable[0] ^= 0xFF
    assert adopted == s


def test_read_dat_rejects_set_padding_before_it_copies(tmp_path):
    # 1001 x 31 x 33 bits leave one padding bit in the final byte. A file
    # with it set is refused from the bytes read, with no second copy.
    meta = StreamMeta(height=31, width=33, t_len=1001)
    body = bytearray(np.random.default_rng(5).integers(
        0, 256, meta.packed_size, dtype=np.uint8).tobytes())
    body[-1] |= 1
    path = tmp_path / "s.dat"
    path.write_bytes(body)
    tracemalloc.start()
    try:
        with pytest.raises(DataIOError, match="padding"):
            read_dat(path, meta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * meta.packed_size, (peak / meta.packed_size)


@pytest.mark.parametrize("shape", [(7, 5, 13), (13, 7, 5), (3, 3, 1),
                                   (1, 3, 3), (4, 4, 16), (16, 4, 4)])
def test_from_frames_packs_the_bytes_of_the_whole_array(shape):
    # Ragged frames and tails: 13 frames end in a group of 5, 7 and 3
    # frames are one short group, and 16 frames two full ones.
    bits = np.random.default_rng(sum(shape)).random(shape) < 0.4
    buf = np.empty(shape[1:], dtype=np.bool_)

    def refilled():
        # One buffer, refilled once the packer has taken each frame.
        for frame in bits:
            buf[...] = frame
            yield buf

    for frames in (iter(bits), refilled()):
        s = SpikeStream.from_frames(frames, shape)
        assert pack_spikes(s) == np.packbits(bits, bitorder="big").tobytes()
        assert s == SpikeStream(bits)


@pytest.mark.parametrize("frames, shape", [
    ([np.zeros((4, 4), bool)] * 3, (40, 4, 4)),         # too few frames
    ([np.zeros((4, 4), bool)] * 6, (5, 4, 4)),          # too many
    ([np.zeros((4, 4), bool)] * 9, (8, 4, 4)),          # one too many
    ([np.zeros((4, 3), bool)], (1, 4, 4)),              # wrong frame size
    ([np.zeros((1, 4, 4), bool)], (1, 4, 4)),
    ([np.zeros((16,), bool)], (1, 4, 4)),
    ([np.zeros((4, 4), np.uint8)], (1, 4, 4)),          # not boolean
    ([[[False] * 4] * 4], (1, 4, 4)),
    # Shapes that SpikeStream(array) and StreamMeta reject too.
    ([], (0, 4, 4)),
    ([np.zeros((0, 4), bool)] * 4, (4, 0, 4)),
    ([], (-1, 4, 4)),
    ([np.zeros((4, 4), bool)], (4, 4)),
    ([np.zeros((4, 4), bool)], (1, 4, 4, 1)),
])
def test_from_frames_rejects_frames_that_do_not_make_the_stream(frames,
                                                                shape):
    with pytest.raises(PreconditionError):
        SpikeStream.from_frames(frames, shape)


@pytest.mark.parametrize("start, stop", [(-1, 2), (5, 3), (38, 45), (0, 41),
                                         (41, 41)])
def test_unpack_rejects_a_range_outside_the_stream(start, stop):
    s = SpikeStream(odd_bits(3, 5, 40))
    with pytest.raises(PreconditionError):
        s.unpack(start, stop)
    assert s.unpack(40, 40).shape == (0, 3, 5)
    assert np.array_equal(s.unpack(3, 40), odd_bits(3, 5, 40)[3:])


@pytest.mark.parametrize("h, w", FRAME_SIZES)
def test_windows_give_the_unpacked_frames_on_any_frame_size(h, w):
    bits = odd_bits(h, w)
    s = SpikeStream(bits)
    spec = ClipWindowSpec(window_len=10, stride=9)
    clips = list(slice_clips(s, spec))
    expected = slice_clips_unpacked(bits, spec)
    assert len(clips) == len(expected) == 4
    for clip, want in zip(clips, expected):
        assert np.array_equal(clip.data, want)
        assert clip.spike_count() == int(want.sum())
        assert pack_spikes(clip) == pack_bits(want)
    for target in (1, 11, 37):
        sub = subsample_temporal(s, target)
        want = subsample_unpacked(bits, target)
        assert np.array_equal(sub.data, want)
        assert pack_spikes(sub) == pack_bits(want)


@pytest.mark.parametrize("h, w", FRAME_SIZES)
def test_tfi_gives_the_unpacked_frames_on_any_frame_size(h, w):
    bits = odd_bits(h, w)
    cfg = TfiConfig(delta_t_max=6)
    for stride in (1, 4):
        ts = range(0, len(bits), stride)
        np.testing.assert_array_equal(
            tfi_video(SpikeStream(bits), stride, cfg).frames,
            tfi_frames_unpacked(bits, ts, cfg))


@pytest.mark.parametrize("h, w", FRAME_SIZES)
def test_decode_gives_the_unpacked_bits_on_any_frame_size(h, w, tmp_path):
    bits = odd_bits(h, w)
    dat = tmp_path / "s.dat"
    dat.write_bytes(pack_bits(bits))
    write_meta(StreamMeta(height=h, width=w, t_len=len(bits)),
               sidecar_path(dat))
    assert run_cli(["decode", str(dat), "--out",
                    str(tmp_path / "s.npy")])[0] == 0
    np.testing.assert_array_equal(np.load(tmp_path / "s.npy"), bits)
    assert run_cli(["decode", str(dat), "--out",
                    str(tmp_path / "copy.dat")])[0] == 0
    assert (tmp_path / "copy.dat").read_bytes() == dat.read_bytes()


# ---------------------------------------------------------------------------
# Temporal subsampling
# ---------------------------------------------------------------------------

def test_subsample_index_formula():
    idx = subsample_indices(800, 250)
    expected = [(i * 800) // 250 for i in range(250)]
    assert idx.tolist() == expected


def test_subsample_identity_when_target_equals_len():
    rng = np.random.default_rng(11)
    s = random_stream(rng, 37, 3, 3)
    assert subsample_temporal(s, 37) == s


def test_subsample_target_one_keeps_first_frame():
    rng = np.random.default_rng(12)
    s = random_stream(rng, 9, 2, 2)
    out = subsample_temporal(s, 1)
    assert np.array_equal(out.data[0], s.data[0])


def test_subsample_target_too_large():
    s = SpikeStream(np.zeros((4, 1, 1), dtype=np.uint8))
    with pytest.raises(PreconditionError):
        subsample_temporal(s, 5)


def test_operations_preserve_binary_values():
    rng = np.random.default_rng(13)
    s = random_stream(rng, 50, 6, 6)
    outputs = [unpack_spikes(pack_spikes(s), StreamMeta.for_stream(s))]
    outputs += slice_clips(s, ClipWindowSpec(20, 10))
    outputs.append(subsample_temporal(s, 17))
    for out in outputs:
        assert set(np.unique(out.data)).issubset({0, 1})
