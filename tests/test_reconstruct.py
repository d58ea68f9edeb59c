"""Texture-from-interval reconstruction tests."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from oracles import tfi_frames_unpacked
from spikekit import reconstruct
from spikekit.camera import EncoderConfig, IntensityVideo, encode_video
from spikekit.errors import PreconditionError
from spikekit.reconstruct import TfiConfig, tfi_reconstruct, tfi_video
from spikekit.stream import SpikeStream


def periodic_stream(period: int, t_len: int, offset: int = 0) -> SpikeStream:
    data = np.zeros((t_len, 1, 1), dtype=np.uint8)
    data[offset::period] = 1
    return SpikeStream(data)


def argmax_tfi_reconstruct(stream: SpikeStream, t: int,
                           cfg: TfiConfig) -> np.ndarray:
    """Reference TFI frame: each window scanned on its own with argmax."""
    data = stream.data
    h, w = stream.height, stream.width
    lo = max(0, t - cfg.delta_t_max)
    before_window = data[lo:t + 1][::-1]          # index 0 == time t
    has_before = before_window.any(axis=0)
    t_before = t - before_window.argmax(axis=0)
    hi = min(stream.t_len, t + cfg.delta_t_max + 1)
    after_window = data[t + 1:hi]
    if after_window.shape[0] == 0:
        has_after = np.zeros((h, w), dtype=bool)
        t_after = np.zeros((h, w), dtype=np.int64)
    else:
        has_after = after_window.any(axis=0)
        t_after = t + 1 + after_window.argmax(axis=0)
    out = np.full((h, w), cfg.default_value, dtype=np.float64)
    both = has_before & has_after
    isi = (t_after - t_before).astype(np.float64)
    np.copyto(out, np.minimum(1.0, cfg.theta / np.maximum(isi, 1.0)),
              where=both)
    return out


def _test_streams():
    """(name, stream): random streams over spike rates and lengths, plus
    all-zero and all-one streams. t_len 300 needs two-byte spike times."""
    rng = np.random.default_rng(41)
    for rate, t_len in itertools.product((0.01, 0.1, 0.3), (1, 2, 37, 100)):
        yield (f"rate{rate}-t{t_len}",
               SpikeStream(rng.random((t_len, 3, 5)) < rate))
    yield "rate0.05-t300", SpikeStream(rng.random((300, 2, 3)) < 0.05)
    for t_len in (1, 37):
        yield f"zeros-t{t_len}", SpikeStream(np.zeros((t_len, 2, 2), np.uint8))
        yield f"ones-t{t_len}", SpikeStream(np.ones((t_len, 2, 2), np.uint8))


# delta_t_max 3 with stride 25: windows that do not overlap. 500: the
# windows reach past both ends of every stream.
@pytest.mark.parametrize("delta_t_max", [3, 40, 500])
@pytest.mark.parametrize("default_value", [0.0, 0.2])
def test_sweep_equals_argmax_oracle(delta_t_max, default_value):
    cfg = TfiConfig(delta_t_max=delta_t_max, theta=5.0,
                    default_value=default_value)
    for name, stream in _test_streams():
        t_len = stream.t_len
        for t in sorted({0, t_len // 2, t_len - 1}):
            assert tfi_reconstruct(stream, t, cfg).tobytes() == \
                argmax_tfi_reconstruct(stream, t, cfg).tobytes(), (name, t)
        for stride in (1, 7, 25, t_len + 1):
            want = np.stack([argmax_tfi_reconstruct(stream, t, cfg)
                             for t in range(0, t_len, stride)])
            got = tfi_video(stream, stride, cfg).frames
            assert got.tobytes() == want.tobytes(), (name, stride)


def test_tfi_video_frame_k_is_tfi_reconstruct_at_k_stride():
    rng = np.random.default_rng(42)
    stream = SpikeStream(rng.random((90, 4, 4)) < 0.15)
    cfg = TfiConfig(delta_t_max=9, theta=4.0, default_value=0.1)
    video = tfi_video(stream, 11, cfg)
    assert len(video.frames) == 9
    for k, frame in enumerate(video.frames):
        assert frame.tobytes() == \
            tfi_reconstruct(stream, k * 11, cfg).tobytes(), k


def test_period_five_reconstructs_full_brightness():
    # theta/ISI = 5/5 = 1.0 between spikes.
    stream = periodic_stream(5, 40)
    frame = tfi_reconstruct(stream, 12, TfiConfig(delta_t_max=10, theta=5.0))
    assert frame[0, 0] == pytest.approx(1.0)


def test_longer_interval_is_darker():
    stream = periodic_stream(10, 60)
    frame = tfi_reconstruct(stream, 14, TfiConfig(delta_t_max=20, theta=5.0))
    assert frame[0, 0] == pytest.approx(0.5)


def test_no_spikes_yields_default_value():
    stream = SpikeStream(np.zeros((30, 2, 2), dtype=np.uint8))
    cfg = TfiConfig(delta_t_max=10, theta=5.0, default_value=0.25)
    frame = tfi_reconstruct(stream, 15, cfg)
    assert frame == pytest.approx(np.full((2, 2), 0.25))


def test_spike_at_t_counts_as_before_endpoint():
    stream = periodic_stream(5, 40)
    # t = 10 carries a spike; interval is [10, 15] -> ISI 5.
    frame = tfi_reconstruct(stream, 10, TfiConfig(delta_t_max=6, theta=4.0))
    assert frame[0, 0] == pytest.approx(4.0 / 5.0)


def test_window_bound_excludes_far_spikes():
    data = np.zeros((50, 1, 1), dtype=np.uint8)
    data[0] = data[40] = 1
    stream = SpikeStream(data)
    cfg = TfiConfig(delta_t_max=5, theta=5.0, default_value=0.0)
    frame = tfi_reconstruct(stream, 20, cfg)
    assert frame[0, 0] == 0.0


def test_encode_reconstruct_roundtrip_recovers_intensity():
    for value in (0.2, 0.4, 0.6, 0.8, 1.0):
        video = IntensityVideo(np.full((200, 2, 2), value))
        stream = encode_video(video, EncoderConfig(theta=5.0))
        cfg = TfiConfig(delta_t_max=40, theta=5.0)
        mids = [tfi_reconstruct(stream, t, cfg).mean()
                for t in range(60, 140, 10)]
        assert abs(np.mean(mids) - value) < 0.1, \
            f"I={value}: reconstructed {np.mean(mids):.3f}"


def test_monotonicity_shorter_isi_never_darker():
    rng = np.random.default_rng(31)
    cfg = TfiConfig(delta_t_max=15, theta=5.0, default_value=0.0)
    for _ in range(100):
        stream = SpikeStream(rng.integers(0, 2, size=(40, 4, 4),
                                          dtype=np.uint8))
        t = int(rng.integers(0, 40))
        frame = tfi_reconstruct(stream, t, cfg)
        # Recompute per-pixel intervals with a plain scan.
        pairs = []
        for y in range(4):
            for x in range(4):
                col = stream.data[:, y, x]
                before = [u for u in range(max(0, t - 15), t + 1) if col[u]]
                after = [u for u in range(t + 1, min(40, t + 16)) if col[u]]
                if before and after:
                    pairs.append((after[0] - before[-1], frame[y, x]))
        pairs.sort()
        for (isi_a, val_a), (isi_b, val_b) in zip(pairs, pairs[1:]):
            if isi_a < isi_b:
                assert val_a >= val_b


def test_output_range_is_unit_interval():
    rng = np.random.default_rng(32)
    for _ in range(20):
        stream = SpikeStream(rng.integers(0, 2, size=(30, 3, 3),
                                          dtype=np.uint8))
        frame = tfi_reconstruct(stream, int(rng.integers(0, 30)),
                                TfiConfig(delta_t_max=10, theta=7.0))
        assert frame.min() >= 0.0 and frame.max() <= 1.0


def test_t_out_of_range():
    stream = periodic_stream(5, 20)
    with pytest.raises(PreconditionError):
        tfi_reconstruct(stream, 20, TfiConfig())
    with pytest.raises(PreconditionError):
        tfi_reconstruct(stream, -1, TfiConfig())


# ---------------------------------------------------------------------------
# Batch reconstruction
# ---------------------------------------------------------------------------

def test_tfi_video_single_frame_when_stride_is_t_len():
    stream = periodic_stream(5, 30)
    video = tfi_video(stream, stride=30, cfg=TfiConfig(delta_t_max=10))
    assert len(video.frames) == 1


def test_tfi_video_constant_stream_gives_identical_frames():
    stream = periodic_stream(4, 41)
    video = tfi_video(stream, stride=5,
                      cfg=TfiConfig(delta_t_max=10, theta=4.0))
    interior = video.frames[1:-1]
    for frame in interior[1:]:
        assert np.array_equal(frame, interior[0])


def test_tfi_video_moving_bar_advances_monotonically():
    # A bright bar sweeps right: spikes fire densely at the bar column.
    t_len, width = 80, 16
    data = np.zeros((t_len, 1, width), dtype=np.uint8)
    for t in range(t_len):
        bar = (t // 5) % width
        data[t, 0, bar] = 1
        if t % 4 == 0:                      # sparse background activity
            data[t, 0, (bar + 8) % width] = 1
    stream = SpikeStream(data)
    video = tfi_video(stream, stride=10, cfg=TfiConfig(delta_t_max=6,
                                                       theta=3.0))
    positions = [int(np.argmax(frame[0])) for frame in video.frames[1:-1]]
    assert all(b >= a for a, b in zip(positions, positions[1:])), positions


def test_tfi_video_bad_stride():
    with pytest.raises(PreconditionError):
        tfi_video(periodic_stream(5, 20), stride=0)


# ---------------------------------------------------------------------------
# Eight-frame chunks
# ---------------------------------------------------------------------------

def _sampled_steps(t_len: int):
    """(delta_t_max, ts): stride 1; stride 10 > 2 * delta_t_max, so gaps
    between the windows; windows that reach past both ends; and one
    sampled step at either end."""
    yield 3, list(range(t_len))
    yield 4, list(range(0, t_len, 10))
    yield t_len, list(range(0, t_len, 3))
    yield t_len + 5, list(range(0, t_len, 8))
    for t in (0, t_len - 1):
        yield 5, [t]
        yield t_len, [t]


@pytest.mark.parametrize("h, w", [(1, 1), (3, 5), (7, 9)])
@pytest.mark.parametrize("t_len", [1, 7, 8, 9, 37])
def test_chunked_sweeps_give_the_per_frame_oracle(h, w, t_len):
    rng = np.random.default_rng(h * 1000 + w * 100 + t_len)
    bits = (rng.random((t_len, h, w)) < 0.3).astype(np.uint8)
    stream = SpikeStream(bits)
    for delta_t_max, ts in _sampled_steps(t_len):
        cfg = TfiConfig(delta_t_max=delta_t_max, theta=4.0,
                        default_value=0.3)
        assert reconstruct._tfi_frames(stream, ts, cfg).tobytes() == \
            tfi_frames_unpacked(bits, ts, cfg).tobytes(), (delta_t_max, ts)


def _clip(t_len: int, n: int = 128) -> SpikeStream:
    rng = np.random.default_rng(t_len)
    return SpikeStream.from_frames(
        (rng.random((n, n)) < 0.2 for _ in range(t_len)), (t_len, n, n))


def test_tfi_video_unpacks_eight_frames_per_call(monkeypatch):
    # stream-io's clips: 100 frames, stride 25, delta_t_max 40, so the two
    # sweeps read 175 frames.
    calls = []
    unpack = SpikeStream.unpack

    def counted(self, start, stop):
        calls.append(stop - start)
        return unpack(self, start, stop)

    monkeypatch.setattr(SpikeStream, "unpack", counted)
    tfi_video(_clip(100), 25)
    assert len(calls) <= 2 * math.ceil(100 / 8) + 8, calls
    assert max(calls) == 8


@pytest.mark.parametrize("t_len, delta_t_max, ts", [
    (1200, 40, [600]),                      # tfi_reconstruct at t = 600
    (300, 20, list(range(0, 300, 100))),    # stride 100 > 2 * 20 + 1
    (100, 40, list(range(0, 100, 25))),     # stream-io's windows overlap
])
def test_each_sweep_reads_each_frame_once_and_only_near_a_step(
        monkeypatch, t_len, delta_t_max, ts):
    # Each call of the sweep starts a list of the frames it unpacks.
    sweeps = []
    unpack, nearest = SpikeStream.unpack, reconstruct._nearest

    def recorded_unpack(self, start, stop):
        sweeps[-1].append(range(start, stop))
        return unpack(self, start, stop)

    def recorded_nearest(*args):
        sweeps.append([])
        yield from nearest(*args)

    monkeypatch.setattr(SpikeStream, "unpack", recorded_unpack)
    monkeypatch.setattr(reconstruct, "_nearest", recorded_nearest)
    cfg = TfiConfig(delta_t_max=delta_t_max)
    stream = _clip(t_len, 16)
    if len(ts) == 1:
        tfi_reconstruct(stream, ts[0], cfg)
    else:
        tfi_video(stream, ts[1], cfg)
    assert len(sweeps) == 2
    read = [[u for frames in calls for u in frames] for calls in sweeps]
    for calls, frames in zip(sweeps, read):
        assert max(map(len, calls)) <= 8
        assert len(set(frames)) == len(frames), "a frame read twice"
        assert all(any(abs(u - t) <= delta_t_max for t in ts)
                   for u in frames)
    if len(ts) == 1:
        assert len(read[0]) + len(read[1]) <= 2 * delta_t_max + 1


def test_tfi_memory_does_not_grow_with_the_stream():
    # Four sampled steps at every length: the output, one two-byte time
    # per sampled pixel and a few [8, H, W] chunks, whatever t_len.
    n = 32
    for t_len in (300, 1200, 4800):
        stream = _clip(t_len, n)
        tracemalloc.start()
        try:
            out = tfi_video(stream, t_len // 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 1.25 * out.frames.nbytes + 12 * 8 * n * n
        assert peak < bound, (t_len, peak, bound)
