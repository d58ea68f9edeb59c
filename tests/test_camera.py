"""Pixel-simulation and video-encoder tests.

The discrete-encoder oracle runs in exact Fraction arithmetic so it stays
independent of the float64 implementation path.
"""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import (PixelModel, continuous_spike_count,
                     encode_upsampled_whole, encode_video_per_frame,
                     simulate_pixel)
from spikekit import pipeline
from spikekit.camera import (EncoderConfig, IntensityVideo, encode_frames,
                             encode_video, to_grayscale, upsampled_frames,
                             upsampled_length)
from spikekit.errors import PreconditionError
from spikekit.stream import StreamMeta
from spikekit.synth import SyntheticDatasetSpec, dataset_clips, render_clip
from spikekit.videoio import quantize_u8


def exact_spike_frames(intensity: str, theta: int, n_frames: int) -> list[int]:
    """Step-accumulation oracle in exact rational arithmetic (1-indexed)."""
    value = Fraction(intensity)
    v = Fraction(0)
    frames = []
    for t in range(1, n_frames + 1):
        v += value
        if v >= theta:
            frames.append(t)
            v -= theta
    return frames


def constant_video(value: float, n_frames: int) -> IntensityVideo:
    return IntensityVideo(np.full((n_frames, 1, 1), value))


def spike_frames(stream) -> list[int]:
    return list(np.nonzero(stream.data[:, 0, 0])[0] + 1)


# ---------------------------------------------------------------------------
# Continuous pixel model
# ---------------------------------------------------------------------------

def test_constant_intensity_spikes_every_fifth_poll():
    # alpha*I*tick = theta/5 with power-of-two dt keeps every sum exact.
    model = PixelModel(alpha=1.0, theta=5.0, tick=1.0)
    spikes = simulate_pixel(lambda t: np.ones_like(t), model,
                            duration=25.0, dt=0.25)
    assert spikes.tolist() == [0, 0, 0, 0, 1] * 5


def test_zero_intensity_never_spikes():
    model = PixelModel(alpha=2.0, theta=1.0, tick=0.5)
    spikes = simulate_pixel(lambda t: np.zeros_like(t), model,
                            duration=10.0, dt=0.1)
    assert spikes.sum() == 0


def test_ramp_intensity_matches_closed_form_times():
    # I(t) = t, alpha = 1, theta = 5: crossings at t_k = sqrt(10 k).
    model = PixelModel(alpha=1.0, theta=5.0, tick=0.05)
    duration = 32.0
    spikes = simulate_pixel(lambda t: t, model, duration=duration, dt=0.01)
    poll_times = (np.nonzero(spikes)[0] + 1) * model.tick
    expected = [math.sqrt(10.0 * k) for k in range(1, 101)]
    assert len(poll_times) >= 100
    for t_poll, t_k in zip(poll_times[:100], expected):
        assert t_k - 1e-9 <= t_poll <= t_k + model.tick, \
            f"spike at {t_poll} not within one tick of {t_k}"


def test_spike_count_matches_integral_oracle():
    rng = np.random.default_rng(21)
    model = PixelModel(alpha=0.7, theta=2.0, tick=0.2)
    for _ in range(10):
        coeffs = rng.uniform(0.0, 3.0, size=3)

        def intensity(t, c=coeffs):
            return c[0] + c[1] * np.abs(np.sin(t)) + c[2] * (t % 1.0)

        spikes = simulate_pixel(intensity, model, duration=20.0, dt=0.02)
        ideal = continuous_spike_count(intensity, model, 20.0, dt=0.002)
        assert abs(int(spikes.sum()) - ideal) <= 1


def test_residual_charge_stays_below_theta():
    rng = np.random.default_rng(22)
    model = PixelModel(alpha=1.3, theta=0.9, tick=0.1)
    trace_vals = rng.uniform(0.0, 4.0, size=2048)

    def intensity(t):
        return np.interp(np.asarray(t) % 20.0, np.linspace(0, 20, 2048),
                         trace_vals)

    _, charge = simulate_pixel(intensity, model, duration=100.0, dt=0.01,
                               record_charge=True)
    assert charge.min() >= 0.0
    assert charge.max() < model.theta


def test_simulate_pixel_preconditions():
    model = PixelModel(tick=0.5)
    with pytest.raises(PreconditionError):
        simulate_pixel(lambda t: t * 0 - 1.0, model, duration=2.0, dt=0.1)
    with pytest.raises(PreconditionError):
        simulate_pixel(lambda t: t * 0, model, duration=2.0, dt=0.6)
    with pytest.raises(PreconditionError):
        simulate_pixel(lambda t: t * 0, model, duration=-1.0, dt=0.1)


# ---------------------------------------------------------------------------
# Discrete encoder
# ---------------------------------------------------------------------------

def test_constant_one_fires_every_fifth_frame():
    stream = encode_video(constant_video(1.0, 30), EncoderConfig(theta=5.0))
    assert spike_frames(stream) == [5, 10, 15, 20, 25, 30]


def test_constant_point_six_matches_exact_accumulation_oracle():
    oracle = exact_spike_frames("0.6", 5, 55)
    assert oracle[:6] == [9, 17, 25, 34, 42, 50]
    stream = encode_video(constant_video(0.6, 55), EncoderConfig(theta=5.0))
    assert spike_frames(stream) == oracle


def test_constant_zero_never_fires():
    stream = encode_video(constant_video(0.0, 40), EncoderConfig(theta=5.0))
    assert stream.spike_count() == 0


@pytest.mark.parametrize("value", [0.2, 0.4, 0.6, 0.8, 1.0])
def test_firing_rate_equals_intensity_over_theta(value):
    n = 10_000
    stream = encode_video(constant_video(value, n), EncoderConfig(theta=5.0))
    rate = stream.spike_count() / n
    assert abs(rate - value / 5.0) <= 1.0 / n


def test_encode_matches_exact_oracle_on_decimal_grid():
    # Two-decimal intensities cover the representative decimal inputs.
    for cents in range(1, 101, 7):
        value = cents / 100.0
        oracle = exact_spike_frames(f"0.{cents:02d}" if cents < 100 else "1",
                                    5, 400)
        stream = encode_video(constant_video(value, 400),
                              EncoderConfig(theta=5.0))
        assert spike_frames(stream) == oracle, f"mismatch at I={value}"


def test_encode_noise_free_is_seed_independent():
    video = constant_video(0.37, 64)
    a = encode_video(video, EncoderConfig(), seed=None)
    b = encode_video(video, EncoderConfig(), seed=12345)
    assert a == b


def test_encode_noise_deterministic_under_seed():
    rng = np.random.default_rng(23)
    video = IntensityVideo(rng.uniform(0.2, 0.8, size=(32, 4, 4)))
    cfg = EncoderConfig(theta=5.0, noise_amplitude=0.1)
    a = encode_video(video, cfg, seed=99)
    b = encode_video(video, cfg, seed=99)
    c = encode_video(video, cfg, seed=100)
    assert a == b
    assert a != c  # different seed perturbs at least one frame here


def test_encode_noise_requires_seed():
    with pytest.raises(PreconditionError):
        encode_video(constant_video(0.5, 8),
                     EncoderConfig(noise_amplitude=0.05), seed=None)


# Frame counts 1, 7, 8, 9 and 17 end at, before and after the encoder's
# eight-frame chunks.
@pytest.mark.parametrize("shape", [(1, 1, 1), (33, 7, 5), (400, 64, 64),
                                   (37, 3, 5), (37, 7, 9), (37, 5, 13)]
                         + [(t, n, m) for t in (1, 7, 8, 9, 17)
                            for n, m in ((3, 5), (64, 64))])
@pytest.mark.parametrize("noise", [0.0, 1e-320, 0.05, 0.9, 5.0])
def test_encode_gives_the_bytes_of_the_per_frame_encoder(shape, noise):
    # The in-place noise draw -a + 2a*u, one draw per eight frames, must
    # give the values of per-frame Generator.uniform(-a, a) calls on the
    # same stream, bit for bit.
    cfg = EncoderConfig(noise_amplitude=noise)
    for seed in (0, 1, 7):
        video = IntensityVideo(np.random.default_rng(seed + 100).random(shape))
        assert np.array_equal(encode_video(video, cfg, seed).data,
                              encode_video_per_frame(video, cfg, seed)), seed


@pytest.mark.parametrize("noise", [0.0, 1e-320, 0.05, 0.9, 5.0])
def test_encode_of_constant_point_six_gives_the_per_frame_bytes(noise):
    # 0.6 rounds down in binary: the threshold slack decides these frames.
    video = IntensityVideo(np.full((120, 3, 4), 0.6))
    cfg = EncoderConfig(theta=5.0, noise_amplitude=noise)
    for seed in (0, 1, 7):
        assert np.array_equal(encode_video(video, cfg, seed).data,
                              encode_video_per_frame(video, cfg, seed)), seed


@pytest.mark.parametrize("noise", [-0.1, math.nan, math.inf, 1e308,
                                   9e307])
def test_encoder_config_rejects_noise_without_a_finite_range(noise):
    with pytest.raises(PreconditionError):
        EncoderConfig(noise_amplitude=noise)


def test_encoder_config_accepts_the_largest_finite_noise_range():
    noise = np.nextafter(np.finfo(np.float64).max / 2, 0)
    cfg = EncoderConfig(noise_amplitude=float(noise))
    stream = encode_video(constant_video(0.5, 9), cfg, seed=0)
    assert stream.t_len == 9


def test_encode_noise_rejects_a_negative_seed():
    with pytest.raises(PreconditionError):
        encode_video(constant_video(0.5, 8),
                     EncoderConfig(noise_amplitude=0.05), seed=-1)


def test_encode_outputs_binary_for_random_videos():
    rng = np.random.default_rng(24)
    video = IntensityVideo(rng.uniform(size=(30, 5, 5)))
    stream = encode_video(video, EncoderConfig(theta=2.0))
    assert set(np.unique(stream.data)).issubset({0, 1})


# ---------------------------------------------------------------------------
# Grayscale and temporal upsampling
# ---------------------------------------------------------------------------

def test_grayscale_primaries():
    white = np.ones((2, 2, 3))
    black = np.zeros((2, 2, 3))
    red = np.zeros((1, 1, 3))
    red[..., 0] = 1.0
    assert to_grayscale(white) == pytest.approx(np.ones((2, 2)))
    assert to_grayscale(black) == pytest.approx(np.zeros((2, 2)))
    assert to_grayscale(red)[0, 0] == pytest.approx(0.299)


def test_grayscale_channel_count_error():
    with pytest.raises(PreconditionError):
        to_grayscale(np.zeros((2, 2, 4)))


def upsample(video: IntensityVideo, factor: int) -> np.ndarray:
    """The upsampled frames of ``video`` as one [n, H, W] array."""
    return np.array(list(upsampled_frames(video.frames, factor)))


def test_upsample_factor_one_is_identity():
    rng = np.random.default_rng(25)
    video = IntensityVideo(rng.uniform(size=(5, 3, 3)))
    assert np.array_equal(upsample(video, 1), video.frames)


def test_upsample_midpoint_blend():
    frames = np.stack([np.zeros((2, 2)), np.ones((2, 2))])
    out = upsample(IntensityVideo(frames), 2)
    assert len(out) == upsampled_length(2, 2) == 3
    assert out[1] == pytest.approx(np.full((2, 2), 0.5))


def test_upsample_preserves_endpoints_bit_exactly():
    rng = np.random.default_rng(26)
    for _ in range(20):
        video = IntensityVideo(rng.uniform(size=(5, 4, 4)))
        out = upsample(video, 10)
        assert len(out) == upsampled_length(5, 10) == 41
        for i in range(5):
            assert np.array_equal(out[i * 10], video.frames[i])


def test_upsample_bad_factor():
    for factor in (0, -3):
        with pytest.raises(PreconditionError, match="upsampling factor"):
            upsampled_length(3, factor)
        with pytest.raises(PreconditionError, match="upsampling factor"):
            upsample(constant_video(0.5, 3), factor)


# ---------------------------------------------------------------------------
# Frame-by-frame encoding and the pipeline's clip path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("frame", [
    np.zeros((4, 5)), np.zeros((1, 4, 4)), [[0.0] * 4] * 4],
    ids=["wrong-width", "3-d", "list"])
def test_encode_frames_refuses_a_frame_it_cannot_encode(frame):
    with pytest.raises(PreconditionError, match="frames must be"):
        encode_frames(iter([np.zeros((4, 4)), frame]), (16, 4, 4))


@pytest.mark.parametrize("bad", [1.5, -0.5, np.nan, np.inf])
@pytest.mark.parametrize("at", [0, 11])
@pytest.mark.parametrize("factor", [1, 2])
def test_encode_clip_refuses_a_value_outside_the_unit_range(bad, at, factor):
    # Each frame is checked as it is handed over, so frame 11 of 12 too.
    frames = np.full((12, 4, 4), 0.5)
    frames[at, 2, 3] = bad
    with pytest.raises(PreconditionError, match=re.escape("[0, 1]")):
        pipeline.encode_clip(frames, frames.shape, EncoderConfig(), factor,
                             None)


def test_encode_frames_checks_the_seed_before_reading_a_frame():
    def unread():
        raise AssertionError("a frame was read")
        yield

    for seed in (None, -1):
        with pytest.raises(PreconditionError, match="seed"):
            encode_frames(unread(), (8, 4, 4),
                          EncoderConfig(noise_amplitude=0.1), seed)


def _clip_path_peak(spec, factor, noise, path):
    """The traced peak of the pipeline's clip path on the first clip of
    ``spec``, its stream, and the spikes of the whole-clip oracle."""
    label, _, _, rng = next(dataset_clips(spec))
    cfg = EncoderConfig(noise_amplitude=noise)
    seed = 3 if noise else None
    tracemalloc.start()
    try:
        stream = pipeline._encode_synth_clip(spec, label, rng, path, cfg,
                                             factor, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rng = np.random.default_rng([spec.seed, label, 0])
    clip = render_clip(spec.classes[label], spec.frames, spec.height,
                       spec.width, rng)
    pixels = IntensityVideo(quantize_u8(clip.frames) / 255.0)
    return peak, stream, encode_upsampled_whole(pixels, factor, cfg, seed)


@pytest.mark.parametrize("frames,factor", [(250, 1), (1000, 1), (250, 3)])
@pytest.mark.parametrize("noise", [0.0, 0.2])
def test_the_clip_path_holds_no_whole_clip(frames, factor, noise, tmp_path):
    # Each clip is rendered, quantized, blended and encoded one frame at a
    # time, so its traced peak does not grow with its length beyond the
    # packed body: at most four 8-frame float64 buffers besides it. When
    # the whole clip was held, 250 frames peaked at 9.1 MiB, 1,000 at 35.8
    # and 250 upsampled by 3 at 32.3.
    spec = SyntheticDatasetSpec(classes=("clap", "wave"), clips_per_class=1,
                                frames=frames, seed=6)
    peak, stream, want = _clip_path_peak(spec, factor, noise,
                                         tmp_path / "c.dat")
    body = StreamMeta.for_stream(stream).packed_size
    assert peak <= 4 * 8 * 64 * 64 * 8 + body, (peak, body)
    assert np.array_equal(stream.data, want)


def test_the_clip_path_at_256_px_stays_under_12_mib(tmp_path):
    # 144.7 MiB when the whole clip was held, and 14.0 MiB while the
    # encoder read 8-frame float64 chunks.
    spec = SyntheticDatasetSpec(classes=("wave", "clap"), clips_per_class=1,
                                frames=250, height=256, width=256, seed=6)
    peak, stream, want = _clip_path_peak(spec, 1, 0.2, tmp_path / "c.dat")
    assert peak < 12 * 2 ** 20, peak
    assert np.array_equal(stream.data, want)
