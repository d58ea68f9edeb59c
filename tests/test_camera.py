"""Pixel-simulation and video-encoder tests.

The discrete-encoder oracle runs in exact Fraction arithmetic so it stays
independent of the float64 implementation path.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import PixelModel, continuous_spike_count, simulate_pixel
from spikekit.camera import (EncoderConfig, IntensityVideo, encode_video,
                             to_grayscale, upsample_temporal)
from spikekit.errors import PreconditionError


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


def test_upsample_factor_one_is_identity():
    rng = np.random.default_rng(25)
    video = IntensityVideo(rng.uniform(size=(5, 3, 3)))
    out = upsample_temporal(video, 1)
    assert np.array_equal(out.frames, video.frames)


def test_upsample_midpoint_blend():
    frames = np.stack([np.zeros((2, 2)), np.ones((2, 2))])
    out = upsample_temporal(IntensityVideo(frames), 2)
    assert out.n_frames == 3
    assert out.frames[1] == pytest.approx(np.full((2, 2), 0.5))


def test_upsample_preserves_endpoints_bit_exactly():
    rng = np.random.default_rng(26)
    for _ in range(20):
        video = IntensityVideo(rng.uniform(size=(5, 4, 4)))
        out = upsample_temporal(video, 10)
        assert out.n_frames == 41
        for i in range(5):
            assert np.array_equal(out.frames[i * 10], video.frames[i])


def test_upsample_bad_factor():
    with pytest.raises(PreconditionError):
        upsample_temporal(constant_video(0.5, 3), 0)
