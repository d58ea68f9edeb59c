"""Synthetic-dataset generator tests."""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import brightness_centroid
from spikekit.errors import PreconditionError
from spikekit.synth import (CLASS_PROMPTS, SyntheticDatasetSpec, render_clip,
                            render_frames, synth_dataset)
from spikekit.videoio import (quantize_u8, read_pgm, read_pgm_clip,
                              write_pgm_frame)


def test_dataset_layout_and_counts(tmp_path):
    spec = SyntheticDatasetSpec(clips_per_class=12, frames=20, seed=1)
    manifest = synth_dataset(spec, tmp_path)
    clip_dirs = sorted((tmp_path / "clips").iterdir())
    assert len(clip_dirs) == 48
    prompts = (tmp_path / "prompts.txt").read_text().splitlines()
    assert len(prompts) == 4
    assert prompts[1] == CLASS_PROMPTS["wave"]
    assert len(manifest["clips"]) == 48
    assert sorted({c["label"] for c in manifest["clips"]}) == [0, 1, 2, 3]


def test_same_seed_bit_identical_frames(tmp_path):
    spec = SyntheticDatasetSpec(clips_per_class=1, frames=8, seed=7)
    synth_dataset(spec, tmp_path / "a")
    synth_dataset(spec, tmp_path / "b")
    frame_a = (tmp_path / "a/clips/clap_000/frame_00003.pgm").read_bytes()
    frame_b = (tmp_path / "b/clips/clap_000/frame_00003.pgm").read_bytes()
    assert frame_a == frame_b


def test_different_seed_changes_frames(tmp_path):
    synth_dataset(SyntheticDatasetSpec(clips_per_class=1, frames=8, seed=7),
                  tmp_path / "a")
    synth_dataset(SyntheticDatasetSpec(clips_per_class=1, frames=8, seed=8),
                  tmp_path / "b")
    frame_a = (tmp_path / "a/clips/wave_000/frame_00003.pgm").read_bytes()
    frame_b = (tmp_path / "b/clips/wave_000/frame_00003.pgm").read_bytes()
    assert frame_a != frame_b


def test_wave_centroid_oscillates():
    rng = np.random.default_rng([3, 1, 0])
    video = render_clip("wave", frames=120, height=64, width=64, rng=rng)
    xs = [brightness_centroid(f)[1] for f in video.frames]
    velocities = np.diff(xs)
    sign_changes = int(np.sum(np.abs(np.diff(np.sign(
        velocities[np.abs(velocities) > 1e-6]))) > 0))
    assert sign_changes >= 2, f"only {sign_changes} reversals"


def test_clips_written_match_rendered_values(tmp_path):
    spec = SyntheticDatasetSpec(clips_per_class=1, frames=6, seed=11)
    synth_dataset(spec, tmp_path)
    video = read_pgm_clip(tmp_path / "clips/punch_000")
    rng = np.random.default_rng([11, 2, 0])     # label 2 = punch
    rendered = render_clip("punch", 6, 64, 64, rng)
    # 8-bit quantization bound
    assert np.max(np.abs(video.frames - rendered.frames)) <= 0.5 / 255.0


def test_synth_holds_one_frame_not_a_clip(tmp_path):
    # Frames go to their PGM files as they are rendered: the float clip,
    # 100 frames of 64 x 64 doubles, is never held whole.
    spec = SyntheticDatasetSpec(classes=("wave", "clap"), clips_per_class=1,
                                frames=100, seed=2)
    frame_bytes = spec.height * spec.width * 8
    tracemalloc.start()
    try:
        synth_dataset(spec, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * frame_bytes, (peak, frame_bytes)
    video = read_pgm_clip(tmp_path / "clips" / "wave_000")
    want = render_clip("wave", 100, 64, 64, np.random.default_rng([2, 0, 0]))
    assert np.array_equal(video.frames, quantize_u8(want.frames) / 255.0)


def test_spec_validation():
    with pytest.raises(PreconditionError):
        SyntheticDatasetSpec(classes=("wave",))
    with pytest.raises(PreconditionError):
        SyntheticDatasetSpec(classes=("wave", "moonwalk"))
    with pytest.raises(PreconditionError):
        SyntheticDatasetSpec(height=32)


@pytest.mark.parametrize("frames", [1, 0, -3])
@pytest.mark.parametrize("class_name", sorted(CLASS_PROMPTS))
def test_render_needs_two_frames_as_the_spec_does(class_name, frames):
    # A clip's motion runs from its first frame to its last. One frame
    # raised ZeroDivisionError; with none, render_clip reads no frame and
    # its empty video is refused.
    with pytest.raises(PreconditionError, match="at least 2 frames"):
        SyntheticDatasetSpec(frames=frames)
    rng = np.random.default_rng(0)
    with pytest.raises(PreconditionError, match="at least 2 frames"):
        list(render_frames(class_name, frames, 64, 64, rng))
    with pytest.raises(PreconditionError,
                       match="at least 2 frames" if frames == 1 else None):
        render_clip(class_name, frames, 64, 64, rng)


def test_render_all_archetypes_in_range():
    for i, name in enumerate(CLASS_PROMPTS):
        rng = np.random.default_rng([5, i, 0])
        video = render_clip(name, frames=10, height=64, width=64, rng=rng)
        assert video.frames.min() >= 0.0
        assert video.frames.max() <= 1.0


def test_quantized_frames_read_back_as_their_pgm_files(tmp_path):
    # The in-memory route of run_pipeline relies on this equality.
    rng = np.random.default_rng(147)
    frames = [render_clip(name, 3, 64, 64, rng).frames[1]
              for name in CLASS_PROMPTS]
    frames.append(rng.uniform(-0.2, 1.2, size=(16, 16)))
    frames.append((np.arange(256.0).reshape(16, 16) + 0.5) / 255.0)
    for i, frame in enumerate(frames):
        path = tmp_path / f"f{i}.pgm"
        write_pgm_frame(frame, path)
        assert (quantize_u8(frame) / 255.0).tobytes() == \
            read_pgm(path).tobytes()


def grid_render(class_name, frames, height, width, rng):
    """Reference renderer: every blob, still ones included, evaluated on a
    full [height, width] coordinate grid for every frame."""
    gy, gx = np.mgrid[0:height, 0:width].astype(np.float64)

    def blob(cy, cx, sigma, amp):
        return amp * np.exp(-((gy - cy) ** 2 + (gx - cx) ** 2)
                            / (2.0 * sigma ** 2))

    sigma = (min(height, width) / 12.0) * rng.uniform(0.85, 1.15)
    amp = rng.uniform(0.8, 1.0)
    cy = height * rng.uniform(0.42, 0.58)
    cx = width * rng.uniform(0.45, 0.55)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    freq = rng.uniform(1.8, 2.4) if class_name == "clap" else \
        rng.uniform(2.2, 3.0)
    strikes = int(rng.integers(2, 4))
    for t in range(frames):
        s = t / (frames - 1)
        frame = np.full((height, width), 0.05)
        if class_name == "clap":
            gap = 0.30 * width * abs(math.cos(math.pi * freq * s + phase))
            frame += blob(cy, cx - gap - 2, sigma, amp)
            frame += blob(cy, cx + gap + 2, sigma, amp)
        elif class_name == "wave":
            x = cx + 0.32 * width * math.sin(2.0 * math.pi * freq * s + phase)
            frame += blob(cy * 0.7, x, sigma, amp)
            frame += blob(height * 0.8, cx, sigma * 1.4, amp * 0.5)
        elif class_name == "punch":
            phase_s = (s * strikes) % 1.0
            reach = min(1.0, phase_s / 0.25) if phase_s < 0.25 else \
                max(0.0, 1.0 - (phase_s - 0.25) / 0.75)
            frame += blob(cy, 0.2 * width + 0.6 * width * reach, sigma, amp)
            frame += blob(cy, 0.15 * width, sigma * 1.3, amp * 0.5)
        else:
            x = 0.15 * width + 0.7 * width * s
            y = cy - 0.35 * height * 4.0 * s * (1.0 - s)
            frame += blob(y, x, sigma * 0.8, amp)
            frame += blob(height * 0.75, 0.2 * width, sigma * 1.3, amp * 0.5)
        yield np.clip(frame, 0.0, 1.0)


@pytest.mark.parametrize("class_name", sorted(CLASS_PROMPTS))
@pytest.mark.parametrize("height,width", [(64, 64), (64, 96), (96, 64)])
def test_render_frames_equal_full_grid_formula(class_name, height, width):
    for seed in range(3):
        got = list(render_frames(class_name, 30, height, width,
                                 np.random.default_rng(seed)))
        want = list(grid_render(class_name, 30, height, width,
                                np.random.default_rng(seed)))
        assert len(got) == len(want) == 30
        for t, (a, b) in enumerate(zip(got, want)):
            assert a.tobytes() == b.tobytes(), (seed, t)
