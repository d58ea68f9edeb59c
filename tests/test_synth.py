"""Synthetic-dataset generator tests."""

import numpy as np
import pytest

from spikekit.errors import PreconditionError
from spikekit.synth import (CLASS_PROMPTS, SyntheticDatasetSpec,
                            brightness_centroid, render_clip, synth_dataset)
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


def test_spec_validation():
    with pytest.raises(PreconditionError):
        SyntheticDatasetSpec(classes=("wave",))
    with pytest.raises(PreconditionError):
        SyntheticDatasetSpec(classes=("wave", "moonwalk"))
    with pytest.raises(PreconditionError):
        SyntheticDatasetSpec(height=32)


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
