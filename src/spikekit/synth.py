"""Synthetic four-class motion dataset: desk-scale stand-in for a real
spike-camera action corpus.

Each clip renders one or two bright Gaussian blobs over a dark background,
following a class-specific motion archetype with per-clip seeded jitter:

* clap:  two blobs repeatedly converging toward the midline and parting
* wave:  one blob oscillating horizontally (several velocity reversals)
* punch: fast horizontal thrusts with a slow recoil
* throw: a single rising-then-falling arc across the frame

``synth_dataset`` writes clips as directories of numbered 8-bit PGM frames
plus a ``prompts.txt`` (one class prompt per line, line index = label) and
a ``manifest.json`` listing every clip with its label.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .camera import IntensityVideo
from .errors import PreconditionError
from .jsonio import write_bytes, write_json
from .stream import read_only
from .videoio import write_pgm_clip

CLASS_PROMPTS = {
    "clap": "a person clapping hands together",
    "wave": "a person waving one hand",
    "punch": "a person punching forward",
    "throw": "a person throwing an object",
}


@dataclass(frozen=True)
class SyntheticDatasetSpec:
    classes: tuple[str, ...] = ("clap", "wave", "punch", "throw")
    clips_per_class: int = 12
    frames: int = 250
    height: int = 64
    width: int = 64
    seed: int = 0

    def __post_init__(self):
        if len(self.classes) < 2:
            raise PreconditionError(
                "need at least 2 classes for contrastive evaluation")
        unknown = [c for c in self.classes if c not in CLASS_PROMPTS]
        if unknown:
            raise PreconditionError(
                f"unknown class archetypes {unknown}; known: "
                f"{sorted(CLASS_PROMPTS)}")
        if len(set(self.classes)) < len(self.classes):
            raise PreconditionError(
                f"classes {list(self.classes)} repeat a class; each names "
                f"its own clips")
        if self.clips_per_class < 1:
            raise PreconditionError("clips_per_class must be >= 1")
        if self.frames < 2:
            raise PreconditionError("clips need at least 2 frames")
        if self.height < 64 or self.width < 64:
            raise PreconditionError(f"resolution must be at least 64x64, got "
                                    f"{self.height}x{self.width}")


def _blob(grid_y, grid_x, cy, cx, sigma, amp, out):
    """``amp * exp(-((grid_y - cy)**2 + (grid_x - cx)**2) / (2 sigma**2))``
    into ``out``, rounded as that expression: ``(-d) / c == d / (-c)``."""
    np.add((grid_y - cy) ** 2, (grid_x - cx) ** 2, out=out)
    out /= -(2.0 * sigma ** 2)
    return np.multiply(np.exp(out, out=out), amp, out=out)


def render_clip(class_name: str, frames: int, height: int, width: int,
                rng: np.random.Generator) -> IntensityVideo:
    """Render one clip of the given archetype with seeded jitter."""
    return IntensityVideo(read_only(np.fromiter(
        render_frames(class_name, frames, height, width, rng),
        np.dtype((np.float64, (height, width))), count=frames)))


def render_frames(class_name: str, frames: int, height: int, width: int,
                  rng: np.random.Generator) -> Iterator[np.ndarray]:
    """The frames of ``render_clip``, one [height, width] array at a time,
    so a caller that keeps them in another form holds no float clip."""
    if class_name not in CLASS_PROMPTS:
        raise PreconditionError(f"unknown class {class_name!r}")
    if frames < 2:      # the motion runs from s = 0 to s = 1
        raise PreconditionError("clips need at least 2 frames")
    # A blob's squared distance is summed from a [H, 1] and a [1, W] term,
    # the same floating-point operations per pixel as on a full grid.
    gy = np.arange(height, dtype=np.float64)[:, None]
    gx = np.arange(width, dtype=np.float64)[None, :]
    background = 0.05
    sigma = (min(height, width) / 12.0) * rng.uniform(0.85, 1.15)
    amp = rng.uniform(0.8, 1.0)
    cy = height * rng.uniform(0.42, 0.58)
    cx = width * rng.uniform(0.45, 0.55)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    freq = rng.uniform(1.8, 2.4) if class_name == "clap" else \
        rng.uniform(2.2, 3.0)
    strikes = int(rng.integers(2, 4))
    # The second blob of wave, punch and throw does not move.
    still = {"wave": (height * 0.8, cx, sigma * 1.4),
             "punch": (cy, 0.15 * width, sigma * 1.3),
             "throw": (height * 0.75, 0.2 * width, sigma * 1.3)}
    blob = np.empty((height, width))
    if class_name in still:
        still_blob = _blob(gy, gx, *still[class_name], amp * 0.5, blob.copy())

    for t in range(frames):
        s = t / (frames - 1)
        y, size = cy, sigma         # the moving blob's centre row and width
        if class_name == "clap":
            gap = 0.30 * width * abs(math.cos(math.pi * freq * s + phase))
            x = cx - gap - 2
        elif class_name == "wave":
            y = cy * 0.7
            x = cx + 0.32 * width * math.sin(2.0 * math.pi * freq * s + phase)
        elif class_name == "punch":
            phase_s = (s * strikes) % 1.0
            reach = min(1.0, phase_s / 0.25) if phase_s < 0.25 else \
                max(0.0, 1.0 - (phase_s - 0.25) / 0.75)
            x = 0.2 * width + 0.6 * width * reach
        else:  # throw
            x = 0.15 * width + 0.7 * width * s
            y = cy - 0.35 * height * 4.0 * s * (1.0 - s)
            size = sigma * 0.8
        # ``+`` makes each frame a new array: callers keep them.
        frame = _blob(gy, gx, y, x, size, amp, blob) + background
        frame += _blob(gy, gx, cy, cx + gap + 2, sigma, amp, blob) \
            if class_name == "clap" else still_blob
        yield np.clip(frame, 0.0, 1.0, out=frame)


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------

def dataset_clips(spec: SyntheticDatasetSpec):
    """(label, index within the class, name, generator) of every clip, in
    render order. A clip's generator is seeded from (spec.seed, label,
    index), so regenerating with the same spec is bit-identical."""
    for label, class_name in enumerate(spec.classes):
        for index in range(spec.clips_per_class):
            yield (label, index, f"{class_name}_{index:03d}",
                   np.random.default_rng([spec.seed, label, index]))


def write_dataset_index(spec: SyntheticDatasetSpec, out_dir,
                        clips: list[dict]) -> dict:
    """Write ``prompts.txt`` with one prompt per class (line index = label)
    and ``manifest.json`` listing ``clips``; returns the manifest dict."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"classes": list(spec.classes),
                "frames": spec.frames,
                "height": spec.height, "width": spec.width,
                "seed": spec.seed, "clips": clips}
    write_bytes("".join(CLASS_PROMPTS[c] + "\n"
                        for c in spec.classes).encode("utf-8"),
                os.path.join(out_dir, "prompts.txt"))
    write_json(manifest, os.path.join(out_dir, "manifest.json"))
    return manifest


def synth_dataset(spec: SyntheticDatasetSpec, out_dir) -> dict:
    """Render the dataset to disk; returns the manifest dict.

    Layout: ``clips/<class>_<idx>/frame_*.pgm``, ``prompts.txt`` and
    ``manifest.json`` (see ``write_dataset_index``).
    """
    clips_root = os.path.join(out_dir, "clips")
    os.makedirs(clips_root, exist_ok=True)
    clips = []
    for label, _, name, rng in dataset_clips(spec):
        write_pgm_clip(render_frames(spec.classes[label], spec.frames,
                                     spec.height, spec.width, rng),
                       os.path.join(clips_root, name))
        clips.append({"name": name, "path": f"clips/{name}",
                      "class": spec.classes[label], "label": label})
    return write_dataset_index(spec, out_dir, clips)

