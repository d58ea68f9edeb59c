"""End-to-end pipeline orchestration and provenance.

``run_pipeline`` executes the requested stages in dependency order
(synthesize, encode, featurize, few-shot train, evaluate, plus an
optional spiking-forward energy stage) entirely from explicit seeds, so
two runs of the same config on the same numpy build, BLAS kernel and
thread count produce byte-identical artifacts. Every JSON artifact
carries a provenance record (input hashes, seeds, toolkit version).
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Iterable
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .align import AlignmentHead, evaluate_topk, finetune_head, text_features
from .camera import (EncoderConfig, encode_frames, in_unit_range,
                     upsampled_frames, upsampled_length)
from .energy import EnergyLedger, energy_report
from .errors import PreconditionError
from .hsfe import (BlockSpec, BranchSpec, allocate_channels, hsfe_forward,
                   init_hsfe_weights)
from .jsonio import is_a, read_json, write_json
from .snn import fsve_forward, init_fsve_weights
from .starnet import MiniMapResNetConfig, init_starnet_weights, star_net_forward
from .stream import SpikeStream, StreamMeta, subsample_indices, write_dat
from .synth import (CLASS_PROMPTS, SyntheticDatasetSpec, dataset_clips,
                    render_frames, write_dataset_index)
from .videoio import quantize_u8


@dataclass
class PipelineConfig:
    """Every stage's parameter set, JSON-mirrored. Seeds are explicit."""

    seed: int
    classes: tuple[str, ...] = ("clap", "wave", "punch", "throw")
    clips_per_class: int = 20
    test_per_class: int = 12
    frames: int = 250
    height: int = 64
    width: int = 64
    theta: float = 5.0
    noise_amplitude: float = 0.0
    upsample: int = 1
    r_win: int = 30
    step: int = 45
    n_blocks: int = 5
    m: int = 3
    channel_step: int = 20
    c_out: int = 16
    embed_dim: int = 64
    timesteps: int = 2
    snn_channels: int = 8
    shots: tuple[int, ...] = (2, 4, 8)
    eval_seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    epochs: int = 200
    lr: float = 0.05
    topk: tuple[int, ...] = (1,)
    run_snn: bool = True

    def __post_init__(self):
        # The type and range of every field, before any clip is rendered.
        for f in fields(self):
            value = getattr(self, f.name)
            is_list = f.type.startswith("tuple[")
            kind = f.type.removeprefix("tuple[").split(",")[0]
            items = value if is_list else (value,)
            low = _AT_LEAST.get(f.name)
            if not (isinstance(items, tuple) and items and all(
                    is_a(kind, v) and (low is None or v >= low)
                    for v in items)):
                bound = "" if low is None else f" >= {low}"
                raise PreconditionError(
                    f"config field {f.name!r} must be "
                    f"{f.type.replace('tuple', 'list')}{bound}, got {value!r}")
            # A repeated class, shot count, seed or k would be run twice.
            if len(set(items)) < len(items):
                raise PreconditionError(
                    f"config field {f.name!r} repeats a value: {list(value)}")
        if not self.lr > 0:
            raise PreconditionError(f"lr must be > 0, got {self.lr}")
        if max(self.topk) > len(self.classes):
            raise PreconditionError(
                f"top-k of {max(self.topk)} exceeds the {len(self.classes)} "
                f"classes")
        if self.test_per_class >= self.clips_per_class:
            raise PreconditionError(
                "test_per_class must leave at least one support clip per class")
        pool = self.clips_per_class - self.test_per_class
        if max(self.shots) > pool:
            raise PreconditionError(
                f"largest shot count {max(self.shots)} exceeds support pool "
                f"of {pool} clips per class")
        blocks, branches = self.block_spec(), self.branch_spec()
        self.star_config()
        allocate_channels(blocks.block_len, branches.m, branches.channel_step)
        if self.t_len < blocks.required_t_len:
            raise PreconditionError(
                f"streams of {self.t_len} steps are too short for "
                f"{blocks.n_blocks} blocks (need {blocks.required_t_len})")
        # The spiking stage runs last, after every clip was rendered.
        if self.run_snn:
            subsample_indices(self.t_len, self.timesteps)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PipelineConfig":
        if not isinstance(obj, dict):
            raise PreconditionError("config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise PreconditionError(f"unknown config fields: {sorted(unknown)}")
        if "seed" not in obj:
            raise PreconditionError("config must carry an explicit seed")
        return cls(**{name: tuple(value) if isinstance(value, list) else value
                      for name, value in obj.items()})

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        return cls.from_json_dict(read_json(path))

    @property
    def t_len(self) -> int:     # encoded stream length after upsampling
        return upsampled_length(self.frames, self.upsample)

    def block_spec(self) -> BlockSpec:
        return BlockSpec(self.r_win, self.step, self.n_blocks)

    def branch_spec(self) -> BranchSpec:
        return BranchSpec(self.m, self.channel_step, self.c_out)

    def star_config(self) -> MiniMapResNetConfig:
        return MiniMapResNetConfig(embed_dim=self.embed_dim)


# Lower bounds of the fields that no stage's own config checks.
_AT_LEAST = {"seed": 0, "eval_seeds": 0, "shots": 1, "topk": 1,
             "upsample": 1, "epochs": 1, "timesteps": 1, "test_per_class": 1,
             "snn_channels": 1}


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def provenance(seed, inputs: dict[str, str] | None = None,
               params: dict | None = None) -> dict:
    record = {"toolkit_version": __version__, "seed": seed}
    if inputs:
        record["input_sha256"] = {name: file_sha256(path)
                                  for name, path in sorted(inputs.items())}
    if params:
        record["params"] = params
    return record


# ---------------------------------------------------------------------------
# Featurization
# ---------------------------------------------------------------------------

def build_feature_weights(block_len: int, branches: BranchSpec,
                          star_cfg: MiniMapResNetConfig,
                          spatial_hw: tuple[int, int],
                          seed: int) -> dict[str, np.ndarray]:
    """One weight dict covering the extractor and backbone, with
    per-subsystem derived seeds so either part can be regenerated alone."""
    weights = init_hsfe_weights(block_len, branches,
                                seed=np.random.default_rng([seed, 1])
                                .integers(2 ** 31))
    weights.update(init_starnet_weights(
        star_cfg, in_channels=branches.m * branches.c_out,
        spatial_hw=spatial_hw,
        seed=np.random.default_rng([seed, 2]).integers(2 ** 31)))
    return weights


def featurize_stream(stream: SpikeStream, block_spec: BlockSpec,
                     weights: dict[str, np.ndarray]) -> np.ndarray:
    return star_net_forward(hsfe_forward(stream, block_spec, weights), weights)


# ---------------------------------------------------------------------------
# Stages shared by run_pipeline and the CLI
# ---------------------------------------------------------------------------

def encode_clip(frames: Iterable[np.ndarray], shape: tuple[int, int, int],
                cfg: EncoderConfig, upsample: int,
                seed: int | None) -> SpikeStream:
    """Encode the video of ``shape`` [t, H, W] whose [H, W] frames
    ``frames`` yields, upsampled in time by ``upsample`` through
    ``camera.upsampled_frames``, whose factor 1 passes each frame through
    as it is. The frames are blended, range-checked and encoded one at a
    time, so no whole upsampled clip is held. A factor below 1, or a frame
    with a value outside [0, 1], is a ``PreconditionError``."""
    shape = (upsampled_length(shape[0], upsample), *shape[1:])
    frames = (in_unit_range(frame, "intensity values")
              for frame in upsampled_frames(frames, upsample))
    return encode_frames(frames, shape, cfg, seed=seed)


def _encode_synth_clip(spec: SyntheticDatasetSpec, label: int,
                       rng: np.random.Generator, dat_path, cfg: EncoderConfig,
                       upsample: int, seed: int | None) -> SpikeStream:
    """Render one dataset clip and write it as ``spikekit encode`` would
    its PGM frames: each frame is quantized to 8 bits as it is rendered,
    and ``/ 255`` reads the pixels back as ``read_pgm`` does. The frames
    go on to ``encode_clip`` one at a time, so no whole clip is held. The
    ``.dat``'s directory is made once there is a stream to write."""
    frames = render_frames(spec.classes[label], spec.frames, spec.height,
                           spec.width, rng)
    stream = encode_clip((quantize_u8(frame) / 255.0 for frame in frames),
                         (spec.frames, spec.height, spec.width), cfg,
                         upsample, seed)
    os.makedirs(os.path.dirname(dat_path), exist_ok=True)
    write_dat(stream, StreamMeta.for_stream(stream, threshold_theta=cfg.theta),
              dat_path)
    return stream


def train_fewshot_head(vectors: np.ndarray, labels: np.ndarray,
                       prompts: list[str], shots: int,
                       rngs: list[np.random.Generator], epochs: int, lr: float,
                       seeds: list[int]
                       ) -> list[tuple[AlignmentHead, list[float]]]:
    """Few-shot protocol for a batch of heads that share ``shots``: per
    head, draw ``shots`` rows of ``vectors`` [n, d_in] per class label with
    that head's generator in ``rngs``, build the head seeded from the same
    generator, then fine-tune every head in one lockstep ``finetune_head``
    call.

    Class ``label`` is paired with ``prompts[label]``, and every one of the
    n ``labels`` must have a prompt; ``seeds[i]`` drives head ``i``'s
    per-epoch shuffling. Returns (head, loss trace) per head.
    """
    by_label = [np.flatnonzero(labels == label)
                for label in range(len(prompts))]
    if sum(map(len, by_label)) != len(labels):
        raise PreconditionError(f"labels must lie in [0, {len(prompts)})")
    for label, rows in enumerate(by_label):
        if not 1 <= shots <= len(rows):
            raise PreconditionError(
                f"shots={shots} must lie in [1, {len(rows)}], the embeddings "
                f"of class {label}")
    d_in = vectors.shape[1]
    picks, heads = [], []
    for rng in rngs:
        picks.append([rows[rng.choice(len(rows), size=shots, replace=False)]
                      for rows in by_label])
        heads.append(AlignmentHead.create(d_in, min(d_in, 32),
                                          seed=int(rng.integers(2 ** 31))))
    return finetune_head(vectors[np.array(picks)], shots, epochs, lr, seeds,
                         heads, prompts)


def evaluate_head(head: AlignmentHead, prompts: list[str], vectors: np.ndarray,
                  labels: np.ndarray, ks) -> dict[str, float]:
    """Top-k accuracy, keyed ``top{k}``, of ranking the prompts' text
    features against ``vectors`` [n, d_in] through the head."""
    if vectors.ndim != 2 or vectors.shape[1] != head.d_in:
        raise PreconditionError(
            f"embeddings of shape {vectors.shape} do not match head "
            f"d_in={head.d_in}")
    # A projection beyond float range fails the norm check of
    # evaluate_topk, not numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        video = head.project(vectors)
        text = head.project(np.stack([text_features(p, head.d_in)
                                      for p in prompts]))
    return {f"top{k}": evaluate_topk(video, text, labels, k) for k in ks}


# ---------------------------------------------------------------------------
# Full run
# ---------------------------------------------------------------------------

def run_pipeline(config: PipelineConfig, out_dir) -> dict:
    """Execute all stages; returns the final metrics dict.

    Artifacts land under out_dir: dataset/ (manifest.json and prompts.txt
    only), spikes/, embeddings_train.json, embeddings_test.json,
    head_s{shots}_seed{seed}.json, metrics.json, and (when run_snn)
    ledger.json + energy_report.json.

    Each clip is rendered, quantized, encoded and packed eight frames at a
    time, so no whole clip is held; its stream is written to its ``.dat``
    and featurized from memory, and no stream is read back. The ``.dat``
    files have the bytes of ``spikekit synth`` followed by ``spikekit
    encode``; ``spikekit synth`` is the way to get the PGM frames. With
    ``noise_amplitude`` above 0, clip ``index`` of class ``label`` is
    encoded with noise seed
    ``default_rng([seed, 5, label, index]).integers(2 ** 31)``, the
    ``--seed`` that ``spikekit encode`` needs for its bytes. The heads of
    one shot count train together in one lockstep batch, and ``spikekit
    train-head`` runs the same trainer on a batch of one.
    """
    # Every stage config checks its fields before anything is written.
    spec = SyntheticDatasetSpec(classes=config.classes,
                                clips_per_class=config.clips_per_class,
                                frames=config.frames, height=config.height,
                                width=config.width, seed=config.seed)
    enc_cfg = EncoderConfig(theta=config.theta,
                            noise_amplitude=config.noise_amplitude)
    block_spec = config.block_spec()
    weights = build_feature_weights(block_spec.block_len, config.branch_spec(),
                                    config.star_config(),
                                    (config.height, config.width), config.seed)
    spikes_dir = os.path.join(out_dir, "spikes")
    prompts = [CLASS_PROMPTS[c] for c in config.classes]
    support_per_class = config.clips_per_class - config.test_per_class

    # Stages 1-3, one clip at a time: synthesize, encode to .dat, and
    # featurize the stream in hand with seeded frozen weights.
    dat_paths: dict[str, str] = {}
    clips, train_pool, test_set = [], [], []
    first_stream = None
    for label, index, name, rng in dataset_clips(spec):
        dat_paths[name] = os.path.join(spikes_dir, name + ".dat")
        noise_seed = int(np.random.default_rng([config.seed, 5, label, index])
                         .integers(2 ** 31))
        stream = _encode_synth_clip(
            spec, label, rng, dat_paths[name], enc_cfg, config.upsample,
            noise_seed if config.noise_amplitude > 0 else None)
        if first_stream is None:
            first_stream = stream
        clips.append({"name": name, "class": spec.classes[label],
                      "label": label})
        vector = featurize_stream(stream, block_spec, weights)
        (train_pool if index < support_per_class else test_set).append(
            {"id": name, "label": label, "prompt": prompts[label],
             "vector": vector.tolist()})
    write_dataset_index(spec, os.path.join(out_dir, "dataset"), clips)

    emb_prov = provenance(config.seed,
                          inputs={name: path
                                  for name, path in dat_paths.items()})
    write_json({"embeddings": train_pool, "provenance": emb_prov},
               os.path.join(out_dir, "embeddings_train.json"))
    write_json({"embeddings": test_set, "provenance": emb_prov},
               os.path.join(out_dir, "embeddings_test.json"))

    # Stage 4 + 5: few-shot training and evaluation.
    train_vectors = np.array([e["vector"] for e in train_pool])
    train_labels = np.array([e["label"] for e in train_pool])
    test_vectors = np.array([e["vector"] for e in test_set])
    test_labels = np.array([e["label"] for e in test_set])
    metrics: dict = {"shots": {}, "provenance": provenance(
        config.seed, params={"epochs": config.epochs, "lr": config.lr,
                             "shots": list(config.shots),
                             "eval_seeds": list(config.eval_seeds)})}
    for shots in config.shots:
        rngs = [np.random.default_rng([config.seed, 3, shots, eval_seed])
                for eval_seed in config.eval_seeds]
        trained = train_fewshot_head(train_vectors, train_labels, prompts,
                                     shots, rngs, config.epochs, config.lr,
                                     list(config.eval_seeds))
        per_seed: dict[str, dict] = {}
        for eval_seed, (head, trace) in zip(config.eval_seeds, trained):
            head_path = os.path.join(out_dir,
                                     f"head_s{shots}_seed{eval_seed}.json")
            write_json({"head": head.to_json_dict(), "prompts": prompts,
                        "provenance": provenance(eval_seed)}, head_path)
            accs = evaluate_head(head, prompts, test_vectors, test_labels,
                                 config.topk)
            per_seed[str(eval_seed)] = {"accuracy": accs,
                                        "final_loss": trace[-1],
                                        "initial_loss": trace[0]}
        summary = {f"top{k}_mean": float(np.mean(
            [per_seed[str(s)]["accuracy"][f"top{k}"]
             for s in config.eval_seeds])) for k in config.topk}
        metrics["shots"][str(shots)] = {"per_seed": per_seed, **summary}

    # Stage 6: spiking forward + energy on the first clip.
    if config.run_snn:
        fsve_weights = init_fsve_weights(config.snn_channels, seed=int(
            np.random.default_rng([config.seed, 4]).integers(2 ** 31)))
        ledger = EnergyLedger()
        fsve_forward(first_stream, fsve_weights, config.timesteps, ledger)
        ledger.save(os.path.join(out_dir, "ledger.json"))
        report = energy_report(ledger)
        report["provenance"] = provenance(
            config.seed, inputs={"stream": dat_paths[clips[0]["name"]]})
        write_json(report, os.path.join(out_dir, "energy_report.json"))
        metrics["energy"] = {"e_snn_joules": report["e_snn_joules"]}

    write_json(metrics, os.path.join(out_dir, "metrics.json"))
    return metrics
