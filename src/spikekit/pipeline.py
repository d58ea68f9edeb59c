"""End-to-end pipeline orchestration and provenance.

``run_pipeline`` executes the requested stages in dependency order
(synthesize, encode, featurize, few-shot train, evaluate, plus an
optional spiking-forward energy stage) entirely from explicit seeds, so two runs
of the same config on the same numpy build and BLAS thread count produce
byte-identical artifacts. Every JSON artifact carries a provenance record
(input hashes, seeds, toolkit version).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .align import AlignmentHead, evaluate_topk, finetune_head, text_features
from .camera import EncoderConfig, encode_video, upsample_temporal
from .energy import EnergyLedger, energy_report, estimate_snn_energy
from .errors import PreconditionError
from .hsfe import BlockSpec, BranchSpec, hsfe_forward, init_hsfe_weights
from .jsonio import read_json, write_json
from .snn import FsveConfig, fsve_forward, init_fsve_weights
from .starnet import MiniMapResNetConfig, init_starnet_weights, star_net_forward
from .stream import SpikeStream, StreamMeta, read_dat, write_dat
from .synth import CLASS_PROMPTS, SyntheticDatasetSpec, synth_dataset
from .videoio import load_video


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
        if self.test_per_class >= self.clips_per_class:
            raise PreconditionError(
                "test_per_class must leave at least one support clip per class")
        pool = self.clips_per_class - self.test_per_class
        if max(self.shots) > pool:
            raise PreconditionError(
                f"largest shot count {max(self.shots)} exceeds support pool "
                f"of {pool} clips per class")

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
        coerced = dict(obj)
        for name in ("classes", "shots", "eval_seeds", "topk"):
            if name in coerced:
                if not isinstance(coerced[name], list) or not coerced[name]:
                    raise PreconditionError(
                        f"config field {name!r} must be a non-empty list, "
                        f"got {coerced[name]!r}")
                coerced[name] = tuple(coerced[name])
        return cls(**coerced)

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        return cls.from_json_dict(read_json(path))

    def block_spec(self) -> BlockSpec:
        return BlockSpec(self.r_win, self.step, self.n_blocks)

    def branch_spec(self) -> BranchSpec:
        return BranchSpec(self.m, self.channel_step, self.c_out)

    def star_config(self) -> MiniMapResNetConfig:
        return MiniMapResNetConfig(embed_dim=self.embed_dim)


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
                     branches: BranchSpec, star_cfg: MiniMapResNetConfig,
                     weights: dict[str, np.ndarray]) -> np.ndarray:
    estimates = hsfe_forward(stream, block_spec, branches, weights)
    return star_net_forward(estimates, star_cfg, weights)


# ---------------------------------------------------------------------------
# Full run
# ---------------------------------------------------------------------------

def _select_support(pool: list[dict], shots: int, n_classes: int,
                    rng: np.random.Generator) -> list[tuple[np.ndarray, str]]:
    support = []
    for label in range(n_classes):
        rows = [e for e in pool if e["label"] == label]
        picks = rng.choice(len(rows), size=shots, replace=False)
        for idx in picks:
            entry = rows[int(idx)]
            support.append((np.array(entry["vector"]), entry["prompt"]))
    return support


def run_pipeline(config: PipelineConfig, out_dir) -> dict:
    """Execute all stages; returns the final metrics dict.

    Artifacts land under out_dir: dataset/, spikes/, embeddings_train.json,
    embeddings_test.json, head_s{shots}_seed{seed}.json, metrics.json, and
    (when run_snn) ledger.json + energy_report.json.
    """
    os.makedirs(out_dir, exist_ok=True)

    # Stage 1: synthesize.
    dataset_dir = os.path.join(out_dir, "dataset")
    spec = SyntheticDatasetSpec(classes=config.classes,
                                clips_per_class=config.clips_per_class,
                                frames=config.frames, height=config.height,
                                width=config.width, seed=config.seed)
    manifest = synth_dataset(spec, dataset_dir)

    # Stage 2: encode every clip to .dat.
    spikes_dir = os.path.join(out_dir, "spikes")
    os.makedirs(spikes_dir, exist_ok=True)
    enc_cfg = EncoderConfig(theta=config.theta,
                            noise_amplitude=config.noise_amplitude)
    dat_paths: dict[str, str] = {}
    for clip in manifest["clips"]:
        video = load_video(os.path.join(dataset_dir, clip["path"]))
        if config.upsample > 1:
            video = upsample_temporal(video, config.upsample)
        stream = encode_video(video, enc_cfg,
                              seed=config.seed if config.noise_amplitude > 0
                              else None)
        meta = StreamMeta.for_stream(stream, threshold_theta=config.theta)
        dat_path = os.path.join(spikes_dir, clip["name"] + ".dat")
        write_dat(stream, meta, dat_path)
        dat_paths[clip["name"]] = dat_path

    # Stage 3: featurize with seeded frozen weights.
    block_spec = config.block_spec()
    branches = config.branch_spec()
    star_cfg = config.star_config()
    weights = build_feature_weights(block_spec.block_len, branches, star_cfg,
                                    (config.height, config.width), config.seed)
    prompts = [CLASS_PROMPTS[c] for c in config.classes]
    train_pool, test_set = [], []
    support_per_class = config.clips_per_class - config.test_per_class
    for clip in manifest["clips"]:
        meta = StreamMeta(height=config.height, width=config.width,
                          t_len=config.frames, threshold_theta=config.theta)
        stream = read_dat(dat_paths[clip["name"]], meta)
        vector = featurize_stream(stream, block_spec, branches, star_cfg,
                                  weights)
        entry = {"id": clip["name"], "label": clip["label"],
                 "prompt": prompts[clip["label"]],
                 "vector": vector.tolist()}
        clip_index = int(clip["name"].rsplit("_", 1)[1])
        (train_pool if clip_index < support_per_class else test_set).append(entry)

    emb_prov = provenance(config.seed,
                          inputs={name: path
                                  for name, path in dat_paths.items()})
    write_json({"embeddings": train_pool, "provenance": emb_prov},
               os.path.join(out_dir, "embeddings_train.json"))
    write_json({"embeddings": test_set, "provenance": emb_prov},
               os.path.join(out_dir, "embeddings_test.json"))

    # Stage 4 + 5: few-shot training and evaluation.
    test_vectors = np.array([e["vector"] for e in test_set])
    test_labels = np.array([e["label"] for e in test_set])
    metrics: dict = {"shots": {}, "provenance": provenance(
        config.seed, params={"epochs": config.epochs, "lr": config.lr,
                             "shots": list(config.shots),
                             "eval_seeds": list(config.eval_seeds)})}
    for shots in config.shots:
        per_seed: dict[str, dict] = {}
        for eval_seed in config.eval_seeds:
            rng = np.random.default_rng([config.seed, 3, shots, eval_seed])
            support = _select_support(train_pool, shots, len(config.classes),
                                      rng)
            head = AlignmentHead.create(config.embed_dim,
                                        min(config.embed_dim, 32),
                                        seed=int(rng.integers(2 ** 31)))
            head, trace = finetune_head(support, shots=shots,
                                        epochs=config.epochs, lr=config.lr,
                                        seed=eval_seed, head=head)
            head_path = os.path.join(out_dir,
                                     f"head_s{shots}_seed{eval_seed}.json")
            write_json({"head": head.to_json_dict(), "prompts": prompts,
                        "provenance": provenance(eval_seed)}, head_path)
            class_feats = np.stack([text_features(p, config.embed_dim)
                                    for p in prompts])
            accs = {}
            for k in config.topk:
                accs[f"top{k}"] = evaluate_topk(
                    head.project(test_vectors), head.project(class_feats),
                    test_labels, k)
            per_seed[str(eval_seed)] = {"accuracy": accs,
                                        "final_loss": trace[-1],
                                        "initial_loss": trace[0]}
        summary = {f"top{k}_mean": float(np.mean(
            [per_seed[str(s)]["accuracy"][f"top{k}"]
             for s in config.eval_seeds])) for k in config.topk}
        metrics["shots"][str(shots)] = {"per_seed": per_seed, **summary}

    # Stage 6: spiking forward + energy on the first clip.
    if config.run_snn:
        first = manifest["clips"][0]["name"]
        meta = StreamMeta(height=config.height, width=config.width,
                          t_len=config.frames, threshold_theta=config.theta)
        stream = read_dat(dat_paths[first], meta)
        fsve_cfg = FsveConfig(channels=config.snn_channels,
                              timesteps=config.timesteps)
        fsve_weights = init_fsve_weights(
            fsve_cfg, seed=int(np.random.default_rng([config.seed, 4])
                               .integers(2 ** 31)))
        ledger = EnergyLedger()
        fsve_forward(stream, fsve_weights, fsve_cfg, ledger)
        ledger.save(os.path.join(out_dir, "ledger.json"))
        report = energy_report(ledger)
        report["provenance"] = provenance(
            config.seed, inputs={"stream": dat_paths[first]})
        write_json(report, os.path.join(out_dir, "energy_report.json"))
        metrics["energy"] = {"e_snn_joules": estimate_snn_energy(ledger)}

    write_json(metrics, os.path.join(out_dir, "metrics.json"))
    return metrics
