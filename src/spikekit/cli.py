"""Command-line front end.

Commands: encode, decode, reconstruct, slice, subsample, featurize,
snn-forward, energy, train-head, eval, synth, pipeline. Exit codes:
0 success, 2 precondition violation (argparse uses the same code),
3 I/O error, 4 internal invariant breach. Seeds are always explicit;
there are no wall-clock defaults anywhere.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .align import AlignmentHead, evaluate_topk, finetune_head, text_features
from .camera import EncoderConfig, encode_video, upsample_temporal
from .energy import EnergyLedger, energy_report, format_report
from .errors import DataIOError, PreconditionError, SpikeKitError
from .hsfe import BlockSpec, BranchSpec
from .jsonio import read_json, write_json
from .pipeline import (PipelineConfig, build_feature_weights,
                       featurize_stream, provenance, run_pipeline)
from .reconstruct import TfiConfig, tfi_reconstruct, tfi_video
from .snn import FsveConfig, fsve_forward, init_fsve_weights
from .starnet import MiniMapResNetConfig
from .stream import (ClipWindowSpec, StreamMeta, read_dat, read_meta,
                     sidecar_path, slice_clips, subsample_temporal, write_dat)
from .synth import CLASS_PROMPTS, SyntheticDatasetSpec, synth_dataset
from .videoio import load_video, write_pgm_frame
from .weights import load_weights, save_weights


def _resolve_meta(dat_path: str, meta_arg: str | None) -> StreamMeta:
    if meta_arg:
        return read_meta(meta_arg)
    sidecar = sidecar_path(dat_path)
    if os.path.exists(sidecar):
        return read_meta(sidecar)
    raise PreconditionError(
        f"no --meta given and no sidecar {sidecar} found for {dat_path}")


def _load_embeddings(path) -> list[dict]:
    obj = read_json(path)
    entries = obj["embeddings"] if isinstance(obj, dict) else obj
    if not isinstance(entries, list) or not entries:
        raise PreconditionError(f"{path}: no embeddings found")
    return entries


def _load_head(path) -> tuple[AlignmentHead, list[str]]:
    obj = read_json(path)
    if not isinstance(obj, dict) or not isinstance(obj.get("head"), dict):
        raise DataIOError(f"{path}: head file needs a \"head\" object")
    prompts = obj.get("prompts")
    if (not isinstance(prompts, list) or not prompts
            or not all(isinstance(p, str) for p in prompts)):
        raise DataIOError(
            f"{path}: head file needs a non-empty \"prompts\" string list")
    return AlignmentHead.from_json_dict(obj["head"]), prompts


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_encode(args) -> int:
    video = load_video(args.input)
    if args.upsample > 1:
        video = upsample_temporal(video, args.upsample)
    cfg = EncoderConfig(theta=args.theta, noise_amplitude=args.noise)
    if cfg.noise_amplitude > 0 and args.seed is None:
        raise PreconditionError("--seed is required when --noise > 0")
    stream = encode_video(video, cfg, seed=args.seed)
    meta = StreamMeta.for_stream(stream, threshold_theta=args.theta)
    write_dat(stream, meta, args.out)
    print(f"encoded {stream.t_len}x{stream.height}x{stream.width} "
          f"({stream.spike_count()} spikes) -> {args.out}")
    return 0


def cmd_decode(args) -> int:
    meta = _resolve_meta(args.input, args.meta)
    stream = read_dat(args.input, meta)
    if args.out.endswith(".npy"):
        np.save(args.out, stream.data)
    elif args.out.endswith(".dat"):
        write_dat(stream, meta, args.out)
    else:
        raise PreconditionError("--out must end in .npy or .dat")
    print(f"decoded {args.input} -> {args.out}")
    return 0


def cmd_reconstruct(args) -> int:
    meta = _resolve_meta(args.input, args.meta)
    stream = read_dat(args.input, meta)
    theta = args.theta if args.theta is not None else meta.threshold_theta
    cfg = TfiConfig(delta_t_max=args.dtmax, theta=theta,
                    default_value=args.default_value)
    os.makedirs(args.out, exist_ok=True)
    if args.t is not None:
        frames = [(args.t, tfi_reconstruct(stream, args.t, cfg))]
    else:
        video = tfi_video(stream, args.stride, cfg)
        frames = [(i * args.stride, video.frames[i])
                  for i in range(video.n_frames)]
    for t, frame in frames:
        write_pgm_frame(frame, os.path.join(args.out, f"tfi_{t:06d}.pgm"))
    print(f"wrote {len(frames)} reconstructed frame(s) to {args.out}")
    return 0


def cmd_slice(args) -> int:
    meta = _resolve_meta(args.input, args.meta)
    stream = read_dat(args.input, meta)
    clips = slice_clips(stream, ClipWindowSpec(args.window, args.stride))
    os.makedirs(args.out, exist_ok=True)
    base = os.path.splitext(os.path.basename(args.input))[0]
    for k, clip in enumerate(clips):
        clip_meta = StreamMeta.for_stream(clip,
                                          threshold_theta=meta.threshold_theta,
                                          tick_seconds=meta.tick_seconds)
        write_dat(clip, clip_meta,
                  os.path.join(args.out, f"{base}_clip{k:04d}.dat"))
    print(f"wrote {len(clips)} clip(s) to {args.out}")
    return 0


def cmd_subsample(args) -> int:
    meta = _resolve_meta(args.input, args.meta)
    stream = read_dat(args.input, meta)
    out_stream = subsample_temporal(stream, args.target)
    out_meta = StreamMeta.for_stream(out_stream,
                                     threshold_theta=meta.threshold_theta,
                                     tick_seconds=meta.tick_seconds)
    write_dat(out_stream, out_meta, args.out)
    print(f"subsampled {stream.t_len} -> {out_stream.t_len} frames: {args.out}")
    return 0


def _featurize_setup(args, spatial_hw):
    block_spec = BlockSpec(args.r_win, args.step, args.n_blocks)
    branches = BranchSpec(args.m, args.channel_step, args.c_out)
    star_cfg = MiniMapResNetConfig(embed_dim=args.embed_dim)
    if args.weights:
        weights = load_weights(args.weights)
    else:
        if args.seed is None:
            raise PreconditionError(
                "--seed is required when --weights is not given")
        weights = build_feature_weights(block_spec.block_len, branches,
                                        star_cfg, spatial_hw, args.seed)
        if args.save_weights:
            save_weights(weights, args.save_weights)
    return block_spec, branches, star_cfg, weights


def cmd_featurize(args) -> int:
    if os.path.isdir(args.input):
        names = sorted(n for n in os.listdir(args.input)
                       if n.endswith(".dat"))
        if not names:
            raise PreconditionError(f"{args.input}: no .dat files")
        paths = [os.path.join(args.input, n) for n in names]
    else:
        paths = [args.input]
    labels = {}
    if args.manifest:
        manifest = read_json(args.manifest)
        labels = {c["name"]: c["label"] for c in manifest["clips"]}

    first_meta = _resolve_meta(paths[0], args.meta)
    setup = _featurize_setup(args, (first_meta.height, first_meta.width))
    block_spec, branches, star_cfg, weights = setup

    entries = []
    for path in paths:
        meta = _resolve_meta(path, args.meta)
        stream = read_dat(path, meta)
        vector = featurize_stream(stream, block_spec, branches, star_cfg,
                                  weights)
        name = os.path.splitext(os.path.basename(path))[0]
        entry = {"id": name, "vector": vector.tolist()}
        if name in labels:
            entry["label"] = labels[name]
        entries.append(entry)
    prov = provenance(args.seed,
                      inputs={os.path.basename(p): p for p in paths})
    write_json({"embeddings": entries, "provenance": prov}, args.out)
    print(f"featurized {len(entries)} stream(s) -> {args.out}")
    return 0


def cmd_snn_forward(args) -> int:
    meta = _resolve_meta(args.input, args.meta)
    stream = read_dat(args.input, meta)
    cfg = FsveConfig(channels=args.channels, timesteps=args.timesteps)
    if args.weights:
        weights = load_weights(args.weights)
    else:
        if args.seed is None:
            raise PreconditionError(
                "--seed is required when --weights is not given")
        weights = init_fsve_weights(cfg, args.seed)
        if args.save_weights:
            save_weights(weights, args.save_weights)
    ledger = EnergyLedger()
    embedding, _ = fsve_forward(stream, weights, cfg, ledger)
    ledger.save(args.ledger)
    if args.out:
        write_json({"embedding": embedding.tolist(),
                    "provenance": provenance(args.seed,
                                             inputs={"stream": args.input})},
                   args.out)
    print(f"spiking forward done; ledger -> {args.ledger}")
    return 0


def cmd_energy(args) -> int:
    snn_ledger = EnergyLedger.load(args.snn)
    ann_ledger = EnergyLedger.load(args.ann) if args.ann else None
    report = energy_report(snn_ledger, ann_ledger)
    print(format_report(report))
    if args.out:
        report["provenance"] = provenance(
            None, inputs={"snn": args.snn} | ({"ann": args.ann}
                                              if args.ann else {}))
        write_json(report, args.out)
    return 0


def cmd_train_head(args) -> int:
    entries = _load_embeddings(args.embeddings)
    with open(args.prompts, "r", encoding="utf-8") as fh:
        prompts = [line.strip() for line in fh if line.strip()]
    if not prompts:
        raise PreconditionError(f"{args.prompts}: no prompts")
    rng = np.random.default_rng(args.seed)
    support = []
    for label, prompt in enumerate(prompts):
        rows = [e for e in entries if e.get("label") == label]
        if len(rows) < args.shots:
            raise PreconditionError(
                f"class {label} has {len(rows)} embeddings, needs "
                f">= {args.shots}")
        picks = rng.choice(len(rows), size=args.shots, replace=False)
        support.extend((np.array(rows[int(i)]["vector"]), prompt)
                       for i in picks)
    d_in = len(support[0][0])
    head = AlignmentHead.create(d_in, min(d_in, 32),
                                seed=int(rng.integers(2 ** 31)))
    head, trace = finetune_head(support, shots=args.shots, epochs=args.epochs,
                                lr=args.lr, seed=args.seed, head=head)
    write_json({"head": head.to_json_dict(), "prompts": prompts,
                "loss_trace": [trace[0], trace[-1]],
                "provenance": provenance(
                    args.seed, inputs={"embeddings": args.embeddings,
                                       "prompts": args.prompts})},
               args.out)
    print(f"trained head ({args.shots}-shot): loss {trace[0]:.4f} -> "
          f"{trace[-1]:.4f}; saved {args.out}")
    return 0


def cmd_eval(args) -> int:
    head, prompts = _load_head(args.head)
    entries = _load_embeddings(args.embeddings)
    missing = [e["id"] for e in entries if "label" not in e]
    if missing:
        raise PreconditionError(
            f"embeddings without labels cannot be evaluated: {missing[:5]}")
    vectors = np.array([e["vector"] for e in entries])
    labels = np.array([e["label"] for e in entries])
    class_feats = np.stack([text_features(p, head.d_in) for p in prompts])
    ks = [int(k) for k in args.topk.split(",")]
    results = {}
    for k in ks:
        acc = evaluate_topk(head.project(vectors), head.project(class_feats),
                            labels, k)
        results[f"top{k}"] = acc
        print(f"top-{k} accuracy: {acc:.4f}  ({len(entries)} videos, "
              f"{len(prompts)} classes)")
    if args.out:
        write_json({"accuracy": results,
                    "provenance": provenance(
                        None, inputs={"head": args.head,
                                      "embeddings": args.embeddings})},
                   args.out)
    return 0


def cmd_synth(args) -> int:
    classes = tuple(args.classes.split(",")) if args.classes else \
        tuple(CLASS_PROMPTS)
    spec = SyntheticDatasetSpec(classes=classes,
                                clips_per_class=args.clips_per_class,
                                frames=args.frames, height=args.size,
                                width=args.size, seed=args.seed)
    manifest = synth_dataset(spec, args.out)
    print(f"rendered {len(manifest['clips'])} clips "
          f"({len(classes)} classes) under {args.out}")
    return 0


def cmd_pipeline(args) -> int:
    config = PipelineConfig.load(args.config)
    metrics = run_pipeline(config, args.out)
    for shots, result in metrics["shots"].items():
        means = {k: v for k, v in result.items() if k.endswith("_mean")}
        print(f"{shots}-shot: " + ", ".join(f"{k}={v:.4f}"
                                            for k, v in means.items()))
    print(f"artifacts under {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikekit",
        description="Spike-stream processing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="intensity video -> packed .dat stream")
    p.add_argument("input", help="frame directory, .npy video, or raw file")
    p.add_argument("out", help="output .dat path")
    p.add_argument("--theta", type=float, default=5.0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--upsample", type=int, default=1)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="packed .dat -> dense tensor or re-pack")
    p.add_argument("input")
    p.add_argument("--meta", default=None)
    p.add_argument("--out", required=True, help=".npy or .dat output")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("reconstruct", help="TFI grayscale frames from spikes")
    p.add_argument("input")
    p.add_argument("--meta", default=None)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=int, default=None)
    group.add_argument("--stride", type=int, default=None)
    p.add_argument("--dtmax", type=int, default=40)
    p.add_argument("--theta", type=float, default=None,
                   help="override the sidecar threshold")
    p.add_argument("--default-value", type=float, default=0.0)
    p.add_argument("--out", required=True, help="output frame directory")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("slice", help="cut a long stream into clip windows")
    p.add_argument("input")
    p.add_argument("--meta", default=None)
    p.add_argument("--window", type=int, default=800)
    p.add_argument("--stride", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser("subsample", help="uniform temporal subsampling")
    p.add_argument("input")
    p.add_argument("--meta", default=None)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_subsample)

    p = sub.add_parser("featurize",
                       help="spike stream(s) -> clip embedding JSON")
    p.add_argument("input", help=".dat file or directory of .dat files")
    p.add_argument("--meta", default=None)
    p.add_argument("--weights", default=None, help="weight archive directory")
    p.add_argument("--seed", type=int, default=None,
                   help="generate weights from this seed instead")
    p.add_argument("--save-weights", default=None)
    p.add_argument("--manifest", default=None,
                   help="dataset manifest supplying labels")
    p.add_argument("--r-win", type=int, default=30)
    p.add_argument("--step", type=int, default=45)
    p.add_argument("--n-blocks", type=int, default=5)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--channel-step", type=int, default=20)
    p.add_argument("--c-out", type=int, default=16)
    p.add_argument("--embed-dim", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("snn-forward",
                       help="full-spiking forward with energy ledger")
    p.add_argument("input")
    p.add_argument("--meta", default=None)
    p.add_argument("--weights", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--save-weights", default=None)
    p.add_argument("--timesteps", type=int, default=2)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--ledger", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_snn_forward)

    p = sub.add_parser("energy", help="energy report from ledger JSON")
    p.add_argument("--snn", required=True)
    p.add_argument("--ann", default=None,
                   help="separate dense-baseline ledger (defaults to --snn)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("train-head", help="few-shot alignment-head training")
    p.add_argument("embeddings")
    p.add_argument("prompts")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_head)

    p = sub.add_parser("eval", help="top-k accuracy of a trained head")
    p.add_argument("head")
    p.add_argument("embeddings")
    p.add_argument("--topk", default="1")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="render the synthetic motion dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", default=None,
                   help="comma-separated subset of "
                        + ",".join(CLASS_PROMPTS))
    p.add_argument("--clips-per-class", type=int, default=12)
    p.add_argument("--frames", type=int, default=250)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pipeline", help="run all stages from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpikeKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
