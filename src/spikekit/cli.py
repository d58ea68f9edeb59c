"""Command-line front end.

Commands: encode, decode, reconstruct, slice, subsample, featurize,
snn-forward, energy, train-head, eval, synth, pipeline. Exit codes:
0 success, 2 precondition violation (argparse uses the same code, and
so does a run whose sizes ask for more memory than the host can give or
reach past numpy's index range), 3 I/O error. Seeds are always
explicit; there are no wall-clock defaults anywhere.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from dataclasses import replace

import numpy as np

from .align import AlignmentHead
from .camera import EncoderConfig
from .energy import EnergyLedger, energy_report, format_report
from .errors import DataIOError, PreconditionError, SpikeKitError
from .hsfe import BlockSpec, BranchSpec
from .jsonio import checked, read_json, read_text, write_bytes, write_json
from .pipeline import (PipelineConfig, build_feature_weights, encode_clip,
                       evaluate_head, featurize_stream, provenance,
                       run_pipeline, train_fewshot_head)
from .reconstruct import TfiConfig, tfi_reconstruct, tfi_video
from .snn import fsve_forward, init_fsve_weights
from .starnet import MiniMapResNetConfig
from .stream import (ClipWindowSpec, SpikeStream, StreamMeta, read_dat,
                     read_meta, sidecar_path, slice_clips, subsample_temporal,
                     write_dat)
from .synth import CLASS_PROMPTS, SyntheticDatasetSpec, synth_dataset
from .videoio import load_video, write_pgm_frame
from .weights import load_weights, save_weights


def _read_stream(dat_path: str,
                 meta_arg: str | None) -> tuple[SpikeStream, StreamMeta]:
    """The stream at ``dat_path`` and its meta, from --meta or else the
    sidecar, which must then exist."""
    meta_path = meta_arg or sidecar_path(dat_path)
    if not (meta_arg or os.path.exists(meta_path)):
        raise PreconditionError(
            f"no --meta given and no sidecar {meta_path} found for {dat_path}")
    meta = read_meta(meta_path)
    return read_dat(dat_path, meta), meta


def _load_embeddings(path) -> tuple[np.ndarray, np.ndarray]:
    """The [n, d] "vector"s and [n] integer "label"s of an embeddings file
    whose every entry is labelled."""
    obj = read_json(path)
    entries = checked(obj if isinstance(obj, dict) else {"embeddings": obj},
                      {"embeddings": "list"}, path)["embeddings"]
    if not entries:
        raise PreconditionError(f"{path}: no embeddings found")
    rows = [checked(entry, {"vector": "[float]", "label": "int?"},
                    f"{path}: embedding {i}")
            for i, entry in enumerate(entries)]
    if not all(row["vector"] and len(row["vector"]) == len(rows[0]["vector"])
               and abs(row.get("label", 0)) < 2 ** 63 for row in rows):
        raise DataIOError(
            f"{path}: every embedding needs a non-empty \"vector\" as long "
            f"as the first one and, if labelled, a 64-bit integer \"label\"")
    missing = [e.get("id") for e in entries if "label" not in e]
    if missing:
        raise PreconditionError(f"{path}: unlabelled embeddings {missing[:5]}")
    return (np.array([row["vector"] for row in rows], dtype=np.float64),
            np.array([row["label"] for row in rows]))


def _load_manifest_labels(path) -> dict[str, int]:
    """Clip name -> integer label, from a dataset manifest's "clips"."""
    clips = checked(read_json(path), {"clips": "list"}, path)["clips"]
    clips = [checked(clip, {"name": "str", "label": "int"}, f"{path}: clip {i}")
             for i, clip in enumerate(clips)]
    return {clip["name"]: clip["label"] for clip in clips}


def _load_head(path) -> tuple[AlignmentHead, list[str]]:
    obj = checked(read_json(path), {"head": "dict", "prompts": "[str]"}, path)
    if not obj["prompts"]:
        raise DataIOError(f"{path}: head file needs a non-empty \"prompts\"")
    return AlignmentHead.from_json_dict(obj["head"]), obj["prompts"]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_encode(args) -> int:
    cfg = EncoderConfig(theta=args.theta, noise_amplitude=args.noise)
    frames = load_video(args.input).frames
    stream = encode_clip(frames, frames.shape, cfg, args.upsample, args.seed)
    write_dat(stream, StreamMeta.for_stream(stream, threshold_theta=cfg.theta),
              args.out)
    print(f"encoded {stream.t_len}x{stream.height}x{stream.width} "
          f"({stream.spike_count()} spikes) -> {args.out}")
    return 0


def cmd_decode(args) -> int:
    stream, meta = _read_stream(args.input, args.meta)
    if args.out.endswith(".npy"):
        buf = io.BytesIO()
        np.lib.format.write_array(buf, stream.data)
        write_bytes(buf.getvalue(), args.out)
    elif args.out.endswith(".dat"):
        write_dat(stream, meta, args.out)
    else:
        raise PreconditionError("--out must end in .npy or .dat")
    print(f"decoded {args.input} -> {args.out}")
    return 0


def cmd_reconstruct(args) -> int:
    stream, meta = _read_stream(args.input, args.meta)
    theta = args.theta if args.theta is not None else meta.threshold_theta
    cfg = TfiConfig(delta_t_max=args.dtmax, theta=theta,
                    default_value=args.default_value)
    if args.t is not None:
        frames = [(args.t, tfi_reconstruct(stream, args.t, cfg))]
    else:
        video = tfi_video(stream, args.stride, cfg)
        frames = [(i * args.stride, frame)
                  for i, frame in enumerate(video.frames)]
    os.makedirs(args.out, exist_ok=True)
    for t, frame in frames:
        write_pgm_frame(frame, os.path.join(args.out, f"tfi_{t:06d}.pgm"))
    print(f"wrote {len(frames)} reconstructed frame(s) to {args.out}")
    return 0


def cmd_slice(args) -> int:
    stream, meta = _read_stream(args.input, args.meta)
    clips = slice_clips(stream, ClipWindowSpec(args.window, args.stride))
    os.makedirs(args.out, exist_ok=True)
    base = os.path.splitext(os.path.basename(args.input))[0]
    for k, clip in enumerate(clips):    # at least one
        write_dat(clip, replace(meta, t_len=clip.t_len),
                  os.path.join(args.out, f"{base}_clip{k:04d}.dat"))
    print(f"wrote {k + 1} clip(s) to {args.out}")
    return 0


def cmd_subsample(args) -> int:
    stream, meta = _read_stream(args.input, args.meta)
    out_stream = subsample_temporal(stream, args.target)
    # The kept frames are evenly spaced only when the target divides t_len.
    step, uneven = divmod(stream.t_len, args.target)
    tick = (meta.tick_seconds * step
            if meta.tick_seconds is not None and not uneven else None)
    write_dat(out_stream, replace(meta, t_len=out_stream.t_len,
                                  tick_seconds=tick), args.out)
    print(f"subsampled {stream.t_len} -> {out_stream.t_len} frames: {args.out}")
    return 0


def _weights(args, init) -> dict[str, np.ndarray]:
    """Weights from --weights, else ``init(--seed, None)``. A command saves
    them to --save-weights only once its forward has run.

    A loaded archive must hold exactly the names and shapes of
    ``init(0, archive)``, the seeded weights at the sizes the archive
    decides; anything else is a ``DataIOError``.
    """
    if args.weights:
        weights = load_weights(args.weights)
        expected = init(0, weights)
        bad = sorted(set(expected) ^ set(weights)) + [
            f"{name} {weights[name].shape} (expected {want.shape})"
            for name, want in expected.items()
            if name in weights and weights[name].shape != want.shape]
        if bad:
            raise DataIOError(f"{args.weights}: weight archive does not fit "
                              f"this model: {', '.join(bad)}")
        return weights
    if args.seed is None:
        raise PreconditionError("--seed is required when --weights is not given")
    return init(args.seed, None)


def cmd_featurize(args) -> int:
    if os.path.isdir(args.input):
        names = sorted(n for n in os.listdir(args.input)
                       if n.endswith(".dat"))
        if not names:
            raise PreconditionError(f"{args.input}: no .dat files")
        paths = [os.path.join(args.input, n) for n in names]
    else:
        paths = [args.input]
    labels = _load_manifest_labels(args.manifest) if args.manifest else {}

    block_spec = BlockSpec(args.r_win, args.step, args.n_blocks)
    branches = BranchSpec(args.m, args.channel_step, args.c_out)
    star_cfg = MiniMapResNetConfig(embed_dim=args.embed_dim)
    # The weights are sized by the first stream, read (and so checked
    # against its .dat) before they are built.
    stream, _ = _read_stream(paths[0], args.meta)
    weights = _weights(args, lambda seed, _archive: build_feature_weights(
        block_spec.block_len, branches, star_cfg,
        (stream.height, stream.width), seed))

    entries = []
    for k, path in enumerate(paths):
        if k:
            stream, _ = _read_stream(path, args.meta)
        vector = featurize_stream(stream, block_spec, weights)
        name = os.path.splitext(os.path.basename(path))[0]
        entry = {"id": name, "vector": vector.tolist()}
        if name in labels:
            entry["label"] = labels[name]
        entries.append(entry)
    if args.save_weights:
        save_weights(weights, args.save_weights)
    prov = provenance(args.seed,
                      inputs={os.path.basename(p): p for p in paths})
    write_json({"embeddings": entries, "provenance": prov}, args.out)
    print(f"featurized {len(entries)} stream(s) -> {args.out}")
    return 0


def cmd_snn_forward(args) -> int:
    stream, _ = _read_stream(args.input, args.meta)

    def init(seed, archive):
        if archive is None:     # --channels sizes only seeded weights
            return init_fsve_weights(args.channels, seed)
        # The archive's own width c, read from a (c, c, 3, 3) stem2 blob
        # that the archive holds, so the fit check builds no more than about
        # five times the archive's bytes; width 1 for any other archive,
        # whose fit check then names the blob.
        shape = np.shape(archive.get("fsve.stem2.conv.w"))
        width = shape[0] if shape[:1] * 2 + (3, 3) == shape else 1
        return init_fsve_weights(max(width, 1), seed)

    weights = _weights(args, init)
    ledger = EnergyLedger()
    embedding = fsve_forward(stream, weights, args.timesteps, ledger)
    if args.save_weights:
        save_weights(weights, args.save_weights)
    ledger.save(args.ledger)
    if args.out:
        write_json({"embedding": embedding.tolist(),
                    "provenance": provenance(args.seed,
                                             inputs={"stream": args.input})},
                   args.out)
    print(f"spiking forward done; ledger -> {args.ledger}")
    return 0


def cmd_energy(args) -> int:
    report = energy_report(EnergyLedger.load(args.snn))
    print(format_report(report))
    if args.out:
        report["provenance"] = provenance(None, inputs={"snn": args.snn})
        write_json(report, args.out)
    return 0


def cmd_train_head(args) -> int:
    vectors, labels = _load_embeddings(args.embeddings)
    prompts = [line.strip() for line in read_text(args.prompts).split("\n")
               if line.strip()]
    if not prompts:
        raise PreconditionError(f"{args.prompts}: no prompts")
    (head, trace), = train_fewshot_head(
        vectors, labels, prompts, args.shots,
        [np.random.default_rng(args.seed)], args.epochs, args.lr, [args.seed])
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
    try:
        ks = [int(k) for k in args.topk.split(",")]
    except ValueError as exc:
        raise PreconditionError(
            f"--topk must be comma-separated integers, got {args.topk!r}"
        ) from exc
    if min(ks) < 1 or len(set(ks)) < len(ks):    # a repeat prints twice
        raise PreconditionError(
            f"--topk must list distinct integers >= 1, got {args.topk!r}")
    head, prompts = _load_head(args.head)
    vectors, labels = _load_embeddings(args.embeddings)
    results = evaluate_head(head, prompts, vectors, labels, ks)
    for k in ks:
        print(f"top-{k} accuracy: {results[f'top{k}']:.4f}  "
              f"({len(labels)} videos, {len(prompts)} classes)")
    if args.out:
        write_json({"accuracy": results,
                    "provenance": provenance(
                        None, inputs={"head": args.head,
                                      "embeddings": args.embeddings})},
                   args.out)
    return 0


def cmd_synth(args) -> int:
    classes = tuple(args.classes.split(",")) \
        if args.classes is not None else tuple(CLASS_PROMPTS)
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
    weights = p.add_mutually_exclusive_group()
    weights.add_argument("--weights", help="weight archive directory")
    weights.add_argument("--seed", type=int,
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
    weights = p.add_mutually_exclusive_group()
    weights.add_argument("--weights")
    weights.add_argument("--seed", type=int)
    p.add_argument("--save-weights", default=None)
    p.add_argument("--timesteps", type=int, default=2)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--ledger", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_snn_forward)

    p = sub.add_parser("energy", help="energy report from ledger JSON")
    p.add_argument("--snn", required=True)
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
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise PreconditionError(
                f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except SpikeKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # sizes that ask for more than the host has
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
