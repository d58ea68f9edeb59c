"""The benchmark's workloads.

Each workload builds its inputs from the seed in ``setup``, runs one timed
pass of public spikekit entry points in ``run_pass`` and returns what it
observed. ``check`` compares an observation against the committed
reference for the seed when there is one, and otherwise against the
invariants every seed must satisfy; each mismatch fails one operation.

Library functions are always called through their module
(``stream.read_dat``, not a bare ``read_dat``) so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import math
import os
import shutil
import time

import numpy as np

from spikekit import camera, pipeline, reconstruct, stream, synth

CLASSES = ("clap", "wave", "punch", "throw")
EMBED_RTOL = 1e-12


def _directions(dim: int) -> np.ndarray:
    """Three fixed unit directions in R^dim."""
    dirs = np.random.default_rng([20250512, dim]).standard_normal((3, dim))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def fingerprint(vector) -> list[float]:
    """An embedding's norm and its projections on three fixed unit
    directions. Embeddings within EMBED_RTOL relative of each other have
    fingerprints within EMBED_RTOL times the norm."""
    v = np.asarray(vector, dtype=np.float64)
    return [float(np.linalg.norm(v))] + \
        [float(x) for x in _directions(v.size) @ v]


def fingerprint_mismatch(got, want) -> bool:
    tol = EMBED_RTOL * want[0]
    return len(got) != len(want) or \
        any(abs(g - w) > tol for g, w in zip(got, want))


def ledger_counts(records: list[dict]) -> list[list]:
    """The integer columns of a ledger, in layer order."""
    return [[r["layer_name"], r["spike_count"], r["fan_out"],
             r["actual_sops"], r["neuron_ops"], r.get("max_sops"),
             r.get("element_count")] for r in records]


def ledger_invariants(counts: list[list], reduction_pct: float) -> list[str]:
    bad = [f"{row[0]}: actual_sops {row[3]} > max_sops {row[5]}"
           for row in counts if row[5] is not None and row[3] > row[5]]
    if not 0.0 < reduction_pct < 100.0:
        bad.append(f"reduction_pct {reduction_pct} outside (0, 100)")
    return bad


class Workload:
    """One named workload.

    ``run_pass`` is the timed part. ``observe`` turns its heavy output into
    a small record (and removes the pass's files); ``check`` compares that
    record with the seed's reference, or with the invariants when the seed
    has none, and returns one message per failed operation.
    """

    name = ""
    ops_per_pass = 1

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int):
        raise NotImplementedError

    def observe(self, out) -> dict:
        raise NotImplementedError

    def check(self, seen: dict, ref: dict | None) -> list[str]:
        raise NotImplementedError

    def reference(self, record: dict) -> dict:
        """The seed's reference, taken from one clean pass's record."""
        return record

    def info(self, records: list[dict], wall: list[float]) -> dict:
        """Figures printed beside the gated metrics: name -> (value, unit)."""
        return {}

    def op_latencies(self, records: list[dict]) -> dict[str, list[float]]:
        """Per-operation latency samples, when a pass holds many operations."""
        return {}


# ---------------------------------------------------------------------------
# fewshot-64: the paper's end-to-end user path
# ---------------------------------------------------------------------------

class FewShot(Workload):
    name = "fewshot-64"

    def setup(self) -> None:
        cfg = pipeline.PipelineConfig(seed=self.seed)
        # The weight init run_pipeline performs, timed here so that work
        # moved into initialisation shows in setup_s.
        pipeline.build_feature_weights(
            cfg.block_spec().block_len, cfg.branch_spec(), cfg.star_config(),
            (cfg.height, cfg.width), cfg.seed)
        self.cfg = cfg
        self.clips = len(cfg.classes) * cfg.clips_per_class
        self.ops_per_pass = (self.clips + len(cfg.shots) * len(cfg.eval_seeds)
                             + int(cfg.run_snn))

    def run_pass(self, index: int):
        out_dir = os.path.join(self.work_dir, f"pass{index}")
        return out_dir, pipeline.run_pipeline(self.cfg, out_dir)

    def observe(self, out) -> dict:
        out_dir, metrics = out
        embeddings = {}
        for split in ("train", "test"):
            doc = pipeline.read_json(os.path.join(out_dir,
                                                  f"embeddings_{split}.json"))
            for entry in doc["embeddings"]:
                embeddings[entry["id"]] = fingerprint(entry["vector"])
        ledger = pipeline.read_json(os.path.join(out_dir, "ledger.json"))
        report = pipeline.read_json(os.path.join(out_dir,
                                                 "energy_report.json"))
        shutil.rmtree(out_dir)
        return {"embeddings": embeddings,
                "top1": {f"{shots}/{seed}": per["accuracy"]["top1"]
                         for shots, block in metrics["shots"].items()
                         for seed, per in block["per_seed"].items()},
                "ledger": ledger_counts(ledger),
                "report_layers": [[r["layer_name"], r["spike_count"],
                                   r["actual_sops"], r["neuron_ops"],
                                   r["max_sops"]] for r in report["layers"]],
                "reduction_pct": report["reduction_pct"]}

    def check(self, seen: dict, ref: dict | None) -> list[str]:
        cfg = self.cfg
        n_test = len(cfg.classes) * cfg.test_per_class
        bad = [f"embedding {clip} is not finite"
               for clip, fp in seen["embeddings"].items()
               if not all(math.isfinite(x) for x in fp)]
        if len(seen["embeddings"]) != self.clips:
            bad.append(f"{len(seen['embeddings'])} embeddings for "
                       f"{self.clips} clips")
        bad += [f"top1 {key} = {acc} is not a hit fraction of {n_test}"
                for key, acc in seen["top1"].items()
                if abs(acc * n_test - round(acc * n_test)) > 1e-9
                or not 0 <= acc <= 1]
        bad += ledger_invariants(seen["ledger"], seen["reduction_pct"])
        if ref is None:
            return bad
        bad += [f"embedding {clip} differs from the reference"
                for clip, fp in ref["embeddings"].items()
                if fingerprint_mismatch(seen["embeddings"].get(clip, []), fp)]
        bad += [f"top1 {key} = {seen['top1'].get(key)}, reference {acc}"
                for key, acc in ref["top1"].items()
                if seen["top1"].get(key) != acc]
        if (seen["ledger"], seen["report_layers"], seen["reduction_pct"]) != \
                (ref["ledger"], ref["report_layers"], ref["reduction_pct"]):
            bad.append("ledger or energy report differs from the reference")
        return bad

    def info(self, records: list[dict], wall: list[float]) -> dict:
        top1 = records[-1]["top1"].values()
        return {"pipeline_s": (float(np.median(wall)), "s"),
                "top1_mean": (sum(top1) / len(top1), "1"),
                "energy_reduction_pct": (records[-1]["reduction_pct"], "%")}


# ---------------------------------------------------------------------------
# stream-io: encoder, codec and reconstruction, no convolution
# ---------------------------------------------------------------------------

class StreamIO(Workload):
    name = "stream-io"

    SIZE = 128
    FRAMES = 1200
    WINDOW = stream.ClipWindowSpec(window_len=200, stride=50)
    CLIP_FRAMES = 100
    TFI_STRIDE = 25
    THETA = 5.0
    NOISE = 0.05

    def setup(self) -> None:
        self.video = synth.render_clip(
            CLASSES[self.seed % len(CLASSES)], self.FRAMES, self.SIZE,
            self.SIZE, np.random.default_rng([self.seed, self.SIZE]))
        self.enc = camera.EncoderConfig(theta=self.THETA,
                                        noise_amplitude=self.NOISE)
        self.noise_seed = int(np.random.default_rng([self.seed, 5])
                              .integers(2 ** 31))
        self.clips = stream.clip_count(self.FRAMES, self.WINDOW)
        self.ops_per_pass = 2 * self.clips
        self.first: dict | None = None

    def run_pass(self, index: int):
        clock = time.perf_counter
        t0 = clock()
        # Phase 1: ingest the recording.
        recording = camera.encode_video(self.video, self.enc,
                                        seed=self.noise_seed)
        meta = stream.StreamMeta.for_stream(recording,
                                            threshold_theta=self.THETA)
        rec_path = os.path.join(self.work_dir, "recording.dat")
        stream.write_dat(recording, meta, rec_path)
        t1 = clock()
        # Phase 2: cut, subsample and write each clip with its sidecar.
        loaded = stream.read_dat(rec_path, meta)
        written, write_s = [], []
        for k, clip in enumerate(stream.slice_clips(loaded, self.WINDOW)):
            start = clock()
            sub = stream.subsample_temporal(clip, self.CLIP_FRAMES)
            path = os.path.join(self.work_dir, f"clip{k:03d}.dat")
            stream.write_dat(sub, stream.StreamMeta.for_stream(
                sub, threshold_theta=self.THETA), path)
            write_s.append(clock() - start)
            written.append((path, sub))
        t2 = clock()
        # Phase 3: read each clip back through its sidecar and reconstruct.
        read, read_s = [], []
        for path, _ in written:
            start = clock()
            clip_meta = stream.read_meta(stream.sidecar_path(path))
            clip = stream.read_dat(path, clip_meta)
            read.append((clip_meta, clip,
                         reconstruct.tfi_video(clip, self.TFI_STRIDE)))
            read_s.append(clock() - start)
        t3 = clock()
        return {"phase_s": [t1 - t0, t2 - t1, t3 - t2], "write_s": write_s,
                "read_s": read_s, "recording": recording, "written": written,
                "read": read}

    def observe(self, out) -> dict:
        dims = (self.CLIP_FRAMES, self.SIZE, self.SIZE)
        bad = []
        for k, ((_, sub), (meta, clip, _)) in enumerate(zip(out["written"],
                                                            out["read"])):
            if (meta.t_len, meta.height, meta.width) != dims:
                bad.append(f"clip {k}: sidecar dims differ from {dims}")
            elif not np.array_equal(clip.data, sub.data):
                bad.append(f"clip {k}: read back differs from what was "
                           f"written")
        return {"roundtrip": bad,
                "clips": len(out["written"]),
                "recording_spikes": out["recording"].spike_count(),
                "clip_spikes": [sub.spike_count()
                                for _, sub in out["written"]],
                "tfi_sums": [float(frames.frames.sum())
                             for _, _, frames in out["read"]],
                "phase_s": out["phase_s"], "write_s": out["write_s"],
                "read_s": out["read_s"]}

    def reference(self, record: dict) -> dict:
        keys = ("clips", "recording_spikes", "clip_spikes", "tfi_sums")
        return {k: record[k] for k in keys}

    def check(self, seen: dict, ref: dict | None) -> list[str]:
        bad = list(seen["roundtrip"])
        if seen["clips"] != self.clips:
            bad.append(f"{seen['clips']} clips written, expected "
                       f"{self.clips}")
        # Without a committed reference, the first pass is it.
        self.first = self.first or seen
        want = ref or self.first
        if seen["recording_spikes"] != want["recording_spikes"]:
            bad.append("recording spike count differs from the reference")
        bad += [f"clip {k}: spike count differs from the reference"
                for k, (got, exp) in enumerate(zip(seen["clip_spikes"],
                                                   want["clip_spikes"]))
                if got != exp]
        bad += [f"clip {k}: TFI frames differ from the reference"
                for k, (got, exp) in enumerate(zip(seen["tfi_sums"],
                                                   want["tfi_sums"]))
                if abs(got - exp) > EMBED_RTOL * abs(exp)]
        return bad

    def info(self, records: list[dict], wall: list[float]) -> dict:
        phase = [sum(r["phase_s"][i] for r in records) for i in range(3)]
        clips = sum(r["clips"] for r in records)
        return {"ingest_frames_per_s": (self.FRAMES * len(records) / phase[0],
                                        "1/s"),
                "clips_written_per_s": (clips / phase[1], "1/s"),
                "clips_read_per_s": (clips / phase[2], "1/s")}

    def op_latencies(self, records: list[dict]) -> dict[str, list[float]]:
        return {"clip_write_s": [t for r in records for t in r["write_s"]],
                "clip_read_s": [t for r in records for t in r["read_s"]]}


WORKLOADS = {w.name: w for w in (StreamIO, FewShot)}
