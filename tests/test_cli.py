"""Command-line interface tests: every command end to end, exit codes,
sidecar discovery, and artifact determinism."""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spikekit
from oracles import encode_upsampled_whole, pack_bits, write_video_raw
from spikekit import cli
from spikekit.cli import main
from spikekit.stream import (SpikeStream, StreamMeta, read_dat, read_meta,
                             write_dat)
from spikekit.videoio import load_video, read_pgm, write_pgm_clip
from spikekit.weights import save_weights
from spikekit.camera import EncoderConfig, IntensityVideo


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture()
def tiny_video_dir(tmp_path):
    rng = np.random.default_rng(140)
    frames = rng.uniform(0.2, 1.0, size=(40, 8, 8))
    clip_dir = tmp_path / "clip"
    write_pgm_clip(IntensityVideo(frames).frames, clip_dir)
    return clip_dir


@pytest.fixture()
def encoded_dat(tiny_video_dir, tmp_path):
    dat = tmp_path / "clip.dat"
    assert main(["encode", str(tiny_video_dir), str(dat),
                 "--theta", "2.0"]) == 0
    return dat


def test_encode_writes_dat_and_sidecar(encoded_dat):
    assert encoded_dat.exists()
    meta = read_meta(str(encoded_dat)[:-4] + ".meta.json")
    assert (meta.t_len, meta.height, meta.width) == (40, 8, 8)
    assert meta.threshold_theta == 2.0


def test_encode_decode_file_hash_roundtrip(encoded_dat, tmp_path):
    copy = tmp_path / "copy.dat"
    assert main(["decode", str(encoded_dat), "--out", str(copy)]) == 0
    assert sha256(copy) == sha256(encoded_dat)


def test_decode_to_npy_matches_library_read(encoded_dat, tmp_path):
    out = tmp_path / "dense.npy"
    assert main(["decode", str(encoded_dat), "--out", str(out)]) == 0
    meta = read_meta(str(encoded_dat)[:-4] + ".meta.json")
    stream = read_dat(encoded_dat, meta)
    assert np.array_equal(np.load(out), stream.data)


def test_decode_dimension_mismatch_exits_3(encoded_dat, tmp_path):
    bad_meta = tmp_path / "bad.meta.json"
    bad_meta.write_text(json.dumps({"height": 8, "width": 8, "t_len": 99,
                                    "threshold_theta": 2.0}))
    code = main(["decode", str(encoded_dat), "--meta", str(bad_meta),
                 "--out", str(tmp_path / "x.npy")])
    assert code == 3


def test_decode_rejects_set_padding_bits_with_exit_3(tmp_path, capsys):
    # 1x3x3 is 9 bits: the second byte holds one spike and 7 padding bits.
    dat, out = tmp_path / "b.dat", tmp_path / "out.dat"
    (tmp_path / "b.meta.json").write_text(json.dumps(
        {"height": 3, "width": 3, "t_len": 1}))
    dat.write_bytes(bytes([255, 255]))
    assert main(["decode", str(dat), "--out", str(out)]) == 3
    assert "padding" in capsys.readouterr().err
    assert not out.exists()
    dat.write_bytes(bytes([255, 128]))
    assert main(["decode", str(dat), "--out", str(out)]) == 0
    assert out.read_bytes() == bytes([255, 128])


def test_missing_meta_and_sidecar_exits_2(tmp_path):
    orphan = tmp_path / "orphan.dat"
    orphan.write_bytes(bytes(8))
    assert main(["decode", str(orphan), "--out",
                 str(tmp_path / "y.npy")]) == 2


def test_encode_noise_without_seed_exits_2(tiny_video_dir, tmp_path):
    code = main(["encode", str(tiny_video_dir), str(tmp_path / "n.dat"),
                 "--noise", "0.1"])
    assert code == 2


@pytest.mark.parametrize("noise", [[], ["--noise", "0.2", "--seed", "7"]],
                         ids=["clean", "noisy"])
@pytest.mark.parametrize("factor", [1, 2, 3])
@pytest.mark.parametrize("form", ["pgm", "raw"])
def test_encode_upsample_writes_the_bytes_of_the_whole_clip(
        form, factor, noise, tiny_video_dir, tmp_path):
    # The upsampled frames are blended and encoded eight at a time; the
    # .dat must hold the bytes of encoding the whole upsampled clip. The
    # raw video's 7 x 5 frames do not fill whole bytes.
    if form == "pgm":
        source = tiny_video_dir
    else:
        source = tmp_path / "v.raw"
        write_video_raw(IntensityVideo(np.random.default_rng(141).uniform(
            size=(37, 7, 5))), source)
    out = tmp_path / "u.dat"
    assert main(["encode", str(source), str(out), "--upsample", str(factor)]
                + noise) == 0
    cfg = EncoderConfig(noise_amplitude=0.2 if noise else 0.0)
    want = encode_upsampled_whole(load_video(source), factor, cfg,
                                  7 if noise else None)
    assert out.read_bytes() == pack_bits(want)
    meta = read_meta(str(out)[:-4] + ".meta.json")
    assert (meta.t_len, meta.height, meta.width) == want.shape


def test_reconstruct_writes_pgm_frames(encoded_dat, tmp_path):
    out_dir = tmp_path / "recon"
    assert main(["reconstruct", str(encoded_dat), "--stride", "10",
                 "--dtmax", "12", "--out", str(out_dir)]) == 0
    frames = sorted(out_dir.iterdir())
    assert len(frames) == 4
    frame = read_pgm(frames[1])
    assert frame.shape == (8, 8)
    assert frame.min() >= 0.0 and frame.max() <= 1.0
    # A step past the stream's 40 exits 2 before the directory is made.
    late = tmp_path / "late"
    assert main(["reconstruct", str(encoded_dat), "--t", "999",
                 "--out", str(late)]) == 2
    assert not late.exists()


def test_slice_and_subsample_commands(encoded_dat, tmp_path):
    clips_dir = tmp_path / "clips"
    assert main(["slice", str(encoded_dat), "--window", "20",
                 "--stride", "10", "--out", str(clips_dir)]) == 0
    assert len(list(clips_dir.glob("*.dat"))) == 3

    sub = tmp_path / "sub.dat"
    assert main(["subsample", str(encoded_dat), "--target", "10",
                 "--out", str(sub)]) == 0
    meta = read_meta(str(sub)[:-4] + ".meta.json")
    assert meta.t_len == 10


@pytest.mark.parametrize("target, tick", [(10, 1e-06 * 12), (7, None)])
def test_subsample_writes_the_tick_of_the_kept_frames(tmp_path, target, tick):
    # 120 frames to 10 keeps every 12th frame; to 7 it keeps frames of
    # uneven spacing, which have no one tick.
    rng = np.random.default_rng(151)
    src, sub = tmp_path / "long.dat", tmp_path / "sub.dat"
    stream = SpikeStream(rng.integers(0, 2, size=(120, 2, 3), dtype=np.uint8))
    write_dat(stream, StreamMeta(height=2, width=3, t_len=120,
                                 tick_seconds=1e-06), src)
    assert main(["subsample", str(src), "--target", str(target),
                 "--out", str(sub)]) == 0
    sidecar = json.loads((tmp_path / "sub.meta.json").read_text())
    assert sidecar["t_len"] == target
    assert sidecar.get("tick_seconds") == tick
    assert ("tick_seconds" in sidecar) == (tick is not None)


def test_slice_too_short_exits_2(encoded_dat, tmp_path):
    assert main(["slice", str(encoded_dat), "--window", "100",
                 "--stride", "10", "--out", str(tmp_path / "c")]) == 2


def test_synth_deterministic_across_runs(tmp_path):
    args = ["synth", "--clips-per-class", "1", "--frames", "6",
            "--seed", "5"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    rel = "clips/throw_000/frame_00002.pgm"
    assert sha256(tmp_path / "a" / rel) == sha256(tmp_path / "b" / rel)
    manifest_a = (tmp_path / "a/manifest.json").read_bytes()
    manifest_b = (tmp_path / "b/manifest.json").read_bytes()
    assert manifest_a == manifest_b


def test_featurize_requires_seed_or_weights(encoded_dat, tmp_path):
    code = main(["featurize", str(encoded_dat),
                 "--out", str(tmp_path / "e.json")])
    assert code == 2


def test_snn_forward_then_energy_report(tmp_path):
    rng = np.random.default_rng(141)
    from spikekit.stream import SpikeStream, write_dat
    stream = SpikeStream(rng.integers(0, 2, size=(8, 32, 32),
                                      dtype=np.uint8))
    dat = tmp_path / "s.dat"
    write_dat(stream, StreamMeta.for_stream(stream), dat)

    ledger_path = tmp_path / "ledger.json"
    emb_path = tmp_path / "emb.json"
    assert main(["snn-forward", str(dat), "--seed", "3", "--channels", "4",
                 "--timesteps", "2", "--ledger", str(ledger_path),
                 "--out", str(emb_path)]) == 0
    ledger = json.loads(ledger_path.read_text())
    assert any(rec["layer_name"] == "fsve.stem1.conv" for rec in ledger)

    report_path = tmp_path / "report.json"
    assert main(["energy", "--snn", str(ledger_path),
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert 0.0 <= report["reduction_pct"] <= 100.0
    assert report["e_snn_joules"] <= report["e_ann_joules"] \
        + sum(r["neuron_ops"] for r in ledger) * 0.9e-12


@pytest.mark.parametrize("timesteps", ["0", "9"])
def test_snn_forward_bad_timesteps_writes_nothing(timesteps, tmp_path,
                                                  capsys):
    # 0 steps, or more than the stream's 8, exit 2 before the weights are
    # saved.
    from spikekit.stream import SpikeStream, write_dat
    stream = SpikeStream(np.ones((8, 32, 32), dtype=np.uint8))
    dat = tmp_path / "s.dat"
    write_dat(stream, StreamMeta.for_stream(stream), dat)
    assert main(["snn-forward", str(dat), "--seed", "3", "--timesteps",
                 timesteps, "--save-weights", str(tmp_path / "w"),
                 "--ledger", str(tmp_path / "l.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "w").exists()
    assert not (tmp_path / "l.json").exists()


@pytest.mark.parametrize("command, frames, size, flags", [
    # 40 frames are too short for featurize's 5 default blocks.
    ("featurize", 40, 64, ["--out", "e.json"]),
    # One pixel leaves tdbn fewer than 2 pooled elements.
    ("snn-forward", 8, 1, ["--timesteps", "1", "--ledger", "l.json"]),
], ids=["featurize-short-stream", "snn-forward-one-pixel"])
def test_a_failing_forward_saves_no_weights(command, frames, size, flags,
                                            tmp_path, capsys, monkeypatch):
    from spikekit.stream import SpikeStream, write_dat
    monkeypatch.chdir(tmp_path)
    stream = SpikeStream(np.ones((frames, size, size), dtype=np.uint8))
    write_dat(stream, StreamMeta.for_stream(stream), "s.dat")
    assert main([command, "s.dat", "--seed", "0", "--save-weights", "w",
                 *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.dat",
                                                          "s.meta.json"]


def test_snn_forward_width_comes_from_the_weight_archive(tmp_path):
    rng = np.random.default_rng(145)
    from spikekit.stream import SpikeStream, write_dat
    stream = SpikeStream(rng.integers(0, 2, size=(8, 32, 32),
                                      dtype=np.uint8))
    dat = tmp_path / "s.dat"
    write_dat(stream, StreamMeta.for_stream(stream), dat)
    assert main(["snn-forward", str(dat), "--seed", "5", "--channels", "4",
                 "--save-weights", str(tmp_path / "w"),
                 "--ledger", str(tmp_path / "seeded.json")]) == 0
    for channels in ("4", "8"):
        assert main(["snn-forward", str(dat), "--weights", str(tmp_path / "w"),
                     "--channels", channels,
                     "--ledger", str(tmp_path / f"ledger{channels}.json"),
                     "--out", str(tmp_path / f"emb{channels}.json")]) == 0
    assert ((tmp_path / "ledger4.json").read_bytes()
            == (tmp_path / "ledger8.json").read_bytes()
            == (tmp_path / "seeded.json").read_bytes())
    assert ((tmp_path / "emb4.json").read_bytes()
            == (tmp_path / "emb8.json").read_bytes())
    assert len(json.loads((tmp_path / "emb8.json").read_text())
               ["embedding"]) == 4


def test_train_head_and_eval_flow(tmp_path):
    # Hand-built separable embeddings for two classes.
    rng = np.random.default_rng(142)
    prompts_path = tmp_path / "prompts.txt"
    prompts_path.write_text("a person waving one hand\n"
                            "a person punching forward\n")
    entries = []
    for label in range(2):
        center = np.zeros(8)
        center[label * 4:(label + 1) * 4] = 1.0
        for i in range(6):
            entries.append({"id": f"c{label}_{i}", "label": label,
                            "vector": (center
                                       + 0.05 * rng.normal(size=8)).tolist()})
    emb_path = tmp_path / "embeddings.json"
    emb_path.write_text(json.dumps({"embeddings": entries}))

    head_path = tmp_path / "head.json"
    assert main(["train-head", str(emb_path), str(prompts_path),
                 "--shots", "4", "--seed", "1", "--epochs", "60",
                 "--out", str(head_path)]) == 0
    head_obj = json.loads(head_path.read_text())
    assert head_obj["prompts"][0] == "a person waving one hand"
    assert head_obj["loss_trace"][1] <= head_obj["loss_trace"][0]

    metrics_path = tmp_path / "metrics.json"
    assert main(["eval", str(head_path), str(emb_path), "--topk", "1,2",
                 "--out", str(metrics_path)]) == 0
    metrics = json.loads(metrics_path.read_text())
    assert metrics["accuracy"]["top2"] == 1.0
    assert metrics["accuracy"]["top1"] >= 0.5


def test_eval_topk_above_class_count_exits_2(tmp_path):
    prompts = tmp_path / "p.txt"
    prompts.write_text("a person waving one hand\n"
                       "a person punching forward\n")
    entries = [{"id": "a", "label": 0, "vector": [1.0, 0.0]},
               {"id": "b", "label": 1, "vector": [0.0, 1.0]}]
    emb = tmp_path / "e.json"
    emb.write_text(json.dumps(entries))
    head = tmp_path / "h.json"
    assert main(["train-head", str(emb), str(prompts), "--shots", "1",
                 "--seed", "0", "--epochs", "2", "--out", str(head)]) == 0
    assert main(["eval", str(head), str(emb), "--topk", "5"]) == 2


@pytest.mark.parametrize("lr", ["nan", "inf", "0", "-0.05", "1e308"])
def test_train_head_needs_a_finite_positive_lr(lr, tmp_path, capsys):
    # 1e308 is finite and positive, but the head diverges: training stops
    # at the first step that leaves float range, with no numpy warning.
    prompts = tmp_path / "p.txt"
    prompts.write_text("a person waving one hand\n"
                       "a person punching forward\n")
    emb = tmp_path / "e.json"
    emb.write_text(json.dumps([{"id": "a", "label": 0, "vector": [1.0, 0.0]},
                               {"id": "b", "label": 1, "vector": [0.0, 1.0]}]))
    assert main(["train-head", str(emb), str(prompts), "--shots", "1",
                 "--seed", "0", "--lr", lr,
                 "--out", str(tmp_path / "h.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "h.json").exists()


@pytest.mark.parametrize("shots", ["0", "-1"])
def test_train_head_needs_a_positive_shot_count(shots, tmp_path, capsys):
    prompts = tmp_path / "p.txt"
    prompts.write_text("a person waving one hand\n")
    emb = tmp_path / "e.json"
    emb.write_text(json.dumps([{"id": "a", "label": 0, "vector": [1.0]}]))
    assert main(["train-head", str(emb), str(prompts), "--shots", shots,
                 "--seed", "0", "--out", str(tmp_path / "h.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


_WAVE, _PUNCH = "a person waving one hand", "a person punching forward"


@pytest.mark.parametrize("prompts,labels", [
    pytest.param([_WAVE, _WAVE], [0, 1], id="prompt-repeated"),
    pytest.param([_WAVE, _WAVE.upper()], [0, 1], id="prompt-case-variant"),
    pytest.param([_WAVE, "one hand waving a person"], [0, 1],
                 id="prompt-token-order-variant"),
    pytest.param([_WAVE, _PUNCH], [0, 1, 2], id="label-without-prompt"),
    pytest.param([_WAVE, _PUNCH], [0, 1, -1], id="label-negative"),
    pytest.param([_WAVE, _PUNCH], [0, 1, None], id="embedding-unlabelled"),
])
def test_train_head_bad_support_exits_2(prompts, labels, tmp_path, capsys):
    rng = np.random.default_rng(145)
    entries = []
    for i, label in enumerate(labels * 2):
        entry = {"id": f"e{i}", "vector": rng.normal(size=4).tolist()}
        if label is not None:
            entry["label"] = label
        entries.append(entry)
    (tmp_path / "e.json").write_text(json.dumps({"embeddings": entries}))
    (tmp_path / "p.txt").write_text("\n".join(prompts) + "\n")
    assert main(["train-head", str(tmp_path / "e.json"),
                 str(tmp_path / "p.txt"), "--shots", "2", "--seed", "0",
                 "--epochs", "2", "--out", str(tmp_path / "h.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "h.json").exists()


def _write_eval_inputs(tmp_path, width, scale=1.0):
    head = tmp_path / "h.json"
    head.write_text(json.dumps({
        "head": {"projection": (scale * np.eye(2)[:, :1]).tolist(),
                 "bias": [0.0], "log_inv_tau": 0.0},
        "prompts": ["a person waving one hand"]}))
    emb = tmp_path / "e.json"
    emb.write_text(json.dumps([{"id": "a", "label": 0,
                                "vector": [scale] * width}]))
    return str(head), str(emb)


@pytest.mark.parametrize("width,topk,scale", [
    pytest.param(2, "a", 1.0, id="topk-not-integer"),
    pytest.param(2, "1,", 1.0, id="topk-empty-item"),
    pytest.param(3, "1", 1.0, id="embedding-wider-than-head"),
    pytest.param(1, "1", 1.0, id="embedding-narrower-than-head"),
    # 1e200 * 1e200 is beyond float range: the cosines would be NaN.
    pytest.param(2, "1", 1e200, id="projection-beyond-float-range"),
])
def test_eval_bad_input_exits_2(width, topk, scale, tmp_path, capsys):
    head, emb = _write_eval_inputs(tmp_path, width, scale)
    assert main(["eval", head, emb, "--topk", topk]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("topk", ["1,1", "2,1,2", "0", "-1", "1,0"])
def test_eval_refuses_a_repeated_or_non_positive_k_before_reading(
        topk, tmp_path, capsys):
    # The head and embeddings do not exist: the --topk check runs first.
    assert main(["eval", str(tmp_path / "h.json"), str(tmp_path / "e.json"),
                 "--topk", topk]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --topk") and err.count("\n") == 1, err


def test_encode_accepts_rgb_ppm_frames(tmp_path):
    rng = np.random.default_rng(144)
    clip_dir = tmp_path / "rgb"
    clip_dir.mkdir()
    for t in range(12):
        rgb = (rng.uniform(0.3, 1.0, size=(8, 8, 3)) * 255).astype(np.uint8)
        header = b"P6\n8 8\n255\n"
        (clip_dir / f"frame_{t:03d}.ppm").write_bytes(header + rgb.tobytes())
    dat = tmp_path / "rgb.dat"
    assert main(["encode", str(clip_dir), str(dat), "--theta", "2.0"]) == 0
    meta = read_meta(str(dat)[:-4] + ".meta.json")
    assert (meta.t_len, meta.height, meta.width) == (12, 8, 8)


def _grey_but_last(value, shape=(2, 4, 4)):
    frames = np.full(shape, 0.5)
    frames.flat[-1] = value
    return frames


@pytest.mark.parametrize("frames", [
    pytest.param(np.full((3, 4, 4), np.nan), id="all-nan"),
    pytest.param(_grey_but_last(np.nan), id="one-nan"),
    pytest.param(_grey_but_last(np.inf), id="one-inf"),
    pytest.param(_grey_but_last(np.nan, (2, 4, 4, 3)), id="rgb-one-nan"),
])
def test_encode_non_finite_npy_exits_2(frames, tmp_path, capsys):
    np.save(tmp_path / "v.npy", frames)
    assert main(["encode", str(tmp_path / "v.npy"),
                 str(tmp_path / "v.dat")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "v.dat").exists()


@pytest.mark.parametrize("command, flags", [
    ("reconstruct", ["--theta", "nan"]), ("reconstruct", ["--theta", "inf"]),
    ("encode", ["--theta", "nan"]), ("encode", ["--theta", "inf"]),
    ("encode", ["--noise", "nan", "--seed", "1"]),
    ("encode", ["--noise", "inf", "--seed", "1"]),
    ("encode", ["--noise", "1e308", "--seed", "1"])],
    ids=["reconstruct-theta-nan", "reconstruct-theta-inf", "encode-theta-nan",
         "encode-theta-inf", "encode-noise-nan", "encode-noise-inf",
         "encode-noise-range-inf"])
def test_non_finite_theta_or_noise_exits_2(command, flags, encoded_dat,
                                           tiny_video_dir, tmp_path, capsys):
    out = tmp_path / "out"
    argv = (["reconstruct", str(encoded_dat), "--stride", "5", "--out",
             str(out)] if command == "reconstruct"
            else ["encode", str(tiny_video_dir), str(out)])
    capsys.readouterr()
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--noise", "0.1", "--seed", "-1"], ["--upsample", "0"],
    ["--upsample", "-3"]], ids=["negative-seed", "upsample-0", "upsample-neg"])
def test_encode_rejects_a_negative_seed_or_upsample_factor(
        flags, tiny_video_dir, tmp_path, capsys):
    out = tmp_path / "o.dat"
    capsys.readouterr()
    assert main(["encode", str(tiny_video_dir), str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["encode", "synth", "train-head",
                                     "featurize", "snn-forward"])
def test_a_negative_seed_exits_2_and_writes_nothing(command, encoded_dat,
                                                     tiny_video_dir, tmp_path,
                                                     capsys):
    out = tmp_path / "out"
    (tmp_path / "e.json").write_text(json.dumps(
        [{"id": "a", "label": 0, "vector": [1.0]}]))
    (tmp_path / "p.txt").write_text("a person waving one hand\n")
    argv = {"encode": ["encode", str(tiny_video_dir), str(out / "o.dat"),
                       "--noise", "0.1"],
            "synth": ["synth", "--out", str(out), "--classes", "wave,clap",
                      "--clips-per-class", "1", "--frames", "5"],
            "train-head": ["train-head", str(tmp_path / "e.json"),
                           str(tmp_path / "p.txt"), "--shots", "1",
                           "--epochs", "2", "--out", str(out / "h.json")],
            "featurize": ["featurize", str(encoded_dat),
                          "--out", str(out / "e.json")],
            "snn-forward": ["snn-forward", str(encoded_dat),
                            "--ledger", str(out / "l.json")]}[command]
    capsys.readouterr()
    assert main(argv + ["--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("classes", ["", "clap,", "wave,wave"],
                         ids=["empty", "trailing-comma", "repeated"])
def test_synth_bad_class_list_exits_2_and_writes_nothing(classes, tmp_path,
                                                          capsys):
    # Only a missing --classes means every class; an empty list is no
    # list of classes, and a repeated class would overwrite its own clips.
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["synth", "--out", str(out), "--classes", classes,
                 "--clips-per-class", "1", "--frames", "5",
                 "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("embed_dim", ["0", "-8"])
def test_featurize_needs_a_positive_embed_dim_multiple_of_8(
        embed_dim, tmp_path, capsys):
    from spikekit.stream import SpikeStream, write_dat
    stream = SpikeStream(np.random.default_rng(147).integers(
        0, 2, size=(30, 64, 64), dtype=np.uint8))
    write_dat(stream, StreamMeta.for_stream(stream), tmp_path / "s.dat")
    out = tmp_path / "e.json"
    capsys.readouterr()
    assert main(["featurize", str(tmp_path / "s.dat"), "--seed", "0",
                 "--r-win", "5", "--step", "10", "--n-blocks", "2",
                 "--channel-step", "4", "--embed-dim", embed_dim,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_codec_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Each run is its own process, so the BLAS library reads its thread
    # count at start-up.
    frames = np.random.default_rng(141).uniform(0.0, 1.0, size=(60, 24, 20))
    np.save(tmp_path / "v.npy", frames)
    src = str(Path(spikekit.__file__).parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = tmp_path / f"t{threads}"
        run.mkdir()
        for argv in (["encode", str(tmp_path / "v.npy"), str(run / "o.dat"),
                      "--noise", "0.05", "--seed", "3"],
                     ["decode", str(run / "o.dat"), "--out",
                      str(run / "x.npy")]):
            subprocess.run([sys.executable, "-m", "spikekit.cli", *argv],
                           env=env, check=True, capture_output=True,
                           timeout=120)
        digests.append([sha256(run / name)
                        for name in ("o.dat", "o.meta.json", "x.npy")])
    assert digests[0] == digests[1]
    assert np.load(tmp_path / "t1" / "x.npy").any()


def test_pipeline_command_runs_all_stages(tmp_path):
    config = {"seed": 3, "classes": ["wave", "throw"], "clips_per_class": 2,
              "test_per_class": 1, "frames": 100, "r_win": 10, "step": 20,
              "n_blocks": 4, "channel_step": 8, "shots": [1],
              "eval_seeds": [0], "epochs": 5, "topk": [1, 2]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out_dir = tmp_path / "run"
    assert main(["pipeline", "--config", str(config_path),
                 "--out", str(out_dir)]) == 0
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert "1" in metrics["shots"]
    assert (out_dir / "ledger.json").exists()
    assert (out_dir / "embeddings_test.json").exists()
    prov = metrics["provenance"]
    assert prov["seed"] == 3 and "toolkit_version" in prov


def test_pipeline_featurizes_upsampled_streams(tmp_path):
    config = {"seed": 3, "classes": ["wave", "throw"], "clips_per_class": 2,
              "test_per_class": 1, "frames": 50, "upsample": 2, "r_win": 10,
              "step": 20, "n_blocks": 4, "channel_step": 8, "shots": [1],
              "eval_seeds": [0], "epochs": 5, "run_snn": False}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out_dir = tmp_path / "run"
    assert main(["pipeline", "--config", str(config_path),
                 "--out", str(out_dir)]) == 0
    assert read_meta(str(out_dir / "spikes" / "wave_000.meta.json")).t_len \
        == 99
    assert (out_dir / "metrics.json").exists()


def test_pipeline_runs_on_frames_not_a_multiple_of_32(tmp_path):
    # 80 px frames make a 3x3 token grid, not the 2x2 of 80 // 32.
    config = {"seed": 3, "classes": ["wave", "throw"], "clips_per_class": 2,
              "test_per_class": 1, "frames": 100, "height": 80, "width": 80,
              "r_win": 10, "step": 20, "n_blocks": 4, "channel_step": 8,
              "shots": [1], "eval_seeds": [0], "epochs": 2, "run_snn": False}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out_dir = tmp_path / "run"
    assert main(["pipeline", "--config", str(config_path),
                 "--out", str(out_dir)]) == 0
    assert read_meta(str(out_dir / "spikes" / "wave_000.meta.json")).height \
        == 80
    assert (out_dir / "metrics.json").exists()


def test_pipeline_config_validation(tmp_path):
    bad = {"seed": 1, "clips_per_class": 4, "test_per_class": 4}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["pipeline", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == 2

    unknown = {"seed": 1, "wibble": 2}
    path.write_text(json.dumps(unknown))
    assert main(["pipeline", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == 2

    path.write_text(json.dumps({"clips_per_class": 4}))
    assert main(["pipeline", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == 2

    # Streams too short for the blocks (counting the upsampling), a branch
    # left without channels, a negative window radius, a repeated class,
    # and values the encoder, the spiking stage or the seeding reject all
    # fail before the first stage writes anything.
    for fields in ({"frames": 200}, {"frames": 120, "upsample": 2},
                   {"channel_step": 40}, {"r_win": -1}, {"theta": 0},
                   {"snn_channels": 0}, {"timesteps": 300}, {"topk": [5]},
                   {"eval_seeds": [-1]}, {"embed_dim": 0},
                   {"embed_dim": -8}, {"classes": ["wave", "wave"]}):
        path.write_text(json.dumps({"seed": 1, **fields}))
        assert main(["pipeline", "--config", str(path),
                     "--out", str(tmp_path / "x")]) == 2, fields
        assert not (tmp_path / "x").exists(), fields


def test_pipeline_config_lr_nan_exits_2(tmp_path, capsys):
    config = {"seed": 3, "classes": ["wave", "throw"], "clips_per_class": 2,
              "test_per_class": 1, "frames": 50, "r_win": 10, "step": 10,
              "n_blocks": 2, "channel_step": 8, "shots": [1],
              "eval_seeds": [0], "epochs": 5, "lr": float("nan"),
              "run_snn": False}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["pipeline", "--config", str(path),
                 "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run" / "head_s1_seed0.json").exists()


def test_a_run_larger_than_any_address_space_exits_2(tmp_path, capsys):
    # 10^13 frames make a 4.55 PiB packed body: more than any x86-64 or
    # arm64 user address space, so no host can give it. The first clip
    # asks for it before anything is written, so the run leaves no --out.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 0, "frames": 10 ** 13}))
    capsys.readouterr()
    assert main(["pipeline", "--config", str(path),
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("config", [
    {"seed": 1, "shots": 4},
    {"seed": 1, "classes": "wave"},
    {"seed": 1, "eval_seeds": 0},
    {"seed": 1, "topk": None},
    {"seed": 1, "shots": []},
    [1],
    {"seed": 1, "lr": "0.05"},
    {"seed": 1, "epochs": 2.5},
    {"seed": 1, "timesteps": 0},
    {"seed": 1, "lr": float("nan")},
    {"seed": 1, "run_snn": 1},
], ids=["shots-int", "classes-str", "eval-seeds-int", "topk-null",
        "shots-empty", "config-list", "lr-str", "epochs-float",
        "timesteps-0", "lr-nan", "run-snn-int"])
def test_pipeline_config_bad_field_type_exits_2(config, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["pipeline", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x").exists()


def test_pipeline_dat_bytes_equal_synth_then_encode(tmp_path):
    # The pipeline encodes its clips in memory; the file route through
    # PGM frames must give the same bytes, noise and upsampling included.
    config = {"seed": 5, "classes": ["wave", "throw"], "clips_per_class": 2,
              "test_per_class": 1, "frames": 50, "upsample": 2,
              "noise_amplitude": 0.3, "r_win": 10, "step": 20, "n_blocks": 4,
              "channel_step": 8, "shots": [1], "eval_seeds": [0],
              "epochs": 2, "run_snn": False}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    run = tmp_path / "run"
    assert main(["pipeline", "--config", str(config_path),
                 "--out", str(run)]) == 0
    assert main(["synth", "--out", str(tmp_path / "synth"), "--classes",
                 "wave,throw", "--clips-per-class", "2", "--frames", "50",
                 "--seed", "5"]) == 0
    synth_manifest = json.loads((tmp_path / "synth/manifest.json").read_text())
    assert len(synth_manifest["clips"]) == 4
    for clip in synth_manifest["clips"]:
        # Each clip's noise seed, by the rule the README states.
        name, label = clip["name"], clip["label"]
        index = int(name.rsplit("_", 1)[1])
        seed = np.random.default_rng([5, 5, label, index]).integers(2 ** 31)
        dat = tmp_path / "enc" / f"{name}.dat"
        dat.parent.mkdir(exist_ok=True)
        assert main(["encode", str(tmp_path / "synth/clips" / name), str(dat),
                     "--noise", "0.3", "--seed", str(seed),
                     "--upsample", "2"]) == 0
        for suffix in (".dat", ".meta.json"):
            assert ((tmp_path / "enc" / f"{name}{suffix}").read_bytes()
                    == (run / "spikes" / f"{name}{suffix}").read_bytes()), name

    # The pipeline's dataset/ holds no frames, and its manifest is the
    # synth manifest without the clip paths.
    assert sorted(p.name for p in (run / "dataset").iterdir()) == [
        "manifest.json", "prompts.txt"]
    for clip in synth_manifest["clips"]:
        del clip["path"]
    assert json.loads((run / "dataset/manifest.json").read_text()) \
        == synth_manifest
    assert ((run / "dataset/prompts.txt").read_bytes()
            == (tmp_path / "synth/prompts.txt").read_bytes())


def test_pipeline_clips_get_their_own_noise_seeds(tmp_path, monkeypatch):
    # Record the seed each clip is encoded with, then stop the run where
    # the dataset index is written, after the last clip.
    from spikekit import pipeline

    class StopAfterEncode(Exception):
        pass

    def stop(*args):
        raise StopAfterEncode

    seeds = []
    encode = pipeline.encode_frames

    def recording_encode(frames, shape, cfg, seed):
        seeds.append(seed)
        return encode(frames, shape, cfg, seed=seed)

    monkeypatch.setattr(pipeline, "encode_frames", recording_encode)
    monkeypatch.setattr(pipeline, "write_dataset_index", stop)
    config = pipeline.PipelineConfig(
        seed=3, classes=("wave", "throw"), clips_per_class=3,
        test_per_class=1, frames=50, upsample=2, noise_amplitude=0.2,
        r_win=10, step=20, n_blocks=4, channel_step=8, shots=(1,))
    with pytest.raises(StopAfterEncode):
        pipeline.run_pipeline(config, tmp_path)
    assert seeds == [int(np.random.default_rng([3, 5, label, index])
                         .integers(2 ** 31))
                     for label in range(2) for index in range(3)]
    assert len(set(seeds)) == 6


def _weight_archive(tmp_path, command):
    """A seeded archive saved by ``command`` and the argv that loads it."""
    from spikekit.stream import SpikeStream, write_dat
    rng = np.random.default_rng(146)
    stream = SpikeStream(rng.integers(0, 2, size=(100, 64, 64),
                                      dtype=np.uint8))
    dat = tmp_path / "s.dat"
    write_dat(stream, StreamMeta.for_stream(stream), dat)
    if command == "featurize":
        argv = ["featurize", str(dat), "--r-win", "10", "--step", "20",
                "--n-blocks", "4", "--channel-step", "8",
                "--out", str(tmp_path / "e.json")]
    else:
        argv = ["snn-forward", str(dat), "--channels", "4",
                "--ledger", str(tmp_path / "ledger.json")]
    assert main(argv + ["--seed", "0",
                        "--save-weights", str(tmp_path / "w")]) == 0
    return argv + ["--weights", str(tmp_path / "w")]


@pytest.mark.parametrize("command,name", [
    ("featurize", "hsfe.branch1.mask"),
    ("featurize", "hsfe.branch1.conv.w"),
    ("snn-forward", "fsve.sdsa.q.w"),
    ("snn-forward", "fsve.stem1.conv.w"),
])
@pytest.mark.parametrize("damage", ["intact", "missing", "reshaped",
                                    "extra"])
def test_weight_archive_must_fit_the_model(command, name, damage, tmp_path,
                                           capsys):
    argv = _weight_archive(tmp_path, command)
    manifest_path = tmp_path / "w" / "manifest.json"
    records = json.loads(manifest_path.read_text())
    record = next(r for r in records if r["name"] == name)
    if damage == "missing":
        records.remove(record)
    elif damage == "reshaped":
        record["shape"] = [int(np.prod(record["shape"]))] \
            if len(record["shape"]) > 1 else [1, record["shape"][0]]
    elif damage == "extra":
        records.append({**record, "name": "extra.w"})
        (tmp_path / "w" / "extra.w.bin").write_bytes(
            (tmp_path / "w" / f"{name}.bin").read_bytes())
    manifest_path.write_text(json.dumps(records))
    capsys.readouterr()
    assert main(argv) == (0 if damage == "intact" else 3)
    if damage != "intact":
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert ("extra.w" if damage == "extra" else name) in err


@pytest.mark.parametrize("command", ["featurize", "snn-forward"])
def test_weights_and_seed_are_one_choice(command, tmp_path, capsys):
    # An archive and a seed cannot both decide the weights of one run.
    argv = _weight_archive(tmp_path, command)
    for out in ("e.json", "ledger.json"):
        (tmp_path / out).unlink(missing_ok=True)
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--seed", "7", "--save-weights", str(tmp_path / "w2")])
    assert exit_info.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "s.dat", "s.meta.json", "w"]


@pytest.mark.parametrize("command", ["featurize", "snn-forward"])
def test_save_weights_writes_the_weights_that_ran(command, tmp_path):
    # A loaded archive saved again is the same archive, byte for byte.
    argv = _weight_archive(tmp_path, command)
    assert main(argv + ["--save-weights", str(tmp_path / "w2")]) == 0
    names = sorted(p.name for p in (tmp_path / "w").iterdir())
    assert sorted(p.name for p in (tmp_path / "w2").iterdir()) == names
    assert [name for name in names
            if (tmp_path / "w" / name).read_bytes()
            != (tmp_path / "w2" / name).read_bytes()] == []


def test_snn_forward_channels_only_size_seeded_weights(tmp_path):
    # With an archive, --channels is not read, not even to check it.
    argv = _weight_archive(tmp_path, "snn-forward")
    seeded = (tmp_path / "ledger.json").read_bytes()
    for channels in ("0", "-3"):
        assert main(argv + ["--channels", channels]) == 0
        assert (tmp_path / "ledger.json").read_bytes() == seeded
    assert main(argv[:-2] + ["--seed", "0", "--channels", "0"]) == 2


def test_featurize_sizes_no_weights_before_its_stream_is_read(
        tmp_path, monkeypatch, capsys):
    # A 640x640 sidecar beside a 32-byte .dat: the stream does not load,
    # and no weight set is built at the size the sidecar claims.
    (tmp_path / "s.dat").write_bytes(bytes(32))
    (tmp_path / "s.meta.json").write_text(json.dumps(
        StreamMeta(t_len=40, height=640, width=640).to_json_dict()))
    sizes = []
    monkeypatch.setattr(cli, "build_feature_weights",
                        lambda *args: sizes.append(args[3]))
    capsys.readouterr()
    assert main(["featurize", str(tmp_path / "s.dat"), "--seed", "0",
                 "--out", str(tmp_path / "e.json")]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert sizes == []


def test_snn_forward_sizes_its_fit_check_by_a_backed_blob(
        tmp_path, monkeypatch, capsys):
    # An archive of one (2000, 1, 3, 3) stem, 72 KB, would size a seeded
    # set of 22 * 2000**2 doubles (704 MB) if its width were taken from
    # that stem; stem2's (c, c, 3, 3) blob alone decides it.
    argv = _weight_archive(tmp_path, "snn-forward")
    widths = []
    init = cli.init_fsve_weights

    def recorded(channels, seed):
        widths.append(channels)
        return init(channels, seed)

    monkeypatch.setattr(cli, "init_fsve_weights", recorded)
    assert main(argv) == 0
    assert widths == [4]
    shutil.rmtree(tmp_path / "w")
    save_weights({"fsve.stem1.conv.w": np.zeros((2000, 1, 3, 3))},
                 tmp_path / "w")
    widths.clear()
    capsys.readouterr()
    assert main(argv) == 3
    assert "fsve.stem1.conv.w" in capsys.readouterr().err
    assert widths == [1]


@pytest.mark.parametrize("command,name,value", [
    ("featurize", "star.attnpool.out.w", np.nan),
    ("snn-forward", "fsve.sdsa.out.w", np.inf),
])
def test_non_finite_weights_exit_3(command, name, value, tmp_path, capsys):
    argv = _weight_archive(tmp_path, command)
    blob = tmp_path / "w" / f"{name}.bin"
    values = np.fromfile(blob, dtype="<f4")
    values[1] = value
    values.tofile(blob)
    capsys.readouterr()
    assert main(argv) == 3
    assert f"{name}.bin" in capsys.readouterr().err


def test_featurize_directory_with_manifest(tmp_path):
    # Two short random streams featurized in one call.
    from spikekit.stream import SpikeStream, write_dat
    rng = np.random.default_rng(143)
    spikes_dir = tmp_path / "spikes"
    spikes_dir.mkdir()
    for i in range(2):
        s = SpikeStream(rng.integers(0, 2, size=(250, 64, 64),
                                     dtype=np.uint8))
        write_dat(s, StreamMeta.for_stream(s),
                  spikes_dir / f"wave_{i:03d}.dat")
    manifest = {"clips": [{"name": f"wave_{i:03d}", "label": 1}
                          for i in range(2)]}
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))

    out = tmp_path / "emb.json"
    assert main(["featurize", str(spikes_dir), "--seed", "9",
                 "--manifest", str(manifest_path), "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert len(obj["embeddings"]) == 2
    assert all(e["label"] == 1 for e in obj["embeddings"])
    assert len(obj["embeddings"][0]["vector"]) == 64


def test_encode_raw_video_matches_npy(tmp_path):
    # Multiples of 1/256 are exact in float32, so the raw file carries
    # the same intensities as the float64 .npy tensor.
    rng = np.random.default_rng(144)
    frames = rng.integers(0, 257, size=(30, 8, 8)) / 256.0
    write_video_raw(IntensityVideo(frames), tmp_path / "v.raw")
    np.save(tmp_path / "v.npy", frames)
    for name in ("v.raw", "v.npy"):
        assert main(["encode", str(tmp_path / name),
                     str(tmp_path / f"{name[2:]}.dat"), "--theta", "2.0"]) == 0
    raw_dat = (tmp_path / "raw.dat").read_bytes()
    assert raw_dat == (tmp_path / "npy.dat").read_bytes()
    assert any(raw_dat)
    assert ((tmp_path / "raw.meta.json").read_bytes()
            == (tmp_path / "npy.meta.json").read_bytes())


def _malformed_ledger(tmp_path, encoded_dat):
    return tmp_path / "ledger.json", ["energy", "--snn",
                                      str(tmp_path / "ledger.json")]


def _malformed_raw_sidecar(tmp_path, encoded_dat):
    raw = tmp_path / "v.raw"
    np.zeros(3 * 8 * 8, dtype="<f4").tofile(raw)
    return tmp_path / "v.raw.meta.json", ["encode", str(raw),
                                          str(tmp_path / "v.dat")]


def _malformed_stream_sidecar(tmp_path, encoded_dat):
    return tmp_path / "bad.meta.json", [
        "decode", str(encoded_dat), "--meta", str(tmp_path / "bad.meta.json"),
        "--out", str(tmp_path / "x.npy")]


def _malformed_manifest(tmp_path, encoded_dat):
    (tmp_path / "w").mkdir()
    return tmp_path / "w" / "manifest.json", [
        "snn-forward", str(encoded_dat), "--weights", str(tmp_path / "w"),
        "--ledger", str(tmp_path / "ledger.json")]


def _malformed_embeddings_train(tmp_path, encoded_dat):
    (tmp_path / "p.txt").write_text("a person waving one hand\n")
    return tmp_path / "e.json", [
        "train-head", str(tmp_path / "e.json"), str(tmp_path / "p.txt"),
        "--shots", "1", "--seed", "0", "--epochs", "2",
        "--out", str(tmp_path / "h.json")]


def _malformed_embeddings_eval(tmp_path, encoded_dat):
    (tmp_path / "h.json").write_text(
        '{"head": %s, "prompts": ["a"]}' % _HEAD)
    return tmp_path / "e.json", ["eval", str(tmp_path / "h.json"),
                                 str(tmp_path / "e.json")]


_BAD_EMBEDDINGS = [
    ('{"a": 1}', "no-embeddings-key"),
    ('[1]', "entry-number"),
    ('[{"id": "a", "label": 0}]', "vector-missing"),
    ('[{"id": "a", "label": 0, "vector": 1.0}]', "vector-number"),
    ('[{"id": "a", "label": 0, "vector": [1.0]}, '
     '{"id": "b", "label": 0, "vector": [1.0, 2.0]}]', "vector-ragged"),
    ('[{"id": "a", "label": 0, "vector": ["x"]}]', "vector-string"),
    ('[{"id": "a", "label": 0, "vector": [[1.0]]}]', "vector-nested"),
    ('[{"id": "a", "label": "x", "vector": [1.0]}]', "label-string"),
    ('[{"id": "a", "label": 0.5, "vector": [1.0]}]', "label-float"),
    ('[{"id": "a", "label": 0, "vector": [NaN]}]', "nan"),
    ('[{"id": "a", "label": 0, "vector": [Infinity]}]', "infinity"),
    ('[{"id": "a", "label": 0, "vector": [1%s]}]' % ("0" * 400), "huge-int"),
    ('[{"id": "a", "label": 1%s, "vector": [1.0]}]' % ("0" * 400),
     "huge-int-label"),
]


def _malformed_head(tmp_path, encoded_dat):
    emb = tmp_path / "e.json"
    emb.write_text(json.dumps([{"id": "a", "label": 0, "vector": [1.0]}]))
    return tmp_path / "head.json", ["eval", str(tmp_path / "head.json"),
                                    str(emb)]


_HEAD = '{"projection": [[1.0]], "bias": [0.0], "log_inv_tau": 0.0}'
# Values that float() or np.array would coerce into a number.
_HEAD_COERCIONS = [
    ('"log_inv_tau": 0.0', '"log_inv_tau": "2.5"', "tau-numeric-string"),
    ('"log_inv_tau": 0.0', '"log_inv_tau": true', "tau-bool"),
    ('[[1.0]]', '[["1.5"]]', "projection-numeric-string"),
    ('[[1.0]]', '[[true]]', "projection-bool"),
    ('[0.0]', '["0"]', "bias-numeric-string"),
    ('[0.0]', '[true]', "bias-bool"),
]


def _malformed_featurize_manifest(tmp_path, encoded_dat):
    return tmp_path / "manifest.json", [
        "featurize", str(encoded_dat), "--seed", "0",
        "--manifest", str(tmp_path / "manifest.json"),
        "--out", str(tmp_path / "e.json")]


def _malformed_prompts(tmp_path, encoded_dat):
    (tmp_path / "e.json").write_text(
        json.dumps([{"id": "a", "label": 0, "vector": [1.0]}]))
    return tmp_path / "p.txt", [
        "train-head", str(tmp_path / "e.json"), str(tmp_path / "p.txt"),
        "--shots", "1", "--seed", "0", "--epochs", "2",
        "--out", str(tmp_path / "h.json")]


def _malformed_pgm_frame(tmp_path, encoded_dat):
    (tmp_path / "frames").mkdir()
    return tmp_path / "frames" / "frame_00000.pgm", [
        "encode", str(tmp_path / "frames"), str(tmp_path / "v.dat")]


def _npy_bytes(arr, save=np.save):
    buf = io.BytesIO()
    save(buf, arr)
    return buf.getvalue()


def _malformed_saved_manifest(tmp_path, encoded_dat):
    argv = ["snn-forward", str(encoded_dat), "--ledger",
            str(tmp_path / "ledger.json")]
    assert main(argv + ["--seed", "0",
                        "--save-weights", str(tmp_path / "w")]) == 0
    return tmp_path / "w" / "manifest.json", argv + [
        "--weights", str(tmp_path / "w")]


def _malformed_npy(tmp_path, encoded_dat):
    return tmp_path / "v.npy", ["encode", str(tmp_path / "v.npy"),
                                str(tmp_path / "v.dat")]


@pytest.mark.parametrize("setup,text", [
    pytest.param(_malformed_ledger, '[{"layer_name": "a"}]',
                 id="ledger-missing-field"),
    pytest.param(_malformed_ledger, '{"a": 1}', id="ledger-object"),
    pytest.param(_malformed_ledger, '[1]', id="ledger-number-record"),
    pytest.param(_malformed_ledger,
                 '[{"layer_name": "a", "spike_count": null, "fan_out": 1, '
                 '"actual_sops": 0, "neuron_ops": 0}]', id="ledger-null-count"),
    pytest.param(_malformed_ledger,
                 '[{"layer_name": "a", "spike_count": 0, "fan_out": 1, '
                 '"actual_sops": 0, "neuron_ops": 0}]', id="ledger-no-max-sops"),
    pytest.param(_malformed_ledger, '{not json', id="ledger-not-json"),
    # Nesting deeper than the JSON decoder recurses.
    pytest.param(_malformed_ledger, "[" * 200000 + "]" * 200000,
                 id="ledger-nested-lists"),
    pytest.param(_malformed_ledger, '{"a": ' * 50000 + "1" + "}" * 50000,
                 id="ledger-nested-objects"),
    pytest.param(_malformed_raw_sidecar, '{not json', id="sidecar-not-json"),
    pytest.param(_malformed_raw_sidecar, '{"t_len": 3}',
                 id="sidecar-missing-field"),
    pytest.param(_malformed_raw_sidecar, '[3, 8, 8]', id="sidecar-list"),
    pytest.param(_malformed_raw_sidecar,
                 '{"t_len": "x", "height": 8, "width": 8}',
                 id="sidecar-bad-value"),
    pytest.param(_malformed_raw_sidecar,
                 '{"t_len": 3, "height": 8, "width": 8, "dtype": "f64"}',
                 id="sidecar-bad-dtype"),
    pytest.param(_malformed_stream_sidecar, '[8, 8, 40]',
                 id="stream-sidecar-list"),
    pytest.param(_malformed_stream_sidecar,
                 '{"height": "x", "width": 8, "t_len": 40}',
                 id="stream-sidecar-bad-value"),
    pytest.param(_malformed_manifest,
                 '[{"dtype": "f32", "shape": [8, 1, 3, 3]}]',
                 id="manifest-missing-name"),
    pytest.param(_malformed_manifest, '{"name": "fsve.stem1.conv.w"}',
                 id="manifest-object"),
    pytest.param(_malformed_manifest,
                 '[{"name": 5, "dtype": "f32", "shape": [1]}]',
                 id="manifest-name-number"),
    pytest.param(_malformed_manifest,
                 '[{"name": null, "dtype": "f32", "shape": [1]}]',
                 id="manifest-name-null"),
    pytest.param(_malformed_manifest, '["fsve.stem1.conv.w"]',
                 id="manifest-string-record"),
    pytest.param(_malformed_head, '{"prompts": ["a"]}',
                 id="head-missing-head"),
    pytest.param(_malformed_head, '{"head": %s}' % _HEAD,
                 id="head-missing-prompts"),
    pytest.param(_malformed_head, '[%s]' % _HEAD, id="head-list"),
    pytest.param(_malformed_head, '{"head": [1], "prompts": ["a"]}',
                 id="head-head-list"),
    pytest.param(_malformed_head, '{"head": %s, "prompts": "a"}' % _HEAD,
                 id="head-prompts-string"),
    pytest.param(_malformed_head,
                 '{"head": {"projection": [[1.0]], "bias": [0.0], '
                 '"log_inv_tau": "x"}, "prompts": ["a"]}',
                 id="head-tau-string"),
    pytest.param(_malformed_head,
                 '{"head": {"projection": [[1.0]], "bias": [0.0], '
                 '"log_inv_tau": null}, "prompts": ["a"]}',
                 id="head-tau-null"),
    pytest.param(_malformed_head,
                 '{"head": {"projection": "x", "bias": [0.0], '
                 '"log_inv_tau": 0.0}, "prompts": ["a"]}',
                 id="head-projection-string"),
    pytest.param(_malformed_head,
                 '{"head": {"projection": [[1.0], [1.0, 2.0]], "bias": [0.0], '
                 '"log_inv_tau": 0.0}, "prompts": ["a"]}',
                 id="head-projection-ragged"),
] + [pytest.param(_malformed_head, '{"head": %s, "prompts": ["a"]}'
                  % _HEAD.replace(field, value), id=f"head-{name}")
       for field, value, name in _HEAD_COERCIONS] + [
    pytest.param(_malformed_featurize_manifest, '{"a": 1}',
                 id="featurize-manifest-no-clips"),
    pytest.param(_malformed_featurize_manifest, '[1]',
                 id="featurize-manifest-list"),
    pytest.param(_malformed_featurize_manifest, '{"clips": 1}',
                 id="featurize-manifest-clips-number"),
    pytest.param(_malformed_featurize_manifest, '{"clips": [1]}',
                 id="featurize-manifest-clip-number"),
    pytest.param(_malformed_featurize_manifest, '{"clips": [{"label": 0}]}',
                 id="featurize-manifest-clip-no-name"),
    pytest.param(_malformed_featurize_manifest, '{"clips": [{"name": "x"}]}',
                 id="featurize-manifest-clip-no-label"),
    pytest.param(_malformed_featurize_manifest,
                 '{"clips": [{"name": "x", "label": "0"}]}',
                 id="featurize-manifest-clip-label-string"),
    pytest.param(_malformed_stream_sidecar, b'{"height": 8\xff}',
                 id="stream-sidecar-not-utf8"),
    pytest.param(_malformed_embeddings_train, b'[\xff]',
                 id="embeddings-not-utf8-train-head"),
    pytest.param(_malformed_prompts, b'a person \xff waving\n',
                 id="prompts-not-utf8"),
    pytest.param(_malformed_pgm_frame, "P5\nx 8\n255\n" + "\0" * 64,
                 id="pgm-width-not-a-number"),
    pytest.param(_malformed_pgm_frame, "P5\n-8 8\n255\n" + "\0" * 64,
                 id="pgm-negative-width"),
    pytest.param(_malformed_npy, "not an npy file", id="npy-not-npy"),
    pytest.param(_malformed_npy, _npy_bytes(np.array(["a", "b"])),
                 id="npy-strings"),
    pytest.param(_malformed_npy, "", id="npy-empty"),
    pytest.param(_malformed_npy, _npy_bytes(np.zeros((3, 8, 8)), np.savez),
                 id="npy-holds-npz"),
    pytest.param(_malformed_saved_manifest,
                 '[{"name": "fsve.stem1.conv.w", "dtype": "f32", '
                 '"shape": ["8", 1, 3, 3]}]', id="manifest-shape-strings"),
    pytest.param(_malformed_saved_manifest,
                 '[{"name": "fsve.stem1.conv.w", "dtype": "f32", '
                 '"shape": "8133"}]', id="manifest-shape-string"),
] + [pytest.param(setup, text, id=f"embeddings-{name}-{command}")
     for text, name in _BAD_EMBEDDINGS
     for setup, command in ((_malformed_embeddings_train, "train-head"),
                            (_malformed_embeddings_eval, "eval"))])
def test_malformed_json_artifact_exits_3(setup, text, encoded_dat, tmp_path,
                                         capsys):
    path, argv = setup(tmp_path, encoded_dat)
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")
