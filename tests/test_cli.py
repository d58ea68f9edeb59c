"""Command-line interface tests: every command end to end, exit codes,
sidecar discovery, and artifact determinism."""

import hashlib
import json

import numpy as np
import pytest

from spikekit.cli import main
from spikekit.stream import StreamMeta, read_dat, read_meta
from spikekit.videoio import read_pgm, write_pgm_clip, write_video_raw
from spikekit.camera import IntensityVideo


def sha256(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.fixture()
def tiny_video_dir(tmp_path):
    rng = np.random.default_rng(140)
    frames = rng.uniform(0.2, 1.0, size=(40, 8, 8))
    clip_dir = tmp_path / "clip"
    write_pgm_clip(IntensityVideo(frames), clip_dir)
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


def test_missing_meta_and_sidecar_exits_2(tmp_path):
    orphan = tmp_path / "orphan.dat"
    orphan.write_bytes(bytes(8))
    assert main(["decode", str(orphan), "--out",
                 str(tmp_path / "y.npy")]) == 2


def test_encode_noise_without_seed_exits_2(tiny_video_dir, tmp_path):
    code = main(["encode", str(tiny_video_dir), str(tmp_path / "n.dat"),
                 "--noise", "0.1"])
    assert code == 2


def test_reconstruct_writes_pgm_frames(encoded_dat, tmp_path):
    out_dir = tmp_path / "recon"
    assert main(["reconstruct", str(encoded_dat), "--stride", "10",
                 "--dtmax", "12", "--out", str(out_dir)]) == 0
    frames = sorted(out_dir.iterdir())
    assert len(frames) == 4
    frame = read_pgm(frames[1])
    assert frame.shape == (8, 8)
    assert frame.min() >= 0.0 and frame.max() <= 1.0


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


@pytest.mark.parametrize("config", [
    {"seed": 1, "shots": 4},
    {"seed": 1, "classes": "wave"},
    {"seed": 1, "eval_seeds": 0},
    {"seed": 1, "topk": None},
    {"seed": 1, "shots": []},
    [1],
], ids=["shots-int", "classes-str", "eval-seeds-int", "topk-null",
        "shots-empty", "config-list"])
def test_pipeline_config_bad_field_type_exits_2(config, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["pipeline", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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


def _malformed_head(tmp_path, encoded_dat):
    emb = tmp_path / "e.json"
    emb.write_text(json.dumps([{"id": "a", "label": 0, "vector": [1.0]}]))
    return tmp_path / "head.json", ["eval", str(tmp_path / "head.json"),
                                    str(emb)]


_HEAD = '{"projection": [[1.0]], "bias": [0.0], "log_inv_tau": 0.0}'


@pytest.mark.parametrize("setup,text", [
    pytest.param(_malformed_ledger, '[{"layer_name": "a"}]',
                 id="ledger-missing-field"),
    pytest.param(_malformed_ledger, '{"a": 1}', id="ledger-object"),
    pytest.param(_malformed_ledger, '[1]', id="ledger-number-record"),
    pytest.param(_malformed_ledger,
                 '[{"layer_name": "a", "spike_count": null, "fan_out": 1, '
                 '"actual_sops": 0, "neuron_ops": 0}]', id="ledger-null-count"),
    pytest.param(_malformed_ledger, '{not json', id="ledger-not-json"),
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
])
def test_malformed_json_artifact_exits_3(setup, text, encoded_dat, tmp_path,
                                         capsys):
    path, argv = setup(tmp_path, encoded_dat)
    path.write_text(text)
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")
