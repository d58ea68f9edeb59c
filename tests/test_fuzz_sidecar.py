"""One fault per input in the two JSON sidecars the CLI reads: the stream
sidecar of a `.dat` file, read by `decode`, and the sidecar of a raw
video, read by `encode`. A sidecar that is truncated, lacks a required
field, or holds a value of the wrong type, `1e400` (which `json` reads as
infinity) or `NaN` makes the command exit 2 or 3 with one `error:` line
and write no output file."""

import json

import numpy as np
import pytest

from oracles import run_cli, write_video_raw
from spikekit.camera import IntensityVideo
from spikekit.stream import SpikeStream, StreamMeta, write_dat

STREAM_SIDECAR = {"height": 4, "width": 4, "t_len": 6, "threshold_theta": 5.0}
RAW_SIDECAR = {"t_len": 3, "height": 4, "width": 4, "dtype": "f32"}
# Fields with a default: dropping one is no fault.
OPTIONAL = {"threshold_theta", "dtype"}


def _text(obj: dict, name=None, raw=None) -> str:
    """``obj`` as a sidecar writes it, with field ``name``'s value replaced
    by the JSON text ``raw``."""
    if name is None:
        return json.dumps(obj, indent=2) + "\n"
    return _text({**obj, name: "@"}).replace('"@"', raw)


def _faults(valid: dict):
    text = _text(valid)
    for cut in (0, len(text) // 2, len(text) - 2):
        yield f"truncated-{cut}", text[:cut]
    for name, value in valid.items():
        if name not in OPTIONAL:
            yield f"{name}-dropped", _text(
                {k: v for k, v in valid.items() if k != name})
        wrong = [json.dumps(str(value)), "true", "null",
                 f"[{json.dumps(value)}]"]
        if type(value) is int:
            wrong.append(f"{value}.5")
        for raw in wrong + ["1e400", "-1e400", "NaN"]:
            if raw != json.dumps(value):
                yield f"{name}={raw}", _text(valid, name, raw)


def _decode(tmp_path, sidecar_text):
    meta = StreamMeta(**STREAM_SIDECAR)
    data = np.random.default_rng(0).integers(
        0, 2, (meta.t_len, meta.height, meta.width), dtype=np.uint8)
    write_dat(SpikeStream(data), meta, tmp_path / "s.dat")
    (tmp_path / "s.meta.json").write_text(sidecar_text)
    return (["decode", str(tmp_path / "s.dat"), "--out",
             str(tmp_path / "o.npy")], ["o.npy"])


def _encode_raw(tmp_path, sidecar_text):
    shape = tuple(RAW_SIDECAR[k] for k in ("t_len", "height", "width"))
    write_video_raw(IntensityVideo(np.full(shape, 0.5)), tmp_path / "v.raw")
    (tmp_path / "v.raw.meta.json").write_text(sidecar_text)
    return (["encode", str(tmp_path / "v.raw"), str(tmp_path / "o.dat")],
            ["o.dat", "o.meta.json"])


@pytest.mark.parametrize("command, sidecar_text", [
    pytest.param(command, sidecar_text, id=f"{command.__name__[1:]}-{fault}")
    for command, valid in ((_decode, STREAM_SIDECAR),
                           (_encode_raw, RAW_SIDECAR))
    for fault, sidecar_text in _faults(valid)])
def test_a_damaged_sidecar_exits_2_or_3_and_writes_nothing(
        command, sidecar_text, tmp_path):
    argv, outputs = command(tmp_path, sidecar_text)
    code, err = run_cli(argv)
    assert code in (2, 3)
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert [name for name in outputs if (tmp_path / name).exists()] == []


@pytest.mark.parametrize("command, valid", [(_decode, STREAM_SIDECAR),
                                            (_encode_raw, RAW_SIDECAR)])
def test_the_undamaged_sidecars_are_read(command, valid, tmp_path):
    argv, outputs = command(tmp_path, _text(valid))
    assert run_cli(argv)[0] == 0
    assert all((tmp_path / name).exists() for name in outputs)
