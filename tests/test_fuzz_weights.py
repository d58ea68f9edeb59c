"""One fault per input in the weight manifest that `snn-forward --weights`
reads. A manifest that is truncated, lacks a required field, or holds a
value of the wrong type, `1e400` (which `json` reads as infinity),
`-1e400`, `NaN` or `-1` in one field of a record, or in one dimension of
its shape, a name that holds a NUL or a path separator, or a record
that names its tensor again, makes the command exit 2 or 3 with one
`error:` line and write no `--ledger` or `--out` file."""

import json
import shutil

import numpy as np
import pytest

from oracles import run_cli
from spikekit.snn import FsveConfig, init_fsve_weights
from spikekit.stream import SpikeStream, StreamMeta, write_dat
from spikekit.weights import save_weights

# Fields a record may leave out: dropping one is no fault.
OPTIONAL = {"dtype"}


def _records() -> list[dict]:
    """The records of a seeded 4-channel archive, as `save_weights` lists
    them."""
    weights = init_fsve_weights(FsveConfig(channels=4), 0)
    return [{"name": name, "dtype": "f32",
             "shape": list(np.shape(weights[name]))}
            for name in sorted(weights)]


def _text(records: list[dict], first=None, raw=None) -> str:
    """The manifest of ``records`` as `save_weights` writes it, with the
    first record replaced by ``first``, where the value "@" stands for the
    JSON text ``raw``."""
    text = json.dumps([first or records[0]] + records[1:], indent=2) + "\n"
    return text if raw is None else text.replace('"@"', raw, 1)


def _faults(records: list[dict]):
    record = records[0]
    text = _text(records)
    for cut in (0, len(text) // 2, len(text) - 2):
        yield f"truncated-{cut}", text[:cut]
    odd = ["1e400", "-1e400", "NaN", "-1"]
    for name, value in record.items():
        if name not in OPTIONAL:
            yield f"{name}-dropped", _text(
                records, {k: v for k, v in record.items() if k != name})
        wrong = [json.dumps(str(value)), "true", "null",
                 f"[{json.dumps(value)}]", '"f64"']
        for raw in wrong + odd:
            if raw != json.dumps(value):
                yield f"{name}={raw}", _text(records, {**record, name: "@"},
                                             raw)
    # Names that are no file name in the archive: its blobs are read from
    # <name>.bin beside the manifest.
    for fault, name in [("nul", "a\u0000b"), ("backslash", "a\\b"),
                        ("parent", f"../w/{record['name']}"),
                        ("dot", f"./{record['name']}")]:
        yield f"name-{fault}", _text(records, {**record, "name": name})
    yield "first-record-repeated", json.dumps([record, *records], indent=2)
    dim, *rest = record["shape"]
    for raw in [f'"{dim}"', "true", "null", f"[{dim}]", f"{dim}.0",
                f"{dim}.5"] + odd:
        yield f"shape[0]={raw}", _text(
            records, {**record, "shape": ["@", *rest]}, raw)


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """The seeded archive and a 20x8x8 stream beside it."""
    root = tmp_path_factory.mktemp("archive")
    save_weights(init_fsve_weights(FsveConfig(channels=4), 0), root / "w")
    stream = SpikeStream(np.random.default_rng(148).integers(
        0, 2, size=(20, 8, 8), dtype=np.uint8))
    write_dat(stream, StreamMeta.for_stream(stream), root / "s.dat")
    return root


def _snn_forward(archive, tmp_path, manifest_text):
    shutil.copytree(archive / "w", tmp_path / "w")
    (tmp_path / "w" / "manifest.json").write_text(manifest_text)
    return run_cli(["snn-forward", str(archive / "s.dat"),
                    "--weights", str(tmp_path / "w"),
                    "--ledger", str(tmp_path / "ledger.json"),
                    "--out", str(tmp_path / "out.json")])


@pytest.mark.parametrize("manifest_text", [
    pytest.param(text, id=fault) for fault, text in _faults(_records())])
def test_a_damaged_manifest_exits_2_or_3_and_writes_nothing(
        manifest_text, archive, tmp_path):
    code, err = _snn_forward(archive, tmp_path, manifest_text)
    assert code in (2, 3)
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "ledger.json").exists()
    assert not (tmp_path / "out.json").exists()


def test_the_undamaged_manifest_is_read(archive, tmp_path):
    # The faults above damage the very text save_weights wrote.
    text = _text(_records())
    assert (archive / "w" / "manifest.json").read_text() == text
    code, _ = _snn_forward(archive, tmp_path, text)
    assert code == 0
    assert (tmp_path / "ledger.json").exists()
    assert (tmp_path / "out.json").exists()


@pytest.mark.parametrize("shape", [
    [2**32, 2**32],     # 2**64 values, which np.prod wraps round to 0
    [0, 2**63],         # no values, in shapes that numpy refuses
    [0, 2**62, 4],
])
def test_a_shape_over_an_empty_blob_exits_3(shape, archive, tmp_path):
    records = _records()
    first = records[0]["name"]
    shutil.copytree(archive / "w", tmp_path / "w")
    (tmp_path / "w" / f"{first}.bin").write_bytes(b"")
    (tmp_path / "w" / "manifest.json").write_text(
        _text(records, {**records[0], "shape": shape}))
    code, err = run_cli(["snn-forward", str(archive / "s.dat"),
                         "--weights", str(tmp_path / "w"),
                         "--ledger", str(tmp_path / "ledger.json")])
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "ledger.json").exists()
