"""The atomic writer replaces a file whole or not at all, and every file
writer goes through it: JSON, ``.dat``, weight blobs, PGM frames,
decoded ``.npy`` and the dataset's ``prompts.txt``. The one JSON
kind rule, ``is_a``, and the one field check every reader uses,
``checked``."""

import argparse
import builtins
import errno
import os

import numpy as np
import pytest

from spikekit.cli import cmd_decode
from spikekit.errors import DataIOError
from spikekit.jsonio import checked, is_a, read_json, write_bytes, write_json
from spikekit.stream import SpikeStream, StreamMeta, write_dat
from spikekit.synth import SyntheticDatasetSpec, write_dataset_index
from spikekit.videoio import write_pgm_frame
from spikekit.weights import save_weights


def test_failed_serialization_keeps_the_old_file(tmp_path):
    path = tmp_path / "a.json"
    write_json({"a": [1, 2]}, path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json({"a": [1, 2], "b": np.float32(1)}, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]
    assert read_json(path) == {"a": [1, 2]}


def test_failed_write_leaves_no_temporary_file(tmp_path):
    target = tmp_path / "dir.json"
    target.mkdir()
    with pytest.raises(DataIOError, match="cannot write"):
        write_json({"a": 1}, target)
    assert [p.name for p in tmp_path.iterdir()] == ["dir.json"]
    assert list(target.iterdir()) == []


class _FullDisk:
    """A file opened for writing whose every write fails, as on a full
    disk; opening it has already created or truncated it."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _full_disk_open(real_open):
    def open_(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FullDisk(fh) if "w" in mode else fh
    return open_


def _write_stream(directory, value):
    stream = SpikeStream(np.full((3, 4, 5), value, dtype=np.uint8))
    write_dat(stream, StreamMeta.for_stream(stream), directory / "s.dat")


def _write_weights(directory, value):
    save_weights({"a": np.full((2, 3), value), "b": np.arange(4.0) * value},
                 directory)


def _decode_to_npy(directory, value):
    # The first call writes the input stream; both decode it to .npy.
    if value:
        _write_stream(directory, value)
    cmd_decode(argparse.Namespace(input=str(directory / "s.dat"), meta=None,
                                  out=str(directory / "s.npy")))


def _write_dataset_index(directory, value):
    write_dataset_index(SyntheticDatasetSpec(seed=value), directory, [])


@pytest.mark.parametrize("write", [
    lambda d, v: write_bytes(bytes([v]) * 7, d / "raw.bin"),
    lambda d, v: write_json({"v": v}, d / "a.json"),
    _write_stream,
    _write_weights,
    lambda d, v: write_pgm_frame(np.full((2, 3), v / 2), d / "f.pgm"),
    _decode_to_npy,
    _write_dataset_index,
], ids=["write_bytes", "write_json", "write_dat", "save_weights",
        "write_pgm_frame", "decode_npy",
        "write_dataset_index"])
def test_failed_write_keeps_the_old_bytes(write, tmp_path, monkeypatch):
    write(tmp_path, 1)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", _full_disk_open(builtins.open))
        with pytest.raises(DataIOError, match="cannot write"):
            write(tmp_path, 0)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("kind,good,bad", [
    ("int", [0, -3, 10 ** 300], [2.5, 2.0, True, "1", None, 10 ** 400]),
    ("float", [0, 2.5, -1e308], [float("nan"), float("inf"), False, "1.5"]),
    ("count", [0, 7], [-1, 1.0, True]),
    ("str", ["", "a"], [1, None, ["a"]]),
    ("dict", [{}, {"a": 1}], [[], "a"]),
    ("list", [[], [1, "a"]], [{}, "a", (1,)]),
    ("[float]", [[], [1, 2.5]], [[1, "2"], [True], [float("nan")], 1.0]),
    ("[[float]]", [[[1.0], [2, 3]], []], [[1.0], [[1.0], ["0"]]]),
])
def test_is_a_kinds(kind, good, bad):
    assert all(is_a(kind, value) for value in good)
    assert not any(is_a(kind, value) for value in bad)


def test_checked_returns_the_named_fields_as_their_kinds():
    kinds = {"n": "int", "x": "float", "tag": "str?"}
    out = checked({"n": 3, "x": 5, "extra": None}, kinds, "thing")
    assert out == {"n": 3, "x": 5.0} and type(out["x"]) is float
    assert checked({"n": 3, "x": 5, "tag": "a"}, kinds, "thing")["tag"] == "a"


@pytest.mark.parametrize("obj,fault", [
    ([1], "must be a JSON object"),
    ({"x": 1.0}, "missing field 'n'"),
    ({"n": 1.5, "x": 1.0}, "'n' must be int, got 1.5"),
    ({"n": 1, "x": 1.0, "tag": None}, "'tag' must be str, got None"),
    ({"n": 1, "x": [[0.5] * 1000]}, "'x' must be float, got [[0.5, 0.5"),
])
def test_checked_names_the_field_and_a_short_value(obj, fault):
    with pytest.raises(DataIOError) as info:
        checked(obj, {"n": "int", "x": "float", "tag": "str?"}, "thing")
    message = str(info.value)
    assert message.startswith("thing ") and fault in message
    assert len(message) < 100
