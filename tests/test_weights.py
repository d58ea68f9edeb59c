"""Weight-archive round trips and error handling."""

import json

import numpy as np
import pytest

from spikekit.errors import DataIOError
from spikekit.weights import load_weights, save_weights


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(130)
    weights = {"hsfe.branch0.mask": np.ones(7),
               "hsfe.branch0.conv.w": rng.normal(size=(4, 7, 3, 3)),
               "star.attnpool.out.b": np.zeros(16)}
    save_weights(weights, tmp_path)
    back = load_weights(tmp_path)
    assert set(back) == set(weights)
    for name, arr in weights.items():
        assert back[name].shape == arr.shape
        assert back[name].dtype == np.float64
        # exact through the f32 bottleneck
        np.testing.assert_array_equal(back[name],
                                      arr.astype(np.float32).astype(np.float64))


def test_manifest_lists_sorted_names(tmp_path):
    save_weights({"b": np.zeros(2), "a": np.ones(3)}, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [e["name"] for e in manifest] == ["a", "b"]
    assert manifest[0]["shape"] == [3]
    assert manifest[0]["dtype"] == "f32"


def test_missing_manifest(tmp_path):
    with pytest.raises(DataIOError):
        load_weights(tmp_path)


def test_blob_size_mismatch(tmp_path):
    save_weights({"w": np.zeros((2, 2))}, tmp_path)
    (tmp_path / "w.bin").write_bytes(b"\x00" * 4)   # one f32, expected four
    with pytest.raises(DataIOError):
        load_weights(tmp_path)


@pytest.mark.parametrize("name", ["../outside/w", "/abs"])
def test_a_name_that_is_no_file_name_in_the_archive_is_refused(name,
                                                              tmp_path):
    # ../outside/w.bin and /abs.bin would be read from outside the archive.
    save_weights({"w": np.ones(2)}, tmp_path / "outside")
    (tmp_path / "archive").mkdir()
    manifest = [{"name": name, "dtype": "f32", "shape": [2]}]
    (tmp_path / "archive" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataIOError, match="is not a file name"):
        load_weights(tmp_path / "archive")


def test_unsupported_dtype(tmp_path):
    save_weights({"w": np.zeros(2)}, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest[0]["dtype"] = "f64"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataIOError):
        load_weights(tmp_path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_blob(value, tmp_path):
    save_weights({"a": np.ones(3), "w": np.array([0.5, value, 1.0])},
                 tmp_path)
    with pytest.raises(DataIOError, match="w.bin"):
        load_weights(tmp_path)
