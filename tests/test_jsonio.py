"""The JSON artifact writer replaces a file whole or not at all."""

import numpy as np
import pytest

from spikekit.errors import DataIOError
from spikekit.jsonio import read_json, write_json


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
