"""The README's library quick start runs as it is printed, so a renamed or
removed name fails the suite rather than the reader."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, f"{README}:quick start", "exec"), namespace)
    assert namespace["embedding"].shape == (64,)
    assert namespace["snn_embedding"].shape == (8,)
    assert namespace["report"]["e_snn_joules"] > 0
