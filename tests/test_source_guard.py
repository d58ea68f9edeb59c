"""Source guards: the JSON artifact format, the shared helpers and the
one conv kernel each live in one module, so hand-copied duplicates cannot
creep back in."""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "spikekit"


def _sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(SRC.glob("*.py"))}


def _functions(predicate) -> list[str]:
    """'<file>:<function>' for every function definition matching predicate."""
    return [f"{name}:{node.name}"
            for name, text in _sources().items()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.FunctionDef) and predicate(node)]


def _writes_pgm_header(fn: ast.FunctionDef) -> bool:
    return any(isinstance(node, ast.Constant) and isinstance(node.value, str)
               and node.value.startswith("P5") for node in ast.walk(fn))


def test_json_dump_and_load_only_in_jsonio():
    users = [name for name, text in _sources().items()
             if re.search(r"\bjson\.(dump|load)", text)]
    assert users == ["jsonio.py"]


def test_require_binary_defined_once():
    assert _functions(lambda fn: fn.name == "_require_binary") == [
        "energy.py:_require_binary"]


def test_one_pgm_writer():
    assert _functions(_writes_pgm_header) == ["videoio.py:write_pgm_frame"]


def test_conv2d_defined_once():
    assert _functions(lambda fn: fn.name == "conv2d") == ["nnops.py:conv2d"]


def test_window_views_only_in_nnops():
    users = [name for name, text in _sources().items()
             if re.search(r"\b(np\.pad|sliding_window_view|as_strided)\b",
                          text)]
    assert users == ["nnops.py"]
