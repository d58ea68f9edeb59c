"""Source guards: the JSON artifact format, the JSON kind check, the file
writer, the shared helpers, the one binary check, the one conv kernel, the
attention core, the SOP count, the loss and gradient, the PGM clip I/O,
TFI and the few-shot stages each live in one place, so hand-copied
duplicates cannot creep back in; and every exported name and public
top-level definition has a caller outside the tests."""

import ast
import pathlib
import re

import pytest

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


def test_one_json_kind_check():
    # jsonio.is_a decides what a JSON int, float, string or list is, and
    # jsonio.checked is the one field check of every artifact reader;
    # PipelineConfig keeps its own loop over is_a.
    assert sorted(_functions(lambda fn: fn.name in ("is_a", "checked"))) == [
        "jsonio.py:checked", "jsonio.py:is_a"]
    assert sorted({name.split(":")[0] for name in _functions(_calls("is_a"))}
                  ) == ["jsonio.py", "pipeline.py"]
    kind_tests = re.compile(r"sys\.float_info\.max|"
                            r"\btype\([^()]*\) (is|in) \(?int\b")
    assert [name for name in ("cli.py", "weights.py", "stream.py",
                              "energy.py", "videoio.py")
            if kind_tests.search(_sources()[name])] == []


def test_is_binary_defined_once():
    assert _functions(lambda fn: fn.name == "is_binary") == [
        "stream.py:is_binary"]


def test_no_isin_binary_checks():
    assert [name for name, text in _sources().items()
            if re.search(r"\bnp\.isin\b", text)] == []


def test_one_pgm_writer():
    assert _functions(_writes_pgm_header) == ["videoio.py:write_pgm_frame"]


def test_conv2d_defined_once():
    assert _functions(lambda fn: fn.name == "conv2d") == ["nnops.py:conv2d"]


def test_window_views_only_in_nnops():
    users = [name for name, text in _sources().items()
             if re.search(r"\b(np\.pad|sliding_window_view|as_strided)\b",
                          text)]
    assert users == ["nnops.py"]


def _calls(callee: str):
    """Predicate: the function calls ``callee``, a dotted name matched
    against the call's ``Attribute`` chain."""
    return lambda fn: any(isinstance(node, ast.Call)
                          and ast.unparse(node.func) == callee
                          for node in ast.walk(fn))


@pytest.mark.parametrize("callee,home,caller", [
    ("AlignmentHead.create", "align.py", "pipeline.py:train_fewshot_head"),
    ("evaluate_topk", "align.py", "pipeline.py:evaluate_head"),
    ("encode_video", "camera.py", "pipeline.py:encode_to_dat"),
    ("finetune_head", "align.py", "pipeline.py:train_fewshot_head"),
])
def test_fewshot_stages_have_one_caller(callee, home, caller):
    outside = [name for name in _functions(_calls(callee))
               if not name.startswith(home + ":")]
    assert outside == [caller]


def test_loss_and_gradient_live_only_in_align():
    assert sorted(_functions(lambda fn: fn.name in (
        "_log_softmax", "_forward_backward"))) == [
        "align.py:_forward_backward", "align.py:_log_softmax"]
    assert _functions(_calls("_forward_backward")) == [
        "align.py:finetune_head"]
    # The backward pass through the unit normalization, and the log-sum-exp.
    users = [name for name, text in _sources().items()
             if re.search(r"d_v_hat|np\.log\(np\.sum\(np\.exp", text)]
    assert users == ["align.py"]


def test_pgm_clips_stay_in_videoio_and_synth():
    # The pipeline renders and encodes clips in memory; PGM clips are
    # written only by `spikekit synth` and read only through load_video,
    # which only `spikekit encode` calls.
    assert _functions(_calls("write_pgm_clip")) == ["synth.py:synth_dataset"]
    assert [name for name in _functions(_calls("read_pgm"))
            + _functions(_calls("read_pgm_clip"))
            if not name.startswith("videoio.py:")] == []
    assert [name for name in _functions(_calls("load_video"))
            if not name.startswith("videoio.py:")] == ["cli.py:cmd_encode"]


def test_run_pipeline_reads_no_stream_back():
    # Each clip is featurized from the stream its encode returned.
    assert [name for name in _functions(_calls("read_dat"))
            if name.startswith("pipeline.py:")] == []


def test_one_attention_core():
    # The q/k/v projection, scaled dot product and softmax of both the
    # attention pool and the temporal encoder are _attend's.
    users = [name for name in _functions(
        lambda fn: any(isinstance(node, ast.Call)
                       and ast.unparse(node.func) in ("softmax", "np.einsum",
                                                      "np.sqrt")
                       for node in ast.walk(fn)))
        if name.startswith("starnet.py:")]
    assert users == ["starnet.py:_attend"]
    assert [name for name in _functions(_calls("_attend"))] == [
        "starnet.py:attention_pool", "starnet.py:temporal_attention"]


def test_backbone_config_has_one_field():
    from dataclasses import fields

    from spikekit.starnet import MiniMapResNetConfig
    assert [f.name for f in fields(MiniMapResNetConfig)] == ["embed_dim"]


def _parameters(qualified: str) -> list[str]:
    """The parameter names of the function '<file>:<name>'."""
    file, name = qualified.split(":")
    fn, = [node for node in ast.walk(ast.parse(_sources()[file]))
           if isinstance(node, ast.FunctionDef) and node.name == name]
    return [arg.arg for arg in fn.args.args + fn.args.kwonlyargs]


def test_forwards_read_their_layout_from_their_weights():
    # The branch layout and the head count live in the weights; BranchSpec
    # and FsveConfig only size weights at init.
    from dataclasses import fields

    from spikekit.snn import FsveConfig
    for fn in ("hsfe.py:mtf_forward", "hsfe.py:hsfe_forward",
               "pipeline.py:featurize_stream"):
        assert "branches" not in _parameters(fn), fn
    for fn in ("starnet.py:_attend", "starnet.py:attention_pool",
               "starnet.py:temporal_attention"):
        assert "heads" not in _parameters(fn), fn
    assert [f.name for f in fields(FsveConfig)] == ["channels"]


@pytest.mark.parametrize("file", ["snn.py", "starnet.py"])
def test_no_batch_axis_or_optional_ledger(file):
    # The spiking and temporal forwards run one sample, [T, ...], and every
    # spiking stage records into the ledger it is given.
    text = _sources()[file]
    assert "ledger is not None" not in text
    assert "EnergyLedger | None" not in text
    names = {node.id if isinstance(node, ast.Name) else node.arg
             for node in ast.walk(ast.parse(text))
             if isinstance(node, (ast.Name, ast.arg))}
    assert [name for name in names if "batch" in name] == []
    assert not re.search(r"\[t, b\b", text)


def _writes_a_file(node: ast.AST) -> bool:
    """An ``open`` in a writing mode, a ``.tofile`` or an ``np.save*``."""
    if not isinstance(node, ast.Call):
        return False
    callee = ast.unparse(node.func)
    if callee == "open":
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
        mode = (node.args[1:2] or modes or [ast.Constant("r")])[0]
        return not (isinstance(mode, ast.Constant)
                    and not set("wax+") & set(mode.value))
    return callee.endswith(".tofile") or callee.startswith("np.save")


def test_files_are_written_only_through_jsonio():
    # jsonio.write_bytes is the one writer: whole or not at all.
    writers = [name for name in _functions(
        lambda fn: any(_writes_a_file(node) for node in ast.walk(fn)))]
    assert writers == ["jsonio.py:write_bytes"]


def _reads_stream_frames(fn: ast.FunctionDef) -> bool:
    """The function indexes ``data``, or takes some ``.data`` for anything
    other than passing it straight to ``_tfi_frames``."""
    passed = {id(arg) for node in ast.walk(fn)
              if isinstance(node, ast.Call)
              and ast.unparse(node.func) == "_tfi_frames"
              for arg in node.args}
    return any((isinstance(node, ast.Attribute) and node.attr == "data"
                and id(node) not in passed)
               or (isinstance(node, ast.Subscript)
                   and ast.unparse(node.value) == "data")
               for node in ast.walk(fn))


def test_one_tfi_implementation():
    # tfi_reconstruct and tfi_video are both the one sweep, _tfi_frames:
    # no per-window argmax scan, and no other function reads the frames.
    assert "argmax" not in _sources()["reconstruct.py"]
    assert _functions(_calls("_tfi_frames")) == [
        "reconstruct.py:tfi_reconstruct", "reconstruct.py:tfi_video"]
    assert [name for name in _functions(_reads_stream_frames)
            if name.startswith("reconstruct.py:")] == [
        "reconstruct.py:_tfi_frames"]


def test_conv_sops_counted_once_per_spiking_stage():
    outside = [name for name in _functions(_calls("count_conv_sops"))
               if not name.startswith("energy.py:")]
    assert outside == ["snn.py:_conv_tdbn"]


def test_every_export_resolves():
    import spikekit
    assert [name for name in spikekit.__all__
            if not hasattr(spikekit, name)] == []


def _references(tree: ast.AST, skip: str = "") -> set[str]:
    """The names a module reads, as bare names or attributes, leaving out
    the body of its own definition of ``skip``."""
    seen, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node.name == skip:
            continue
        if isinstance(node, ast.Name):
            seen.add(node.id)
        elif isinstance(node, ast.Attribute):
            seen.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return seen


def test_every_export_has_traffic():
    # Every public name, exported or defined at the top of a module, is
    # run by a command, the pipeline or the benchmark: code in src/
    # outside its own definition (a re-export in __init__ does not count)
    # or in bench/ reads it.
    import spikekit
    bench = SRC.parents[1] / "bench"
    trees = [ast.parse(text) for name, text in _sources().items()
             if name != "__init__.py"]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    bench_names = set().union(*(_references(ast.parse(path.read_text(
        encoding="utf-8"))) for path in sorted(bench.glob("*.py"))))
    assert [name for name in sorted(defined | set(spikekit.__all__))
            if name not in bench_names
            and not any(name in _references(tree, name)
                        for tree in trees)] == []
