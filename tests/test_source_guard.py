"""Source guards: the JSON artifact format, the JSON kind check, the file
writer, the shared helpers, the one binary check, the one conv kernel, the
attention core, the SOP count, the loss and gradient, the PGM clip I/O,
TFI, the bit packing and the few-shot stages each live in one place, so
hand-copied duplicates cannot creep back in; no helper works a ledger's
dense count out again; every error exits 2 or 3; and every exported name
and public top-level definition has a caller outside the tests."""

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


def test_json_never_writes_nan_or_infinity():
    # NaN and Infinity are not JSON, and the readers refuse them.
    dumps = [node for node in ast.walk(ast.parse(_sources()["jsonio.py"]))
             if isinstance(node, ast.Call)
             and ast.unparse(node.func) == "json.dumps"]
    assert [[ast.unparse(k) for k in node.keywords if k.arg == "allow_nan"]
            for node in dumps] == [["allow_nan=False"]]


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


def test_bit_packing_only_in_stream():
    # The packed layout of a SpikeStream is known to stream.py alone.
    users = [name for name, text in _sources().items()
             if re.search(r"\bnp\.(un)?packbits\b", text)]
    assert users == ["stream.py"]


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
    ("encode_frames", "camera.py", "pipeline.py:encode_to_dat"),
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


def test_hsfe_branch_stage_has_no_per_frame_helpers():
    # HSFE averages each branch with hsfe._window_mean and slices it inline;
    # the per-frame average and the slice helper live on only as the
    # test oracle.
    assert _functions(lambda fn: fn.name in ("moving_average_same",
                                             "_branch_slice")) == []
    assert _functions(lambda fn: fn.name == "_window_mean") == [
        "hsfe.py:_window_mean"]


def test_a_stream_holds_one_bit_layout():
    # A SpikeStream holds the .dat body, so nothing converts between it
    # and rows of one frame each.
    assert _functions(lambda fn: fn.name in ("_whole_bytes", "_read_rows",
                                             "_of_rows")) == []


def test_the_clamp_is_a_constant():
    # 1/tau is clipped at align.INV_TAU_MAX, as in CLIP; a head holds only
    # log(1/tau), with no temperature object or clamp of its own.
    assert [name for name, text in _sources().items()
            if re.search(r"\bTemperature\b|\bclamp_max\b", text)] == []


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


# bench/spantrace.py reads these arguments of the calls it traces by
# position, so each parameter stays where it looks.
@pytest.mark.parametrize("fn, param, position", [
    ("nnops.py:conv2d", "x", 0), ("nnops.py:conv2d", "kernel", 1),
    ("nnops.py:conv2d", "stride", 3), ("nnops.py:conv2d", "padding", 4),
    ("stream.py:write_dat", "meta", 1), ("stream.py:read_dat", "meta", 1),
    ("align.py:finetune_head", "shots", 1),
    ("align.py:finetune_head", "epochs", 2),
    ("snn.py:esdsa_forward", "u", 0),
    ("energy.py:energy_report", "snn_ledger", 0),
])
def test_traced_arguments_stay_where_the_tracer_reads_them(fn, param,
                                                           position):
    file, name = fn.split(":")
    node, = [node for node in ast.walk(ast.parse(_sources()[file]))
             if isinstance(node, ast.FunctionDef) and node.name == name]
    positional = [arg.arg for arg in node.args.posonlyargs + node.args.args]
    assert positional.index(param) == position


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
    """The function unpacks frames of a stream, through its range accessor
    ``.unpack`` or its whole ``.data``, or indexes ``data``."""
    return any((isinstance(node, ast.Attribute)
                and node.attr in ("unpack", "data"))
               or (isinstance(node, ast.Subscript)
                   and ast.unparse(node.value) == "data")
               for node in ast.walk(fn))


def test_one_tfi_implementation():
    # tfi_reconstruct and tfi_video both run _tfi_frames, whose forward and
    # backward sweeps are the one loop _nearest: no per-window argmax scan,
    # and no other function reads the frames.
    assert "argmax" not in _sources()["reconstruct.py"]
    assert _functions(_calls("_tfi_frames")) == [
        "reconstruct.py:tfi_reconstruct", "reconstruct.py:tfi_video"]
    assert _functions(_calls("_nearest")) == ["reconstruct.py:_tfi_frames"]
    assert [name for name in _functions(_reads_stream_frames)
            if name.startswith("reconstruct.py:")] == [
        "reconstruct.py:_nearest"]


def test_conv_sops_counted_once_per_spiking_stage():
    outside = [name for name in _functions(_calls("count_conv_sops"))
               if not name.startswith("energy.py:")]
    assert outside == ["snn.py:_conv_tdbn"]


def test_max_sops_read_from_the_arrays_that_ran():
    # Each ledger record's dense baseline is its layer's output size times
    # its fan-in, read where the layer ran; no helper works the shapes out
    # again.
    assert [name for name in _functions(
        lambda fn: fn.name.startswith("dense_") or "macs" in fn.name)
        if name.startswith("energy.py:")] == []


def test_every_error_exits_2_or_3():
    # The CLI exits with the error's code: 2 for a precondition, 3 for a
    # file. A stage that breaks a rule is refused by the function that
    # reads it, so there is no internal-error code.
    import spikekit  # noqa: F401  (defines every module's errors)
    from spikekit.errors import SpikeKitError

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    codes = {cls.__name__: cls.exit_code for cls in subclasses(SpikeKitError)}
    assert codes and set(codes.values()) <= {2, 3}, codes


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


def test_one_encoder_frame_loop():
    # Every encoding runs the one frame loop: the video encoder hands it
    # its frames and the pipeline hands it rendered, loaded or blended
    # frames, each range-checked on the way in. Only the packer groups
    # frames, eight at a time, for the .dat layout.
    assert _functions(lambda fn: fn.name in (
        "encode_chunks", "frame_chunks", "from_chunks", "_fired_chunks")) == []
    assert _functions(_calls("_fired")) == ["camera.py:encode_frames"]
    assert _functions(_calls("encode_frames")) == [
        "camera.py:encode_video", "pipeline.py:encode_to_dat"]
    assert _functions(_calls("SpikeStream.from_frames")) == [
        "camera.py:encode_frames", "stream.py:_take_frames"]
    assert [name for name in _functions(_calls("in_unit_range"))
            if not name.startswith("camera.py:")] == [
        "pipeline.py:encode_to_dat"]


def test_hsfe_writes_each_blocks_maps_once():
    # mtf_forward masks and averages each branch's frames inside one
    # zero-bordered buffer, each branch conv writes into its slice of a
    # second one, and spatial attention's conv reads that one in place:
    # no stacking and no padded copy of the branch inputs or maps.
    tree = ast.parse(_sources()["hsfe.py"])
    called = {ast.unparse(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    assert called & {"np.concatenate", "np.stack", "np.pad", "np.copy",
                     "np.ascontiguousarray", "_padded", "nnops._padded"} \
        == set()
    mtf, = [node for node in tree.body if isinstance(node, ast.FunctionDef)
            and node.name == "mtf_forward"]
    convs = [node for node in ast.walk(mtf) if isinstance(node, ast.Call)
             and ast.unparse(node.func) == "conv2d"]
    assert [[kw.arg for kw in node.keywords if kw.arg == "out"]
            for node in convs] == [["out"]]


def test_align_keeps_no_token_table():
    # text_features keeps each prompt's vector, not the TABLE_SIZE x dim
    # table it was read from: the one module-level value that is not a
    # number is the dict of vectors, and it holds only 1-D arrays.
    from spikekit import align
    from spikekit.synth import CLASS_PROMPTS
    tree = ast.parse(_sources()["align.py"])
    held = [ast.unparse(target) for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and not (isinstance(node.value, ast.Constant)
                     and isinstance(node.value.value, (int, float)))
            for target in getattr(node, "targets", [node.target])]
    assert held == ["_FEATURES"]
    assert _functions(lambda fn: fn.decorator_list
                      and fn.name == "text_features") == []
    for prompt in CLASS_PROMPTS.values():
        align.text_features(prompt, 64)
    assert {vector.shape for vector in align._FEATURES.values()} >= {(64,)}
    assert all(vector.ndim == 1 for vector in align._FEATURES.values())
