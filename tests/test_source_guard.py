"""Source guards: properties of src/spikekit, none of which names a
private helper, so a helper can be renamed, split or folded away freely.

- JSON is dumped and loaded only in jsonio, never as NaN or Infinity.
- One JSON kind check, ``is_binary``, ``conv2d`` and PGM header writer;
  bit packing and window views each live in one module.
- No name in ``DELETED_NAMES`` comes back.
- The few-shot stages, the SOP count, the encoder's frame loop and range
  check, and the packer each have one caller outside their module.
- One log-softmax and one backward pass, with one caller, in align.py.
- PGM clips are written by synth.py and read only through ``load_video``;
  the pipeline reads no stream back.
- One function each runs attention, reads TFI's frames and fires spikes,
  and its module's entry points run it.
- HSFE stacks and pads nothing.
- Forwards read their layout from their weights and run one sample into
  the ledger they are given; the configs hold one field each.
- Files are written only by ``jsonio.write_bytes``; no helper works a
  dense SOP count out again.
- The arguments ``bench/spantrace.py`` reads by position stay there.
- Every error exits 2 or 3; every export resolves, and code outside the
  tests uses it."""

import ast
import functools
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "spikekit"

# Names that went and stay gone: HSFE's per-frame average and branch
# slice, a stream's row layouts, the temperature object and its clamp (a
# head holds only log(1/tau)), the chunked encoder, HSFE's and the SOP
# count's own copies of conv2d's padded layout and reach (nnops owns
# both), and the encode step that also wrote the file.
DELETED_NAMES = ("moving_average_same", "_branch_slice", "_whole_bytes",
                 "_read_rows", "_of_rows", "Temperature", "clamp_max",
                 "encode_chunks", "frame_chunks", "from_chunks",
                 "_fired_chunks", "_window_mean", "_bordered_zeros",
                 "_interior", "_reach_counts", "encode_to_dat")


@functools.cache
def _sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(SRC.glob("*.py"))}


@functools.cache
def _trees() -> dict[str, ast.Module]:
    """Each module's syntax tree, parsed once for the whole file."""
    return {name: ast.parse(text) for name, text in _sources().items()}


@functools.cache
def _definitions() -> tuple[tuple[str, ast.FunctionDef], ...]:
    """(file, node) of every function definition, nested ones included."""
    return tuple((name, node) for name, tree in _trees().items()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef))


def _functions(predicate, file: str = "") -> list[str]:
    """'<file>:<function>' of each definition (in ``file``) matching it."""
    return [f"{name}:{node.name}" for name, node in _definitions()
            if file in ("", name) and predicate(node)]


def _files(functions: list[str]) -> list[str]:
    return [name.split(":")[0] for name in functions]


@functools.cache
def _callees(fn: ast.FunctionDef) -> frozenset[str]:
    return frozenset(ast.unparse(node.func) for node in ast.walk(fn)
                     if isinstance(node, ast.Call))


def _calls(*callees: str):
    """Predicate: the function calls one of ``callees``, each matching the
    end of the call's dotted name (so ``energy.count_conv_sops`` too)."""
    return lambda fn: any(called == callee or called.endswith("." + callee)
                          for called in _callees(fn) for callee in callees)


def _one_core(file: str, predicate, entries: tuple[str, ...]) -> None:
    """Exactly one function of ``file`` matches predicate, and each of
    ``entries`` calls it, directly or through other functions of ``file``."""
    core = _functions(predicate, file)
    assert len(core) == 1, core
    defs = {node.name: node for node in _trees()[file].body
            if isinstance(node, ast.FunctionDef)}
    for entry in entries:
        seen, todo = set(), {entry}
        while todo := todo - seen:
            seen |= todo
            todo = set().union(*(_callees(defs[n]) for n in todo if n in defs))
        assert core[0].split(":")[1] in seen, entry


def _writes_pgm_header(fn: ast.FunctionDef) -> bool:
    return any(isinstance(node, ast.Constant) and isinstance(node.value, str)
               and node.value.startswith("P5") for node in ast.walk(fn))


def test_json_dump_and_load_only_in_jsonio():
    users = [name for name, text in _sources().items()
             if re.search(r"\bjson\.(dump|load)", text)]
    assert users == ["jsonio.py"]


def test_json_never_writes_nan_or_infinity():
    # NaN and Infinity are not JSON, and the readers refuse them.
    dumps = [node for node in ast.walk(_trees()["jsonio.py"])
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
    assert sorted(set(_files(_functions(_calls("is_a"))))) == [
        "jsonio.py", "pipeline.py"]
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


def test_one_pgm_writer():
    assert _functions(_writes_pgm_header) == ["videoio.py:write_pgm_frame"]


def test_deleted_names_stay_deleted():
    # No definition, parameter, keyword, import or reference uses one.
    used = [f"{file}:{value}" for file, tree in _trees().items()
            for node in ast.walk(tree)
            for field in ("name", "id", "attr", "arg", "asname")
            if (value := getattr(node, field, None)) in DELETED_NAMES]
    assert used == []


@pytest.mark.parametrize("callee, home", [
    ("AlignmentHead.create", "align.py"),
    ("finetune_head", "align.py"),
    ("evaluate_topk", "align.py"),
    ("count_conv_sops", "energy.py"),
    ("encode_frames", "camera.py"),
    ("in_unit_range", "camera.py"),
    ("SpikeStream.from_frames", "stream.py"),
])
def test_one_caller_outside_its_module(callee, home):
    # Each runs from one place: the few-shot stages, a spiking conv's SOP
    # count, the encoder's frame loop and range check, and the packer.
    outside = [name for name in _functions(_calls(callee))
               if not name.startswith(home + ":")]
    assert len(outside) == 1, outside


def test_loss_and_gradient_live_only_in_align():
    # One log-sum-exp, and one backward pass through the unit normalization
    # (its gradient d_v_hat), which only the fine-tune runs.
    assert _files(_functions(lambda fn: {"np.log", "np.sum", "np.exp"}
                             <= _callees(fn))) == ["align.py"]
    backward = _functions(lambda fn: "d_v_hat" in _references(fn))
    assert _files(backward) == ["align.py"]
    assert len(_functions(_calls(backward[0].split(":")[1]))) == 1


def test_pgm_clips_stay_in_videoio_and_synth():
    # The pipeline renders and encodes clips in memory; PGM clips are
    # written only by `spikekit synth` and read only through load_video,
    # which only `spikekit encode` calls.
    assert _files(_functions(_calls("write_pgm_clip"))) == ["synth.py"]
    assert set(_files(_functions(_calls("read_pgm", "read_pgm_clip")))) \
        <= {"videoio.py"}
    assert [file for file in _files(_functions(_calls("load_video")))
            if file != "videoio.py"] == ["cli.py"]


def test_run_pipeline_reads_no_stream_back():
    # Each clip is featurized from the stream its encode returned.
    assert _functions(_calls("read_dat"), "pipeline.py") == []


def test_one_attention_core():
    # The q/k/v projection, scaled dot product and softmax of both the
    # attention pool and the temporal encoder are one function's.
    _one_core("starnet.py", lambda fn: bool(
        _callees(fn) & {"softmax", "np.einsum", "np.sqrt"}),
        ("attention_pool", "temporal_attention"))


def _reads_stream_frames(fn: ast.FunctionDef) -> bool:
    # It unpacks a stream's frames (``.unpack``, ``.data``) or indexes data.
    return any((isinstance(node, ast.Attribute)
                and node.attr in ("unpack", "data"))
               or (isinstance(node, ast.Subscript)
                   and ast.unparse(node.value) == "data")
               for node in ast.walk(fn))


def test_one_tfi_implementation():
    # Both TFI entry points run the one frame reader, one loop for both
    # sweeps; no other function reads the frames, and none scans by argmax.
    assert "argmax" not in _sources()["reconstruct.py"]
    _one_core("reconstruct.py", _reads_stream_frames,
              ("tfi_reconstruct", "tfi_video"))


def _fires(fn: ast.FunctionDef) -> bool:
    # It reads an encoder config's threshold (not its own, in its check).
    return any(isinstance(node, ast.Attribute) and node.attr == "theta"
               and ast.unparse(node.value) != "self"
               for node in ast.walk(fn))


def test_one_encoder_frame_loop():
    # Every encoding runs the one frame loop: encode_video, and the one
    # caller of encode_frames outside camera.py.
    _one_core("camera.py", _fires, ("encode_video", "encode_frames"))


def test_hsfe_stacks_and_pads_nothing():
    # The convs read their zero-bordered buffers in place. That each map is
    # written once is held by test_conv2d.py's featurize memory bound.
    called = {ast.unparse(node.func) for node in ast.walk(_trees()["hsfe.py"])
              if isinstance(node, ast.Call)}
    assert called & {"np.concatenate", "np.stack", "np.pad", "np.copy",
                     "np.ascontiguousarray", "_padded", "nnops._padded"} \
        == set()


def _parameters(fn: ast.FunctionDef) -> list[str]:
    return [arg.arg for arg in ast.walk(fn.args) if isinstance(arg, ast.arg)]


def _function(qualified: str) -> ast.FunctionDef:
    fn, = [fn for file, fn in _definitions()
           if f"{file}:{fn.name}" == qualified]
    return fn


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
    node = _function(fn)
    positional = [arg.arg for arg in node.args.posonlyargs + node.args.args]
    assert positional.index(param) == position


def test_backbone_config_has_one_field():
    from dataclasses import fields

    from spikekit.starnet import MiniMapResNetConfig
    assert [f.name for f in fields(MiniMapResNetConfig)] == ["embed_dim"]


def test_forwards_read_their_layout_from_their_weights():
    # The branch layout and the head count live in the weights; BranchSpec
    # and FsveConfig only size weights at init.
    from dataclasses import fields

    from spikekit.snn import FsveConfig
    for fn in ("hsfe.py:mtf_forward", "hsfe.py:hsfe_forward",
               "pipeline.py:featurize_stream"):
        assert "branches" not in _parameters(_function(fn)), fn
    assert _functions(lambda fn: "heads" in _parameters(fn),
                      "starnet.py") == []
    assert [f.name for f in fields(FsveConfig)] == ["channels"]


@pytest.mark.parametrize("file", ["snn.py", "starnet.py"])
def test_no_batch_axis_or_optional_ledger(file):
    # The spiking and temporal forwards run one sample, [T, ...], and every
    # spiking stage records into the ledger it is given.
    text = _sources()[file]
    assert "ledger is not None" not in text
    assert "EnergyLedger | None" not in text
    names = {node.id if isinstance(node, ast.Name) else node.arg
             for node in ast.walk(_trees()[file])
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
    writers = _functions(lambda fn: any(_writes_a_file(node)
                                        for node in ast.walk(fn)))
    assert writers == ["jsonio.py:write_bytes"]


def test_max_sops_read_from_the_arrays_that_ran():
    # Each ledger record's dense baseline is its layer's output size times
    # its fan-in, read where the layer ran; no helper works the shapes out
    # again.
    assert _functions(lambda fn: fn.name.startswith("dense_")
                      or "macs" in fn.name, "energy.py") == []


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


@functools.cache
def _references(tree: ast.AST, skip: str = "") -> frozenset[str]:
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
    return frozenset(seen)


def test_every_export_has_traffic():
    # Every public name, exported or defined at the top of a module, is
    # run by a command, the pipeline or the benchmark: code in src/
    # outside its own definition (a re-export in __init__ does not count)
    # or in bench/ reads it.
    import spikekit
    bench = SRC.parents[1] / "bench"
    trees = [tree for name, tree in _trees().items()
             if name != "__init__.py"]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    bench_names = set().union(*(_references(ast.parse(path.read_text(
        encoding="utf-8"))) for path in sorted(bench.glob("*.py"))))
    assert [name for name in sorted(defined | set(spikekit.__all__))
            if name not in bench_names
            and not any(name in _references(tree)
                        and name in _references(tree, name)
                        for tree in trees)] == []
