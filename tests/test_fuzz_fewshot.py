"""Fuzzing of what `spikekit train-head` and `spikekit eval` read: an
embeddings JSON, a prompts file and a head JSON. Each starts valid and may
get one fault: a value anywhere replaced by NaN, an infinity, an integer
beyond float range or a value of the wrong type; a field or list element
dropped (vectors of different lengths); or the text cut short. Whatever
they hold, the command returns 0, 2 or 3, with an `error:` line and no
output file when it fails, and never raises; a 0 from `train-head` writes
finite numbers only.

Derandomized, so every run draws the same examples."""

import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import run_cli

FUZZ = settings(derandomize=True, max_examples=100, deadline=None,
                database=None)

ODD_NUMBERS = st.sampled_from([float("nan"), float("inf"), float("-inf"),
                               10 ** 400, 1e308])
WRONG_TYPES = st.sampled_from([True, None, "x", [1.0], {}])
NUMBERS = st.floats(-3.0, 3.0, allow_nan=False)
PROMPTS = ["a person waving", "a person clapping", "someone throwing a ball"]


def _slots(doc) -> list[tuple]:
    """(container, key) of every value nested in ``doc``."""
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc))
    else:
        return []
    return [slot for key, value in items
            for slot in [(doc, key)] + _slots(value)]


@st.composite
def with_one_fault(draw, doc) -> str:
    """``doc`` as JSON (NaN and infinities as Python writes them), with at
    most one fault: a number replaced by an odd one, a value by one of the
    wrong type, a value dropped, or the text cut short."""
    fault = draw(st.sampled_from(["odd-number", "wrong-type", "drop", "cut",
                                  "none"]))
    slots = [(container, key) for container, key in _slots(doc)
             if fault != "odd-number"
             or type(container[key]) in (int, float)]
    if slots and fault in ("odd-number", "wrong-type", "drop"):
        container, key = draw(st.sampled_from(slots))
        if fault == "drop":
            del container[key]
        else:
            container[key] = draw(ODD_NUMBERS if fault == "odd-number"
                                  else WRONG_TYPES)
    text = json.dumps(doc)
    if fault == "cut":
        return text[:draw(st.integers(1, len(text) - 1))]
    return text


@st.composite
def fewshot_inputs(draw):
    """(embeddings JSON, prompts, width, class count) of a small task."""
    n_classes, width = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    labels = [c for c in range(n_classes)
              for _ in range(draw(st.integers(1, 3)))]
    entries = [{"id": f"c{i}", "label": label,
                "vector": draw(st.lists(NUMBERS, min_size=width,
                                        max_size=width))}
               for i, label in enumerate(labels)]
    doc = draw(st.sampled_from([entries, {"embeddings": entries}]))
    prompts = PROMPTS[:n_classes]
    if draw(st.integers(0, 5)) == 3:    # hypothesis favours the ends
        prompts[draw(st.integers(0, n_classes - 1))] = draw(st.sampled_from(
            ["PERSON A WAVING", "waving person a", "", " "]))
    return draw(with_one_fault(doc)), prompts, width, n_classes


def _run(files: dict[str, str], argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        out = os.path.join(tmp, "out.json")
        code, err = run_cli([os.path.join(tmp, a) if a in files else a
                             for a in argv] + ["--out", out])
        assert code in (0, 2, 3)
        if code:
            assert any(line.startswith(("error: ", "i/o error: "))
                       for line in err.splitlines())
            assert not os.path.exists(out)
        elif argv[0] == "train-head":
            def reject(constant):
                raise AssertionError(f"the head holds {constant}")
            with open(out, encoding="utf-8") as fh:
                json.load(fh, parse_constant=reject)
    return code


@FUZZ
@given(fewshot_inputs(), st.integers(1, 2))
def test_train_head_of_any_inputs_exits_0_2_or_3(inputs, shots):
    embeddings, prompts, _, _ = inputs
    _run({"e.json": embeddings, "p.txt": "\n".join(prompts)},
         ["train-head", "e.json", "p.txt", "--shots", str(shots),
          "--seed", "0", "--epochs", "3"])


@st.composite
def eval_inputs(draw):
    """(head JSON, embeddings JSON) of one small task."""
    embeddings, prompts, width, _ = draw(fewshot_inputs())
    d_out = draw(st.integers(1, 3))
    rows = st.lists(NUMBERS, min_size=d_out, max_size=d_out)
    head = {"head": {"projection": draw(st.lists(rows, min_size=width,
                                                 max_size=width)),
                     "bias": draw(rows), "log_inv_tau": draw(NUMBERS)},
            "prompts": prompts}
    return draw(with_one_fault(head)), embeddings


@FUZZ
@given(eval_inputs())
def test_eval_of_any_inputs_exits_0_2_or_3(inputs):
    head, embeddings = inputs
    _run({"head.json": head, "e.json": embeddings},
         ["eval", "head.json", "e.json"])
