"""One fault per input in the ledger JSON that `energy --snn` reads. A
ledger that is truncated, lacks a required field, or holds a value of the
wrong type, `1e400` (which `json` reads as infinity), `-1e400` or `NaN`
in one field of a record makes the command exit 2 or 3 with one `error:`
line and write no `--out` report."""

import json

import pytest

from oracles import run_cli

RECORD = {"layer_name": "fsve.stem1.conv", "spike_count": 12, "fan_out": 9,
          "actual_sops": 96, "neuron_ops": 64, "max_sops": 576,
          "element_count": 64}
SECOND = {"layer_name": "fsve.head.out_proj", "spike_count": 0,
          "fan_out": 4, "actual_sops": 32, "neuron_ops": 0, "max_sops": 32}
# Fields a record may leave out: dropping one is no fault.
OPTIONAL = {"element_count"}


def _text(record: dict, name=None, raw=None) -> str:
    """A two-record ledger as `snn-forward` writes it, with field
    ``name``'s value in the first record replaced by the JSON text
    ``raw``."""
    if name is None:
        return json.dumps([record, SECOND], indent=2) + "\n"
    return _text({**record, name: "@"}).replace('"@"', raw)


def _faults():
    text = _text(RECORD)
    for cut in (0, len(text) // 2, len(text) - 2):
        yield f"truncated-{cut}", text[:cut]
    for name, value in RECORD.items():
        if name not in OPTIONAL:
            yield f"{name}-dropped", _text(
                {k: v for k, v in RECORD.items() if k != name})
        wrong = [json.dumps(str(value)), "true", "null",
                 f"[{json.dumps(value)}]"]
        if type(value) is int:
            wrong += [f"{value}.0", f"{value}.5", "-1"]
        else:
            wrong.append("7")
        for raw in wrong + ["1e400", "-1e400", "NaN"]:
            if raw != json.dumps(value):
                yield f"{name}={raw}", _text(RECORD, name, raw)


def _energy(tmp_path, ledger_text):
    (tmp_path / "ledger.json").write_text(ledger_text)
    return run_cli(["energy", "--snn", str(tmp_path / "ledger.json"),
                    "--out", str(tmp_path / "report.json")])


@pytest.mark.parametrize("ledger_text", [
    pytest.param(ledger_text, id=fault) for fault, ledger_text in _faults()])
def test_a_damaged_ledger_exits_2_or_3_and_writes_nothing(ledger_text,
                                                          tmp_path):
    code, err = _energy(tmp_path, ledger_text)
    assert code in (2, 3)
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("spike_count, element_count", [(65, 64), (1, 0)])
def test_more_spikes_than_elements_exits_2(spike_count, element_count,
                                           tmp_path):
    record = {**RECORD, "spike_count": spike_count,
              "element_count": element_count}
    code, err = _energy(tmp_path, _text(record))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "report.json").exists()


def test_the_undamaged_ledger_is_read(tmp_path):
    code, _ = _energy(tmp_path, _text(RECORD))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert [layer["sparsity"] for layer in report["layers"]] == [
        1 - 12 / 64, None]
