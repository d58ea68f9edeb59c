"""One fault per input in the config that `spikekit pipeline` reads. A
config that is truncated, lacks its seed, or holds a value of the wrong
type, `1e400` (which `json` reads as infinity), `-1e400`, `NaN` or `-1`
in one field, or in the first item of a list field, makes the command
exit 2 or 3 with one `error:` line and write nothing under `--out`. A
list field that repeats a value exits 2 the same way.

Every field but the seed has a default, so dropping one is no fault."""

import json

import pytest

from oracles import run_cli

CONFIG = {"seed": 3, "classes": ["wave", "throw"], "clips_per_class": 2,
          "test_per_class": 1, "frames": 50, "height": 64, "width": 64,
          "theta": 5.0, "noise_amplitude": 0.0, "upsample": 1, "r_win": 10,
          "step": 10, "n_blocks": 2, "m": 3, "channel_step": 8, "c_out": 16,
          "embed_dim": 64, "timesteps": 2, "snn_channels": 8, "shots": [1],
          "eval_seeds": [0], "epochs": 5, "lr": 0.05, "topk": [1],
          "run_snn": False}
ODD = ["1e400", "-1e400", "NaN", "-1"]


def _text(config: dict, raw=None) -> str:
    """``config`` as JSON, where the value "@" stands for the JSON text
    ``raw``."""
    text = json.dumps(config, indent=2) + "\n"
    return text if raw is None else text.replace('"@"', raw, 1)


def _wrong(value) -> list[str]:
    """JSON texts of the wrong type, or odd numbers, in place of
    ``value``."""
    wrong = [json.dumps(str(value)), "null", f"[{json.dumps(value)}]",
             "1" if type(value) is bool else "true"]
    if type(value) is int:
        wrong.append(f"{value}.5")
    return [raw for raw in wrong + ODD if raw != json.dumps(value)]


def _faults():
    text = _text(CONFIG)
    for cut in (0, len(text) // 2, len(text) - 2):
        yield f"truncated-{cut}", text[:cut]
    yield "seed-dropped", _text({k: v for k, v in CONFIG.items()
                                 if k != "seed"})
    for name, value in CONFIG.items():
        for raw in _wrong(value):
            yield f"{name}={raw}", _text({**CONFIG, name: "@"}, raw)
        if type(value) is list:
            for raw in _wrong(value[0]):
                yield f"{name}[0]={raw}", _text(
                    {**CONFIG, name: ["@", *value[1:]]}, raw)


def _pipeline(tmp_path, config_text):
    (tmp_path / "config.json").write_text(config_text)
    return run_cli(["pipeline", "--config", str(tmp_path / "config.json"),
                    "--out", str(tmp_path / "run")])


@pytest.mark.parametrize("config_text", [
    pytest.param(text, id=fault) for fault, text in _faults()])
def test_a_damaged_config_exits_2_or_3_and_writes_nothing(config_text,
                                                          tmp_path):
    code, err = _pipeline(tmp_path, config_text)
    assert code in (2, 3)
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("name", [name for name, value in CONFIG.items()
                                  if type(value) is list])
def test_a_list_field_that_repeats_a_value_exits_2(name, tmp_path):
    # Repeated seeds would skew the mean over seeds, and a repeated shot
    # count or class would run twice.
    value = CONFIG[name]
    code, err = _pipeline(tmp_path, _text({**CONFIG, name: [value[0],
                                                           *value]}))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{name!r} repeats a value" in err
    assert not (tmp_path / "run").exists()


def test_the_undamaged_config_runs(tmp_path):
    code, _ = _pipeline(tmp_path, _text(CONFIG))
    assert code == 0
    assert (tmp_path / "run" / "metrics.json").exists()
