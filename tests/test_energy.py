"""Energy-model tests: SOP counting, joule estimates, and reports."""

import math

import numpy as np
import pytest

from spikekit.energy import (E_NEURON_J, E_SOP_J, EnergyLedger, LayerEnergy,
                             count_conv_sops, energy_report,
                             estimate_ann_energy, estimate_snn_energy,
                             format_report)
from spikekit.errors import DataIOError, PreconditionError


def brute_force_conv_sops(spikes, out_channels, kernel=3, stride=1,
                          padding=1):
    """Count (input spike, reached output) pairs by looping over outputs."""
    c, h, w = spikes.shape
    h_out = (h + 2 * padding - kernel) // stride + 1
    w_out = (w + 2 * padding - kernel) // stride + 1
    total = 0
    for oy in range(h_out):
        for ox in range(w_out):
            for i in range(kernel):
                for j in range(kernel):
                    y = oy * stride + i - padding
                    x = ox * stride + j - padding
                    if 0 <= y < h and 0 <= x < w:
                        total += int(spikes[:, y, x].sum())
    return total * out_channels


# ---------------------------------------------------------------------------
# SOP counting
# ---------------------------------------------------------------------------

def test_exact_conv_count_matches_brute_force():
    # Small random maps, and maps of 16x16 and more, whose count runs
    # through conv2d's tap-major columns at stride 1 (and at stride 2 from
    # 32x32 on).
    rng = np.random.default_rng(100)
    cases = [(int(rng.integers(3, 9)), int(rng.integers(3, 9)),
              int(rng.integers(1, 3))) for _ in range(25)]
    cases += [(h, w, stride) for h, w in ((16, 16), (17, 23), (40, 40))
              for stride in (1, 2)]
    for h, w, stride in cases:
        c = int(rng.integers(1, 4))
        out_ch = int(rng.integers(1, 5))
        spikes = rng.integers(0, 2, size=(c, h, w)).astype(np.uint8)
        got = count_conv_sops(spikes, out_ch, stride=stride)
        expected = brute_force_conv_sops(spikes, out_ch, stride=stride)
        assert got == expected, (c, h, w, out_ch, stride)


def test_conv_count_sums_over_leading_axes():
    rng = np.random.default_rng(102)
    for stride in (1, 2):
        spikes = rng.integers(0, 2, size=(3, 2, 4, 7, 9)).astype(np.uint8)
        expected = sum(brute_force_conv_sops(spikes[t, b], 5, stride=stride)
                       for t in range(3) for b in range(2))
        assert count_conv_sops(spikes, 5, stride=stride) == expected


def test_count_conv_sops_rejects_non_binary():
    for values in ([0, 1, 2], [0.0, 0.5, 1.0], [0.0, np.nan, 1.0],
                   np.array([0, -1, 1], dtype=np.int8)):
        with pytest.raises(PreconditionError):
            count_conv_sops(np.reshape(values, (1, 1, 3)), 3)


# ---------------------------------------------------------------------------
# Energy estimates
# ---------------------------------------------------------------------------

def test_snn_energy_worked_example():
    ledger = EnergyLedger()
    ledger.record("layer", spike_count=0, fan_out=1,
                  actual_sops=10 ** 9, neuron_ops=10 ** 8, max_sops=10 ** 9)
    e = estimate_snn_energy(ledger)
    assert math.isclose(e, 4.69e-3, rel_tol=1e-12)


def test_empty_ledger_zero_energy():
    assert estimate_snn_energy(EnergyLedger()) == 0.0
    assert estimate_ann_energy(EnergyLedger()) == 0.0


def test_two_layer_hand_sum():
    ledger = EnergyLedger()
    ledger.record("a", spike_count=5, fan_out=3, actual_sops=15,
                  neuron_ops=7, max_sops=90)
    ledger.record("b", spike_count=2, fan_out=4, actual_sops=8,
                  neuron_ops=3, max_sops=40)
    expected = (15 * E_SOP_J + 7 * E_NEURON_J) + (8 * E_SOP_J + 3 * E_NEURON_J)
    assert estimate_snn_energy(ledger) == expected
    assert estimate_ann_energy(ledger) == 90 * E_SOP_J + 40 * E_SOP_J


def test_ann_energy_requires_max_sops():
    # Every record carries its dense baseline: a record without one is
    # refused when it is made or read, not when the baseline is priced.
    with pytest.raises(TypeError):
        EnergyLedger().record("a", spike_count=0, fan_out=1, actual_sops=0,
                              neuron_ops=1)
    with pytest.raises(DataIOError, match="max_sops"):
        EnergyLedger.from_json_list([{"layer_name": "a", "spike_count": 0,
                                      "fan_out": 1, "actual_sops": 0,
                                      "neuron_ops": 1}])


def test_published_baseline_implies_max_sops():
    # 1.469 J at 4.6 pJ per SOP is about 3.193e11 dense operations.
    implied = round(1.469 / 4.6e-12)
    assert implied == pytest.approx(3.193e11, rel=1e-3)
    ledger = EnergyLedger()
    ledger.record("model", spike_count=0, fan_out=1, actual_sops=0,
                  neuron_ops=0, max_sops=implied)
    assert estimate_ann_energy(ledger) == pytest.approx(1.469, rel=1e-9)


def test_toy_dense_linear_energy():
    macs = 100 * 64 * 64        # 100 rows of 64 outputs, each of fan-in 64
    ledger = EnergyLedger()
    ledger.record("fc", spike_count=0, fan_out=64, actual_sops=0,
                  neuron_ops=0, max_sops=macs)
    assert estimate_ann_energy(ledger) == pytest.approx(1.884e-6, rel=1e-3)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def make_pair(snn_sops, max_sops, neuron_ops=0):
    snn = EnergyLedger()
    snn.record("m", spike_count=0, fan_out=1, actual_sops=snn_sops,
               neuron_ops=neuron_ops, max_sops=max_sops)
    return snn


def test_report_equal_energies_zero_reduction():
    ledger = make_pair(100, 100)
    report = energy_report(ledger)
    assert report["reduction_pct"] == pytest.approx(0.0)


def test_report_reproduces_published_percentages():
    snn = make_pair(round(0.356 / E_SOP_J), round(1.469 / E_SOP_J))
    report = energy_report(snn)
    assert report["e_snn_joules"] == pytest.approx(0.356, rel=1e-9)
    assert report["e_ann_joules"] == pytest.approx(1.469, rel=1e-9)
    assert abs(report["reduction_pct"] - 75.8) < 0.1


def test_report_zero_spikes_leaves_neuron_floor():
    ledger = EnergyLedger()
    ledger.record("a", spike_count=0, fan_out=9, actual_sops=0,
                  neuron_ops=1000, max_sops=5000, element_count=200)
    report = energy_report(ledger)
    assert report["e_snn_joules"] == 1000 * E_NEURON_J
    assert report["layers"][0]["sparsity"] == pytest.approx(1.0)


def test_report_sparsity_column():
    ledger = EnergyLedger()
    ledger.record("conv", spike_count=25, fan_out=9, actual_sops=225,
                  neuron_ops=100, max_sops=900, element_count=100)
    report = energy_report(ledger)
    assert report["layers"][0]["sparsity"] == pytest.approx(0.75)
    assert "0.750" in format_report(report)


# ---------------------------------------------------------------------------
# Ledger mechanics and invariants
# ---------------------------------------------------------------------------

def test_record_accumulates_same_layer():
    ledger = EnergyLedger()
    for _ in range(3):
        ledger.record("conv", spike_count=10, fan_out=9, actual_sops=90,
                      neuron_ops=5, max_sops=200, element_count=50)
    assert len(ledger.layers) == 1
    rec = ledger.layers[0]
    assert rec.spike_count == 30
    assert rec.actual_sops == 270
    assert rec.max_sops == 600
    assert rec.element_count == 150


def test_actual_cannot_exceed_max():
    with pytest.raises(PreconditionError):
        LayerEnergy("bad", spike_count=1, fan_out=1, actual_sops=11,
                    neuron_ops=0, max_sops=10)


def test_counts_must_be_non_negative_integers():
    with pytest.raises(PreconditionError):
        LayerEnergy("bad", spike_count=-1, fan_out=1, actual_sops=0,
                    neuron_ops=0, max_sops=0)
    with pytest.raises(PreconditionError):
        LayerEnergy("bad", spike_count=0.5, fan_out=1, actual_sops=0,
                    neuron_ops=0, max_sops=0)


def test_snn_energy_bounded_by_ann_plus_neuron_floor():
    rng = np.random.default_rng(101)
    for _ in range(50):
        ledger = EnergyLedger()
        neuron_total = 0
        for i in range(int(rng.integers(1, 5))):
            max_sops = int(rng.integers(1, 10_000))
            actual = int(rng.integers(0, max_sops + 1))
            neuron = int(rng.integers(0, 1_000))
            neuron_total += neuron
            ledger.record(f"l{i}", spike_count=actual, fan_out=1,
                          actual_sops=actual, neuron_ops=neuron,
                          max_sops=max_sops)
        assert estimate_snn_energy(ledger) <= \
            estimate_ann_energy(ledger) + neuron_total * E_NEURON_J + 1e-18


def test_snn_energy_monotone_in_spike_counts():
    base = EnergyLedger()
    base.record("a", spike_count=10, fan_out=2, actual_sops=20,
                neuron_ops=5, max_sops=100)
    bigger = EnergyLedger()
    bigger.record("a", spike_count=11, fan_out=2, actual_sops=22,
                  neuron_ops=5, max_sops=100)
    assert estimate_snn_energy(bigger) > estimate_snn_energy(base)


def test_ledger_json_roundtrip(tmp_path):
    ledger = EnergyLedger()
    ledger.record("conv", spike_count=4, fan_out=9, actual_sops=36,
                  neuron_ops=16, max_sops=144, element_count=64)
    ledger.record("fc", spike_count=2, fan_out=8, actual_sops=16,
                  neuron_ops=8, max_sops=16)
    path = tmp_path / "ledger.json"
    ledger.save(path)
    back = EnergyLedger.load(path)
    assert back.to_json_list() == ledger.to_json_list()
