"""Spiking-runtime tests: LIF recurrence, TDBN moments, residual blocks,
spike normalization, and spike-driven attention.

The forwards return only their output; ``oracles`` keeps a copy of each
that also returns its stages. Each test runs both, checks that their
outputs and ledgers are equal, and checks the oracle's stages."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import (esdsa_forward_with_internals, fsve_forward_with_stages,
                     sn_threshold_with_level)
from spikekit.energy import EnergyLedger
from spikekit import snn
from spikekit.errors import PreconditionError
from spikekit.snn import (esdsa_forward, fsve_forward, init_fsve_weights,
                          lif_step, sn_threshold, spiking_residual_block,
                          tdbn)
from spikekit.stream import SpikeStream, subsample_temporal


# ---------------------------------------------------------------------------
# LIF neuron
# ---------------------------------------------------------------------------

def test_lif_fires_and_hard_resets():
    spikes, u = lif_step(np.zeros(1), np.array([0.6]))
    assert spikes.tolist() == [1]
    assert u.tolist() == [0.0]


def test_lif_subthreshold_keeps_potential():
    spikes, u = lif_step(np.array([0.2]), np.array([0.1]))
    assert spikes.tolist() == [0]
    assert u == pytest.approx([0.2])


def test_lif_matches_scalar_recurrence_oracle():
    u = np.zeros(1)
    got = []
    for _ in range(10):
        spikes, u = lif_step(u, np.array([0.3]))
        got.append(int(spikes[0]))
    # Scalar oracle, step by step.
    u, expected = 0.0, []
    for _ in range(10):
        u = 0.5 * u + 0.3
        if u >= 0.5:
            expected.append(1)
            u = 0.0
        else:
            expected.append(0)
    assert got == expected


def test_lif_step_counts_and_shape_check():
    _, u = lif_step(np.zeros((2, 2)), np.zeros((2, 2)))
    assert u.shape == (2, 2)
    with pytest.raises(PreconditionError):
        lif_step(u, np.zeros((3,)))


@pytest.mark.parametrize("u,inputs", [
    pytest.param([np.nan, 0.0], [0.0, 0.0], id="nan-potential"),
    pytest.param([0.0, np.inf], [0.0, 0.0], id="inf-potential"),
    pytest.param([0.0, 0.0], [np.nan, 0.0], id="nan-input"),
    pytest.param([0.0, 0.0], [0.0, -np.inf], id="inf-input"),
    pytest.param([0.0, 0.0], [0.0, np.inf], id="inf-input-that-fires"),
])
def test_lif_step_rejects_non_finite_values(u, inputs):
    with pytest.raises(PreconditionError):
        lif_step(np.array(u), np.array(inputs))


# ---------------------------------------------------------------------------
# Temporal-dependent batch normalization
# ---------------------------------------------------------------------------

def test_tdbn_constant_channel_maps_to_beta():
    x = np.full((6, 4, 5, 5), 7.0)
    out = tdbn(x, gamma=1.0, beta=np.array([1.0, 2.0, 3.0, 4.0]))
    for c in range(4):
        assert out[:, c] == pytest.approx(np.full((6, 5, 5), c + 1.0),
                                          abs=1e-6)


def test_tdbn_moment_oracle():
    rng = np.random.default_rng(81)
    x = rng.normal(3.0, 2.5, size=(20, 3, 20, 30))   # 12,000 per channel
    out = tdbn(x, gamma=1.0, beta=0.0)
    for c in range(3):
        channel = out[:, c]
        assert abs(channel.mean()) < 1e-6
        assert channel.var() == pytest.approx(1.0, abs=1e-3)


def test_tdbn_statistics_pool_over_time_and_batch():
    # A channel constant inside each time slice but varying across time
    # still normalizes: plain per-slice normalization would divide by zero.
    # (With one sample, tdBN's time-and-batch pooling is pooling over time.)
    x = np.arange(8, dtype=np.float64).reshape(8, 1, 1, 1) \
        * np.ones((8, 1, 2, 2))
    out = tdbn(x, gamma=1.0, beta=0.0)
    assert abs(out.mean()) < 1e-12
    assert out.var() == pytest.approx(1.0, abs=1e-4)


def test_tdbn_single_element_per_channel_rejected():
    with pytest.raises(PreconditionError):
        tdbn(np.zeros((1, 4)), gamma=1.0, beta=0.0)


def test_tdbn_affine_parameters():
    rng = np.random.default_rng(82)
    x = rng.normal(size=(12, 2, 6, 6))
    out = tdbn(x, gamma=np.array([2.0, 0.5]), beta=np.array([1.0, -1.0]))
    assert out[:, 0].mean() == pytest.approx(1.0, abs=1e-9)
    assert out[:, 0].var() == pytest.approx(4.0, abs=1e-2)
    assert out[:, 1].mean() == pytest.approx(-1.0, abs=1e-9)
    assert out[:, 1].var() == pytest.approx(0.25, abs=1e-2)


# ---------------------------------------------------------------------------
# Spiking residual block
# ---------------------------------------------------------------------------

def zero_block_weights(c):
    return {"fsve.block.conv.w": np.zeros((c, c, 3, 3)),
            "fsve.block.tdbn.gamma": np.ones(c),
            "fsve.block.tdbn.beta": np.zeros(c)}


def test_block_zero_everything_zero_output():
    s = np.zeros((2, 3, 4, 4), dtype=np.uint8)
    out = spiking_residual_block(s, zero_block_weights(3), EnergyLedger())
    assert out.sum() == 0


def test_block_identity_path_passes_spikes():
    rng = np.random.default_rng(83)
    s = rng.integers(0, 2, size=(2, 3, 5, 5)).astype(np.uint8)
    out = spiking_residual_block(s, zero_block_weights(3), EnergyLedger())
    assert np.array_equal(out, s)


def test_block_output_binary_for_random_inputs():
    rng = np.random.default_rng(84)
    weights = init_fsve_weights(4, seed=84)
    for _ in range(5):
        s = rng.integers(0, 2, size=(2, 4, 6, 6)).astype(np.uint8)
        out = spiking_residual_block(s, weights, EnergyLedger())
        assert set(np.unique(out)).issubset({0, 1})


def test_block_rejects_non_binary_input():
    with pytest.raises(PreconditionError):
        spiking_residual_block(np.full((1, 2, 4, 4), 0.5),
                               zero_block_weights(2), EnergyLedger())


# ---------------------------------------------------------------------------
# Spike normalization
# ---------------------------------------------------------------------------

def sn_spikes_and_level(x):
    """The oracle's spikes and level, once the package's spikes equal its."""
    spikes, v_th = sn_threshold_with_level(x)
    got = sn_threshold(x)
    assert got.dtype == spikes.dtype and got.tobytes() == spikes.tobytes()
    return spikes, v_th


def test_sn_threshold_worked_example():
    spikes, v_th = sn_spikes_and_level(np.array([1.0, -1.0, 2.0, -2.0]))
    assert v_th == pytest.approx(1.5)
    assert spikes.tolist() == [0, 0, 1, 0]


def test_sn_threshold_all_zero_boundary_fires():
    spikes, v_th = sn_spikes_and_level(np.zeros((3, 3)))
    assert v_th == 0.0
    assert spikes.sum() == 9



def test_sn_threshold_empty_input():
    with pytest.raises(PreconditionError):
        sn_threshold(np.zeros((0,)))


# ---------------------------------------------------------------------------
# Spike-driven self-attention
# ---------------------------------------------------------------------------

def sdsa_weights(d, seed):
    rng = np.random.default_rng(seed)
    w = {}
    for name in ("q", "k", "v", "out"):
        w[f"fsve.sdsa.{name}.w"] = rng.normal(size=(d, d))
        w[f"fsve.sdsa.{name}.b"] = np.zeros(d)
    return w


def esdsa_both(u, w):
    """The oracle's output, internals and ledger, once the package's
    output bytes and ledger records equal them."""
    ledger, oracle_ledger = EnergyLedger(), EnergyLedger()
    got = esdsa_forward(u, w, ledger)
    out, internals = esdsa_forward_with_internals(u, w, oracle_ledger)
    assert got.tobytes() == out.tobytes()
    assert ledger.to_json_list() == oracle_ledger.to_json_list()
    return out, internals, ledger


def test_esdsa_zero_input_hand_trace():
    # U = 0 with zero biases: all projections are 0, every SN threshold is
    # 0, so Q/K/V are all-ones. The correlation is the constant matrix 2,
    # which sits exactly at its own mean and fires everywhere; the gated
    # value sums two all-ones rows.
    w = sdsa_weights(2, seed=86)
    out, internals, _ = esdsa_both(np.zeros((2, 2)), w)
    assert internals["q_s"].tolist() == [[1, 1], [1, 1]]
    assert internals["k_s"].tolist() == [[1, 1], [1, 1]]
    assert internals["v_s"].tolist() == [[1, 1], [1, 1]]
    assert internals["attn_spikes"].tolist() == [[1, 1], [1, 1]]
    expected_row = 2.0 * w["fsve.sdsa.out.w"].sum(axis=0)
    np.testing.assert_allclose(out, np.stack([expected_row] * 2))


def test_esdsa_fires_at_exact_ties():
    # Identity projections of all-ones tokens: Q, K and V are all ones, so
    # every correlation is 13, exactly the mean, and Theta(0) = 1 fires
    # all four attention spikes.
    w = {}
    for name in ("q", "k", "v", "out"):
        w[f"fsve.sdsa.{name}.w"] = np.eye(13)
        w[f"fsve.sdsa.{name}.b"] = np.zeros(13)
    _, internals, _ = esdsa_both(np.ones((2, 13)), w)
    assert internals["attn_spikes"].tolist() == [[1, 1], [1, 1]]


def test_esdsa_attention_fires_at_or_above_the_exact_mean():
    # Rational oracle: attention spike (i, j) fires iff the integer
    # correlation c_ij reaches mean(c), in exact arithmetic. Identity
    # projections of binary tokens (every other case) give many ties.
    rng = np.random.default_rng(90)
    for case in range(300):
        n, d = int(rng.integers(2, 12)), int(rng.integers(2, 17))
        u = rng.integers(0, 2, size=(n, d)).astype(np.float64)
        w = sdsa_weights(d, int(rng.integers(99)))
        if case % 2:
            w.update({f"fsve.sdsa.{name}.w": np.eye(d) for name in "qkv"})
        _, internals, _ = esdsa_both(u, w)
        q = internals["q_s"].astype(np.int64)
        k = internals["k_s"].astype(np.int64)
        corr = q @ k.T
        mean = Fraction(int(corr.sum()), n * n)
        expected = [[int(c >= mean) for c in row] for row in corr.tolist()]
        assert internals["attn_spikes"].tolist() == expected


@pytest.mark.parametrize("tokens", [
    np.full((3, 4), 0.5), np.array([[0.0, 2.0], [1.0, 0.0]]),
    np.array([[0, -1], [1, 0]], dtype=np.int8),
    np.array([[0.0, np.nan], [1.0, 0.0]]), np.zeros(4)],
    ids=["half", "two", "minus-one", "nan", "one-dimensional"])
def test_esdsa_rejects_tokens_that_are_not_binary_spikes(tokens):
    w = sdsa_weights(np.shape(tokens)[-1], seed=88)
    ledger = EnergyLedger()
    with pytest.raises(PreconditionError):
        esdsa_forward(tokens, w, ledger)
    assert ledger.layers == []


def test_esdsa_stages_binary_for_random_binary_input():
    w = sdsa_weights(6, seed=88)
    rng = np.random.default_rng(88)
    for _ in range(10):
        u = rng.integers(0, 2, size=(9, 6), dtype=np.uint8)
        _, internals, _ = esdsa_both(u, w)
        for key in ("q_s", "k_s", "v_s", "attn_spikes"):
            assert set(np.unique(internals[key])).issubset({0, 1}), key


def test_esdsa_records_spike_counts():
    w = sdsa_weights(4, seed=89)
    rng = np.random.default_rng(89)
    u = rng.integers(0, 2, size=(8, 4)).astype(np.float64)
    _, internals, ledger = esdsa_both(u, w)
    names = [rec.layer_name for rec in ledger.layers]
    assert {"fsve.sdsa.q_proj", "fsve.sdsa.attn_corr",
            "fsve.sdsa.attn_apply", "fsve.sdsa.out_proj"} <= set(names)
    corr_rec = ledger.layers[names.index("fsve.sdsa.attn_corr")]
    assert corr_rec.spike_count == int(internals["q_s"].sum()
                                       + internals["k_s"].sum())
    # binary-by-binary pairwise count oracle
    q, k = internals["q_s"], internals["k_s"]
    pairwise = sum(int(q[i, j]) and int(k[l, j])
                   for i in range(8) for l in range(8) for j in range(4))
    assert corr_rec.actual_sops == pairwise
    # a binary projection's SOPs are its input spikes times its width
    q_rec = ledger.layers[names.index("fsve.sdsa.q_proj")]
    assert q_rec.actual_sops == int(u.sum()) * 4


# ---------------------------------------------------------------------------
# Full spiking path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", [17, 32, 64, 128])
@pytest.mark.parametrize("channels", [4, 8])
def test_fsve_forward_all_stages_binary_and_ledger_consistent(size,
                                                              channels):
    rng = np.random.default_rng(90)
    stream = SpikeStream(rng.integers(0, 2, size=(20, size, size),
                                      dtype=np.uint8))
    weights = init_fsve_weights(channels, seed=90)
    ledger, oracle_ledger = EnergyLedger(), EnergyLedger()
    embedding = fsve_forward(stream, weights, 2, ledger)
    expected, stages = fsve_forward_with_stages(stream, weights, 2,
                                                oracle_ledger)
    assert embedding.shape == (channels,)
    assert embedding.tobytes() == expected.tobytes()
    assert ledger.to_json_list() == oracle_ledger.to_json_list()
    for name, tensor in stages.items():
        assert set(np.unique(tensor)).issubset({0, 1}), name
    for rec in ledger.layers:
        assert rec.actual_sops <= rec.max_sops, rec.layer_name
    # The dense baseline of a layer is its outputs times their fan-in,
    # over both time steps: each stem halves the side, rounding up.
    c, side1 = channels, -(-size // 2)
    n = (-(-side1 // 2)) ** 2           # tokens of the attention
    assert {rec.layer_name: rec.max_sops for rec in ledger.layers} == {
        "fsve.stem1.conv": 2 * side1 * side1 * c * 1 * 9,
        "fsve.stem2.conv": 2 * n * c * c * 9,
        "fsve.block.conv": 2 * n * c * c * 9,
        **{f"fsve.sdsa.{name}_proj": 2 * n * c * c for name in "qkv"},
        "fsve.sdsa.attn_corr": 2 * n * n * c,
        "fsve.sdsa.attn_apply": 2 * n * n * c,
        "fsve.sdsa.out_proj": 2 * n * c * c}


@pytest.mark.parametrize("stage, message, recorded", [
    pytest.param("_spiking_stem", "conv spikes must be binary", ["stem1"],
                 id="stem1"),
    pytest.param("spiking_residual_block", "tokens must be binary",
                 ["stem1", "stem2", "block"], id="resblock")])
def test_a_non_binary_stage_is_refused_by_the_function_that_reads_it(
        stage, message, recorded, monkeypatch):
    # Every stage is binary by construction. One that is not is refused by
    # the next stage's entry check, before that stage records anything.
    real = getattr(snn, stage)
    monkeypatch.setattr(snn, stage, lambda *args: 2 * real(*args))
    stream = SpikeStream(np.ones((4, 8, 8), dtype=np.uint8))
    weights = init_fsve_weights(2, seed=91)
    ledger = EnergyLedger()
    with pytest.raises(PreconditionError, match=message):
        fsve_forward(stream, weights, 2, ledger)
    assert [rec.layer_name for rec in ledger.layers] == [
        f"fsve.{name}.conv" for name in recorded]


def _reverse_tap_conv(x, kernel, bias, stride, padding):
    """``conv2d`` of the spiking path with its taps added one at a time in
    reverse (c, dy, dx) order, a summation order no BLAS product takes."""
    assert bias is None
    c_out, c_in, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    h_out = (xp.shape[1] - kh) // stride + 1
    w_out = (xp.shape[2] - kw) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    for c in reversed(range(c_in)):
        for dy in reversed(range(kh)):
            for dx in reversed(range(kw)):
                out += kernel[:, c, dy, dx, None, None] * xp[
                    c, dy:dy + stride * h_out:stride,
                    dx:dx + stride * w_out:stride]
    return out


def test_spiking_path_does_not_depend_on_the_conv_summation_order(
        monkeypatch):
    # Each conv feeds a threshold through TDBN, so a conv that sums its
    # taps in another order, and so differs in the last bits, leaves every
    # spike, the ledger and the embedding as they were.
    real = snn.conv2d
    differing = 0
    for size in (64, 128, 256):
        for k, rate in enumerate((0.02, 0.035, 0.05)):
            rng = np.random.default_rng([k, size])
            stream = SpikeStream(rng.random((60, size, size)) < rate)
            weights = init_fsve_weights(8, seed=7 + k)
            runs = []
            for conv in (real, _reverse_tap_conv):
                monkeypatch.setattr(snn, "conv2d", conv)
                ledger, oracle_ledger = EnergyLedger(), EnergyLedger()
                embedding = fsve_forward(stream, weights, 2, ledger)
                _, stages = fsve_forward_with_stages(stream, weights, 2,
                                                     oracle_ledger)
                runs.append((embedding.tobytes(), ledger.to_json_list(),
                             oracle_ledger.to_json_list(),
                             {name: tensor.tobytes()
                              for name, tensor in stages.items()}))
            assert runs[0] == runs[1], (size, k)
            kernel = weights["fsve.stem1.conv.w"]
            for frame in subsample_temporal(stream, 2).data[:, None]:
                frame = frame.astype(np.float64)
                differing += np.count_nonzero(
                    real(frame, kernel, None, 2, 1)
                    != _reverse_tap_conv(frame, kernel, None, 2, 1))
    # The two convs do differ, so the test could fail.
    assert differing > 0
