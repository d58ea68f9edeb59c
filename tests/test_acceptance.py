"""Acceptance suite: one test per release criterion.

Each criterion prints a single PASS/FAIL line (run with -s or check the
captured output). Tolerances are pinned here and nowhere else.
"""

import json
import math
import time
from contextlib import contextmanager
from copy import deepcopy
from fractions import Fraction

import numpy as np
import pytest

from oracles import PixelModel, contrastive_loss, fsve_forward_with_stages, \
    loss_and_grads, simulate_pixel
from spikekit.align import AlignmentHead
from spikekit.camera import EncoderConfig, IntensityVideo, encode_video
from spikekit.energy import (E_NEURON_J, E_SOP_J, EnergyLedger,
                             energy_report, estimate_snn_energy)
from spikekit.hsfe import _avg_width, allocate_channels
from spikekit.pipeline import PipelineConfig, run_pipeline
from spikekit.reconstruct import TfiConfig, tfi_reconstruct
from spikekit.snn import fsve_forward, init_fsve_weights
from spikekit.starnet import (GROUPS, HEADS, MiniMapResNetConfig, _attend,
                              attention_pool, init_starnet_weights,
                              temporal_attention, temporal_pool)
from spikekit.stream import SpikeStream, StreamMeta, pack_spikes, \
    unpack_spikes, write_dat
from spikekit.nnops import relu, softmax


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {description}")
        raise
    print(f"[criterion {number:02d}] PASS  {description}")


# ---------------------------------------------------------------------------
# 1. Codec round trip
# ---------------------------------------------------------------------------

def test_criterion_01_codec_roundtrip(tmp_path):
    with criterion(1, "codec round trip, 1000 streams, exact sizes, <30s"):
        rng = np.random.default_rng(1001)
        start = time.monotonic()
        for _ in range(1000):
            t = int(rng.integers(1, 501))
            h = int(rng.integers(1, 65))
            w = int(rng.integers(1, 65))
            stream = SpikeStream(rng.integers(0, 2, size=(t, h, w),
                                              dtype=np.uint8))
            meta = StreamMeta.for_stream(stream)
            assert unpack_spikes(pack_spikes(stream), meta) == stream
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"round trips took {elapsed:.1f}s"

        big = SpikeStream(np.zeros((250, 240, 320), dtype=np.uint8))
        path = tmp_path / "big.dat"
        write_dat(big, StreamMeta.for_stream(big), path)
        assert path.stat().st_size == 2_400_000


# ---------------------------------------------------------------------------
# 2. Encoder arithmetic
# ---------------------------------------------------------------------------

def exact_frames(intensity: str, theta: int, n: int) -> list[int]:
    value, v, out = Fraction(intensity), Fraction(0), []
    for frame in range(1, n + 1):
        v += value
        if v >= theta:
            out.append(frame)
            v -= theta
    return out


def test_criterion_02_encoder_arithmetic():
    with criterion(2, "theta=5 firing frames exact; rate = I/theta"):
        ones = encode_video(IntensityVideo(np.full((30, 1, 1), 1.0)),
                            EncoderConfig(theta=5.0))
        assert list(np.nonzero(ones.data[:, 0, 0])[0] + 1) == \
            [5, 10, 15, 20, 25, 30]

        oracle = exact_frames("0.6", 5, 50)
        assert oracle == [9, 17, 25, 34, 42, 50]
        point_six = encode_video(IntensityVideo(np.full((50, 1, 1), 0.6)),
                                 EncoderConfig(theta=5.0))
        assert list(np.nonzero(point_six.data[:, 0, 0])[0] + 1) == oracle

        n = 10_000
        for value in (0.2, 0.4, 0.6, 0.8, 1.0):
            stream = encode_video(IntensityVideo(np.full((n, 1, 1), value)),
                                  EncoderConfig(theta=5.0))
            assert abs(stream.spike_count() / n - value / 5.0) <= 1.0 / n


# ---------------------------------------------------------------------------
# 3. Continuous-model residual and ramp crossings
# ---------------------------------------------------------------------------

def test_criterion_03_integrator_residual_and_ramp():
    with criterion(3, "charge in [0,theta) over 1e6 steps; ramp crossings"):
        rng = np.random.default_rng(1003)
        model = PixelModel(alpha=1.1, theta=0.8, tick=0.01)
        knots = rng.uniform(0.0, 5.0, size=4096)

        def intensity(t):
            return np.interp(np.asarray(t) % 50.0,
                             np.linspace(0.0, 50.0, 4096), knots)

        # 10,000 polls x 100 steps per poll = 1e6 integration steps.
        _, charge = simulate_pixel(intensity, model, duration=100.0,
                                   dt=1e-4, record_charge=True)
        assert charge.size == 1_000_000
        assert charge.min() >= 0.0
        assert charge.max() < model.theta

        ramp_model = PixelModel(alpha=1.0, theta=5.0, tick=0.05)
        spikes = simulate_pixel(lambda t: t, ramp_model, duration=32.0,
                                dt=0.01)
        poll_times = (np.nonzero(spikes)[0] + 1) * ramp_model.tick
        assert len(poll_times) >= 100
        for k in range(1, 101):
            t_k = math.sqrt(10.0 * k)
            t_poll = poll_times[k - 1]
            assert t_k - 1e-9 <= t_poll <= t_k + ramp_model.tick


# ---------------------------------------------------------------------------
# 4. TFI round trip and monotonicity
# ---------------------------------------------------------------------------

def test_criterion_04_tfi_roundtrip_and_monotonicity():
    with criterion(4, "encode->TFI recovers I within 0.1; ISI monotone"):
        cfg = TfiConfig(delta_t_max=40, theta=5.0)
        for value in (0.2, 0.4, 0.6, 0.8, 1.0):
            video = IntensityVideo(np.full((200, 2, 2), value))
            stream = encode_video(video, EncoderConfig(theta=5.0))
            recovered = np.mean([tfi_reconstruct(stream, t, cfg).mean()
                                 for t in range(60, 140, 10)])
            assert abs(recovered - value) < 0.1, f"I={value}: {recovered}"

        rng = np.random.default_rng(1004)
        mono_cfg = TfiConfig(delta_t_max=15, theta=5.0)
        for _ in range(100):
            stream = SpikeStream(rng.integers(0, 2, size=(40, 4, 4),
                                              dtype=np.uint8))
            t = int(rng.integers(0, 40))
            frame = tfi_reconstruct(stream, t, mono_cfg)
            pairs = []
            for y in range(4):
                for x in range(4):
                    col = stream.data[:, y, x]
                    before = [u for u in range(max(0, t - 15), t + 1)
                              if col[u]]
                    after = [u for u in range(t + 1, min(40, t + 16))
                             if col[u]]
                    if before and after:
                        pairs.append((after[0] - before[-1], frame[y, x]))
            pairs.sort()
            for (ia, va), (ib, vb) in zip(pairs, pairs[1:]):
                if ia < ib:
                    assert va >= vb


# ---------------------------------------------------------------------------
# 5. Photon conservation
# ---------------------------------------------------------------------------

def test_criterion_05_photon_conservation_sweep():
    with criterion(5, "k_i*w_i constant within rounding over 500 configs"):
        rng = np.random.default_rng(1005)
        for _ in range(500):
            m = int(rng.integers(1, 6))
            total = int(rng.integers(m, 256))
            max_step = (total - 1) // (m - 1) if m > 1 else 0
            step = int(rng.integers(0, max_step + 1))
            prods = [(k, k * _avg_width(total, k))
                     for k in allocate_channels(total, m, step)]
            for ki, pi in prods:
                for kj, pj in prods:
                    assert abs(pi - pj) <= max(ki, kj)
        ablation = allocate_channels(61, 3, 0)
        assert all(k == 61 and _avg_width(61, k) == 1 for k in ablation)


# ---------------------------------------------------------------------------
# 6. Attention correctness
# ---------------------------------------------------------------------------

def test_criterion_06_attention_against_loop_oracles():
    with criterion(6, "attention matches quadratic loop oracles; rows sum 1"):
        cfg = MiniMapResNetConfig()
        weights = init_starnet_weights(cfg, 4, (64, 64), seed=1006)
        rng = np.random.default_rng(1006)
        w = weights
        dh = cfg.embed_dim // HEADS

        for _ in range(100):
            t_len = int(rng.integers(1, 7))
            xb = rng.normal(size=(t_len, cfg.embed_dim))
            out = temporal_attention(xb, w)
            _, attn = _attend(xb, xb, w, "star.temporal.attn")
            np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-6)
            q = xb @ w["star.temporal.attn.q.w"] + w["star.temporal.attn.q.b"]
            k = xb @ w["star.temporal.attn.k.w"] + w["star.temporal.attn.k.b"]
            v = xb @ w["star.temporal.attn.v.w"] + w["star.temporal.attn.v.b"]
            ctx = np.zeros_like(xb)
            for h in range(HEADS):
                sl = slice(h * dh, (h + 1) * dh)
                for i in range(t_len):
                    scores = np.array([q[i, sl] @ k[j, sl]
                                       for j in range(t_len)])
                    probs = softmax(scores / np.sqrt(dh))
                    ctx[i, sl] = sum(probs[j] * v[j, sl]
                                     for j in range(t_len))
            y1 = xb + ctx @ w["star.temporal.attn.out.w"] \
                + w["star.temporal.attn.out.b"]
            ffn = relu(y1 @ w["star.temporal.ffn.fc1.w"]
                       + w["star.temporal.ffn.fc1.b"]) \
                @ w["star.temporal.ffn.fc2.w"] + w["star.temporal.ffn.fc2.b"]
            np.testing.assert_allclose(out, y1 + ffn,
                                       rtol=1e-5, atol=1e-10)

        c = GROUPS[-1][0]
        dh_pool = c // HEADS
        for _ in range(100):
            tokens = rng.normal(size=(4, c))
            pooled = attention_pool(tokens, w)
            seq = np.concatenate([tokens.mean(axis=0, keepdims=True),
                                  tokens]) + w["star.attnpool.pos"]
            _, attn = _attend(seq[:1], seq, w, "star.attnpool")
            np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-6)
            q = seq[0] @ w["star.attnpool.q.w"] + w["star.attnpool.q.b"]
            k = seq @ w["star.attnpool.k.w"] + w["star.attnpool.k.b"]
            v = seq @ w["star.attnpool.v.w"] + w["star.attnpool.v.b"]
            ctx = np.zeros(c)
            for h in range(HEADS):
                sl = slice(h * dh_pool, (h + 1) * dh_pool)
                scores = np.array([q[sl] @ k[j, sl] for j in range(5)])
                probs = softmax(scores / np.sqrt(dh_pool))
                ctx[sl] = sum(probs[j] * v[j, sl] for j in range(5))
            expected = ctx @ w["star.attnpool.out.w"] \
                + w["star.attnpool.out.b"]
            np.testing.assert_allclose(pooled, expected, rtol=1e-5,
                                       atol=1e-10)

        x = rng.normal(size=(5, 3 * cfg.embed_dim))
        acc = x[0].copy()
        for t in range(1, 5):
            acc = acc + x[t]
        np.testing.assert_array_equal(temporal_pool(x), acc / 5)


# ---------------------------------------------------------------------------
# 7. Contrastive loss
# ---------------------------------------------------------------------------

def test_criterion_07_contrastive_loss():
    with criterion(7, "loss constants and invariances"):
        unit_tau = 0.0      # log(1/tau) of tau = 1
        rng = np.random.default_rng(1007)
        single = rng.normal(size=(1, 8))
        assert contrastive_loss(single, single, unit_tau) == \
            pytest.approx(0.0, abs=1e-15)

        expected = 2.0 * (math.log(1.0 + math.e) - 1.0)
        assert contrastive_loss(np.eye(2), np.eye(2), unit_tau) == \
            pytest.approx(expected, abs=1e-9)

        temp = math.log(7.0)
        for _ in range(100):
            b = int(rng.integers(2, 8))
            d = int(rng.integers(2, 12))
            v = rng.normal(size=(b, d))
            t = rng.normal(size=(b, d))
            base = contrastive_loss(v, t, temp)
            assert base >= 0.0
            perm = rng.permutation(b)
            assert contrastive_loss(v[perm], t[perm], temp) == \
                pytest.approx(base, rel=1e-12)
            sv = rng.uniform(0.1, 10.0, size=(b, 1))
            st = rng.uniform(0.1, 10.0, size=(b, 1))
            assert contrastive_loss(v * sv, t * st, temp) == \
                pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------------------
# 8. Gradient gate (merge blocker)
# ---------------------------------------------------------------------------

def test_criterion_08_gradient_gate():
    with criterion(8, "analytic gradients vs central differences, 100 runs"):
        rng = np.random.default_rng(1008)
        h = 1e-5
        for _ in range(100):
            b = int(rng.integers(1, 9))
            d_in = int(rng.integers(2, 17))
            d_out = int(rng.integers(2, 17))
            v = rng.normal(size=(b, d_in))
            t = rng.normal(size=(b, d_in))
            head = AlignmentHead.create(d_in, d_out,
                                        seed=int(rng.integers(2 ** 31)))
            loss, d_proj, d_bias, d_log_inv_tau = loss_and_grads(v, t, head)
            assert loss >= 0.0

            def check(analytic, numeric):
                abs_err = abs(analytic - numeric)
                rel_err = abs_err / max(abs(numeric), 1e-30)
                assert rel_err <= 1e-6 or abs_err <= 1e-9, \
                    f"rel {rel_err:.2e} abs {abs_err:.2e}"

            for i in range(d_in):
                for j in range(d_out):
                    hp, hm = deepcopy(head), deepcopy(head)
                    hp.projection[i, j] += h
                    hm.projection[i, j] -= h
                    fd = (loss_and_grads(v, t, hp)[0]
                          - loss_and_grads(v, t, hm)[0]) / (2 * h)
                    check(d_proj[i, j], fd)
            for j in range(d_out):
                hp, hm = deepcopy(head), deepcopy(head)
                hp.bias[j] += h
                hm.bias[j] -= h
                fd = (loss_and_grads(v, t, hp)[0]
                      - loss_and_grads(v, t, hm)[0]) / (2 * h)
                check(d_bias[j], fd)
            hp, hm = deepcopy(head), deepcopy(head)
            hp.log_inv_tau += h
            hm.log_inv_tau -= h
            fd = (loss_and_grads(v, t, hp)[0]
                  - loss_and_grads(v, t, hm)[0]) / (2 * h)
            check(d_log_inv_tau, fd)


# ---------------------------------------------------------------------------
# 9. SNN semantics
# ---------------------------------------------------------------------------

def test_criterion_09_snn_semantics():
    with criterion(9, "binary stages, reparam identity"):
        rng = np.random.default_rng(1009)
        stream = SpikeStream(rng.integers(0, 2, size=(16, 32, 32),
                                          dtype=np.uint8))
        weights = init_fsve_weights(4, seed=1009)
        ledger, oracle_ledger = EnergyLedger(), EnergyLedger()
        embedding = fsve_forward(stream, weights, 2, ledger)
        expected, stages = fsve_forward_with_stages(stream, weights, 2,
                                                    oracle_ledger)
        assert embedding.tobytes() == expected.tobytes()
        assert ledger.to_json_list() == oracle_ledger.to_json_list()
        binary_stages = 0
        for name, tensor in stages.items():
            if np.asarray(tensor).dtype == np.uint8:
                assert set(np.unique(tensor)).issubset({0, 1}), name
                binary_stages += 1
        assert binary_stages >= 8

        for _ in range(1000):
            n = int(rng.integers(2, 6))
            corr = rng.normal(size=(n, n))
            v_th = float(rng.uniform(0.05, 3.0))
            scale = float(2.0 ** rng.integers(-3, 4))
            assert np.array_equal(corr * scale >= v_th,
                                  corr >= v_th / scale)


# ---------------------------------------------------------------------------
# 10. Energy model
# ---------------------------------------------------------------------------

def test_criterion_10_energy_model():
    with criterion(10, "Eq-level energy arithmetic and published totals"):
        ledger = EnergyLedger()
        ledger.record("model", spike_count=0, fan_out=1,
                      actual_sops=10 ** 9, neuron_ops=10 ** 8,
                      max_sops=10 ** 9)
        assert math.isclose(estimate_snn_energy(ledger), 4.69e-3,
                            rel_tol=1e-12)

        snn = EnergyLedger()
        snn.record("model", spike_count=0, fan_out=1,
                   actual_sops=round(0.356 / E_SOP_J), neuron_ops=0,
                   max_sops=round(1.469 / E_SOP_J))
        report = energy_report(snn)
        assert abs(report["reduction_pct"] - 75.8) < 0.1

        quiet = EnergyLedger()
        neuron_counts = [123, 4567, 89]
        for i, n in enumerate(neuron_counts):
            quiet.record(f"l{i}", spike_count=0, fan_out=9, actual_sops=0,
                         neuron_ops=n, max_sops=1000)
        floor = 0.0
        for n in neuron_counts:
            floor += 0 * E_SOP_J + n * E_NEURON_J
        assert estimate_snn_energy(quiet) == floor


# ---------------------------------------------------------------------------
# 11 + 12. Few-shot trend and pipeline determinism
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fewshot_metrics(tmp_path_factory):
    out = tmp_path_factory.mktemp("fewshot")
    config = PipelineConfig(seed=42, clips_per_class=20, test_per_class=12,
                            shots=(2, 4, 8), eval_seeds=(0, 1, 2, 3, 4))
    start = time.monotonic()
    metrics = run_pipeline(config, out)
    return metrics, time.monotonic() - start


def test_criterion_11_few_shot_trend(fewshot_metrics):
    with criterion(11, "4-shot above chance; 8-shot >= 2-shot; < 10 min"):
        metrics, elapsed = fewshot_metrics
        assert elapsed < 600.0, f"pipeline took {elapsed:.0f}s"
        four = metrics["shots"]["4"]["top1_mean"]
        two = metrics["shots"]["2"]["top1_mean"]
        eight = metrics["shots"]["8"]["top1_mean"]
        assert four > 0.25, f"4-shot mean {four:.3f} not above chance"
        assert eight >= two, f"8-shot {eight:.3f} < 2-shot {two:.3f}"


def test_criterion_12_pipeline_determinism(tmp_path):
    with criterion(12, "two seeded runs produce byte-identical artifacts"):
        config = PipelineConfig(seed=7, classes=("wave", "punch"),
                                clips_per_class=3, test_per_class=1,
                                shots=(2,), eval_seeds=(0, 1), epochs=20)
        run_pipeline(config, tmp_path / "a")
        run_pipeline(config, tmp_path / "b")
        for name in ("metrics.json", "ledger.json", "energy_report.json",
                     "embeddings_train.json", "embeddings_test.json",
                     "head_s2_seed0.json", "head_s2_seed1.json"):
            bytes_a = (tmp_path / "a" / name).read_bytes()
            bytes_b = (tmp_path / "b" / name).read_bytes()
            assert bytes_a == bytes_b, f"{name} differs between runs"
        metrics = json.loads((tmp_path / "a" / "metrics.json").read_text())
        assert "2" in metrics["shots"]
