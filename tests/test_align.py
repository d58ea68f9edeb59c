"""Contrastive alignment tests.

The finite-difference gradient gate is the module's primary correctness
check: every analytic gradient entry must match central differences at
h = 1e-5 within 1e-6 relative or 1e-9 absolute.
"""

import math
import os
import subprocess
import sys
from copy import deepcopy
from pathlib import Path

import numpy as np
import pytest

import spikekit
from oracles import contrastive_loss, loss_and_grads
from spikekit.align import (INV_TAU_MAX, TABLE_SEED, TABLE_SIZE,
                            AlignmentHead, _inv_tau, evaluate_topk,
                            finetune_head, fnv1a_64, text_features, tokenize)
from spikekit.errors import PreconditionError
from spikekit.jsonio import read_json, write_json
from spikekit.synth import CLASS_PROMPTS

UNIT_TAU = 0.0          # log(1/tau) of tau = 1


def fd_gradients(v_feat, t_feat, head, h=1e-5):
    """Central-difference oracle over every head parameter."""
    def loss(hd):
        return loss_and_grads(v_feat, t_feat, hd)[0]

    proj = np.zeros_like(head.projection)
    for i in range(proj.shape[0]):
        for j in range(proj.shape[1]):
            hp, hm = deepcopy(head), deepcopy(head)
            hp.projection[i, j] += h
            hm.projection[i, j] -= h
            proj[i, j] = (loss(hp) - loss(hm)) / (2 * h)
    bias = np.zeros_like(head.bias)
    for j in range(bias.size):
        hp, hm = deepcopy(head), deepcopy(head)
        hp.bias[j] += h
        hm.bias[j] -= h
        bias[j] = (loss(hp) - loss(hm)) / (2 * h)
    hp, hm = deepcopy(head), deepcopy(head)
    hp.log_inv_tau += h
    hm.log_inv_tau -= h
    temp = (loss(hp) - loss(hm)) / (2 * h)
    return proj, bias, temp


def assert_close_grads(analytic, numeric, what):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    abs_err = np.abs(analytic - numeric)
    rel_err = abs_err / np.maximum(np.abs(numeric), 1e-30)
    ok = (rel_err <= 1e-6) | (abs_err <= 1e-9)
    assert ok.all(), \
        f"{what}: worst rel {rel_err.max():.3e}, abs {abs_err.max():.3e}"


# ---------------------------------------------------------------------------
# Text embedding
# ---------------------------------------------------------------------------

def embed_text(text: str, head: AlignmentHead) -> np.ndarray:
    """A prompt's text features through the head, as evaluate_head ranks
    them."""
    return head.project(text_features(text, head.d_in))


def test_embed_text_is_deterministic():
    head = AlignmentHead.create(16, 8, seed=0)
    a = embed_text("a person waving one hand", head)
    b = embed_text("a person waving one hand", head)
    assert np.array_equal(a, b)


def test_embed_text_is_order_invariant_bag():
    head = AlignmentHead.create(16, 8, seed=1)
    a = embed_text("waving person a", head)
    b = embed_text("a person waving", head)
    assert np.array_equal(a, b)


def test_class_prompts_are_mutually_distinguishable():
    prompts = list(CLASS_PROMPTS.values())
    feats = [text_features(p, 32) for p in prompts]
    for i in range(len(feats)):
        for j in range(i + 1, len(feats)):
            cosine = feats[i] @ feats[j] / (np.linalg.norm(feats[i])
                                            * np.linalg.norm(feats[j]))
            assert cosine < 0.99, (prompts[i], prompts[j])


def _whole_table_features(text, dim):
    """The bag mean read from the whole seeded table of unit rows."""
    table = np.random.default_rng(TABLE_SEED).normal(size=(TABLE_SIZE, dim))
    table /= np.linalg.norm(table, axis=1, keepdims=True)
    rows = sorted(fnv1a_64(tok) % TABLE_SIZE for tok in text.lower().split())
    return table[rows].mean(axis=0)


@pytest.mark.parametrize("dim", [32, 64])
def test_text_features_keep_the_bytes_of_the_whole_table(dim):
    for prompt in CLASS_PROMPTS.values():
        want = _whole_table_features(prompt, dim).tobytes()
        shuffled = " ".join(reversed(prompt.upper().split()))
        for text in (prompt, shuffled, prompt):
            got = text_features(text, dim)
            assert got.tobytes() == want, text
            got[:] = 0.0        # the caller's copy, not the kept vector
        assert text_features(shuffled, dim).tobytes() == want


def test_text_features_keep_no_token_table():
    # Only the four prompts' vectors stay alive, not the TABLE_SIZE x dim
    # table they were read from (2 MiB at dim 64). A fresh interpreter, so
    # no earlier call has built a dim-64 table; one call at dim 8 first
    # does the imports numpy makes on first use.
    program = ("import tracemalloc\n"
               "from spikekit.align import text_features\n"
               "from spikekit.synth import CLASS_PROMPTS\n"
               "text_features('warm up', 8)\n"
               "tracemalloc.start()\n"
               "for prompt in CLASS_PROMPTS.values():\n"
               "    text_features(prompt, 64)\n"
               "print(tracemalloc.get_traced_memory()[0])\n")
    src = str(Path(spikekit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", program], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120)
    assert int(run.stdout) < 64 * 1024


def test_tokenize_rejects_empty():
    with pytest.raises(PreconditionError):
        tokenize("   ")


def test_tokenize_lowercases_and_splits():
    assert tokenize("Wave HELLO twice") == ["wave", "hello", "twice"]


# ---------------------------------------------------------------------------
# Contrastive loss
# ---------------------------------------------------------------------------

def test_loss_singleton_batch_is_zero():
    rng = np.random.default_rng(112)
    v = rng.normal(size=(1, 6))
    t = rng.normal(size=(1, 6))
    assert contrastive_loss(v, t, UNIT_TAU) == pytest.approx(0.0, abs=1e-15)


def test_loss_identity_similarity_constant():
    v = np.eye(2)
    expected = 2.0 * (math.log(1.0 + math.e) - 1.0)
    assert contrastive_loss(v, v, UNIT_TAU) == pytest.approx(expected,
                                                             abs=1e-9)


def test_loss_invariances_on_random_batches():
    rng = np.random.default_rng(113)
    temp = math.log(5.0)
    for _ in range(100):
        b = int(rng.integers(2, 7))
        d = int(rng.integers(2, 10))
        v = rng.normal(size=(b, d))
        t = rng.normal(size=(b, d))
        base = contrastive_loss(v, t, temp)
        assert base >= 0.0
        perm = rng.permutation(b)
        assert contrastive_loss(v[perm], t[perm], temp) == \
            pytest.approx(base, rel=1e-12)
        scales_v = rng.uniform(0.1, 10.0, size=(b, 1))
        scales_t = rng.uniform(0.1, 10.0, size=(b, 1))
        assert contrastive_loss(v * scales_v, t * scales_t, temp) == \
            pytest.approx(base, rel=1e-12)


def test_loss_approaches_zero_on_one_hot_match():
    v = np.eye(4)
    sharp = math.log(100.0)
    assert contrastive_loss(v, v, sharp) < 1e-8


def test_loss_batch_mismatch():
    with pytest.raises(PreconditionError):
        contrastive_loss(np.ones((2, 4)), np.ones((3, 4)), UNIT_TAU)


# ---------------------------------------------------------------------------
# Gradient gate
# ---------------------------------------------------------------------------

def test_gradients_match_finite_differences_100_instances():
    rng = np.random.default_rng(115)
    for _ in range(100):
        b = int(rng.integers(1, 9))
        d_in = int(rng.integers(2, 17))
        d_out = int(rng.integers(2, 17))
        v = rng.normal(size=(b, d_in))
        t = rng.normal(size=(b, d_in))
        head = AlignmentHead.create(d_in, d_out,
                                    seed=int(rng.integers(2 ** 31)))
        _, d_proj, d_bias, d_log_inv_tau = loss_and_grads(v, t, head)
        fd_proj, fd_bias, fd_temp = fd_gradients(v, t, head)
        assert_close_grads(d_proj, fd_proj, "projection")
        assert_close_grads(d_bias, fd_bias, "bias")
        assert_close_grads(d_log_inv_tau, fd_temp, "log_inv_tau")


def test_gradients_hold_across_temperature_grid():
    # Sharper losses have larger third derivatives, so the oracle here
    # uses a finer step; h = 1e-5 truncation would dominate the error.
    rng = np.random.default_rng(126)
    v = rng.normal(size=(5, 10))
    t = rng.normal(size=(5, 10))
    for log_inv_tau in (-1.0, 0.0, 1.0, 2.0, 3.0, math.log(99.0)):
        head = AlignmentHead.create(10, 8, seed=126)
        head.log_inv_tau = log_inv_tau
        _, d_proj, d_bias, d_log_inv_tau = loss_and_grads(v, t, head)
        fd_proj, fd_bias, fd_temp = fd_gradients(v, t, head, h=1e-6)
        for analytic, numeric in ((d_proj, fd_proj), (d_bias, fd_bias),
                                  (d_log_inv_tau, fd_temp)):
            abs_err = np.abs(np.asarray(analytic) - np.asarray(numeric))
            rel_err = abs_err / np.maximum(np.abs(numeric), 1e-30)
            assert ((rel_err <= 1e-5) | (abs_err <= 1e-9)).all(), \
                f"log_inv_tau={log_inv_tau}: rel {rel_err.max():.2e}"


def test_gradient_near_zero_at_sharp_symmetric_optimum():
    rng = np.random.default_rng(116)
    feats = rng.normal(size=(4, 12))
    head = AlignmentHead.create(12, 8, seed=116)
    head.log_inv_tau = math.log(200.0)     # clamps at 100
    assert _inv_tau(head.log_inv_tau)[0] == 100.0
    d_proj = loss_and_grads(feats, feats, head)[1]
    assert np.linalg.norm(d_proj) < 1e-3


def test_temperature_gradient_zero_for_equal_logits():
    # Every row identical makes all similarities equal: uniform softmax,
    # and the temperature gradient cancels by symmetry.
    v = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
    head = AlignmentHead(projection=np.eye(3), bias=np.zeros(3),
                         log_inv_tau=0.5)
    d_log_inv_tau = loss_and_grads(v, v.copy(), head)[3]
    assert d_log_inv_tau == pytest.approx(0.0, abs=1e-12)


def test_clamped_temperature_has_zero_gradient():
    rng = np.random.default_rng(117)
    v = rng.normal(size=(3, 4))
    t = rng.normal(size=(3, 4))
    head = AlignmentHead.create(4, 4, seed=117)
    head.log_inv_tau = math.log(150.0)
    d_log_inv_tau = loss_and_grads(v, t, head)[3]
    assert d_log_inv_tau == 0.0


def test_temperature_beyond_float_range_stays_clamped():
    # e^1000 overflows a float; a diverging step can put log(1/tau) there.
    inv_tau, clamped = _inv_tau(1000.0)
    assert clamped and inv_tau == INV_TAU_MAX


# ---------------------------------------------------------------------------
# Few-shot fine-tuning
# ---------------------------------------------------------------------------

def test_finetune_single_class_is_noop():
    rng = np.random.default_rng(118)
    support = rng.normal(size=(1, 1, 4, 8))
    head = AlignmentHead.create(8, 4, seed=118)
    before = deepcopy(head)
    (trained, trace), = finetune_head(support, shots=4, epochs=10, lr=0.1,
                                      seeds=[0], heads=[head],
                                      prompts=["a person waving one hand"])
    assert trace == pytest.approx([0.0] * 10, abs=1e-12)
    assert np.array_equal(trained.projection, before.projection)
    assert np.array_equal(trained.bias, before.bias)


def test_finetune_reduces_loss_on_separable_features():
    rng = np.random.default_rng(119)
    prompts = list(CLASS_PROMPTS.values())
    support = np.empty((1, 4, 8, 16))
    for label in range(4):
        center = np.zeros(16)
        center[label * 4:(label + 1) * 4] = 2.0
        for i in range(8):
            support[0, label, i] = center + 0.1 * rng.normal(size=16)
    (head, trace), = finetune_head(support, shots=8, epochs=100, lr=0.05,
                                   seeds=[7],
                                   heads=[AlignmentHead.create(16, 16, 7)],
                                   prompts=prompts)
    assert trace[-1] < trace[0]


def test_finetune_is_bit_deterministic():
    rng = np.random.default_rng(120)
    prompts = list(CLASS_PROMPTS.values())[:2]
    support = rng.normal(size=(1, 4, 2, 8)).swapaxes(1, 2)
    head = AlignmentHead.create(8, 8, seed=3)
    (a, trace_a), = finetune_head(support, shots=4, epochs=30, lr=0.05,
                                  seeds=[3], heads=[head], prompts=prompts)
    (b, trace_b), = finetune_head(support, shots=4, epochs=30, lr=0.05,
                                  seeds=[3], heads=[head], prompts=prompts)
    assert np.array_equal(a.projection, b.projection)
    assert np.array_equal(a.bias, b.bias)
    assert a.log_inv_tau == b.log_inv_tau
    assert trace_a == trace_b


def test_finetune_requires_enough_shots():
    support = np.ones((1, 2, 1, 4))
    with pytest.raises(PreconditionError):
        finetune_head(support, shots=2, epochs=1, lr=0.1, seeds=[0],
                      heads=[AlignmentHead.create(4, 4, seed=0)],
                      prompts=["a person waving one hand",
                               "a person punching forward"])


def test_finetune_empty_support():
    with pytest.raises(PreconditionError):
        finetune_head(np.zeros((1, 0, 1, 4)), shots=1, epochs=1, lr=0.1,
                      seeds=[0], heads=[AlignmentHead.create(4, 4, seed=0)],
                      prompts=[])


def _lockstep_batch(seed, n_heads=4, d_in=12, shots=3):
    """Support features, shuffle seeds and heads for a lockstep batch; the
    last head starts with its temperature at the clamp."""
    rng = np.random.default_rng(seed)
    supports = rng.normal(size=(n_heads, len(CLASS_PROMPTS), shots + 1, d_in))
    seeds = [int(s) for s in rng.integers(2 ** 31, size=n_heads)]
    heads = [AlignmentHead.create(d_in, 8, seed=int(rng.integers(2 ** 31)))
             for _ in range(n_heads)]
    heads[-1].log_inv_tau = math.log(150.0)
    return supports, seeds, heads


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lockstep_heads_equal_heads_trained_alone(seed):
    supports, seeds, heads = _lockstep_batch(seed)
    prompts = list(CLASS_PROMPTS.values())
    together = finetune_head(supports, 3, 25, 0.05, seeds, heads, prompts)
    assert len(together) == len(heads)
    for i, (head, trace) in enumerate(together):
        (alone, alone_trace), = finetune_head(supports[i:i + 1], 3, 25, 0.05,
                                              [seeds[i]], [heads[i]], prompts)
        assert head.projection.tobytes() == alone.projection.tobytes()
        assert head.bias.tobytes() == alone.bias.tobytes()
        assert head.log_inv_tau == alone.log_inv_tau
        assert np.array(trace).tobytes() == np.array(alone_trace).tobytes()
        assert not np.array_equal(head.projection, heads[i].projection)


def test_lockstep_batch_shape_errors():
    supports, seeds, heads = _lockstep_batch(3)
    prompts = list(CLASS_PROMPTS.values())
    with pytest.raises(PreconditionError, match="one seed per head"):
        finetune_head(supports, 3, 1, 0.05, seeds[:-1], heads, prompts)
    with pytest.raises(PreconditionError, match="one seed per head"):
        finetune_head([], 3, 1, 0.05, [], [], prompts)
    supports = supports[:, 1:]            # drop one of the four classes
    with pytest.raises(PreconditionError, match="one shape"):
        finetune_head(supports, 1, 1, 0.05, seeds, heads, prompts)


# ---------------------------------------------------------------------------
# Top-k evaluation
# ---------------------------------------------------------------------------

def test_topk_equals_class_count_is_perfect():
    rng = np.random.default_rng(121)
    videos = rng.normal(size=(10, 6))
    classes = rng.normal(size=(4, 6))
    labels = rng.integers(0, 4, size=10)
    assert evaluate_topk(videos, classes, labels, k=4) == 1.0


def test_topk_one_hot_alignment():
    classes = np.eye(4)
    labels = np.array([0, 1, 2, 3, 2, 1])
    videos = classes[labels]
    assert evaluate_topk(videos, classes, labels, k=1) == 1.0


def test_topk_chance_level_monte_carlo():
    rng = np.random.default_rng(122)
    videos = rng.normal(size=(10_000, 8))
    classes = rng.normal(size=(4, 8))
    labels = rng.integers(0, 4, size=10_000)
    acc = evaluate_topk(videos, classes, labels, k=1)
    assert abs(acc - 0.25) < 0.02


def test_topk_monotone_in_k():
    rng = np.random.default_rng(123)
    videos = rng.normal(size=(50, 6))
    classes = rng.normal(size=(5, 6))
    labels = rng.integers(0, 5, size=50)
    accs = [evaluate_topk(videos, classes, labels, k) for k in (1, 2, 3, 4, 5)]
    assert all(b >= a for a, b in zip(accs, accs[1:]))
    assert accs[-1] == 1.0


def test_topk_scale_invariance():
    rng = np.random.default_rng(124)
    videos = rng.normal(size=(20, 6))
    classes = rng.normal(size=(4, 6))
    labels = rng.integers(0, 4, size=20)
    base = evaluate_topk(videos, classes, labels, k=1)
    assert evaluate_topk(videos * 10.0, classes * 0.01, labels, k=1) == base


def test_topk_tie_break_prefers_lower_class_index():
    videos = np.array([[1.0, 0.0]])
    classes = np.array([[1.0, 0.0], [1.0, 0.0]])    # identical similarity
    assert evaluate_topk(videos, classes, np.array([0]), k=1) == 1.0
    assert evaluate_topk(videos, classes, np.array([1]), k=1) == 0.0


def test_topk_precondition_errors():
    videos = np.ones((2, 3))
    classes = np.ones((2, 3))
    with pytest.raises(PreconditionError):
        evaluate_topk(videos, classes, np.array([0, 1]), k=3)
    with pytest.raises(PreconditionError):
        evaluate_topk(videos, classes, np.array([0, 2]), k=1)


def test_topk_empty_batch_is_precondition_error():
    with pytest.raises(PreconditionError, match="empty batch"):
        evaluate_topk(np.zeros((0, 3)), np.ones((2, 3)),
                      np.zeros(0, dtype=np.int64), k=1)


# ---------------------------------------------------------------------------
# Head and temperature plumbing
# ---------------------------------------------------------------------------

def test_head_json_roundtrip(tmp_path):
    head = AlignmentHead.create(6, 4, seed=125)
    head.log_inv_tau = 1.25
    path = tmp_path / "head.json"
    write_json({"head": head.to_json_dict()}, path)
    back = AlignmentHead.from_json_dict(read_json(path)["head"])
    assert np.array_equal(back.projection, head.projection)
    assert np.array_equal(back.bias, head.bias)
    assert back.log_inv_tau == head.log_inv_tau
    # Older head files carry a clamp_max, which is ignored.
    assert "clamp_max" not in head.to_json_dict()
    old = dict(head.to_json_dict(), clamp_max=5.0)
    assert AlignmentHead.from_json_dict(old).to_json_dict() == \
        head.to_json_dict()


def test_temperature_clamp_and_validation():
    assert _inv_tau(math.log(500.0))[0] == 100.0
    assert _inv_tau(0.0)[0] == 1.0
    with pytest.raises(PreconditionError):
        AlignmentHead(np.eye(2), np.zeros(2), log_inv_tau=math.inf)
