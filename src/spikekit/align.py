"""Spike-text contrastive alignment and few-shot head fine-tuning.

The text side is a deterministic hashed bag-of-tokens embedder (a
training-free stand-in for a transformer text encoder), so every learnable
degree of freedom lives in the alignment head: one shared projection plus
bias applied to both modalities' raw features, and a learnable
inverse-temperature stored in log space. Head gradients are fully
analytic, including the unit-normalization in the chain, and are gated
against central finite differences in the test suite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DataIOError, PreconditionError

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
TABLE_SIZE = 4096
TABLE_SEED = 17
DEFAULT_INIT_INV_TAU = 14.29        # tau ~= 0.07


@dataclass
class Temperature:
    """Learnable inverse temperature, stored as log(1/tau) and clamped."""

    log_inv_tau: float = math.log(DEFAULT_INIT_INV_TAU)
    clamp_max: float = 100.0

    def __post_init__(self):
        if self.clamp_max <= 0:
            raise PreconditionError("clamp_max must be > 0")

    @property
    def inv_tau(self) -> float:
        return self.clamp_max if self.clamped else math.exp(self.log_inv_tau)

    @property
    def clamped(self) -> bool:
        try:
            return math.exp(self.log_inv_tau) >= self.clamp_max
        except OverflowError:       # e^x beyond float range tops any clamp
            return True

    def copy(self) -> "Temperature":
        return Temperature(self.log_inv_tau, self.clamp_max)


@dataclass
class AlignmentHead:
    """Trainable final layer: shared projection + bias and a temperature."""

    projection: np.ndarray          # [d_in, d_out]
    bias: np.ndarray                # [d_out]
    temperature: Temperature = field(default_factory=Temperature)

    def __post_init__(self):
        self.projection = np.asarray(self.projection, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.projection.ndim != 2:
            raise PreconditionError("projection must be a [d_in, d_out] matrix")
        if self.bias.shape != (self.projection.shape[1],):
            raise PreconditionError("bias must match projection output dim")
        if not (np.all(np.isfinite(self.projection))
                and np.all(np.isfinite(self.bias))
                and math.isfinite(self.temperature.log_inv_tau)):
            raise PreconditionError("head parameters must be finite")

    @property
    def d_in(self) -> int:
        return self.projection.shape[0]

    @classmethod
    def create(cls, d_in: int, d_out: int, seed: int) -> "AlignmentHead":
        rng = np.random.default_rng(seed)
        proj = rng.normal(0.0, 1.0 / math.sqrt(d_in), size=(d_in, d_out))
        return cls(projection=proj, bias=np.zeros(d_out))

    def project(self, feats: np.ndarray) -> np.ndarray:
        feats = np.asarray(feats, dtype=np.float64)
        return feats @ self.projection + self.bias

    def to_json_dict(self) -> dict:
        return {"projection": self.projection.tolist(),
                "bias": self.bias.tolist(),
                "log_inv_tau": self.temperature.log_inv_tau,
                "clamp_max": self.temperature.clamp_max}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "AlignmentHead":
        try:
            return cls(projection=np.array(obj["projection"]),
                       bias=np.array(obj["bias"]),
                       temperature=Temperature(float(obj["log_inv_tau"]),
                                               float(obj.get("clamp_max", 100.0))))
        except KeyError as exc:
            raise DataIOError(f"head JSON is missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataIOError(f"head JSON has a bad value: {exc}") from exc


# ---------------------------------------------------------------------------
# Text embedding
# ---------------------------------------------------------------------------

def tokenize(text: str) -> list[str]:
    tokens = text.lower().split()
    if not tokens:
        raise PreconditionError("text has no tokens")
    return tokens


def fnv1a_64(token: str) -> int:
    h = FNV_OFFSET
    for byte in token.encode("utf-8"):
        h ^= byte
        h = (h * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


_TABLE_CACHE: dict[int, np.ndarray] = {}


def token_table(dim: int) -> np.ndarray:
    """Fixed table of seeded pseudo-random unit vectors, memoized per dim."""
    if dim not in _TABLE_CACHE:
        rng = np.random.default_rng(TABLE_SEED)
        table = rng.normal(size=(TABLE_SIZE, dim))
        table /= np.linalg.norm(table, axis=1, keepdims=True)
        _TABLE_CACHE[dim] = table
    return _TABLE_CACHE[dim]


def text_features(text: str, dim: int) -> np.ndarray:
    """Raw (pre-projection) bag-of-tokens feature: mean of hashed token
    vectors. Order-independent, case-blind and vocabulary-free."""
    table = token_table(dim)
    # Canonical summation order makes the bag mean bit-identical under
    # token permutation.
    idx = sorted(fnv1a_64(tok) % TABLE_SIZE for tok in tokenize(text))
    return table[idx].mean(axis=0)


# ---------------------------------------------------------------------------
# Loss and analytic head gradients
# ---------------------------------------------------------------------------

def _log_softmax(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def _forward_backward(v_feat, t_feat, projection: np.ndarray,
                      bias: np.ndarray, temps: list[Temperature]):
    """Symmetric InfoNCE loss of S heads at once, and its exact gradients.

    Per head, the loss averages over the batch the negative log softmax of
    the matched text per video (row-wise) plus that of the matched video
    per text (column-wise), over the cosine similarities of the projected
    features over tau; row i of ``v_feat`` pairs with row i of ``t_feat``.
    The temperature gradient is zero while 1/tau sits at its clamp.

    Features are [S, b, d_in], the parameters [S, d_in, d_out] and
    [S, d_out], and ``temps`` holds the S temperatures. Returns the S
    losses, the projection and bias gradients and the S log
    inverse-temperature gradients as Python floats.

    Every product is one BLAS call per head and every reduction runs
    within one head, so each head gets the bits it would get alone.
    """
    v_feat = np.asarray(v_feat, dtype=np.float64)
    t_feat = np.asarray(t_feat, dtype=np.float64)
    n_heads, d_in = projection.shape[:2]
    if v_feat.ndim != 3 or v_feat.shape != t_feat.shape \
            or v_feat.shape[0] != n_heads or v_feat.shape[2] != d_in:
        raise PreconditionError(
            f"feature shapes {v_feat.shape}/{t_feat.shape} do not match "
            f"{n_heads} head(s) of d_in={d_in}")
    b = v_feat.shape[1]

    p_v = v_feat @ projection + bias[:, None, :]
    p_t = t_feat @ projection + bias[:, None, :]
    nv = np.linalg.norm(p_v, axis=-1, keepdims=True)
    nt = np.linalg.norm(p_t, axis=-1, keepdims=True)
    if np.any(nv == 0.0) or np.any(nt == 0.0):
        raise PreconditionError("projected feature has zero norm")
    v_hat = p_v / nv
    t_hat = p_t / nt

    sims = v_hat @ t_hat.swapaxes(-1, -2)
    # math.exp per head, as Temperature computes it: np.exp may round
    # differently from libm.
    inv_tau = np.array([temp.inv_tau for temp in temps])[:, None, None]
    logits = sims * inv_tau
    row_lp = _log_softmax(logits, axis=-1)
    col_lp = _log_softmax(logits, axis=-2)
    diag = np.arange(b)
    loss = -(row_lp[:, diag, diag] + col_lp[:, diag, diag]).sum(axis=-1) / b

    eye = np.eye(b)
    d_logits = (np.exp(row_lp) - eye) / b + (np.exp(col_lp) - eye) / b
    d_inv_tau = (d_logits * sims).reshape(n_heads, b * b).sum(axis=1)
    d_log_inv_tau = [0.0 if temp.clamped else float(d) * temp.inv_tau
                     for temp, d in zip(temps, d_inv_tau)]

    d_sims = d_logits * inv_tau
    d_v_hat = d_sims @ t_hat
    d_t_hat = d_sims.swapaxes(-1, -2) @ v_hat
    # Backprop through row normalization: project out the radial component.
    d_p_v = (d_v_hat - (d_v_hat * v_hat).sum(axis=-1, keepdims=True)
             * v_hat) / nv
    d_p_t = (d_t_hat - (d_t_hat * t_hat).sum(axis=-1, keepdims=True)
             * t_hat) / nt

    d_proj = v_feat.swapaxes(-1, -2) @ d_p_v + t_feat.swapaxes(-1, -2) @ d_p_t
    d_bias = d_p_v.sum(axis=-2) + d_p_t.sum(axis=-2)
    return loss, d_proj, d_bias, d_log_inv_tau


# ---------------------------------------------------------------------------
# Few-shot fine-tuning
# ---------------------------------------------------------------------------

def finetune_head(feats, shots: int, epochs: int, lr: float, seeds,
                  heads: list[AlignmentHead], prompts: list[str]
                  ) -> list[tuple[AlignmentHead, list[float]]]:
    """Plain gradient descent on the contrastive loss, for a batch of heads
    trained in lockstep.

    ``feats`` is [S, classes, n, d_in]: head ``i`` starts from ``heads[i]``
    and trains on the first ``shots`` rows ``feats[i, c, :shots]`` of each
    class ``c``, whose prompt is ``prompts[c]``. Every batch pairs one
    sample per class with its prompt feature, so the diagonal pairing of
    the loss holds; prompts with equal text features (the same tokens in
    any case or order) are rejected. ``seeds[i]`` drives only head ``i``'s
    per-epoch shuffling of samples within each class. The heads share
    ``shots``, ``epochs`` and ``lr``, and each ends bit-identical to
    training it alone (a batch of one). ``lr`` must be finite and
    positive, and training raises at the first step that leaves a
    parameter of some head not finite.
    Returns, per head, the trained copy and its per-epoch mean loss trace.
    """
    if epochs < 1 or not 0 < lr <= sys.float_info.max:
        raise PreconditionError(
            f"epochs must be >= 1 and lr finite and > 0, got {epochs}, {lr}")
    if not heads or not len(feats) == len(seeds) == len(heads):
        raise PreconditionError(
            "need one support set and one seed per head, and a head")
    feats = np.asarray(feats, dtype=np.float64)
    d_in = heads[0].d_in
    if not prompts or feats.ndim != 4 or feats.shape[1] != len(prompts) \
            or not 1 <= shots <= feats.shape[2] or feats.shape[3] != d_in \
            or len({head.projection.shape for head in heads}) != 1:
        raise PreconditionError(
            f"heads trained together need one shape: support features "
            f"{feats.shape} must be [{len(heads)} heads, {len(prompts)} >= 1 "
            f"classes, n >= {shots} = shots >= 1, d_in={d_in} of every head]")
    text_feats = np.stack([text_features(p, d_in) for p in prompts])
    _, first = np.unique(text_feats, axis=0, return_index=True)
    if len(first) < len(prompts):
        dup = prompts[min(set(range(len(prompts))) - set(first.tolist()))]
        raise PreconditionError(f"prompt {dup!r} has the tokens of an earlier "
                                f"prompt in some case or order")
    feats = feats[:, :, :shots]
    text_feats = np.repeat(text_feats[None], len(heads), axis=0)

    projection = np.stack([head.projection for head in heads])
    bias = np.stack([head.bias for head in heads])
    temps = [head.temperature.copy() for head in heads]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    n_heads, n_classes = feats.shape[:2]
    head_idx = np.arange(n_heads)[:, None]
    class_idx = np.arange(n_classes)[None, :]
    losses = np.empty((n_heads, shots))
    traces: list[list[float]] = [[] for _ in heads]
    for epoch in range(epochs):
        order = np.array([[rng.permutation(shots) for _ in range(n_classes)]
                          for rng in rngs])
        for j in range(shots):
            v_batch = feats[head_idx, class_idx, order[:, :, j]]
            # A step that overflows is caught by the check below, not
            # reported by numpy.
            with np.errstate(over="ignore", invalid="ignore"):
                losses[:, j], d_proj, d_bias, d_log_inv_tau = \
                    _forward_backward(v_batch, text_feats, projection, bias,
                                      temps)
                projection -= lr * d_proj
                bias -= lr * d_bias
            for temp, d in zip(temps, d_log_inv_tau):
                temp.log_inv_tau -= lr * d
            if not (np.isfinite(projection).all() and np.isfinite(bias).all()
                    and all(math.isfinite(t.log_inv_tau) for t in temps)):
                raise PreconditionError(
                    f"training diverged at epoch {epoch}, step {j}: a head "
                    f"parameter left float range (lr={lr})")
        for trace, epoch_losses in zip(traces, losses):
            trace.append(float(np.mean(epoch_losses)))
    return [(AlignmentHead(p, b, temp), trace)
            for p, b, temp, trace in zip(projection, bias, temps, traces)]


# ---------------------------------------------------------------------------
# Retrieval metrics
# ---------------------------------------------------------------------------

def _rows(batch) -> np.ndarray:
    arr = np.asarray(batch, dtype=np.float64)
    if arr.ndim != 2:
        raise PreconditionError(f"expected [b, d] embeddings, got {arr.shape}")
    return arr


def _normalize_rows(rows: np.ndarray, what: str) -> np.ndarray:
    """Unit rows; a zero row, or one whose norm is not finite (NaN,
    infinite or beyond float range), raises."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
    if not np.all((norms > 0.0) & (norms <= sys.float_info.max)):
        raise PreconditionError(
            f"{what} contains a zero or non-finite vector")
    return rows / norms


def evaluate_topk(video_embs, class_text_embs, labels, k: int) -> float:
    """Top-k classification accuracy under cosine ranking.

    Classes are ranked per video by cosine similarity; ties break toward
    the lower class index. A video counts as a hit when its true label is
    within the first k ranks.
    """
    v = _rows(video_embs)
    c = _rows(class_text_embs)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = c.shape[0]
    if not 1 <= k <= n_classes:
        raise PreconditionError(
            f"k={k} must lie in [1, class count {n_classes}]")
    if labels.shape != (v.shape[0],):
        raise PreconditionError("labels must have one entry per video")
    if labels.size == 0:
        raise PreconditionError("cannot evaluate an empty batch")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise PreconditionError(
            f"labels must lie in [0, {n_classes}), got "
            f"[{labels.min()}, {labels.max()}]")
    v_hat = _normalize_rows(v, "video embeddings")
    c_hat = _normalize_rows(c, "class embeddings")
    sims = v_hat @ c_hat.T
    ranking = np.argsort(-sims, axis=1, kind="stable")
    hits = (ranking[:, :k] == labels[:, None]).any(axis=1)
    return float(hits.mean())
