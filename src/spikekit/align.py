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
from dataclasses import dataclass, field

import numpy as np

from .errors import DataIOError, PreconditionError

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
DEFAULT_TABLE_SIZE = 4096
DEFAULT_TABLE_SEED = 17
DEFAULT_INIT_INV_TAU = 14.29        # tau ~= 0.07


@dataclass(frozen=True)
class EmbeddingBatch:
    """B x D matrix of modal embeddings with a modality tag and optional
    integer class labels."""

    rows: np.ndarray
    modality: str
    labels: np.ndarray | None = None

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise PreconditionError(
                f"embedding batch must be [b, d] with b >= 1, got {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise PreconditionError("embeddings must be finite")
        if self.modality not in ("video", "text"):
            raise PreconditionError(f"unknown modality {self.modality!r}")
        object.__setattr__(self, "rows", rows)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (rows.shape[0],):
                raise PreconditionError("labels must have one entry per row")
            object.__setattr__(self, "labels", labels)


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
        return min(math.exp(self.log_inv_tau), self.clamp_max)

    @property
    def clamped(self) -> bool:
        return math.exp(self.log_inv_tau) >= self.clamp_max

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
                and np.all(np.isfinite(self.bias))):
            raise PreconditionError("head parameters must be finite")

    @property
    def d_in(self) -> int:
        return self.projection.shape[0]

    @property
    def d_out(self) -> int:
        return self.projection.shape[1]

    @classmethod
    def create(cls, d_in: int, d_out: int, seed: int,
               init_inv_tau: float = DEFAULT_INIT_INV_TAU) -> "AlignmentHead":
        rng = np.random.default_rng(seed)
        proj = rng.normal(0.0, 1.0 / math.sqrt(d_in), size=(d_in, d_out))
        return cls(projection=proj, bias=np.zeros(d_out),
                   temperature=Temperature(math.log(init_inv_tau)))

    def copy(self) -> "AlignmentHead":
        return AlignmentHead(self.projection.copy(), self.bias.copy(),
                             self.temperature.copy())

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


@dataclass(frozen=True)
class HeadGradients:
    projection: np.ndarray
    bias: np.ndarray
    log_inv_tau: float


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


_TABLE_CACHE: dict[tuple[int, int, int], np.ndarray] = {}


def token_table(dim: int, table_size: int = DEFAULT_TABLE_SIZE,
                seed: int = DEFAULT_TABLE_SEED) -> np.ndarray:
    """Fixed table of seeded pseudo-random unit vectors, memoized."""
    key = (dim, table_size, seed)
    if key not in _TABLE_CACHE:
        rng = np.random.default_rng(seed)
        table = rng.normal(size=(table_size, dim))
        table /= np.linalg.norm(table, axis=1, keepdims=True)
        _TABLE_CACHE[key] = table
    return _TABLE_CACHE[key]


def text_features(text_or_tokens, dim: int,
                  table_size: int = DEFAULT_TABLE_SIZE,
                  seed: int = DEFAULT_TABLE_SEED) -> np.ndarray:
    """Raw (pre-projection) bag-of-tokens feature: mean of hashed token
    vectors. Order-independent and vocabulary-free."""
    if isinstance(text_or_tokens, str):
        tokens = tokenize(text_or_tokens)
    else:
        tokens = [t.lower() for t in text_or_tokens]
        if not tokens:
            raise PreconditionError("token sequence is empty")
    table = token_table(dim, table_size, seed)
    # Canonical summation order makes the bag mean bit-identical under
    # token permutation.
    idx = sorted(fnv1a_64(tok) % table_size for tok in tokens)
    return table[idx].mean(axis=0)


def embed_text(text_or_tokens, head: AlignmentHead,
               table_size: int = DEFAULT_TABLE_SIZE,
               seed: int = DEFAULT_TABLE_SEED) -> np.ndarray:
    """Hashed bag-of-tokens feature pushed through the trainable head."""
    feats = text_features(text_or_tokens, head.d_in, table_size, seed)
    return head.project(feats)


# ---------------------------------------------------------------------------
# Similarity and loss
# ---------------------------------------------------------------------------

def cosine_similarity(v: np.ndarray, t: np.ndarray) -> float:
    v = np.asarray(v, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    nv, nt = np.linalg.norm(v), np.linalg.norm(t)
    if nv == 0.0 or nt == 0.0:
        raise PreconditionError("cosine similarity of a zero vector is undefined")
    return float(v @ t / (nv * nt))


def _rows(batch) -> np.ndarray:
    if isinstance(batch, EmbeddingBatch):
        return batch.rows
    arr = np.asarray(batch, dtype=np.float64)
    if arr.ndim != 2:
        raise PreconditionError(f"expected [b, d] embeddings, got {arr.shape}")
    return arr


def _normalize_rows(rows: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise PreconditionError(f"{what} contains a zero vector")
    return rows / norms


def contrastive_loss(video, text, temp: Temperature) -> float:
    """Symmetric InfoNCE over the cosine-similarity matrix.

    logits[i, j] = sim(v_i, t_j) / tau; the loss averages, over the
    batch, the negative log softmax probability of the matched text per
    video (row-wise) plus that of the matched video per text
    (column-wise). Non-negative; zero only when every softmax is a point
    mass on the diagonal.
    """
    v = _rows(video)
    t = _rows(text)
    if v.shape[0] != t.shape[0]:
        raise PreconditionError(
            f"batch sizes differ: {v.shape[0]} videos vs {t.shape[0]} texts")
    v_hat = _normalize_rows(v, "video batch")
    t_hat = _normalize_rows(t, "text batch")
    logits = (v_hat @ t_hat.T) * temp.inv_tau
    return _loss_from_logits(logits)


def _log_softmax(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def _loss_from_logits(logits: np.ndarray) -> float:
    b = logits.shape[0]
    row_lp = _log_softmax(logits, axis=1)
    col_lp = _log_softmax(logits, axis=0)
    diag = np.arange(b)
    return float(-(row_lp[diag, diag] + col_lp[diag, diag]).sum() / b)


# ---------------------------------------------------------------------------
# Analytic head gradients
# ---------------------------------------------------------------------------

def alignment_loss(v_feat: np.ndarray, t_feat: np.ndarray,
                   head: AlignmentHead) -> float:
    """Loss of raw (pre-projection) features pushed through the head."""
    loss, _ = _forward_backward(v_feat, t_feat, head, need_grads=False)
    return loss


def head_gradient(v_feat: np.ndarray, t_feat: np.ndarray,
                  head: AlignmentHead) -> HeadGradients:
    """Exact gradient of the contrastive loss w.r.t. projection, bias and
    log inverse-temperature, diagonal pairing assumed.

    The chain includes the unit normalization of the projected features;
    the temperature gradient is zero while the inverse temperature sits at
    its clamp ceiling.
    """
    _, grads = _forward_backward(v_feat, t_feat, head, need_grads=True)
    return grads


def alignment_loss_and_grads(v_feat, t_feat, head):
    return _forward_backward(v_feat, t_feat, head, need_grads=True)


def _forward_backward(v_feat, t_feat, head: AlignmentHead, need_grads: bool):
    v_feat = np.asarray(v_feat, dtype=np.float64)
    t_feat = np.asarray(t_feat, dtype=np.float64)
    if v_feat.ndim != 2 or t_feat.ndim != 2:
        raise PreconditionError("features must be [b, d_in] matrices")
    if v_feat.shape != t_feat.shape or v_feat.shape[1] != head.d_in:
        raise PreconditionError(
            f"feature shapes {v_feat.shape}/{t_feat.shape} do not match head "
            f"d_in={head.d_in}")
    b = v_feat.shape[0]

    p_v = head.project(v_feat)
    p_t = head.project(t_feat)
    nv = np.linalg.norm(p_v, axis=1, keepdims=True)
    nt = np.linalg.norm(p_t, axis=1, keepdims=True)
    if np.any(nv == 0.0) or np.any(nt == 0.0):
        raise PreconditionError("projected feature has zero norm")
    v_hat = p_v / nv
    t_hat = p_t / nt

    sims = v_hat @ t_hat.T
    inv_tau = head.temperature.inv_tau
    logits = sims * inv_tau
    loss = _loss_from_logits(logits)
    if not need_grads:
        return loss, None

    row_sm = np.exp(_log_softmax(logits, axis=1))
    col_sm = np.exp(_log_softmax(logits, axis=0))
    eye = np.eye(b)
    d_logits = (row_sm - eye) / b + (col_sm - eye) / b

    d_inv_tau = float(np.sum(d_logits * sims))
    d_log_inv_tau = 0.0 if head.temperature.clamped else d_inv_tau * inv_tau

    d_sims = d_logits * inv_tau
    d_v_hat = d_sims @ t_hat
    d_t_hat = d_sims.T @ v_hat
    # Backprop through row normalization: project out the radial component.
    d_p_v = (d_v_hat - (d_v_hat * v_hat).sum(axis=1, keepdims=True) * v_hat) / nv
    d_p_t = (d_t_hat - (d_t_hat * t_hat).sum(axis=1, keepdims=True) * t_hat) / nt

    d_proj = v_feat.T @ d_p_v + t_feat.T @ d_p_t
    d_bias = d_p_v.sum(axis=0) + d_p_t.sum(axis=0)
    return loss, HeadGradients(d_proj, d_bias, d_log_inv_tau)


# ---------------------------------------------------------------------------
# Few-shot fine-tuning
# ---------------------------------------------------------------------------

def finetune_head(support_set, shots: int, epochs: int, lr: float, seed: int,
                  head: AlignmentHead | None = None,
                  table_size: int = DEFAULT_TABLE_SIZE,
                  table_seed: int = DEFAULT_TABLE_SEED
                  ) -> tuple[AlignmentHead, list[float]]:
    """Plain gradient descent on the contrastive loss over support batches.

    ``support_set`` is a sequence of (raw feature vector, class prompt)
    pairs; the first ``shots`` items of each class (in sequence order) are
    used. Every batch pairs one sample per class with its prompt feature,
    so the diagonal pairing of the loss holds. Deterministic for a fixed
    seed: the seed drives only the per-epoch shuffling of samples within
    each class. Returns the trained head and the per-epoch mean loss
    trace.
    """
    if shots < 1:
        raise PreconditionError("shots must be >= 1")
    if epochs < 1:
        raise PreconditionError("epochs must be >= 1")
    by_class: dict[str, list[np.ndarray]] = {}
    for feats, prompt in support_set:
        by_class.setdefault(prompt, []).append(
            np.asarray(feats, dtype=np.float64))
    if not by_class:
        raise PreconditionError("support set is empty")
    prompts = list(by_class)
    for prompt in prompts:
        if len(by_class[prompt]) < shots:
            raise PreconditionError(
                f"class {prompt!r} has {len(by_class[prompt])} samples, "
                f"needs >= {shots}")
    d_in = by_class[prompts[0]][0].shape[0]
    if head is None:
        head = AlignmentHead.create(d_in, min(d_in, 32), seed)
    else:
        head = head.copy()
    text_feats = np.stack([text_features(p, d_in, table_size, table_seed)
                           for p in prompts])

    rng = np.random.default_rng(seed)
    trace: list[float] = []
    for _ in range(epochs):
        order = {p: rng.permutation(shots) for p in prompts}
        epoch_losses = []
        for j in range(shots):
            v_batch = np.stack([by_class[p][order[p][j]] for p in prompts])
            loss, grads = alignment_loss_and_grads(v_batch, text_feats, head)
            head.projection -= lr * grads.projection
            head.bias -= lr * grads.bias
            head.temperature.log_inv_tau -= lr * grads.log_inv_tau
            epoch_losses.append(loss)
        trace.append(float(np.mean(epoch_losses)))
    return head, trace


# ---------------------------------------------------------------------------
# Retrieval metrics
# ---------------------------------------------------------------------------

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
