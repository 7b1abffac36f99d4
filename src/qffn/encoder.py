"""Compact BERT-style encoder with swappable feedforward sublayers.

Two post-norm transformer layers over token + learned position embeddings,
multi-head self-attention, and a linear classifier reading the first sequence
position (the classification token). The feedforward sublayer of every layer
is the one its ``FfnKind`` names: the position-wise GELU MLP ("classical",
the reference configuration), or a quantum block ("qffn", "vanilla_qffn")
with the ansatz and internal residual that ``feedforward.QUANTUM_BLOCKS``
maps the kind to. The quantum block maps each sample's classification row;
every other row passes through it unchanged.

Each sublayer sits inside the standard post-norm residual,
``h <- LayerNorm(h + sublayer(h))``, every layer norm adding BERT's 1e-12
(``LAYER_NORM_EPS``, a constant) to the variance; the quantum block's internal
residual exists in addition to that outer one.

Rows are selected once per batch, as a ``RowSet`` of the token rows: every
[PAD] id is padding, wherever it stands. The embedding gathers those rows into
an [N, H] matrix, and every layer reads that matrix.
Every layer but the last is full self-attention over those N rows, so its
output is the next layer's [N, H] input. For the score matmuls, rows are
scattered into zero [B, heads, W, H / heads] grids, where W is one past the
last position of the row set, so the scores are [B, heads, W, W]. A grid cell
that is no row holds a zero query, key and value: its probability row is
still a distribution that nothing reads, and a zero key carries the padding
bias like any padding key.

The last layer computes row 0 alone, the only row that reaches the
classifier, and its [B, H] output is ``cache["final"]`` as [B, 1, H]. Its
attention folds W_k and W_v to the query side, so no key or value is
projected per row: per head, the score of row j is ``(q W_k) . h_j`` and the
context is ``W_v (sum_j p_j h_j) + b_v``, with h read from one zero [B, W, H]
grid of the layer input. Attention has no key bias: ``q . b_k`` would be one
constant per query, which softmax cancels, so no layer's ``b_k`` could reach
an output.
The Q and output projections, both residual adds, both layer norms and the
feedforward sublayer run on a layer's query rows only.

Skipping padding rows cannot change the logits: a padding key's score carries
the -1e9 bias, so its weight is exp(-1e9) = 0.0 exactly, and a padding row
reaches later layers only as such a key. Its key and value are never read,
so any finite value (zero here) gives bitwise the same logits. This needs a
token at position 0, the classification token: a sample whose keys were all
padding would spread its weight over them, so ``_check_inputs`` rejects a
[PAD] there. Backward is the exact adjoint: query and residual gradients
exist for the query rows only, key and value gradients for the token rows,
and every gradient into a padding row is exactly zero. The embedding
gradients add each row's gradient into its token's and its position's row by
one weighted ``np.bincount`` per table over the flat (row, column) index. That
adds each bin's terms in row order from +0.0, the order of ``np.add.at`` into
zeros, so the bytes are the scatter's, in under a third of its time.

Caches. ``model_backward``'s forward keeps, per layer, what ``_backward``
reads, each array once: where each sample's row 0 sits among the query rows;
the attention's ``(h, q, k, v, probs, ctx)`` (layer input, query/key/value
grids, softmax, context) in a full layer, and ``(grid, q, q W_k, pooled,
probs, ctx, x)`` (input grid, per-head queries, folded queries,
probability-weighted input, softmax [B, heads, 1, W], context, query rows) in
the last; each layer norm's ``(xhat, inv_std)``, the feedforward input
``mid``, and the classical MLP's ``(pre, cdf)``; the quantum block keeps
nothing and re-runs its circuit. ``_backward`` pops each
layer's cache once that layer's gradients exist. ``model_forward`` (every
evaluation pass and finite-difference check) keeps no cache: a sublayer's
intermediates are freed once the forward moves on.

Inputs: ``token_ids`` is a non-empty [batch, seq] array of an integer dtype
(bool is not one), ids in [0, vocab_size), seq <= max_seq_len, no [PAD] at 0;
``labels`` is a [batch] array of an integer dtype with values in
[0, num_classes). Anything else raises ``ValueError`` naming the argument.

All forward and backward arithmetic is explicit numpy; gradients for the
circuit angles arrive through the parameter-shift rule inside the quantum
block. Weights are float64 in memory and serialize to a little-endian
float32 archive with a JSON manifest, which records the archive's format
version and sha256.

Initialization: weight matrices and embeddings N(0, 0.02), biases zero,
layer-norm scale one / shift zero, circuit angles uniform(-pi, pi). No
randomness enters a training step: it is a fixed function of weights and batch.
"""
from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .circuits import MAX_PQC_LAYERS, PqcConfig
from .data import PAD_ID, atomic_write, check_seed
from .feedforward import (
    INIT_STD,
    QUANTUM_BLOCKS,
    ClassicalFeedForward,
    FfnKind,
    Module,
    QffnBlock,
    classical_ffn_param_count,
    make_ffn_block,
    qffn_backward,
    qffn_forward,
    quantum_ffn_param_count,
)

MASK_BIAS = -1e9
LAYER_NORM_EPS = 1e-12


class ModelConfigError(ValueError):
    """Invalid ``ModelConfig`` value; ``field`` names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field} {message}")


# Lower bounds of the integer fields; vocab_size must cover the special tokens.
MODEL_MINIMUMS = {
    "vocab_size": 4, "num_classes": 2, "hidden": 1, "num_layers": 1, "num_heads": 1,
    "intermediate": 1, "max_seq_len": 2, "pqc_layers": 1,
}
# Upper bounds of the sizes that allocate beyond the parameters: every encoded
# split is two [N, max_seq_len] arrays, and a circuit's shift tables and
# compiled quadratic forms grow with its depth. 8192 is 16x BERT-base's length.
MODEL_MAXIMUMS = {"max_seq_len": 8192, "pqc_layers": MAX_PQC_LAYERS}
# BERT-base (110M) fits; training holds four float64 copies, 4 GiB at the bound.
MAX_MODEL_PARAMS = 2**27
# The annotations check_fields enforces; a class checks fields of other types itself.
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str, "bool": bool, "dict": dict}


def _check_value(name: str, annotation: str, value, minimum, maximum, subject: str = "") -> None:
    kind = _FIELD_TYPES.get(annotation.removesuffix(" | None"))
    if kind is None:
        return
    if (isinstance(value, bool) and kind is not bool) or not isinstance(value, kind):
        raise ModelConfigError(name, f"{subject}must be {annotation}, got {type(value).__name__}")
    if kind is numbers.Real and not abs(value) <= sys.float_info.max:
        raise ModelConfigError(name, f"{subject}must be finite, got {value}")
    if minimum is not None and value < minimum:
        raise ModelConfigError(name, f"{subject}must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ModelConfigError(name, f"{subject}must be <= {maximum}, got {value}")


def check_fields(config, minimums: dict, maximums: dict | None = None) -> None:
    """Raise ``ModelConfigError`` naming the first field of the dataclass ``config``
    that breaks its annotation: ``int``/``float`` (never a bool, floats finite,
    within its entries in ``minimums`` and ``maximums``), ``str``, ``bool``,
    ``dict``, or a non-empty ``list[T]`` of distinct such items; ``| None``
    allows None."""
    maximums = maximums or {}
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None and f.type.endswith(" | None"):
            continue
        bounds = minimums.get(f.name), maximums.get(f.name)
        if not f.type.startswith("list["):
            _check_value(f.name, f.type, value, *bounds)
            continue
        if not isinstance(value, list) or not value:
            raise ModelConfigError(f.name, f"must be a non-empty {f.type}, got {value!r}")
        for item in value:
            _check_value(f.name, f.type[5:-1], item, *bounds, "items ")
        if len(set(value)) < len(value):
            raise ModelConfigError(f.name, f"must hold distinct values, got {value}")


@dataclass
class ModelConfig:
    vocab_size: int
    num_classes: int
    hidden: int = 128
    num_layers: int = 2
    num_heads: int = 2
    intermediate: int = 512
    max_seq_len: int = 128
    ffn_kind: FfnKind = FfnKind.CLASSICAL
    pqc_layers: int = 1

    def __post_init__(self):
        try:
            self.ffn_kind = FfnKind(self.ffn_kind)
        except ValueError:
            raise ModelConfigError(
                "ffn_kind", f"must be one of {[k.value for k in FfnKind]}, got {self.ffn_kind!r}"
            ) from None

    def validate(self) -> None:
        check_fields(self, MODEL_MINIMUMS, MODEL_MAXIMUMS)
        if self.hidden % self.num_heads != 0:
            raise ModelConfigError("num_heads", f"must divide hidden {self.hidden}, got {self.num_heads}")
        # Bound the parameter count before anything is allocated. The field named is
        # the first, in declaration order, that takes the count past the bound while
        # every later size stays at its minimum.
        sizes = dict(MODEL_MINIMUMS)
        for name in MODEL_MINIMUMS:
            sizes[name] = getattr(self, name)
            count = model_param_count(replace(self, **sizes))
            if count > MAX_MODEL_PARAMS:
                raise ModelConfigError(name, f"makes the model {count} parameters, more than {MAX_MODEL_PARAMS}")


@dataclass
class AttentionWeights(Module):
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray

    @classmethod
    def create(cls, hidden: int, rng: np.random.Generator):
        def w():
            return rng.normal(0.0, INIT_STD, (hidden, hidden))

        def b():
            return np.zeros(hidden)

        return cls(w(), b(), w(), w(), b(), w(), b())


@dataclass
class EncoderLayer(Module):
    attn: AttentionWeights
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ffn: ClassicalFeedForward | QffnBlock
    ln2_g: np.ndarray
    ln2_b: np.ndarray


class EncoderModel(Module):
    def __init__(self, config: ModelConfig, seed: int | np.random.Generator = 0):
        config.validate()
        self.config = config
        rng = seed
        if not isinstance(rng, np.random.Generator):
            check_seed(seed)
            rng = np.random.default_rng(seed)
        h = config.hidden
        self.tok_emb = rng.normal(0.0, INIT_STD, (config.vocab_size, h))
        self.pos_emb = rng.normal(0.0, INIT_STD, (config.max_seq_len, h))
        self.layers: list[EncoderLayer] = []
        for _ in range(config.num_layers):
            self.layers.append(
                EncoderLayer(
                    attn=AttentionWeights.create(h, rng),
                    ln1_g=np.ones(h),
                    ln1_b=np.zeros(h),
                    ffn=make_ffn_block(config.ffn_kind, h, config.intermediate, config.pqc_layers, rng),
                    ln2_g=np.ones(h),
                    ln2_b=np.zeros(h),
                )
            )
        self.cls_w = rng.normal(0.0, INIT_STD, (config.num_classes, h))
        self.cls_b = np.zeros(config.num_classes)

    def param_count(self) -> int:
        return sum(p.size for _, p in self.named_parameters())


def model_param_count(config: ModelConfig) -> int:
    """Exact trainable-scalar count as a pure function of the configuration."""
    h = config.hidden
    total = config.vocab_size * h + config.max_seq_len * h
    attn = 4 * h * h + 3 * h  # no key bias
    norms = 4 * h
    if config.ffn_kind is FfnKind.CLASSICAL:
        ffn = classical_ffn_param_count(h, config.intermediate)
    else:
        ffn = quantum_ffn_param_count(h, PqcConfig(QUANTUM_BLOCKS[config.ffn_kind][0], config.pqc_layers))
    total += config.num_layers * (attn + norms + ffn)
    total += config.num_classes * h + config.num_classes
    return total


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis`` into one new array; ``x`` is left unchanged."""
    out = np.subtract(x, np.max(x, axis=axis, keepdims=True))
    np.exp(out, out=out)
    out /= np.sum(out, axis=axis, keepdims=True)
    return out


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the true labels."""
    logp = log_softmax(logits, axis=-1)
    return float(-np.mean(logp[np.arange(labels.size), labels]))


def _layer_norm(x, g, b, eps):
    """Normalize over the last axis; returns ``(out, (xhat, inv_std))``. The
    temporaries live in the two result arrays, so ``x`` is left unchanged and
    nothing else of its size is allocated."""
    mu = x.mean(axis=-1, keepdims=True)
    xhat = np.subtract(x, mu)
    out = np.multiply(xhat, xhat)
    inv_std = out.mean(axis=-1, keepdims=True)  # the variance, until inverted below
    inv_std += eps
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    np.multiply(xhat, g, out=out)
    out += b
    return out, (xhat, inv_std)


def _layer_norm_backward(d_out, cache, g):
    xhat, inv_std = cache
    outer = tuple(range(d_out.ndim - 1))
    d_x = np.multiply(d_out, g)  # the gradient of xhat, until it becomes d_x below
    scratch = np.multiply(d_out, xhat)
    d_g = np.sum(scratch, axis=outer)
    d_b = np.sum(d_out, axis=outer)
    mean_d = d_x.mean(axis=-1, keepdims=True)
    np.multiply(d_x, xhat, out=scratch)
    mean_dx = scratch.mean(axis=-1, keepdims=True)
    np.multiply(xhat, mean_dx, out=scratch)
    d_x -= mean_d
    d_x -= scratch
    d_x *= inv_std
    return d_x, d_g, d_b


class RowSet(NamedTuple):
    """Rows of a [B, S] batch, sample-major: row n of an [N, H] matrix over the
    set is position ``position[n]`` of sample ``sample[n]``. Every sample has
    its row 0 in the set."""

    sample: np.ndarray
    position: np.ndarray

    @property
    def width(self) -> int:
        """Positions per sample in the set's grid: one past the last position in it."""
        return int(self.position.max()) + 1

    @property
    def cls(self) -> np.ndarray:
        """Where each sample's row 0 sits among the N rows."""
        return np.flatnonzero(self.position == 0)

    def grid(self, rows: np.ndarray, batch: int, num_heads: int) -> np.ndarray:
        """``rows`` [N, H] scattered into a zero [B, heads, width, H / heads] grid."""
        out = np.zeros((batch, self.width, num_heads, rows.shape[1] // num_heads))
        out[self.sample, self.position] = rows.reshape(len(rows), num_heads, -1)
        return out.transpose(0, 2, 1, 3)

    def gather(self, grid: np.ndarray) -> np.ndarray:
        """The set's rows [N, H] of a [B, heads, width, H / heads] grid."""
        rows = grid.transpose(0, 2, 1, 3)[self.sample, self.position]
        return rows.reshape(len(rows), -1)


def _attention_forward(attn: AttentionWeights, h, rows: RowSet, key_bias, num_heads):
    """Self-attention of the rows ``h`` [N, H] over themselves.

    ``key_bias`` [B, 1, 1, rows.width] is the additive padding mask. Grid cells
    that are not rows hold zero queries, keys and values."""
    batch = key_bias.shape[0]
    q = h @ attn.wq.T
    q += attn.bq
    q = rows.grid(q, batch, num_heads)
    k = rows.grid(h @ attn.wk.T, batch, num_heads)
    v = h @ attn.wv.T
    v += attn.bv
    v = rows.grid(v, batch, num_heads)
    scores = q @ k.transpose(0, 1, 3, 2)
    scores *= 1.0 / np.sqrt(q.shape[-1])
    scores += key_bias
    probs = softmax(scores, axis=-1)
    ctx = rows.gather(probs @ v)
    out = ctx @ attn.wo.T
    out += attn.bo
    return out, (h, q, k, v, probs, ctx)


def _attention_backward(attn: AttentionWeights, d_out, cache, rows: RowSet, num_heads):
    """Adjoint of ``_attention_forward``: parameter gradients and ``d_h`` [N, H],
    through the keys, queries and values."""
    h, q, k, v, probs, ctx = cache
    grads = {"wo": d_out.T @ ctx, "bo": d_out.sum(axis=0)}
    d_ctx = rows.grid(d_out @ attn.wo, probs.shape[0], num_heads)
    d_v = rows.gather(probs.transpose(0, 1, 3, 2) @ d_ctx)
    d_scores = d_ctx @ v.transpose(0, 1, 3, 2)  # d_probs, until turned into d_scores below
    weighted = d_scores * probs
    d_scores -= np.sum(weighted, axis=-1, keepdims=True)
    d_scores *= probs
    scale = 1.0 / np.sqrt(q.shape[-1])
    d_q = rows.gather(d_scores @ k)
    d_q *= scale
    d_k = rows.gather(d_scores.transpose(0, 1, 3, 2) @ q)
    d_k *= scale
    for d_proj, name in ((d_q, "q"), (d_k, "k"), (d_v, "v")):
        grads["w" + name] = d_proj.T @ h
    grads["bq"], grads["bv"] = d_q.sum(axis=0), d_v.sum(axis=0)
    d_h = d_k @ attn.wk
    d_h += d_q @ attn.wq
    d_h += d_v @ attn.wv
    return grads, d_h


def _head_weights(w, num_heads):
    """Rows of a [H, H] projection split by head: [heads, H / heads, H]."""
    return w.reshape(num_heads, -1, w.shape[1])


def _cls_attention_forward(attn: AttentionWeights, h, keys: RowSet, x, key_bias, num_heads):
    """Attention of the classification rows ``x`` = ``h[keys.cls]`` [B, H] over
    the key rows ``h`` [N, H], with W_k and W_v folded to the query side.

    Per head, the score of key row j is ``(q W_k) . h_j``. The context is
    ``W_v (sum_j p_j h_j) + b_v``. No key or value is projected per row; ``h``
    is read from one zero [B, W, H] grid, W = ``keys.width``."""
    batch = len(x)
    grid = np.zeros((batch, keys.width, h.shape[1]))
    grid[keys.sample, keys.position] = h
    q = x @ attn.wq.T
    q += attn.bq
    q = q.reshape(batch, num_heads, -1).transpose(1, 0, 2)  # [heads, B, H / heads]
    qk = (q @ _head_weights(attn.wk, num_heads)).transpose(1, 0, 2)  # [B, heads, H]
    scores = (qk @ grid.transpose(0, 2, 1))[:, :, None]  # [B, heads, 1, W]
    scores *= 1.0 / np.sqrt(q.shape[-1])
    scores += key_bias
    probs = softmax(scores, axis=-1)
    pooled = (probs[:, :, 0] @ grid).transpose(1, 0, 2)  # [heads, B, H]
    ctx = pooled @ _head_weights(attn.wv, num_heads).transpose(0, 2, 1)  # [heads, B, H / heads]
    ctx = ctx.transpose(1, 0, 2).reshape(batch, -1)
    ctx += attn.bv
    out = ctx @ attn.wo.T
    out += attn.bo
    return out, (grid, q, qk, pooled, probs, ctx, x)


def _cls_attention_backward(attn: AttentionWeights, d_out, cache, keys: RowSet, num_heads):
    """Adjoint of ``_cls_attention_forward``: parameter gradients and ``d_h``
    [N, H], the query path included."""
    grid, q, qk, pooled, probs, ctx, x = cache
    batch = len(x)
    grads = {"wo": d_out.T @ ctx, "bo": d_out.sum(axis=0)}
    d_ctx = d_out @ attn.wo
    grads["bv"] = d_ctx.sum(axis=0)
    d_ctx = d_ctx.reshape(batch, num_heads, -1).transpose(1, 0, 2)  # [heads, B, H / heads]
    grads["wv"] = (d_ctx.transpose(0, 2, 1) @ pooled).reshape(attn.wv.shape)
    d_pooled = (d_ctx @ _head_weights(attn.wv, num_heads)).transpose(1, 0, 2)  # [B, heads, H]
    p = probs[:, :, 0]  # [B, heads, W]
    d_grid = p.transpose(0, 2, 1) @ d_pooled
    d_scores = d_pooled @ grid.transpose(0, 2, 1)  # d_probs, until turned into d_scores below
    weighted = d_scores * p
    d_scores -= np.sum(weighted, axis=-1, keepdims=True)
    d_scores *= p
    d_scores *= 1.0 / np.sqrt(q.shape[-1])
    d_grid += d_scores.transpose(0, 2, 1) @ qk
    d_qk = (d_scores @ grid).transpose(1, 0, 2)  # [heads, B, H]
    grads["wk"] = (q.transpose(0, 2, 1) @ d_qk).reshape(attn.wk.shape)
    d_q = d_qk @ _head_weights(attn.wk, num_heads).transpose(0, 2, 1)  # [heads, B, H / heads]
    d_q = d_q.transpose(1, 0, 2).reshape(batch, -1)
    grads["wq"] = d_q.T @ x
    grads["bq"] = d_q.sum(axis=0)
    d_h = d_grid[keys.sample, keys.position]
    d_h[keys.cls] += d_q @ attn.wq
    return grads, d_h


def _check_inputs(model: EncoderModel, token_ids):
    token_ids = np.asarray(token_ids)
    if token_ids.ndim != 2 or token_ids.size == 0:
        raise ValueError(f"token_ids must be a non-empty [batch, seq] array, got shape {token_ids.shape}")
    if not np.issubdtype(token_ids.dtype, np.integer):
        raise ValueError(f"token_ids must have an integer dtype, got {token_ids.dtype}")
    if token_ids.shape[1] > model.config.max_seq_len:
        raise ValueError(
            f"sequence length {token_ids.shape[1]} exceeds max_seq_len {model.config.max_seq_len}"
        )
    if token_ids.min() < 0 or token_ids.max() >= model.config.vocab_size:
        raise ValueError("token id out of vocabulary range")
    if np.any(token_ids[:, 0] == PAD_ID):
        raise ValueError("token_ids must not hold [PAD] at position 0, the classification token")
    return token_ids


class _Discard(dict):
    """The layer cache of a pass that keeps none: it stores nothing, so each
    sublayer's cache is freed as soon as the forward moves past it."""

    def __setitem__(self, key, value):
        pass


def _forward(model: EncoderModel, token_ids, keep=True):
    """Logits and, when ``keep`` (the training pass), ``_backward``'s cache; else None."""
    token_ids = _check_inputs(model, token_ids)
    cfg = model.config
    batch = token_ids.shape[0]
    mask = token_ids != PAD_ID
    tokens = RowSet(*np.nonzero(mask))
    h = model.tok_emb[token_ids[tokens.sample, tokens.position]] + model.pos_emb[tokens.position]
    key_bias = (~mask[:, : tokens.width] * MASK_BIAS)[:, None, None, :]
    caches = []
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        # Every layer reads the token rows; the last one computes row 0
        # alone, the only row that reaches the classifier.
        lc = {} if keep else _Discard()
        if i == last:
            cls, x = np.arange(batch), h[tokens.cls]
            attn_out, lc["attn"] = _cls_attention_forward(layer.attn, h, tokens, x, key_bias, cfg.num_heads)
        else:
            cls, x = tokens.cls, h
            attn_out, lc["attn"] = _attention_forward(layer.attn, h, tokens, key_bias, cfg.num_heads)
        lc["cls"] = cls  # where each sample's row 0 sits among the query rows x
        attn_out += x
        mid, lc["ln1"] = _layer_norm(attn_out, layer.ln1_g, layer.ln1_b, LAYER_NORM_EPS)
        lc["mid"] = mid

        if isinstance(layer.ffn, QffnBlock):
            ffn_out = mid.copy()  # every row but row 0 passes through the block
            for n in cls:
                ffn_out[n] = qffn_forward(layer.ffn, mid[n])
        else:
            ffn_out, lc["ffn"] = layer.ffn.forward(mid)
        ffn_out += mid
        h, lc["ln2"] = _layer_norm(ffn_out, layer.ln2_g, layer.ln2_b, LAYER_NORM_EPS)
        caches.append(lc)
    logits = h @ model.cls_w.T + model.cls_b
    cache = {"token_ids": token_ids, "tokens": tokens, "final": h[:, None], "layers": caches}
    return logits, cache if keep else None


def model_forward(model: EncoderModel, token_ids) -> np.ndarray:
    """Class logits, shape [batch, num_classes]; no cache is kept."""
    logits, _ = _forward(model, token_ids, keep=False)
    return logits


def _backward(model: EncoderModel, cache, d_logits):
    """Gradients from ``_forward``'s cache, popping each layer's entry once
    its gradients exist."""
    cfg = model.config
    tokens = cache["tokens"]
    grads = {
        "cls_w": d_logits.T @ cache["final"][:, 0],
        "cls_b": d_logits.sum(axis=0),
    }
    d_h = d_logits @ model.cls_w  # gradient of the last layer's output rows

    last = len(model.layers) - 1
    for i in reversed(range(len(model.layers))):
        layer = model.layers[i]
        lc = cache["layers"].pop()
        prefix = f"layers.{i}."

        d_sum2, d_g2, d_b2 = _layer_norm_backward(d_h, lc["ln2"], layer.ln2_g)
        grads[prefix + "ln2_g"] = d_g2
        grads[prefix + "ln2_b"] = d_b2

        mid = lc["mid"]
        if isinstance(layer.ffn, QffnBlock):
            d_mid = d_sum2 + d_sum2  # every row but row 0 passes through the block
            ffn_grads = {name: np.zeros_like(p) for name, p in layer.ffn.named_parameters()}
            for n in lc["cls"]:
                sample_grads, d_in = qffn_backward(layer.ffn, mid[n], d_sum2[n])
                d_mid[n] = d_sum2[n] + d_in
                for name, g in sample_grads.items():
                    ffn_grads[name] += g
        else:
            ffn_grads, d_mid = layer.ffn.backward(mid, lc["ffn"], d_sum2)
            d_mid += d_sum2
        for name, g in ffn_grads.items():
            grads[prefix + "ffn." + name] = g

        d_sum1, d_g1, d_b1 = _layer_norm_backward(d_mid, lc["ln1"], layer.ln1_g)
        grads[prefix + "ln1_g"] = d_g1
        grads[prefix + "ln1_b"] = d_b1
        if i == last:
            attn_grads, d_h = _cls_attention_backward(layer.attn, d_sum1, lc["attn"], tokens, cfg.num_heads)
            d_h[tokens.cls] += d_sum1  # the post-norm residual of the query rows
        else:
            attn_grads, d_h = _attention_backward(layer.attn, d_sum1, lc["attn"], tokens, cfg.num_heads)
            d_h += d_sum1
        for name, g in attn_grads.items():
            grads[prefix + "attn." + name] = g

    token_ids = cache["token_ids"][tokens.sample, tokens.position]
    grads["tok_emb"] = _row_sums(token_ids, d_h, cfg.vocab_size)
    grads["pos_emb"] = _row_sums(tokens.position, d_h, cfg.max_seq_len)
    return grads


def _row_sums(index, rows, count):
    """[count, H] sums of the ``rows`` [N, H] by row ``index`` [N]: row r adds
    every ``rows[n]`` with ``index[n] == r`` in order of n, starting from +0.0.
    That is ``np.add.at`` into zeros bit for bit, as one weighted bincount over
    the flat (row, column) index; a row no index names stays +0.0."""
    width = rows.shape[1]
    flat = (index.astype(np.intp)[:, None] * width + np.arange(width)).ravel()
    return np.bincount(flat, weights=rows.ravel(), minlength=count * width).reshape(count, width)


def model_backward(model: EncoderModel, token_ids, labels):
    """Mean cross-entropy loss and gradients for every trainable tensor.

    Returns ``(loss, grads)`` with ``grads`` keyed exactly like
    ``model.named_parameters()``.
    """
    logits, cache = _forward(model, token_ids)
    batch = logits.shape[0]
    labels = np.asarray(labels)
    if labels.shape != (batch,) or not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be [{batch}] with an integer dtype, got {labels.dtype} of shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= model.config.num_classes:
        raise ValueError(f"labels must be in [0, {model.config.num_classes}), got {labels.min()}..{labels.max()}")
    probs = softmax(logits, axis=-1)
    loss = cross_entropy(logits, labels)
    d_logits = probs.copy()
    d_logits[np.arange(batch), labels] -= 1.0
    d_logits /= batch
    grads = _backward(model, cache, d_logits)
    return loss, grads


# --- weight archive -------------------------------------------------------

WEIGHTS_BIN = "weights.bin"
WEIGHTS_MANIFEST = "weights.json"
# Version of the archive layout below; load_model reads no other.
ARCHIVE_VERSION = 3


def _sha256(blob: bytes) -> str:
    """The archive's checksum. Importing hashlib loads OpenSSL, 2 ms of start-up
    that a command saving no archive would pay, so it is imported here."""
    import hashlib

    return hashlib.sha256(blob).hexdigest()


def _manifest(model: EncoderModel) -> dict:
    """The layout fields of the manifest ``save_model`` writes for ``model``: the
    format version, its config, and its tensors in ``named_parameters`` order as
    little-endian float32, back to back from byte 0."""
    tensors, offset = [], 0
    for name, param in model.named_parameters():
        tensors.append({"name": name, "shape": list(param.shape), "offset": offset, "size": 4 * param.size})
        offset += 4 * param.size
    return {
        "format_version": ARCHIVE_VERSION, "dtype": "float32", "byte_order": "little",
        "config": vars(model.config), "tensors": tensors,
    }


def save_model(model: EncoderModel, directory) -> None:
    """Write the flat float32 tensor archive and its JSON manifest, which holds
    the archive's sha256 besides its layout; both are rendered before either is written."""
    blob = b"".join(np.asarray(param, dtype="<f4").tobytes() for _, param in model.named_parameters())
    manifest = {**_manifest(model), "weights_sha256": _sha256(blob)}
    text = json.dumps(manifest, indent=2, sort_keys=True, default=int)  # a numpy int config field too
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    atomic_write(directory / WEIGHTS_BIN, blob)
    atomic_write(directory / WEIGHTS_MANIFEST, text)


def load_model(directory) -> EncoderModel:
    """Rebuild a model from ``save_model`` output; values are the stored float32s.

    The manifest must be UTF-8 JSON, the one ``save_model`` writes for its config,
    field for field (so an entry out of ``named_parameters`` order, or a key it
    never writes, is rejected), of this ``ARCHIVE_VERSION``, and the blob must hold
    exactly that config's tensors, hash to the manifest's ``weights_sha256`` and
    hold finite weights only. The version is checked first and the hash before
    the model is built. Anything else raises ``ValueError`` naming the field or tensor.
    """
    directory = Path(directory)
    try:
        manifest = json.loads((directory / WEIGHTS_MANIFEST).read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ValueError(f"{WEIGHTS_MANIFEST} is not UTF-8 JSON: {err}") from None
    blob = (directory / WEIGHTS_BIN).read_bytes()
    if not isinstance(manifest, dict):
        raise ValueError(f"{WEIGHTS_MANIFEST} must hold a JSON object, got {type(manifest).__name__}")
    version = manifest.get("format_version")
    if json.dumps(version) != json.dumps(ARCHIVE_VERSION):
        raise ValueError(f"manifest format_version must be {ARCHIVE_VERSION}, got {version!r}")
    for field, kind in (("config", dict), ("tensors", list), ("weights_sha256", str)):
        if not isinstance(manifest.get(field), kind):
            raise ValueError(f"manifest {field} must be {kind.__name__}, got {type(manifest.get(field)).__name__}")
    try:
        config = ModelConfig(**manifest["config"])
    except TypeError as err:  # an unknown or missing key
        raise ValueError(f"manifest config: {err}") from None
    check_fields(config, MODEL_MINIMUMS, {"pqc_layers": MAX_PQC_LAYERS})  # what counting needs
    # Only a config whose tensors the blob holds is built, so its size is bounded by the file's.
    size = 4 * model_param_count(config)
    if len(blob) != size:
        raise ValueError(f"manifest config describes {size} tensor bytes, {WEIGHTS_BIN} holds {len(blob)}")
    digest = _sha256(blob)
    if manifest["weights_sha256"] != digest:
        raise ValueError(f"manifest weights_sha256 {manifest['weights_sha256']!r} is not {WEIGHTS_BIN}'s {digest!r}")
    model = EncoderModel(config, seed=0)
    expected = _manifest(model)
    extra = sorted(manifest.keys() - expected.keys() - {"weights_sha256"})
    if extra:
        raise ValueError(f"manifest {extra[0]} is not a field save_model writes")
    for field in ("dtype", "byte_order"):
        if json.dumps(manifest.get(field)) != json.dumps(expected[field]):
            raise ValueError(f"manifest {field} must be {expected[field]!r}, got {manifest.get(field)!r}")
    entries, count = manifest["tensors"], len(expected["tensors"])
    if len(entries) != count:
        raise ValueError(f"manifest tensors must hold {count} entries, got {len(entries)}")
    for i, (stored, entry) in enumerate(zip(entries, expected["tensors"])):
        for field, value in entry.items():
            got = stored.get(field) if isinstance(stored, dict) else None
            if json.dumps(got) != json.dumps(value):
                raise ValueError(
                    f"tensor {entry['name']} {field} must be {value!r}, got {got!r} (manifest tensors[{i}].{field})"
                )
        extra = sorted(stored.keys() - entry.keys())
        if extra:
            raise ValueError(f"manifest tensors[{i}].{extra[0]} is not a field save_model writes")
    for (name, param), entry in zip(model.named_parameters(), expected["tensors"]):
        raw = np.frombuffer(blob, dtype="<f4", count=param.size, offset=entry["offset"])
        if not np.isfinite(raw).all():
            raise ValueError(f"tensor {name} holds non-finite values")
        param[...] = raw.reshape(param.shape).astype(np.float64)
    return model
