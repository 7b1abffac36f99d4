"""Compact BERT-style encoder with swappable feedforward sublayers.

Two post-norm transformer layers over token + learned position embeddings,
multi-head self-attention, and a linear classifier reading the first sequence
position (the classification token). The feedforward sublayer of every layer
is one of:

  - "classical":     position-wise GELU MLP (the reference configuration)
  - "qffn":          quantum block, optimized ansatz, internal residual
  - "vanilla_qffn":  quantum block, vanilla ansatz, no internal residual

Each sublayer sits inside the standard post-norm residual,
``h <- LayerNorm(h + sublayer(h))``; the quantum block's internal residual
exists in addition to that outer one.

Only row 0 of the last layer reaches the classifier, so that layer computes
queries for row 0 alone: keys and values still cover all S rows, the scores
are [B, heads, 1, S], and both layer norms and the feedforward sublayer run
on [B, 1, H]; ``cache["final"]`` is [B, 1, H]. Backward is the exact adjoint:
the query gradient exists for row 0 only, key and value gradients cover every
row, and the post-norm residual's gradient lands on row 0 of the layer
input. Earlier layers compute every row. Dropout masks are drawn at the full
[B, S, H] shape and sliced, so the rng stream does not depend on the rows a
layer computes.

All forward and backward arithmetic is explicit numpy; gradients for the
circuit angles arrive through the parameter-shift rule inside the quantum
block. Weights are float64 in memory and serialize to a little-endian
float32 archive with a JSON manifest.

Initialization: weight matrices and embeddings N(0, 0.02), biases zero,
layer-norm scale one / shift zero, circuit angles uniform(-pi, pi). Dropout
(applied to each sublayer output before its residual) defaults to 0 so runs
are exactly reproducible.
"""
from __future__ import annotations

import json
import numbers
import os
import sys
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .circuits import Ansatz, PqcConfig, pqc_param_count
from .feedforward import (
    INIT_STD,
    ClassicalFeedForward,
    QffnBlock,
    classical_ffn_param_count,
    make_ffn_block,
    qffn_backward,
    qffn_forward,
)

MASK_BIAS = -1e9
PAPER_DEPTHS = (1, 2, 4, 8)


class FfnKind(str, Enum):
    CLASSICAL = "classical"
    QFFN = "qffn"
    VANILLA_QFFN = "vanilla_qffn"


class ModelConfigError(ValueError):
    """Invalid ``ModelConfig`` value; ``field`` names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field} {message}")


# Lower bounds of the integer fields; vocab_size must cover the special tokens.
_MODEL_MINIMUMS = {
    "vocab_size": 4, "num_classes": 2, "hidden": 1, "num_layers": 1, "num_heads": 1,
    "intermediate": 1, "max_seq_len": 2, "pqc_layers": 1,
}
# The annotations check_fields enforces; a class checks fields of other types itself.
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str, "bool": bool, "dict": dict}


def _check_value(name: str, annotation: str, value, minimum, subject: str = "") -> None:
    kind = _FIELD_TYPES.get(annotation.removesuffix(" | None"))
    if kind is None:
        return
    if (isinstance(value, bool) and kind is not bool) or not isinstance(value, kind):
        raise ModelConfigError(name, f"{subject}must be {annotation}, got {type(value).__name__}")
    if kind is numbers.Real and not abs(value) <= sys.float_info.max:
        raise ModelConfigError(name, f"{subject}must be finite, got {value}")
    if minimum is not None and value < minimum:
        raise ModelConfigError(name, f"{subject}must be >= {minimum}, got {value}")


def check_fields(config, minimums: dict) -> None:
    """Raise ``ModelConfigError`` naming the first field of the dataclass ``config``
    that breaks its annotation: ``int``/``float`` (never a bool, floats finite, at
    least its entry in ``minimums``), ``str``, ``bool``, ``dict``, or a non-empty
    ``list[T]`` of distinct such items; ``| None`` allows None."""
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None and f.type.endswith(" | None"):
            continue
        if not f.type.startswith("list["):
            _check_value(f.name, f.type, value, minimums.get(f.name))
            continue
        if not isinstance(value, list) or not value:
            raise ModelConfigError(f.name, f"must be a non-empty {f.type}, got {value!r}")
        for item in value:
            _check_value(f.name, f.type[5:-1], item, minimums.get(f.name), "items ")
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
    dropout: float = 0.0
    layer_norm_eps: float = 1e-12

    def __post_init__(self):
        try:
            self.ffn_kind = FfnKind(self.ffn_kind)
        except ValueError:
            raise ModelConfigError(
                "ffn_kind", f"must be one of {[k.value for k in FfnKind]}, got {self.ffn_kind!r}"
            ) from None

    def validate(self, strict_depths: bool = False) -> None:
        check_fields(self, _MODEL_MINIMUMS)
        if self.hidden % self.num_heads != 0:
            raise ModelConfigError("num_heads", f"must divide hidden {self.hidden}, got {self.num_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ModelConfigError("dropout", f"must be in [0, 1), got {self.dropout}")
        if strict_depths and self.ffn_kind is not FfnKind.CLASSICAL and self.pqc_layers not in PAPER_DEPTHS:
            raise ModelConfigError(
                "pqc_layers", f"must be one of {PAPER_DEPTHS} in strict-depth mode, got {self.pqc_layers}"
            )


@dataclass
class AttentionWeights:
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
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

        return cls(w(), b(), w(), b(), w(), b(), w(), b())

    def named_parameters(self):
        return [
            ("wq", self.wq), ("bq", self.bq),
            ("wk", self.wk), ("bk", self.bk),
            ("wv", self.wv), ("bv", self.bv),
            ("wo", self.wo), ("bo", self.bo),
        ]


@dataclass
class EncoderLayer:
    attn: AttentionWeights
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ffn: ClassicalFeedForward | QffnBlock
    ln2_g: np.ndarray
    ln2_b: np.ndarray

    def named_parameters(self):
        params = [(f"attn.{n}", p) for n, p in self.attn.named_parameters()]
        params += [("ln1_g", self.ln1_g), ("ln1_b", self.ln1_b)]
        params += [(f"ffn.{n}", p) for n, p in self.ffn.named_parameters()]
        params += [("ln2_g", self.ln2_g), ("ln2_b", self.ln2_b)]
        return params


class EncoderModel:
    def __init__(self, config: ModelConfig, seed: int | np.random.Generator = 0):
        config.validate()
        self.config = config
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
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
                    ffn=make_ffn_block(
                        config.ffn_kind.value, h, config.intermediate, config.pqc_layers, rng
                    ),
                    ln2_g=np.ones(h),
                    ln2_b=np.zeros(h),
                )
            )
        self.cls_w = rng.normal(0.0, INIT_STD, (config.num_classes, h))
        self.cls_b = np.zeros(config.num_classes)

    def named_parameters(self):
        """All trainable tensors in a fixed, documented order."""
        params = [("tok_emb", self.tok_emb), ("pos_emb", self.pos_emb)]
        for i, layer in enumerate(self.layers):
            params += [(f"layers.{i}.{n}", p) for n, p in layer.named_parameters()]
        params += [("cls_w", self.cls_w), ("cls_b", self.cls_b)]
        return params

    def param_count(self) -> int:
        return sum(p.size for _, p in self.named_parameters())


def model_param_count(config: ModelConfig) -> int:
    """Exact trainable-scalar count as a pure function of the configuration."""
    h = config.hidden
    total = config.vocab_size * h + config.max_seq_len * h
    attn = 4 * (h * h + h)
    norms = 4 * h
    if config.ffn_kind is FfnKind.CLASSICAL:
        ffn = classical_ffn_param_count(h, config.intermediate)
    else:
        variant = Ansatz.OPTIMIZED if config.ffn_kind is FfnKind.QFFN else Ansatz.VANILLA
        pqc = PqcConfig(variant, config.pqc_layers)
        nq = pqc.num_qubits
        ffn = (nq * h + nq) + (h * nq + h) + pqc_param_count(pqc)
    total += config.num_layers * (attn + norms + ffn)
    total += config.num_classes * h + config.num_classes
    return total


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the true labels."""
    logp = log_softmax(logits, axis=-1)
    return float(-np.mean(logp[np.arange(labels.size), labels]))


def _layer_norm(x, g, b, eps):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    return xhat * g + b, (xhat, inv_std)


def _layer_norm_backward(d_out, cache, g):
    xhat, inv_std = cache
    d_xhat = d_out * g
    d_g = np.sum(d_out * xhat, axis=tuple(range(d_out.ndim - 1)))
    d_b = np.sum(d_out, axis=tuple(range(d_out.ndim - 1)))
    mean_d = d_xhat.mean(axis=-1, keepdims=True)
    mean_dx = (d_xhat * xhat).mean(axis=-1, keepdims=True)
    d_x = inv_std * (d_xhat - mean_d - xhat * mean_dx)
    return d_x, d_g, d_b


def _split_heads(x, num_heads):
    b, s, h = x.shape
    return x.reshape(b, s, num_heads, h // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, nh, s, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, nh * hd)


def _project(x, w):
    """``x[B, S, in] @ w[in, out]`` as one 2-D GEMM on the [B*S, in] reshape,
    not numpy's per-sample loop of stacked matmuls."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[-1])


def _attention_forward(attn: AttentionWeights, h, mask, num_heads, rows):
    """Self-attention for the first ``rows`` query rows over all key/value rows."""
    q = _split_heads(_project(h[:, :rows], attn.wq.T) + attn.bq, num_heads)
    k = _split_heads(_project(h, attn.wk.T) + attn.bk, num_heads)
    v = _split_heads(_project(h, attn.wv.T) + attn.bv, num_heads)
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    scores = scores + (1.0 - mask)[:, None, None, :] * MASK_BIAS
    probs = softmax(scores, axis=-1)
    ctx = _merge_heads(probs @ v)
    out = _project(ctx, attn.wo.T) + attn.bo
    return out, (h, q, k, v, probs, ctx)


def _attention_backward(attn: AttentionWeights, d_out, cache, num_heads):
    """Adjoint of ``_attention_forward``; ``d_h`` covers every input row."""
    h, q, k, v, probs, ctx = cache
    rows = q.shape[2]
    grads = {
        "wo": d_out.reshape(-1, d_out.shape[-1]).T @ ctx.reshape(-1, ctx.shape[-1]),
        "bo": d_out.sum(axis=(0, 1)),
    }
    d_ctx = _split_heads(_project(d_out, attn.wo), num_heads)
    d_probs = d_ctx @ v.transpose(0, 1, 3, 2)
    d_v = probs.transpose(0, 1, 3, 2) @ d_ctx
    d_scores = probs * (d_probs - np.sum(d_probs * probs, axis=-1, keepdims=True))
    scale = 1.0 / np.sqrt(q.shape[-1])
    d_q = (d_scores @ k) * scale
    d_k = (d_scores.transpose(0, 1, 3, 2) @ q) * scale
    d_h = np.zeros_like(h)
    for d_proj, w_name, b_name, w, x, d_x in (
        (d_q, "wq", "bq", attn.wq, h[:, :rows], d_h[:, :rows]),
        (d_k, "wk", "bk", attn.wk, h, d_h),
        (d_v, "wv", "bv", attn.wv, h, d_h),
    ):
        merged = _merge_heads(d_proj)
        flat_d = merged.reshape(-1, merged.shape[-1])
        grads[w_name] = flat_d.T @ x.reshape(-1, x.shape[-1])
        grads[b_name] = merged.sum(axis=(0, 1))
        d_x += _project(merged, w)
    return grads, d_h


def _dropout_mask(shape, rows, p, rng):
    """Mask for the first ``rows`` rows, drawn at the full [B, S, H] ``shape``
    so the rng stream does not depend on how many rows a layer computes."""
    if p <= 0.0:
        return None
    if rng is None:
        raise ValueError("dropout > 0 requires an rng for the training pass")
    return ((rng.random(shape) >= p) / (1.0 - p))[:, :rows]


def _check_inputs(model: EncoderModel, token_ids, attention_mask):
    token_ids = np.asarray(token_ids)
    if token_ids.ndim != 2:
        raise ValueError(f"token_ids must be [batch, seq], got shape {token_ids.shape}")
    if token_ids.shape[1] > model.config.max_seq_len:
        raise ValueError(
            f"sequence length {token_ids.shape[1]} exceeds max_seq_len {model.config.max_seq_len}"
        )
    if token_ids.min() < 0 or token_ids.max() >= model.config.vocab_size:
        raise ValueError("token id out of vocabulary range")
    if attention_mask is None:
        attention_mask = np.ones(token_ids.shape)
    attention_mask = np.asarray(attention_mask, dtype=np.float64)
    if attention_mask.shape != token_ids.shape:
        raise ValueError("attention_mask shape must match token_ids")
    return token_ids, attention_mask


def _forward(model: EncoderModel, token_ids, attention_mask, train=False, rng=None):
    token_ids, mask = _check_inputs(model, token_ids, attention_mask)
    cfg = model.config
    seq = token_ids.shape[1]
    h = model.tok_emb[token_ids] + model.pos_emb[:seq]
    p = cfg.dropout if train else 0.0
    caches = []
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        # Only row 0 of the last layer reaches the classifier.
        rows = 1 if i == last else seq
        attn_out, attn_cache = _attention_forward(layer.attn, h, mask, cfg.num_heads, rows)
        attn_drop = _dropout_mask(h.shape, rows, p, rng)
        if attn_drop is not None:
            attn_out = attn_out * attn_drop
        mid, ln1_cache = _layer_norm(
            h[:, :rows] + attn_out, layer.ln1_g, layer.ln1_b, cfg.layer_norm_eps
        )

        if isinstance(layer.ffn, QffnBlock):
            ffn_out = np.empty_like(mid)
            for b in range(mid.shape[0]):
                ffn_out[b] = qffn_forward(layer.ffn, mid[b], 0)
            ffn_cache = None
        else:
            out_flat, ffn_cache = layer.ffn.forward(mid.reshape(-1, cfg.hidden))
            ffn_out = out_flat.reshape(mid.shape)

        ffn_drop = _dropout_mask(h.shape, rows, p, rng)
        if ffn_drop is not None:
            ffn_out = ffn_out * ffn_drop
        h_new, ln2_cache = _layer_norm(
            mid + ffn_out, layer.ln2_g, layer.ln2_b, cfg.layer_norm_eps
        )
        caches.append(
            {
                "h_in": h,
                "attn": attn_cache,
                "attn_drop": attn_drop,
                "ln1": ln1_cache,
                "mid": mid,
                "ffn": ffn_cache,
                "ffn_drop": ffn_drop,
                "ln2": ln2_cache,
            }
        )
        h = h_new
    logits = h[:, 0] @ model.cls_w.T + model.cls_b
    cache = {"token_ids": token_ids, "mask": mask, "final": h, "layers": caches}
    return logits, cache


def model_forward(model: EncoderModel, token_ids, attention_mask=None) -> np.ndarray:
    """Class logits, shape [batch, num_classes]."""
    logits, _ = _forward(model, token_ids, attention_mask)
    return logits


def _backward(model: EncoderModel, cache, d_logits):
    cfg = model.config
    grads = {
        "cls_w": d_logits.T @ cache["final"][:, 0],
        "cls_b": d_logits.sum(axis=0),
    }
    d_h = np.zeros_like(cache["final"])
    d_h[:, 0] = d_logits @ model.cls_w

    for i in reversed(range(len(model.layers))):
        layer = model.layers[i]
        lc = cache["layers"][i]
        prefix = f"layers.{i}."

        d_sum2, d_g2, d_b2 = _layer_norm_backward(d_h, lc["ln2"], layer.ln2_g)
        grads[prefix + "ln2_g"] = d_g2
        grads[prefix + "ln2_b"] = d_b2
        d_mid = d_sum2.copy()
        d_ffn_out = d_sum2 if lc["ffn_drop"] is None else d_sum2 * lc["ffn_drop"]

        if isinstance(layer.ffn, QffnBlock):
            ffn_grads = None
            for b in range(d_ffn_out.shape[0]):
                sample_grads, d_in = qffn_backward(layer.ffn, lc["mid"][b], 0, d_ffn_out[b])
                d_mid[b] += d_in
                if ffn_grads is None:
                    ffn_grads = sample_grads
                else:
                    for name in ffn_grads:
                        ffn_grads[name] += sample_grads[name]
        else:
            flat_up = d_ffn_out.reshape(-1, cfg.hidden)
            flat_mid = lc["mid"].reshape(-1, cfg.hidden)
            ffn_grads, d_flat = layer.ffn.backward(flat_mid, lc["ffn"], flat_up)
            d_mid += d_flat.reshape(d_mid.shape)
        for name, g in ffn_grads.items():
            grads[prefix + "ffn." + name] = g

        d_sum1, d_g1, d_b1 = _layer_norm_backward(d_mid, lc["ln1"], layer.ln1_g)
        grads[prefix + "ln1_g"] = d_g1
        grads[prefix + "ln1_b"] = d_b1
        d_attn_out = d_sum1 if lc["attn_drop"] is None else d_sum1 * lc["attn_drop"]
        attn_grads, d_h = _attention_backward(layer.attn, d_attn_out, lc["attn"], cfg.num_heads)
        for name, g in attn_grads.items():
            grads[prefix + "attn." + name] = g
        # The post-norm residual feeds the query rows of the layer input.
        d_h[:, : d_sum1.shape[1]] += d_sum1

    token_ids = cache["token_ids"]
    d_tok = np.zeros_like(model.tok_emb)
    np.add.at(d_tok, token_ids.reshape(-1), d_h.reshape(-1, cfg.hidden))
    grads["tok_emb"] = d_tok
    d_pos = np.zeros_like(model.pos_emb)
    d_pos[: token_ids.shape[1]] = d_h.sum(axis=0)
    grads["pos_emb"] = d_pos
    return grads


def model_backward(model: EncoderModel, token_ids, attention_mask, labels, rng=None):
    """Mean cross-entropy loss and gradients for every trainable tensor.

    Returns ``(loss, grads)`` with ``grads`` keyed exactly like
    ``model.named_parameters()``.
    """
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= model.config.num_classes:
        raise ValueError("label out of range")
    logits, cache = _forward(
        model, token_ids, attention_mask, train=model.config.dropout > 0.0, rng=rng
    )
    batch = logits.shape[0]
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


def atomic_write(path: Path, data: bytes | str) -> None:
    """Write ``data`` (str as UTF-8) to ``path`` completely or not at all.

    The bytes go to a uniquely named temporary file beside ``path``, which is
    renamed over it, or removed if anything fails. Writers sharing a directory
    never share a temporary name. The exclusive create keeps the umask-derived
    mode that a plain write gives (``tempfile.mkstemp`` would force 0600).
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    stream = open(tmp, "xb")
    try:
        with stream:
            stream.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_model(model: EncoderModel, directory) -> None:
    """Write the flat float32 tensor archive and its JSON manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tensors = []
    chunks = []
    offset = 0
    for name, param in model.named_parameters():
        data = np.asarray(param, dtype="<f4").tobytes()
        tensors.append(
            {"name": name, "shape": list(param.shape), "offset": offset, "size": len(data)}
        )
        chunks.append(data)
        offset += len(data)
    manifest = {
        "dtype": "float32",
        "byte_order": "little",
        "config": vars(model.config),
        "tensors": tensors,
    }
    atomic_write(directory / WEIGHTS_BIN, b"".join(chunks))
    atomic_write(directory / WEIGHTS_MANIFEST, json.dumps(manifest, indent=2, sort_keys=True))


def load_model(directory) -> EncoderModel:
    """Rebuild a model from ``save_model`` output; values are the stored float32s.

    Raises ``ValueError`` naming the field or tensor when the manifest, the
    blob and the model its config describes disagree in any way.
    """
    directory = Path(directory)
    manifest = json.loads((directory / WEIGHTS_MANIFEST).read_text())
    blob = (directory / WEIGHTS_BIN).read_bytes()
    if not isinstance(manifest, dict):
        raise ValueError(f"{WEIGHTS_MANIFEST} must hold a JSON object, got {type(manifest).__name__}")
    for field, expected in (("dtype", "float32"), ("byte_order", "little")):
        if manifest.get(field) != expected:
            raise ValueError(f"manifest {field} must be {expected!r}, got {manifest.get(field)!r}")
    for field, kind in (("config", dict), ("tensors", list)):
        if not isinstance(manifest.get(field), kind):
            raise ValueError(f"manifest {field} must be {kind.__name__}, got {type(manifest.get(field)).__name__}")
    for i, t in enumerate(manifest["tensors"]):
        for field, kind in (("name", str), ("shape", list), ("offset", int), ("size", int)):
            value = t.get(field) if isinstance(t, dict) else None
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"manifest tensors[{i}].{field} must be {kind.__name__}, got {value!r}")
    config_doc = manifest["config"]
    known = {f.name for f in fields(ModelConfig)}
    required = {f.name for f in fields(ModelConfig) if f.default is MISSING}
    unknown, missing = sorted(set(config_doc) - known), sorted(required - set(config_doc))
    if unknown or missing:
        raise ValueError(f"manifest config has unknown keys {unknown}, missing keys {missing}")
    model = EncoderModel(ModelConfig(**config_doc), seed=0)
    stored = {t["name"]: t for t in manifest["tensors"]}
    end = 0
    for name, param in model.named_parameters():
        t = stored.pop(name, None)
        if t is None:
            raise ValueError(f"archive is missing tensor {name}")
        if tuple(t["shape"]) != param.shape:
            raise ValueError(f"shape mismatch for tensor {name}")
        offset, size = t["offset"], t["size"]
        if size != 4 * param.size:
            raise ValueError(f"tensor {name} has size {size}, expected {4 * param.size} bytes")
        if offset < 0 or offset + size > len(blob):
            raise ValueError(
                f"tensor {name} spans bytes [{offset}, {offset + size}) of a {len(blob)}-byte blob"
            )
        raw = np.frombuffer(blob, dtype="<f4", count=param.size, offset=offset)
        if not np.isfinite(raw).all():
            raise ValueError(f"tensor {name} holds non-finite values")
        param[...] = raw.reshape(param.shape).astype(np.float64)
        end = max(end, offset + size)
    if stored:
        raise ValueError(f"archive holds unknown tensors: {sorted(stored)}")
    if len(blob) != end:
        raise ValueError(f"{WEIGHTS_BIN} has {len(blob) - end} trailing bytes after the last tensor")
    return model
