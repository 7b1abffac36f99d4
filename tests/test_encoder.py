"""Encoder forward/backward, parameter accounting, and the weight archive."""
import hashlib
import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erf

from _oracles import (
    full_row_logits,
    gelu,
    gelu_grad,
    layer_norm_backward_reference,
    layer_norm_reference,
    softmax_reference,
)
from qffn.encoder import (
    MASK_BIAS,
    EncoderModel,
    FfnKind,
    ModelConfig,
    ModelConfigError,
    RowSet,
    _attention_backward,
    _attention_forward,
    _cls_attention_backward,
    _cls_attention_forward,
    _forward,
    _layer_norm,
    _layer_norm_backward,
    _row_sums,
    cross_entropy,
    load_model,
    model_backward,
    model_forward,
    model_param_count,
    save_model,
    softmax,
)
from qffn.data import PAD_ID, Dataset, Vocab, encode_dataset
from qffn.diagnostics import finite_diff
from qffn.feedforward import _ERF_CHUNK, ClassicalFeedForward, _erf
from qffn.training import AdamOptimizer, _eval_arrays

MICRO = dict(vocab_size=20, num_classes=2, hidden=16, num_layers=2, num_heads=1,
             intermediate=32, max_seq_len=6)


def micro_config(kind=FfnKind.CLASSICAL, pqc_layers=1, num_layers=2):
    return ModelConfig(ffn_kind=kind, pqc_layers=pqc_layers, **{**MICRO, "num_layers": num_layers})


def spread_model(config, seed):
    """A model whose weights are far from init, so attention is not near
    uniform and every gradient is well above finite-difference noise."""
    model = EncoderModel(config, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for name, p in model.named_parameters():
        if not name.endswith("theta"):
            p += rng.normal(0.0, 0.3, p.shape)
    return model


FD_RTOL, FD_ATOL = 1e-4, 1e-7


def assert_matches_finite_differences(model, ids, labels, names):
    _, grads = model_backward(model, ids, labels)
    named = dict(model.named_parameters())
    for name in names:
        # a gradient inside atol passes whatever the analytic value is
        assert np.max(np.abs(grads[name])) >= 10 * FD_ATOL, f"{name} gradient too small to check"
        param = named[name]

        def loss_at(values, param=param):
            saved = param.copy()
            param[...] = values
            loss = cross_entropy(model_forward(model, ids), labels)
            param[...] = saved
            return loss

        fd = finite_diff(loss_at, param)
        np.testing.assert_allclose(grads[name], fd, rtol=FD_RTOL, atol=FD_ATOL, err_msg=name)


def micro_batch(seed=0, batch=2, seq=6):
    """Random token ids with [PAD] in the last two positions of sample 0 and
    nowhere else, and random labels."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(PAD_ID + 1, 20, size=(batch, seq))
    ids[0, -2:] = PAD_ID  # exercise padding
    labels = rng.integers(0, 2, size=batch)
    return ids, labels


def owned_nbytes(obj, owners=None) -> int:
    """Bytes of the distinct buffers behind the arrays in a nest of dicts, tuples and lists."""
    owners = {} if owners is None else owners
    if isinstance(obj, np.ndarray):
        base = obj if obj.base is None else obj.base
        owners[id(base)] = base.nbytes
    elif isinstance(obj, dict):
        for value in obj.values():
            owned_nbytes(value, owners)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            owned_nbytes(value, owners)
    return sum(owners.values())


class TestForward:
    def test_logits_shape(self):
        model = EncoderModel(ModelConfig(vocab_size=50, num_classes=2, max_seq_len=16), seed=1)
        ids = np.random.default_rng(0).integers(0, 50, size=(2, 8))
        logits = model_forward(model, ids)
        assert logits.shape == (2, 2)

    def test_equal_rows_give_equal_logits(self):
        model = EncoderModel(micro_config(), seed=2)
        ids, _ = micro_batch()
        ids[1] = ids[0]
        logits = model_forward(model, ids)
        np.testing.assert_array_equal(logits[0], logits[1])

    def test_softmax_rows_normalized(self):
        model = EncoderModel(micro_config(), seed=3)
        ids, _ = micro_batch(seed=4, batch=5)
        probs = softmax(model_forward(model, ids))
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(probs >= 0)

    def test_input_validation(self):
        model = EncoderModel(micro_config(), seed=5)
        with pytest.raises(ValueError):
            model_forward(model, np.full((1, 3), 25))  # out of vocab
        with pytest.raises(ValueError):
            model_forward(model, np.zeros((1, 9), dtype=int))  # too long

    @pytest.mark.parametrize(
        "ids",
        [
            np.array([[2.0, 5.0, 3.0]]),
            np.array([[True, False, True]]),
            np.zeros((0, 3), dtype=np.int64),
            np.zeros((2, 0), dtype=np.int64),
        ],
        ids=["float", "bool", "no samples", "no positions"],
    )
    def test_token_ids_of_wrong_dtype_or_empty_rejected(self, ids):
        model = EncoderModel(micro_config(), seed=5)
        with pytest.raises(ValueError, match="token_ids"):
            model_forward(model, ids)
        with pytest.raises(ValueError, match="token_ids"):
            model_backward(model, ids, np.zeros(len(ids), dtype=np.int64))

    @pytest.mark.parametrize(
        "labels",
        [
            np.array([0.0, 1.0]),
            np.array([True, False]),
            np.array([1]),
            np.array([[0], [1]]),
            np.array([[1, 0]]),
        ],
        ids=["float", "bool", "one for two samples", "column", "row"],
    )
    def test_labels_of_wrong_dtype_or_shape_rejected(self, labels):
        model = EncoderModel(micro_config(), seed=5)
        ids, _ = micro_batch()
        with pytest.raises(ValueError, match="labels"):
            model_backward(model, ids, labels)

    def test_attention_rows_are_distributions_and_respect_mask(self):
        model = EncoderModel(micro_config(), seed=6)
        ids, _ = micro_batch(seed=7)
        _, cache = _forward(model, ids)
        for layer_cache in cache["layers"]:
            probs = layer_cache["attn"][4]  # [batch, heads, seq, seq]
            assert np.all(probs >= 0)
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-10)
            masked_cols = probs[0, :, :, ids[0] == PAD_ID]
            assert np.max(masked_cols) <= 1e-12

    def test_evaluation_peaks_below_the_caches_a_training_pass_keeps(self):
        model = EncoderModel(ModelConfig(vocab_size=30, num_classes=2), seed=45)
        rng = np.random.default_rng(46)
        ids = rng.integers(PAD_ID + 1, 30, (64, 16))
        ids[1::2, 9:] = PAD_ID
        kept = owned_nbytes(_forward(model, ids)[1]["layers"])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model_forward(model, ids)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < kept, f"model_forward peaked at {peak} bytes, the training caches hold {kept}"

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(8)
        x = rng.normal(2.0, 3.0, (40, 64))
        normed, _ = _layer_norm(x, np.ones(64), np.zeros(64), 1e-12)
        assert np.max(np.abs(normed.mean(axis=-1))) <= 1e-6
        assert np.max(np.abs(normed.var(axis=-1) - 1.0)) <= 1e-4


class TestBackward:
    @pytest.mark.parametrize("kind", list(FfnKind))
    def test_gradients_match_finite_differences_on_sample_tensors(self, kind):
        model = spread_model(micro_config(kind), seed=11)
        ids, labels = micro_batch(seed=12)

        ffn_tensor = "layers.0.ffn.w1" if kind is FfnKind.CLASSICAL else "layers.0.ffn.theta"
        check = ["tok_emb", "layers.0.attn.wq", "layers.1.ln2_g", "cls_w", ffn_tensor]
        if kind is not FfnKind.CLASSICAL:
            check.append("layers.1.ffn.w_in")
        assert_matches_finite_differences(model, ids, labels, check)

    @pytest.mark.parametrize("kind", list(FfnKind))
    def test_single_layer_gradients_match_finite_differences(self, kind):
        # With one layer, the layer that computes only row 0 is also the one
        # whose input gradient reaches the embeddings.
        model = spread_model(micro_config(kind, num_layers=1), seed=27)
        ids, labels = micro_batch(seed=28)
        ffn = ["ffn.w1", "ffn.b2"] if kind is FfnKind.CLASSICAL else ["ffn.w_in", "ffn.theta"]
        check = ["tok_emb", "pos_emb", "cls_w"] + [
            "layers.0." + n for n in ["attn.wq", "attn.bq", "attn.wk", "attn.wv", "attn.wo",
                                      "ln1_g", "ln2_b", *ffn]
        ]
        assert_matches_finite_differences(model, ids, labels, check)

    def test_gradient_keys_match_parameters(self):
        for kind in FfnKind:
            model = EncoderModel(micro_config(kind), seed=13)
            _, grads = model_backward(model, *micro_batch(seed=14))
            names = [n for n, _ in model.named_parameters()]
            assert sorted(grads) == sorted(names)
            for name, p in model.named_parameters():
                assert grads[name].shape == p.shape

    def test_confident_correct_prediction_has_tiny_gradients(self):
        model = EncoderModel(micro_config(), seed=15)
        model.cls_w[...] = 0.0
        model.cls_b[:] = [60.0, -60.0]  # saturated towards class 0
        ids, _ = micro_batch(seed=16)
        labels = np.zeros(ids.shape[0], dtype=np.int64)
        loss, grads = model_backward(model, ids, labels)
        assert loss < 1e-12
        assert max(np.max(np.abs(g)) for g in grads.values()) < 1e-12

    def test_label_range_checked(self):
        model = EncoderModel(micro_config(), seed=17)
        ids, _ = micro_batch()
        with pytest.raises(ValueError):
            model_backward(model, ids, np.array([0, 5]))

    def test_gradient_set_size_tracks_kind(self):
        sizes = {}
        for kind in FfnKind:
            model = EncoderModel(micro_config(kind), seed=18)
            _, grads = model_backward(model, *micro_batch(seed=19))
            sizes[kind] = sum(g.size for g in grads.values())
            assert sizes[kind] == model_param_count(micro_config(kind))
        # classical MLP (1072) vs quantum block (156) per layer, two layers
        assert sizes[FfnKind.CLASSICAL] - sizes[FfnKind.QFFN] == 2 * (1072 - 156)

    @pytest.mark.parametrize("kind", list(FfnKind))
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_every_tensor_reaches_the_loss(self, kind, num_layers):
        # a tensor with a structurally zero gradient reaches no output and is dead weight
        model = spread_model(micro_config(kind, num_layers=num_layers), seed=31)
        _, grads = model_backward(model, *padded_batch(seed=32))
        largest = max(np.max(np.abs(g)) for g in grads.values())
        for name, _ in model.named_parameters():
            assert np.max(np.abs(grads[name])) > 1e-10 * largest, name


class TestLastLayerRows:
    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("kind", list(FfnKind))
    def test_logits_match_full_row_oracle(self, kind, num_layers):
        model = spread_model(micro_config(kind, pqc_layers=2, num_layers=num_layers), seed=33)
        ids, _ = micro_batch(seed=34, batch=3)
        ids[2, 1:] = PAD_ID  # only the classification token attends
        logits, cache = _forward(model, ids)
        assert cache["final"].shape == (3, 1, model.config.hidden)
        want = full_row_logits(model, ids)
        assert np.max(np.abs(want)) > 0.1
        np.testing.assert_allclose(logits, want, rtol=0, atol=1e-12)


def padded_batch(seed, batch=4, seq=6):
    """About half of the positions [PAD], and one sample of the classification
    token alone."""
    ids, labels = micro_batch(seed=seed, batch=batch, seq=seq)
    ids[0, 4:] = PAD_ID
    ids[1, 1:] = PAD_ID
    ids[2, 2:] = PAD_ID
    ids[3, 3:] = PAD_ID
    return ids, labels


class TestRowSkip:
    """Every layer computes only the non-[PAD] rows, the last one row 0 alone."""

    @pytest.mark.parametrize("num_heads", [1, 2, 4])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("kind", list(FfnKind))
    def test_logits_match_full_row_oracle(self, kind, num_layers, num_heads):
        config = replace(micro_config(kind, pqc_layers=2, num_layers=num_layers), num_heads=num_heads)
        model = spread_model(config, seed=41)
        ids, _ = padded_batch(seed=42)
        assert 0.4 <= np.mean(ids == PAD_ID) <= 0.6
        want = full_row_logits(model, ids)
        assert np.max(np.abs(want)) > 0.1
        logits = model_forward(model, ids)
        np.testing.assert_allclose(logits, want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(logits, _forward(model, ids)[0])  # the caching pass

    @pytest.mark.parametrize("num_heads", [1, 2, 4])
    @pytest.mark.parametrize("kind", list(FfnKind))
    def test_three_layer_gradients_match_finite_differences(self, kind, num_heads):
        # The middle layer reads the skipped rows of the first and skips them
        # in turn for the last.
        config = replace(micro_config(kind, pqc_layers=2, num_layers=3), num_heads=num_heads)
        model = spread_model(config, seed=45)
        ids, labels = padded_batch(seed=46)
        ffn = ["ffn.w1", "ffn.b1"] if kind is FfnKind.CLASSICAL else ["ffn.w_in", "ffn.theta"]
        check = ["tok_emb", "pos_emb"] + [
            "layers.1." + n for n in ["attn.wq", "attn.wk", "attn.wv", "attn.bo", "ln1_b", "ln2_g", *ffn]
        ]
        assert_matches_finite_differences(model, ids, labels, check)

    @pytest.mark.parametrize("kind", list(FfnKind))
    def test_all_pad_columns_change_nothing(self, kind):
        # Three more [PAD] columns, and no mask passed, leave the row set, and so
        # every grid, as it was: W = 4 for padded_batch either way.
        config = replace(micro_config(kind, pqc_layers=2), max_seq_len=9)
        model = spread_model(config, seed=61)
        ids, labels = padded_batch(seed=62)
        wide_ids = np.pad(ids, ((0, 0), (0, 3)), constant_values=PAD_ID)
        np.testing.assert_array_equal(model_forward(model, wide_ids), model_forward(model, ids))
        loss, grads = model_backward(model, ids, labels)
        wide_loss, wide_grads = model_backward(model, wide_ids, labels)
        assert wide_loss == loss
        for name in grads:
            np.testing.assert_array_equal(wide_grads[name], grads[name], err_msg=name)

    def test_gradients_into_masked_rows_are_zero(self):
        model = spread_model(micro_config(num_layers=3), seed=47)
        _, grads = model_backward(model, *padded_batch(seed=48))
        assert np.all(grads["tok_emb"][PAD_ID] == 0.0)
        assert np.all(grads["pos_emb"][4:] == 0.0)  # positions 4 and 5 are [PAD] in every sample

    def test_a_pad_word_in_a_vocabulary_file_text_is_padding(self, tmp_path):
        # A text's literal [PAD] word reads as PAD_ID, so its row is skipped like
        # any padding row and the [PAD] embedding gets no gradient.
        Vocab(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "good", "bad", "movie"]).save(tmp_path / "vocab.txt")
        vocab = Vocab.from_file(tmp_path / "vocab.txt")
        data = Dataset([("good [PAD] movie", 1), ("bad [PAD] [PAD] movie", 0)], 2)
        ids, labels = encode_dataset(vocab, data, max_len=8)
        assert ids[0, 2] == ids[1, 2] == ids[1, 3] == PAD_ID
        model = spread_model(replace(micro_config(), vocab_size=len(vocab), max_seq_len=8), seed=53)
        _, grads = model_backward(model, ids, labels)
        assert np.all(grads["tok_emb"][PAD_ID] == 0.0)
        assert np.max(np.abs(grads["tok_emb"][vocab.index["movie"]])) > 1e-6

    @pytest.mark.parametrize("command", ["forward", "backward"])
    def test_pad_at_the_classification_token_is_rejected(self, command):
        model = EncoderModel(micro_config(), seed=49)
        ids, labels = micro_batch(seed=50)
        ids[1, 0] = PAD_ID
        with pytest.raises(ValueError, match="token_ids must not hold \\[PAD\\] at position 0"):
            if command == "forward":
                model_forward(model, ids)
            else:
                model_backward(model, ids, labels)


class TestClassificationRowAttention:
    """The last layer's folded attention against full self-attention's
    classification rows, on a padded batch."""

    @pytest.mark.parametrize("num_heads", [1, 2, 4])
    def test_matches_full_self_attention_and_its_adjoint(self, num_heads):
        config = replace(micro_config(), num_heads=num_heads)
        attn = spread_model(config, seed=71).layers[0].attn
        mask = padded_batch(seed=72)[0] != PAD_ID
        keys = RowSet(*np.nonzero(mask))
        key_bias = (~mask[:, : keys.width] * MASK_BIAS)[:, None, None, :]
        rng = np.random.default_rng(73)
        h = rng.normal(0.0, 1.0, (len(keys.sample), config.hidden))
        full, full_cache = _attention_forward(attn, h, keys, key_bias, num_heads)
        out, cache = _cls_attention_forward(attn, h, keys, h[keys.cls], key_bias, num_heads)
        np.testing.assert_allclose(out, full[keys.cls], rtol=0, atol=1e-12)
        assert cache[4].shape == (4, num_heads, 1, keys.width)
        np.testing.assert_allclose(cache[4], full_cache[4][:, :, :1], rtol=0, atol=1e-12)

        d_out = rng.normal(0.0, 1.0, out.shape)
        d_full = np.zeros_like(full)
        d_full[keys.cls] = d_out
        want, want_d_h = _attention_backward(attn, d_full, full_cache, keys, num_heads)
        grads, d_h = _cls_attention_backward(attn, d_out, cache, keys, num_heads)
        assert sorted(grads) == sorted(want) and len(grads) == 7
        for name, g in want.items():
            assert np.max(np.abs(g)) > 1e-2, name
            np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-12, err_msg=name)
        assert np.max(np.abs(want_d_h)) > 1e-2
        np.testing.assert_allclose(d_h, want_d_h, rtol=0, atol=1e-12)


class TestEmbeddingGradients:
    """The ``tok_emb``/``pos_emb`` gradients are ``np.add.at`` into zeros, bit
    for bit: each embedding row adds its rows' gradients in row order,
    starting from +0.0."""

    @staticmethod
    def add_at(index, rows, count):
        out = np.zeros((count, rows.shape[1]))
        np.add.at(out, index, rows)
        return out

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("kind", list(FfnKind))
    def test_model_gradients_are_add_at_into_zeros(self, kind, num_layers):
        # A padded batch of three ids, one of them the vocabulary's last, so ids
        # and positions repeat and most embedding rows receive nothing.
        config = micro_config(kind, pqc_layers=2, num_layers=num_layers)
        model = spread_model(config, seed=91)
        ids, labels = padded_batch(seed=92)
        sample, position = np.nonzero(ids != PAD_ID)
        ids[sample, position] = np.random.default_rng(93).choice([5, 9, config.vocab_size - 1], len(sample))
        loss, grads = model_backward(model, ids, labels)

        # Each embedding row's gradient, read from a twin whose every non-[PAD]
        # row has a token of its own holding the same vector: the twin's forward
        # is bitwise the same, and each of its token rows sums a single term.
        twin = EncoderModel(replace(config, vocab_size=len(sample) + 1), seed=0)
        for (name, p), (_, q) in zip(twin.named_parameters(), model.named_parameters()):
            if name != "tok_emb":
                p[...] = q
        twin.tok_emb[1:] = model.tok_emb[ids[sample, position]]
        twin_ids = np.full_like(ids, PAD_ID)
        twin_ids[sample, position] = np.arange(1, len(sample) + 1)
        twin_loss, twin_grads = model_backward(twin, twin_ids, labels)
        assert twin_loss == loss
        d_h = twin_grads["tok_emb"][1:]
        assert np.max(np.abs(d_h)) > 1e-3

        for name, index, count in (
            ("tok_emb", ids[sample, position], config.vocab_size),
            ("pos_emb", position, config.max_seq_len),
        ):
            assert grads[name].tobytes() == self.add_at(index, d_h, count).tobytes(), name

    @pytest.mark.parametrize("dtype", [np.intp, np.uint8], ids=["intp", "uint8"])
    def test_sums_in_row_order_from_positive_zero(self, dtype):
        # Row 2 meets 1e16, 1 and -1e16, whose sum depends on the order; row 0
        # meets negative zeros only; row 6, the last, meets an inf in column 1;
        # rows 1, 3, 4 and 5 meet nothing. At 50 columns a uint8 index times the
        # width would wrap.
        count, width = 7, 50
        index = np.array([2, 0, 2, 6, 2, 0, 6], dtype=dtype)
        rows = np.random.default_rng(94).normal(0.0, 1.0, (len(index), width))
        rows[[0, 2, 4], 0] = 1e16, 1.0, -1e16
        rows[[1, 5]] = -0.0
        rows[3, 1] = np.inf
        out = _row_sums(index, rows, count)
        assert out.tobytes() == self.add_at(index, rows, count).tobytes()
        assert out[2, 0] != (1e16 + -1e16) + 1.0
        assert np.isinf(out[6, 1]) and np.isfinite(np.delete(out, 1, axis=1)).all()
        for r in (0, 1, 3, 4, 5):
            assert not out[r].any() and not np.signbit(out[r]).any(), r


class TestCompileCount:
    """Each block's theta compiles once per value: a training step's forward
    and backward share one compile, and so does the evaluation after it."""

    def test_a_step_and_the_evaluation_after_it(self, compiles):
        model = EncoderModel(micro_config(FfnKind.QFFN), seed=81)
        ids, labels = padded_batch(seed=82)
        _, grads = model_backward(model, ids, labels)
        assert len(compiles) == 2
        model_forward(model, ids)
        assert len(compiles) == 2
        AdamOptimizer(model.named_parameters(), 1e-3).step(grads)
        _eval_arrays(model, ids, labels, batch_size=1)  # 4 batches
        assert len(compiles) == 4

    def test_every_layer_compiles_its_own_theta(self, compiles):
        model = EncoderModel(micro_config(FfnKind.QFFN, num_layers=3), seed=83)
        model_forward(model, padded_batch(seed=84)[0])
        assert len(compiles) == 3


class TestInPlacePrimitives:
    """The in-place kernels are bitwise equal to the plain formulas."""

    def test_layer_norm_and_its_backward(self):
        rng = np.random.default_rng(51)
        x = rng.normal(1.0, 3.0, (5, 7, 64))
        g, b, d_out = rng.normal(size=64), rng.normal(size=64), rng.normal(size=x.shape)
        saved = x.copy()
        out, (xhat, inv_std) = _layer_norm(x, g, b, 1e-12)
        want, want_xhat, want_inv_std = layer_norm_reference(x, g, b, 1e-12)
        np.testing.assert_array_equal(x, saved)
        for got, ref in ((out, want), (xhat, want_xhat), (inv_std, want_inv_std)):
            np.testing.assert_array_equal(got, ref)
        got = _layer_norm_backward(d_out, (xhat, inv_std), g)
        for got_part, ref in zip(got, layer_norm_backward_reference(d_out, want_xhat, want_inv_std, g)):
            np.testing.assert_array_equal(got_part, ref)

    def test_softmax_leaves_its_argument_unchanged(self):
        x = np.random.default_rng(52).normal(0.0, 5.0, (3, 2, 6, 6))
        x[..., -2:] += MASK_BIAS
        saved = x.copy()
        for axis in (-1, 1):
            np.testing.assert_array_equal(softmax(x, axis=axis), softmax_reference(x, axis=axis))
        np.testing.assert_array_equal(x, saved)


class TestClassicalFeedForward:
    def test_cached_gelu_terms_match_the_gelu_formulas_bitwise(self):
        rng = np.random.default_rng(35)
        ffn = ClassicalFeedForward.create(16, 32, rng)
        ffn.w1 *= 100.0  # pre-activations across both tails of erf
        hidden = rng.normal(0.0, 1.0, (40, 16))
        upstream = rng.normal(0.0, 1.0, (40, 16))
        out, cache = ffn.forward(hidden)
        pre, cdf = cache
        assert np.min(pre) < -4.0 and np.max(pre) > 4.0
        np.testing.assert_array_equal(pre, hidden @ ffn.w1.T + ffn.b1)
        np.testing.assert_array_equal(pre * cdf, gelu(pre))
        np.testing.assert_array_equal(out, gelu(pre) @ ffn.w2.T + ffn.b2)
        grads, d_in = ffn.backward(hidden, cache, upstream)
        d_pre = (upstream @ ffn.w2) * gelu_grad(pre)
        np.testing.assert_array_equal(grads["w1"], d_pre.T @ hidden)
        np.testing.assert_array_equal(grads["b1"], d_pre.sum(axis=0))
        np.testing.assert_array_equal(grads["w2"], upstream.T @ gelu(pre))
        np.testing.assert_array_equal(grads["b2"], upstream.sum(axis=0))
        np.testing.assert_array_equal(d_in, d_pre @ ffn.w1)

    @staticmethod
    def assert_scipy_erf_bitwise(x):
        """Into a new array, and into a copy of ``x`` itself, where the tail
        must read its elements' signs before the chunk is overwritten."""
        want = erf(x).view(np.uint64)
        ours = _erf(x)
        assert ours.shape == x.shape and ours.flags.c_contiguous
        np.testing.assert_array_equal(ours.view(np.uint64), want)
        buffer = x.copy()
        assert _erf(buffer, out=buffer) is buffer
        np.testing.assert_array_equal(buffer.view(np.uint64), want)

    def test_erf_is_scipys_bitwise_on_every_branch_and_special_value(self):
        rng = np.random.default_rng(36)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308, -1e-310,
                   1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(8.0, 0.0), 8.0, -8.0, 1e300]
        draws = rng.normal(0.0, 1.0, (5, 4000)) * np.array([[0.3], [1.0], [3.0], [10.0], [100.0]])
        x = np.concatenate([special, draws.ravel()])
        mag = np.abs(x)
        assert min(np.sum(mag <= 1.0), np.sum((mag > 1.0) & (mag < 8.0)), np.sum(mag >= 8.0)) > 1000
        self.assert_scipy_erf_bitwise(x)
        assert np.signbit(_erf(np.array([0.0, -0.0]))).tolist() == [False, True]

    @pytest.mark.parametrize("size", [0, 1, _ERF_CHUNK - 1, _ERF_CHUNK, _ERF_CHUNK + 1])
    def test_erf_is_scipys_bitwise_at_chunk_edges(self, size):
        x = np.random.default_rng(size).normal(0.0, 3.0, size)
        x[-1:] = -2.5  # a tail element in the last chunk
        self.assert_scipy_erf_bitwise(x)

    def test_erf_of_a_non_contiguous_view_is_scipys_bitwise(self):
        x = np.random.default_rng(37).normal(0.0, 3.0, (300, 70))
        assert x.T.size > _ERF_CHUNK and x.T.flags.f_contiguous
        self.assert_scipy_erf_bitwise(x.T)
        self.assert_scipy_erf_bitwise(x[::3, 1::2])


class TestParamCount:
    def test_micro_hand_counts(self):
        # tok 320 + pos 96 + 2*(attn 1072 + norms 64 + ffn) + head 34
        assert model_param_count(micro_config(FfnKind.CLASSICAL)) == 4866
        assert model_param_count(micro_config(FfnKind.QFFN)) == 3034
        assert model_param_count(micro_config(FfnKind.VANILLA_QFFN)) == 3026

    def test_formula_matches_actual_tensors(self):
        for kind in FfnKind:
            for layers in (1, 4):
                config = micro_config(kind, pqc_layers=layers)
                model = EncoderModel(config, seed=0)
                assert model.param_count() == model_param_count(config)

    def test_full_scale_counts(self):
        classical = ModelConfig(vocab_size=30522, num_classes=2)
        qffn4 = ModelConfig(vocab_size=30522, num_classes=2, ffn_kind=FfnKind.QFFN, pqc_layers=4)
        assert model_param_count(classical) == 4319746
        assert model_param_count(classical) - model_param_count(qffn4) == 2 * (131712 - 1188)

    def test_swapping_kind_keeps_all_other_tensors(self):
        shapes = {}
        for kind in FfnKind:
            model = EncoderModel(micro_config(kind), seed=0)
            shapes[kind] = {
                n: p.shape for n, p in model.named_parameters() if ".ffn." not in n
            }
        assert shapes[FfnKind.CLASSICAL] == shapes[FfnKind.QFFN] == shapes[FfnKind.VANILLA_QFFN]


class TestWeightArchive:
    @pytest.mark.parametrize(
        "kind,ffn",
        [
            (FfnKind.CLASSICAL, ["layers.0.ffn.w1", "layers.0.ffn.b1", "layers.0.ffn.w2", "layers.0.ffn.b2"]),
            (FfnKind.QFFN, ["layers.0.ffn.w_in", "layers.0.ffn.b_in", "layers.0.ffn.w_out",
                            "layers.0.ffn.b_out", "layers.0.ffn.theta"]),
        ],
        ids=["classical", "qffn"],
    )
    def test_tensor_layout_is_pinned(self, kind, ffn, tmp_path):
        """The tensor names, in the order of the archive and of the optimizer."""
        expected = [
            "tok_emb", "pos_emb",
            "layers.0.attn.wq", "layers.0.attn.bq", "layers.0.attn.wk",
            "layers.0.attn.wv", "layers.0.attn.bv", "layers.0.attn.wo", "layers.0.attn.bo",
            "layers.0.ln1_g", "layers.0.ln1_b",
            *ffn,
            "layers.0.ln2_g", "layers.0.ln2_b",
            "cls_w", "cls_b",
        ]
        model = EncoderModel(micro_config(kind, num_layers=1), seed=0)
        assert [name for name, _ in model.named_parameters()] == expected
        save_model(model, tmp_path)
        manifest = json.loads((tmp_path / "weights.json").read_text())
        assert [t["name"] for t in manifest["tensors"]] == expected

    @pytest.mark.parametrize("kind", list(FfnKind))
    def test_round_trip_is_bit_exact(self, kind, tmp_path):
        model = EncoderModel(micro_config(kind), seed=19)
        first = tmp_path / "a"
        second = tmp_path / "b"
        save_model(model, first)
        reloaded = load_model(first)
        save_model(reloaded, second)
        blob = (first / "weights.bin").read_bytes()
        assert blob == (second / "weights.bin").read_bytes()
        assert (first / "weights.json").read_text() == (second / "weights.json").read_text()
        manifest = json.loads((first / "weights.json").read_text())
        assert manifest["format_version"] == 3
        assert manifest["weights_sha256"] == hashlib.sha256(blob).hexdigest()

    def test_loaded_values_are_the_float32_cast(self, tmp_path):
        model = EncoderModel(micro_config(), seed=20)
        save_model(model, tmp_path)
        reloaded = load_model(tmp_path)
        for (name, p), (_, q) in zip(model.named_parameters(), reloaded.named_parameters()):
            np.testing.assert_array_equal(q, p.astype(np.float32).astype(np.float64), err_msg=name)

    def test_loaded_model_predicts_identically_to_itself(self, tmp_path):
        model = EncoderModel(micro_config(FfnKind.QFFN), seed=21)
        save_model(model, tmp_path)
        a = load_model(tmp_path)
        b = load_model(tmp_path)
        ids, _ = micro_batch(seed=22)
        np.testing.assert_array_equal(model_forward(a, ids), model_forward(b, ids))

    def test_numpy_integer_config_saves_as_its_python_ints(self, tmp_path):
        ints = {name: np.int64(value) for name, value in MICRO.items()}
        save_model(EncoderModel(ModelConfig(**ints, ffn_kind=FfnKind.QFFN), seed=23), tmp_path / "numpy")
        save_model(EncoderModel(micro_config(FfnKind.QFFN), seed=23), tmp_path / "python")
        for name in ("weights.json", "weights.bin"):
            assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "python" / name).read_bytes(), name
        config = load_model(tmp_path / "numpy").config
        assert config == micro_config(FfnKind.QFFN)
        assert all(type(getattr(config, name)) is int for name in MICRO)

    def test_manifest_that_cannot_render_writes_neither_file(self, tmp_path, monkeypatch):
        def failing_dumps(*args, **kwargs):
            raise TypeError("cannot render")

        monkeypatch.setattr(json, "dumps", failing_dumps)
        with pytest.raises(TypeError, match="cannot render"):
            save_model(EncoderModel(micro_config(), seed=24), tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestArchiveValidation:
    """``load_model`` rejects a corrupt archive with a ValueError naming it."""

    @pytest.fixture
    def saved(self, tmp_path):
        save_model(EncoderModel(micro_config(), seed=37), tmp_path)
        return tmp_path, json.loads((tmp_path / "weights.json").read_text())

    @staticmethod
    def rewrite(directory, manifest=None, blob=None):
        """Overwrite the manifest, the blob or both. A new blob's sha256 goes into
        the manifest, so the checks after the hash see the blob."""
        if blob is not None:
            if manifest is None:
                manifest = json.loads((directory / "weights.json").read_text())
            manifest["weights_sha256"] = hashlib.sha256(blob).hexdigest()
            (directory / "weights.bin").write_bytes(blob)
        if manifest is not None:
            (directory / "weights.json").write_text(json.dumps(manifest))

    def test_blob_of_another_model_of_the_same_size(self, saved, tmp_path):
        # two heads instead of one: the same tensors and sizes, another model
        directory, _ = saved
        other = tmp_path / "other"
        save_model(EncoderModel(replace(micro_config(), num_heads=2), seed=38), other)
        blob = (other / "weights.bin").read_bytes()
        assert len(blob) == len((directory / "weights.bin").read_bytes())
        (directory / "weights.bin").write_bytes(blob)
        with pytest.raises(ValueError, match="manifest weights_sha256"):
            load_model(directory)

    def test_flipped_bit(self, saved):
        directory, _ = saved
        blob = bytearray((directory / "weights.bin").read_bytes())
        blob[len(blob) // 2] ^= 1  # a mantissa bit (bytes 0-2 of a float32), so the weight stays finite
        (directory / "weights.bin").write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="manifest weights_sha256"):
            load_model(directory)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("dtype", "float64"), ("byte_order", "big"),
            ("format_version", 1), ("format_version", 2), ("format_version", True),
        ],
    )
    def test_foreign_encoding(self, saved, field, value):
        directory, manifest = saved
        manifest[field] = value
        self.rewrite(directory, manifest)
        with pytest.raises(ValueError, match=field):
            load_model(directory)

    def test_unknown_config_key(self, saved):
        directory, manifest = saved
        manifest["config"]["hiden"] = 16
        self.rewrite(directory, manifest)
        with pytest.raises(ValueError, match="hiden"):
            load_model(directory)

    @pytest.mark.parametrize("field", ["config", "tensors", "format_version", "weights_sha256"])
    def test_missing_manifest_field(self, saved, field):
        directory, manifest = saved
        del manifest[field]
        self.rewrite(directory, manifest)
        with pytest.raises(ValueError, match=f"manifest {field}"):
            load_model(directory)

    def test_tensor_entry_without_offset(self, saved):
        directory, manifest = saved
        del manifest["tensors"][3]["offset"]
        self.rewrite(directory, manifest)
        with pytest.raises(ValueError, match=re.escape("tensors[3].offset")):
            load_model(directory)

    @pytest.mark.parametrize(
        "where,edit",
        [
            ("extra", lambda m: m.update(extra=1)),
            ("tensors[0].dtype", lambda m: m["tensors"][0].update(dtype="float64")),
            ("tensors[2].note", lambda m: m["tensors"][2].update(note="x")),
        ],
        ids=["top-level", "tensor-dtype", "tensor-note"],
    )
    def test_key_save_model_never_writes(self, saved, where, edit):
        directory, manifest = saved
        edit(manifest)
        self.rewrite(directory, manifest)
        with pytest.raises(ValueError, match=re.escape(f"manifest {where} is not a field save_model writes")):
            load_model(directory)

    @pytest.mark.parametrize("text", [b"{'format_version': 3}", b"\xff{}"], ids=["not-json", "not-utf8"])
    def test_manifest_that_is_not_utf8_json(self, saved, text):
        directory, _ = saved
        (directory / "weights.json").write_bytes(text)
        with pytest.raises(ValueError, match="weights.json is not UTF-8 JSON"):
            load_model(directory)

    def test_manifest_is_not_an_object(self, saved):
        directory, manifest = saved
        self.rewrite(directory, [manifest])
        with pytest.raises(ValueError, match="weights.json must hold a JSON object"):
            load_model(directory)

    def test_config_value_of_wrong_type(self, saved):
        directory, manifest = saved
        manifest["config"]["hidden"] = "128"
        self.rewrite(directory, manifest)
        with pytest.raises(ValueError, match="hidden must be int, got str"):
            load_model(directory)

    def test_size_disagrees_with_shape(self, saved):
        directory, manifest = saved
        manifest["tensors"][2]["size"] -= 4
        self.rewrite(directory, manifest)
        with pytest.raises(ValueError, match=re.escape(manifest["tensors"][2]["name"])):
            load_model(directory)

    def test_tensor_past_end_of_blob(self, saved):
        directory, manifest = saved
        self.rewrite(directory, blob=(directory / "weights.bin").read_bytes()[:-4])
        with pytest.raises(ValueError, match="weights.bin holds"):
            load_model(directory)

    @pytest.mark.parametrize("start", ["previous-start", "gap"])
    def test_tensor_not_where_the_previous_one_ends(self, saved, start):
        # every offset is in the blob, so only the layout check can catch this
        directory, manifest = saved
        tensors = manifest["tensors"]
        i = next(i for i, t in enumerate(tensors) if t["name"] == "layers.0.ln1_g")
        tensors[i]["offset"] = tensors[i - 1]["offset"] if start == "previous-start" else tensors[i]["offset"] + 4
        self.rewrite(directory, manifest)
        with pytest.raises(ValueError, match=re.escape("tensor layers.0.ln1_g offset must be")):
            load_model(directory)

    def test_trailing_bytes(self, saved):
        directory, _ = saved
        self.rewrite(directory, blob=(directory / "weights.bin").read_bytes() + bytes(4))
        with pytest.raises(ValueError, match="weights.bin holds"):
            load_model(directory)

    @pytest.mark.parametrize("change", ["swap-names", "drop-last", "duplicate"])
    def test_tensor_list_differs_from_the_model(self, saved, change):
        directory, manifest = saved
        tensors = manifest["tensors"]
        if change == "swap-names":  # same shape, so only the entry order tells them apart
            g, b = (next(t for t in tensors if t["name"] == n) for n in ("layers.0.ln1_g", "layers.0.ln1_b"))
            g["name"], b["name"] = b["name"], g["name"]
            named = re.escape("tensor layers.0.ln1_g name must be 'layers.0.ln1_g', got 'layers.0.ln1_b'")
        elif change == "drop-last":
            tensors.pop()
            named = f"must hold {len(tensors) + 1} entries, got {len(tensors)}"
        else:
            tensors.insert(4, dict(tensors[3]))
            named = f"must hold {len(tensors) - 1} entries, got {len(tensors)}"
        self.rewrite(directory, manifest)
        with pytest.raises(ValueError, match=named):
            load_model(directory)

    def test_layer_norm_eps_is_no_config_key(self, saved):
        # a version-1 key: the layer-norm eps is the encoder's constant, not a config field
        directory, manifest = saved
        manifest["config"]["layer_norm_eps"] = 1e-12
        self.rewrite(directory, manifest)
        with pytest.raises(ValueError, match="manifest config: .*layer_norm_eps"):
            load_model(directory)

    def test_unknown_ffn_kind(self, saved):
        directory, manifest = saved
        manifest["config"]["ffn_kind"] = "quantum"
        self.rewrite(directory, manifest)
        with pytest.raises(ValueError, match="ffn_kind must be one of .*, got 'quantum'"):
            load_model(directory)

    @pytest.mark.parametrize("field", ["vocab_size", "max_seq_len"])
    def test_config_larger_than_the_archive(self, saved, field):
        directory, manifest = saved
        manifest["config"][field] = 10**13
        self.rewrite(directory, manifest)
        with pytest.raises(ValueError, match="manifest config describes"):
            load_model(directory)

    def test_float_shape(self, saved):
        directory, manifest = saved
        manifest["tensors"][1]["shape"] = [float(d) for d in manifest["tensors"][1]["shape"]]
        self.rewrite(directory, manifest)
        with pytest.raises(ValueError, match=re.escape(f"tensor {manifest['tensors'][1]['name']} shape")):
            load_model(directory)

    def test_non_finite_weight(self, saved):
        directory, manifest = saved
        tensor = next(t for t in manifest["tensors"] if t["name"] == "layers.1.ln1_g")
        blob = bytearray((directory / "weights.bin").read_bytes())
        blob[tensor["offset"] + 8 : tensor["offset"] + 12] = np.float32(np.nan).tobytes()
        self.rewrite(directory, blob=bytes(blob))
        with pytest.raises(ValueError, match=re.escape("layers.1.ln1_g")):
            load_model(directory)


class TestConfigValidation:
    @pytest.mark.parametrize("seed", [-1, 1.5, "a", True])
    def test_bad_seed_named(self, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must be a non-negative integer, got {seed!r}")):
            EncoderModel(micro_config(), seed=seed)

    def test_generator_and_numpy_integer_seeds_accepted(self):
        by_int, by_generator = (EncoderModel(micro_config(), seed) for seed in (np.int64(3), np.random.default_rng(3)))
        np.testing.assert_array_equal(by_int.tok_emb, by_generator.tok_emb)

    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=10, num_classes=2, hidden=10, num_heads=3).validate()

    @pytest.mark.parametrize("field", ["num_layers", "intermediate"])
    def test_zero_layers_and_zero_width_rejected(self, field):
        config = ModelConfig(vocab_size=10, num_classes=2, **{field: 0})
        with pytest.raises(ModelConfigError, match=f"{field} must be >= 1, got 0") as info:
            config.validate()
        assert info.value.field == field

    def test_unknown_ffn_kind_names_the_field(self):
        with pytest.raises(ModelConfigError) as info:
            ModelConfig(vocab_size=10, num_classes=2, ffn_kind="quantum")
        assert info.value.field == "ffn_kind"
