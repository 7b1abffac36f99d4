"""Training loop determinism, metric identities, Adam behaviour."""
import re

import numpy as np
import pytest

import qffn.training as training
from _oracles import adam_reference_steps
from qffn.data import SPECIAL_TOKENS, Vocab, build_vocab, synth_generate
from qffn.encoder import EncoderModel, FfnKind, ModelConfig, ModelConfigError
from qffn.training import (
    AdamOptimizer,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    train,
)

TINY_MODEL = dict(num_classes=2, hidden=16, num_layers=1, num_heads=1,
                  intermediate=32, max_seq_len=24)


def tiny_task(n_train=60, n_val=20, num_classes=2, seed=5):
    train_set = synth_generate(n_train, num_classes, seed=seed)
    val_set = synth_generate(n_val, num_classes, seed=seed + 1)
    vocab = build_vocab(train_set)
    return train_set, val_set, vocab


def tiny_train(train_config, seed=5, **model_overrides):
    train_set, val_set, vocab = tiny_task(seed=seed)
    params = {**TINY_MODEL, **model_overrides}
    mc = ModelConfig(vocab_size=len(vocab), **params)
    return train(mc, train_config, train_set, val_set, vocab)


class TestReport:
    def test_metric_identities_hold_exactly(self):
        _, report = tiny_train(TrainConfig(max_epochs=2))
        assert report.gap == report.training_accuracy - report.validation_accuracy
        assert report.accuracy_per_param == report.validation_accuracy / report.param_total
        assert len(report.epochs) == 2

    def test_equal_inputs_give_equal_reports(self):
        # The report is a function of the inputs alone: it holds no clock reading.
        _, a = tiny_train(TrainConfig(max_epochs=2, seed=42))
        _, b = tiny_train(TrainConfig(max_epochs=2, seed=42))
        assert a == b

    def test_same_seed_reproduces_weights(self):
        model_a, _ = tiny_train(TrainConfig(max_epochs=1, seed=7))
        model_b, _ = tiny_train(TrainConfig(max_epochs=1, seed=7))
        for (name, p), (_, q) in zip(model_a.named_parameters(), model_b.named_parameters()):
            np.testing.assert_array_equal(p, q, err_msg=name)

    def test_zero_learning_rate_freezes_metrics(self):
        _, report = tiny_train(TrainConfig(max_epochs=3, learning_rate=0.0))
        accs = [(e.train_acc, e.val_acc) for e in report.epochs]
        assert accs.count(accs[0]) == 3

    def test_quantum_kind_trains(self):
        _, report = tiny_train(TrainConfig(max_epochs=1), ffn_kind=FfnKind.QFFN)
        assert np.isfinite(report.epochs[0].train_loss)

    def test_divergence_aborts_with_diagnostic(self):
        # large enough that the attention projections overflow to inf and the
        # softmax shift turns the next loss into NaN
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged):
                tiny_train(TrainConfig(max_epochs=2, learning_rate=1e200))

    @pytest.mark.parametrize("tensor", ["layers.0.ffn.theta", "tok_emb"])
    def test_non_finite_gradient_stops_before_the_step(self, monkeypatch, tensor):
        backward, steps = training.model_backward, []

        def poisoned(*args, **kwargs):
            loss, grads = backward(*args, **kwargs)
            grads[tensor] = grads[tensor].copy()
            grads[tensor].flat[-1] = np.nan
            return loss, grads

        monkeypatch.setattr(training, "model_backward", poisoned)
        monkeypatch.setattr(training.AdamOptimizer, "step", lambda self, grads: steps.append(grads))
        expected = f"non-finite gradient of tensor {re.escape(tensor)} at epoch 1, step 0"
        with pytest.raises(TrainingDiverged, match=expected):
            tiny_train(TrainConfig(max_epochs=1), ffn_kind=FfnKind.QFFN)
        assert steps == []

    def test_vocab_size_mismatch_rejected(self):
        train_set, val_set, vocab = tiny_task()
        mc = ModelConfig(vocab_size=len(vocab) + 5, **TINY_MODEL)
        with pytest.raises(ValueError):
            train(mc, TrainConfig(), train_set, val_set, vocab)

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_more_dataset_classes_than_the_model_rejected(self, split):
        train_set, val_set, vocab = tiny_task()
        three = synth_generate(30, 3, seed=3)
        train_set, val_set = (three, val_set) if split == "train" else (train_set, three)
        mc = ModelConfig(vocab_size=len(vocab), **TINY_MODEL)
        with pytest.raises(ValueError, match="more classes than the model's num_classes 2"):
            train(mc, TrainConfig(), train_set, val_set, vocab)

    def test_config_validation(self):
        for bad in (
            TrainConfig(learning_rate=-1.0),
            TrainConfig(batch_size=0),
            TrainConfig(max_epochs=0),
        ):
            with pytest.raises(ValueError):
                bad.validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            pytest.param("learning_rate", 10**400, id="learning_rate-int-beyond-every-float"),
            ("batch_size", 2.0),
            ("max_epochs", True),
            ("seed", -1),
        ],
    )
    def test_bad_field_named(self, field, value):
        with pytest.raises(ModelConfigError) as info:
            TrainConfig(**{field: value}).validate()
        assert info.value.field == field

    def test_annotated_types_accepted(self):
        TrainConfig(learning_rate=1).validate()
        TrainConfig(seed=0).validate()

    def test_weights_overflowing_float32_raise_naming_the_tensor(self):
        # one batch, one step: the loss stays finite, the weights reach ~1e200
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged, match="tensor tok_emb"):
                tiny_train(TrainConfig(max_epochs=1, batch_size=64, learning_rate=1e200))


class TestEvaluate:
    def test_constant_predictor_scores_class_balance(self):
        train_set, _, vocab = tiny_task()
        mc = ModelConfig(vocab_size=len(vocab), **TINY_MODEL)
        model = EncoderModel(mc, seed=0)
        model.cls_w[...] = 0.0
        model.cls_b[:] = [100.0, -100.0]  # always class 0
        labels = train_set.labels()
        expected = float(np.mean(labels == 0))
        assert evaluate(model, train_set, vocab) == expected

    def test_random_init_near_chance_on_14_classes(self):
        data = synth_generate(280, 14, seed=3)
        vocab = build_vocab(data)
        accs = []
        for seed in (0, 1, 2):
            mc = ModelConfig(vocab_size=len(vocab), **{**TINY_MODEL, "num_classes": 14})
            accs.append(evaluate(EncoderModel(mc, seed=seed), data, vocab))
        assert abs(np.mean(accs) - 1 / 14) < 0.05

    def test_more_dataset_classes_than_the_model_rejected(self):
        data = synth_generate(30, 3, seed=3)
        vocab = build_vocab(data)
        model = EncoderModel(ModelConfig(vocab_size=len(vocab), **TINY_MODEL), seed=0)
        with pytest.raises(ValueError, match="dataset has more classes than the model's num_classes 2"):
            evaluate(model, data, vocab)

    def test_vocab_size_mismatch_rejected(self):
        data = synth_generate(30, 2, seed=3)
        model = EncoderModel(ModelConfig(vocab_size=32, **TINY_MODEL), seed=0)
        vocab = Vocab(list(SPECIAL_TOKENS) + ["the", "and"])
        with pytest.raises(ValueError, match=re.escape("model_config.vocab_size 32 != vocabulary size 6")):
            evaluate(model, data, vocab)


class TestAdam:
    def test_zero_gradient_leaves_fresh_weights_unchanged(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=(4, 3))
        before = p.copy()
        opt = AdamOptimizer([("p", p)], learning_rate=0.1)
        opt.step({"p": np.zeros_like(p)})
        np.testing.assert_array_equal(p, before)
        assert opt.t == 1

    def test_step_moves_weights_against_gradient(self):
        p = np.ones(3)
        opt = AdamOptimizer([("p", p)], learning_rate=0.1)
        opt.step({"p": np.ones(3)})
        assert np.all(p < 1.0)

    def test_updates_in_place(self):
        p = np.ones(2)
        alias = p
        opt = AdamOptimizer([("p", p)], learning_rate=0.5)
        opt.step({"p": np.ones(2)})
        assert alias is p and np.all(alias < 1.0)

    def test_three_steps_match_the_formula_bitwise(self):
        # Parameters of different sizes share the optimizer's scratch arrays.
        rng = np.random.default_rng(1)
        params = [("w", rng.normal(size=(5, 3))), ("b", rng.normal(size=4)), ("s", rng.normal(size=()))]
        steps = [{name: rng.normal(size=p.shape) for name, p in params} for _ in range(3)]
        want = {name: adam_reference_steps(p, [g[name] for g in steps], lr=0.01) for name, p in params}
        opt = AdamOptimizer(params, learning_rate=0.01)
        for grads in steps:
            opt.step(grads)
        for name, p in params:
            np.testing.assert_array_equal(p, want[name], err_msg=name)
