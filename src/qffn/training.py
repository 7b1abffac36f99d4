"""Deterministic fine-tuning loop and metric reporting.

Plain Adam (beta1 0.9, beta2 0.999, eps 1e-8, no weight decay) on mean
cross-entropy, fixed-seed shuffling every epoch, no scheduler, no early
stopping, partial final batches included. All randomness (weight init,
shuffling) derives from the single seed in TrainConfig, and the report holds no
clock reading, so two runs with identical inputs produce equal reports. ``train``
trains on the split it is given; subsampling and timing are the caller's.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, Vocab, encode_dataset
from .encoder import (
    EncoderModel, ModelConfig, check_fields, log_softmax, model_backward, model_forward,
)


class TrainingDiverged(RuntimeError):
    pass


_TRAIN_MINIMUMS = {"learning_rate": 0, "batch_size": 1, "max_epochs": 1, "seed": 0}


@dataclass
class TrainConfig:
    learning_rate: float = 5e-4
    batch_size: int = 32
    max_epochs: int = 5
    seed: int = 42

    def validate(self) -> None:
        check_fields(self, _TRAIN_MINIMUMS)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    train_acc: float
    val_acc: float


@dataclass
class MetricsReport:
    validation_accuracy: float
    training_accuracy: float
    gap: float
    accuracy_per_param: float
    param_total: int
    epochs: list[EpochStats] = field(default_factory=list)

    def summary_line(self) -> str:
        return (
            f"val_acc={self.validation_accuracy:.4f} train_acc={self.training_accuracy:.4f} "
            f"gap={self.gap:.4f} acc_per_param={self.accuracy_per_param:.3e} "
            f"params={self.param_total}"
        )


class AdamOptimizer:
    """Canonical Adam; updates parameter arrays in place.

    Every temporary of a step lives in two scratch arrays sized to the largest
    parameter and allocated once, so a step allocates nothing of a parameter's
    size."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, named_params, learning_rate):
        self.params = list(named_params)
        self.lr = learning_rate
        self.m = {name: np.zeros_like(p) for name, p in self.params}
        self.v = {name: np.zeros_like(p) for name, p in self.params}
        self.t = 0
        self._scratch = np.empty((2, max((p.size for _, p in self.params), default=0)))

    def step(self, grads) -> None:
        self.t += 1
        bias1 = 1.0 - self.BETA1**self.t
        bias2 = 1.0 - self.BETA2**self.t
        for name, p in self.params:
            g = grads[name]
            m, v = self.m[name], self.v[name]
            update, denom = (s[: p.size].reshape(p.shape) for s in self._scratch)
            m *= self.BETA1
            np.multiply(g, 1.0 - self.BETA1, out=update)
            m += update
            v *= self.BETA2
            np.multiply(g, g, out=update)
            update *= 1.0 - self.BETA2
            v += update
            # p -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
            np.divide(m, bias1, out=update)
            update *= self.lr
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.EPS
            update /= denom
            p -= update


def _eval_arrays(model, ids, labels, batch_size=64):
    """Mean cross-entropy and argmax accuracy over pre-encoded arrays."""
    total_nll = 0.0
    correct = 0
    for start in range(0, ids.shape[0], batch_size):
        sl = slice(start, start + batch_size)
        logits = model_forward(model, ids[sl])
        logp = log_softmax(logits, axis=-1)
        batch_labels = labels[sl]
        total_nll -= float(np.sum(logp[np.arange(batch_labels.size), batch_labels]))
        correct += int(np.sum(np.argmax(logits, axis=-1) == batch_labels))
    n = ids.shape[0]
    return total_nll / n, correct / n


def _check_data(model_config: ModelConfig, vocab: Vocab, *datasets: Dataset) -> None:
    """Reject a vocabulary or a dataset that a model of ``model_config`` cannot read."""
    if model_config.vocab_size != len(vocab):
        raise ValueError(
            f"model_config.vocab_size {model_config.vocab_size} != vocabulary size {len(vocab)}"
        )
    if max(d.num_classes for d in datasets) > model_config.num_classes:
        raise ValueError(f"dataset has more classes than the model's num_classes {model_config.num_classes}")


def evaluate(model: EncoderModel, dataset: Dataset, vocab: Vocab) -> float:
    """Argmax accuracy on a dataset; no calibration or post-processing."""
    _check_data(model.config, vocab, dataset)
    _, acc = _eval_arrays(model, *encode_dataset(vocab, dataset, model.config.max_seq_len))
    return acc


def train(
    model_config: ModelConfig,
    train_config: TrainConfig,
    train_set: Dataset,
    val_set: Dataset,
    vocab: Vocab,
):
    """Run the full fine-tuning loop; returns (model, MetricsReport).

    The report carries final-epoch metrics (no best-epoch selection) and the
    exact identities gap = train_acc - val_acc and
    accuracy_per_param = val_acc / param_total.
    """
    train_config.validate()
    _check_data(model_config, vocab, train_set, val_set)

    max_len = model_config.max_seq_len
    train_ids, train_labels = encode_dataset(vocab, train_set, max_len)
    val_ids, val_labels = encode_dataset(vocab, val_set, max_len)

    # The second child goes unused and shuffling takes the third, so every seed
    # keeps the data order that earlier versions' runs were trained on.
    init_ss, _, shuffle_ss = np.random.SeedSequence(train_config.seed).spawn(3)
    model = EncoderModel(model_config, np.random.default_rng(init_ss))
    shuffle_rng = np.random.default_rng(shuffle_ss)
    optimizer = AdamOptimizer(model.named_parameters(), train_config.learning_rate)

    n = train_ids.shape[0]
    epochs: list[EpochStats] = []
    for epoch in range(1, train_config.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        batch_losses = []
        for batch_start in range(0, n, train_config.batch_size):
            idx = order[batch_start : batch_start + train_config.batch_size]
            loss, grads = model_backward(model, train_ids[idx], train_labels[idx])
            where = f"at epoch {epoch}, step {batch_start // train_config.batch_size}"
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss {loss} {where}")
            for name, _ in optimizer.params:  # before Adam folds a NaN into its moments
                if not np.isfinite(grads[name]).all():
                    raise TrainingDiverged(f"non-finite gradient of tensor {name} {where}")
            optimizer.step(grads)
            batch_losses.append(loss)
        _, train_acc = _eval_arrays(model, train_ids, train_labels)
        val_loss, val_acc = _eval_arrays(model, val_ids, val_labels)
        epochs.append(
            EpochStats(epoch, float(np.mean(batch_losses)), val_loss, train_acc, val_acc)
        )

    with np.errstate(over="ignore"):  # the overflowing cast is what this looks for
        for name, param in model.named_parameters():
            if not np.isfinite(param.astype(np.float32)).all():
                raise TrainingDiverged(f"tensor {name} is not finite as float32 after training")

    final = epochs[-1]
    param_total = model.param_count()
    report = MetricsReport(
        validation_accuracy=final.val_acc,
        training_accuracy=final.train_acc,
        gap=final.train_acc - final.val_acc,
        accuracy_per_param=final.val_acc / param_total,
        param_total=param_total,
        epochs=epochs,
    )
    return model, report
