"""Hybrid quantum-classical text encoder toolkit.

A compact BERT-style classifier whose feedforward sublayers can be swapped
for a 4-qubit parameterized-circuit block, simulated exactly and trained
end to end with parameter-shift gradients, plus the experiment tooling
(depth sweeps, few-shot subsampling, gradient-variance probes) around it.
"""
from .circuits import (
    Ansatz,
    PqcConfig,
    init_pqc_params,
    layer_entangler,
    pqc_forward,
    pqc_gradients,
    pqc_param_count,
    pqc_value_and_gradients,
)
from .data import (
    Dataset,
    Vocab,
    build_vocab,
    encode_dataset,
    load_tsv,
    subsample,
    synth_generate,
    tokenize,
)
from .diagnostics import finite_diff, grad_variance_probe
from .encoder import (
    EncoderModel,
    FfnKind,
    ModelConfig,
    load_model,
    model_backward,
    model_forward,
    model_param_count,
    save_model,
)
from .feedforward import QffnBlock, qffn_backward, qffn_forward
from .training import AdamOptimizer, MetricsReport, TrainConfig, TrainingDiverged, evaluate, train

__all__ = [
    "Ansatz",
    "AdamOptimizer",
    "Dataset",
    "EncoderModel",
    "FfnKind",
    "MetricsReport",
    "ModelConfig",
    "PqcConfig",
    "QffnBlock",
    "TrainConfig",
    "TrainingDiverged",
    "Vocab",
    "build_vocab",
    "encode_dataset",
    "evaluate",
    "finite_diff",
    "grad_variance_probe",
    "init_pqc_params",
    "layer_entangler",
    "load_model",
    "load_tsv",
    "model_backward",
    "model_forward",
    "model_param_count",
    "pqc_forward",
    "pqc_gradients",
    "pqc_param_count",
    "pqc_value_and_gradients",
    "qffn_backward",
    "qffn_forward",
    "save_model",
    "subsample",
    "synth_generate",
    "tokenize",
    "train",
]
