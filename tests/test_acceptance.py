"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or in
captured output) before asserting, so a red run still reports every
criterion's outcome. Training-based criteria share one module-scoped fixture
to avoid repeating identical runs.
"""
import json
import time

import numpy as np
import pytest

from qffn.circuits import Ansatz, PqcConfig, init_pqc_params, pqc_forward, pqc_gradients, pqc_param_count
from qffn.cli import cmd_train
from qffn.data import PAD_ID, build_vocab, synth_generate
from qffn.diagnostics import finite_diff, grad_variance_probe
from qffn.encoder import EncoderModel, FfnKind, ModelConfig, cross_entropy, model_forward, model_backward, model_param_count
from qffn.feedforward import classical_ffn_param_count, quantum_ffn_param_count, QffnBlock
from qffn.statevector import z_readout
from qffn.training import TrainConfig, train

from _oracles import cnot_op, cz_op, one_qubit_op, random_state
from test_statevector import GATES_1Q, column, entangle, rotate, zero


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def synth_task():
    train_set = synth_generate(400, 2, seed=42)
    val_set = synth_generate(100, 2, seed=43)
    return train_set, val_set, build_vocab(train_set)


@pytest.fixture(scope="module")
def trained(synth_task):
    """One training run per model kind at the pinned hyperparameters."""
    train_set, val_set, vocab = synth_task
    results = {}
    for kind in (FfnKind.CLASSICAL, FfnKind.QFFN, FfnKind.VANILLA_QFFN):
        config = ModelConfig(
            vocab_size=len(vocab), num_classes=2, ffn_kind=kind, pqc_layers=1
        )
        started = time.perf_counter()
        model, report = train(config, TrainConfig(), train_set, val_set, vocab)
        results[kind] = (model, report, time.perf_counter() - started)
    return results


def test_criterion_1_statevector_matches_dense_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(220):
        n = int(rng.integers(1, 5))
        amps = column(random_state(n, rng))
        kind = rng.choice(["ry", "rz", "cx", "cz"] if n > 1 else ["ry", "rz"])
        if kind in GATES_1Q:
            q = int(rng.integers(n))
            theta = rng.uniform(-2 * np.pi, 2 * np.pi)
            out = rotate(amps, kind, q, theta)
            dense = one_qubit_op(n, q, GATES_1Q[kind](theta))
        else:
            a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
            out = entangle(amps, kind, a, b)
            dense = (cnot_op if kind == "cx" else cz_op)(n, a, b)
        worst = max(worst, float(np.max(np.abs(out[:, 0] - dense @ amps[:, 0]))))

    amps = zero(4)
    for _ in range(1000):
        kind = rng.choice(["ry", "rz", "cx", "cz"])
        if kind in GATES_1Q:
            amps = rotate(amps, kind, int(rng.integers(4)), rng.uniform(-np.pi, np.pi))
        else:
            a, b = (int(v) for v in rng.choice(4, size=2, replace=False))
            amps = entangle(amps, kind, a, b)
    drift = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)
    elapsed = time.perf_counter() - started
    _report(
        "criterion 1: gate primitives vs dense oracle",
        worst <= 1e-12 and drift <= 1e-10 and elapsed < 10.0,
        f"max|diff|={worst:.2e}, norm drift={drift:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_ry_expectation_is_cosine():
    worst = 0.0
    for theta in np.linspace(-2 * np.pi, 2 * np.pi, 1000):
        got = z_readout(rotate(zero(1), "ry", 0, theta), 1)[0, 0]
        worst = max(worst, abs(got - np.cos(theta)))
    _report("criterion 2: <Z> after RY equals cos", worst <= 1e-12, f"max err={worst:.2e}")


def test_criterion_3_parameter_shift_matches_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    cases = 0
    for variant in (Ansatz.OPTIMIZED, Ansatz.VANILLA):
        for layers in (1, 2, 4, 8):
            config = PqcConfig(variant, layers)
            for _ in range(13):
                theta = init_pqc_params(config, rng)
                x = rng.uniform(-np.pi, np.pi, 4)
                jac_theta, jac_x = pqc_gradients(config, theta, x)
                for q in range(4):
                    fd_t = finite_diff(lambda t: pqc_forward(config, t, x)[q], theta)
                    fd_x = finite_diff(lambda v: pqc_forward(config, theta, v)[q], x)
                    worst = max(
                        worst,
                        float(np.max(np.abs(jac_theta[q] - fd_t))),
                        float(np.max(np.abs(jac_x[q] - fd_x))),
                    )
                cases += 1
    elapsed = time.perf_counter() - started
    _report(
        "criterion 3: parameter-shift vs finite differences",
        cases >= 100 and worst <= 1e-6 and elapsed < 120.0,
        f"{cases} cases, max|diff|={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_full_model_gradient_check():
    worst_rel = 0.0
    for kind in (FfnKind.CLASSICAL, FfnKind.QFFN, FfnKind.VANILLA_QFFN):
        config = ModelConfig(
            vocab_size=20, num_classes=2, hidden=16, num_layers=2, num_heads=1,
            intermediate=32, max_seq_len=6, ffn_kind=kind, pqc_layers=1,
        )
        model = EncoderModel(config, seed=4)
        rng = np.random.default_rng(44)
        ids = rng.integers(PAD_ID + 1, 20, size=(2, 6))
        ids[0, -1] = PAD_ID
        labels = rng.integers(0, 2, size=2)
        _, grads = model_backward(model, ids, labels)
        for name, param in model.named_parameters():
            def loss_at(values, param=param):
                saved = param.copy()
                param[...] = values
                loss = cross_entropy(model_forward(model, ids), labels)
                param[...] = saved
                return loss

            fd = finite_diff(loss_at, param)
            denom = np.maximum(np.abs(fd), 1e-3)  # relative where meaningful
            rel = float(np.max(np.abs(grads[name] - fd) / denom))
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-4, f"{kind.value}:{name} relative error {rel:.2e}"
    _report(
        "criterion 4: micro-model gradients vs finite differences",
        worst_rel <= 1e-4,
        f"worst relative error={worst_rel:.2e}",
    )


def test_criterion_5_ffn_parameter_reduction():
    block_params = (4 * 128 + 4) + (128 * 4 + 128) + pqc_param_count(PqcConfig(Ansatz.OPTIMIZED, 4))
    classical = classical_ffn_param_count(128, 512)
    ok = block_params == 1188 and classical == 131712 and block_params * 100 <= classical
    _report(
        "criterion 5: feedforward parameter reduction > 99%",
        ok,
        f"{block_params}/{classical} = {block_params / classical:.4%}",
    )


def test_criterion_6_total_parameter_cross_check():
    config = ModelConfig(vocab_size=30522, num_classes=2)
    total = model_param_count(config)
    target = 4.40e6
    ok = abs(total - target) / target <= 0.02
    _report(
        "criterion 6: total parameter count near the reported ratio",
        ok,
        f"count={total}, target={target:.3g}, deviation={abs(total - target) / target:.2%}",
    )


def test_criterion_7_desk_scale_learnability(trained):
    _, classical_report, classical_s = trained[FfnKind.CLASSICAL]
    _, qffn_report, qffn_s = trained[FfnKind.QFFN]
    elapsed = classical_s + qffn_s
    ok = (
        classical_report.validation_accuracy >= 0.90
        and qffn_report.validation_accuracy >= 0.90
        and len(classical_report.epochs) <= 5
        and len(qffn_report.epochs) <= 5
        and elapsed < 1800.0
    )
    _report(
        "criterion 7: both model kinds learn the synthetic task",
        ok,
        f"classical={classical_report.validation_accuracy:.3f}, "
        f"qffn={qffn_report.validation_accuracy:.3f}, {elapsed:.0f}s",
    )


def test_criterion_8_vanilla_ablation_runs_and_is_structurally_distinct(trained):
    model, report, _ = trained[FfnKind.VANILLA_QFFN]
    _, qffn_report, _ = trained[FfnKind.QFFN]
    structural = True
    for layer in model.layers:
        block = layer.ffn
        structural &= isinstance(block, QffnBlock)
        structural &= block.residual is False
        structural &= block.pqc_config.variant is Ansatz.VANILLA
        structural &= block.theta.shape == (4 * block.pqc_config.num_layers,)
        count = quantum_ffn_param_count(block.hidden_dim, block.pqc_config)
        structural &= count == 516 + 640 + 4 * block.pqc_config.num_layers
    completed = len(report.epochs) == 5 and np.isfinite(report.validation_accuracy)
    _report(
        "criterion 8: vanilla ablation completes with the right structure",
        structural and completed,
        f"vanilla val_acc={report.validation_accuracy:.3f} vs optimized "
        f"val_acc={qffn_report.validation_accuracy:.3f}",
    )


def test_criterion_9_command_level_determinism(tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps(
            {
                "out_dir": str(tmp_path / "out"),
                "seed": 42,
                "task": {"kind": "synth", "num_train": 60, "num_val": 20, "num_classes": 2},
                "model": {"ffn_kind": "qffn", "pqc_layers": 1, "hidden": 16,
                          "num_layers": 1, "num_heads": 1, "intermediate": 32,
                          "max_seq_len": 24},
                "train": {"max_epochs": 2, "batch_size": 16},
            }
        )
    )
    assert cmd_train(config_path) == 0
    out = tmp_path / "out"
    metrics = (out / "metrics.json").read_bytes()
    epochs = (out / "epochs.csv").read_bytes()
    assert cmd_train(config_path) == 0
    ok = (out / "metrics.json").read_bytes() == metrics and (out / "epochs.csv").read_bytes() == epochs
    _report("criterion 9: byte-identical reruns of the train command", ok)


# Depth 1 in closed form (see ``qffn.diagnostics``): the gradient variance and
# the gradient's fourth moment E g^4, which sets the estimator's standard error.
DEPTH_ONE_MOMENTS = {Ansatz.OPTIMIZED: (1 / 16, 81 / 4096), Ansatz.VANILLA: (3 / 16, 345 / 4096)}


def test_criterion_10_probe_sanity():
    exact_ok, exact = True, []
    for variant, (variance, fourth) in DEPTH_ONE_MOMENTS.items():
        (probed,) = grad_variance_probe(variant, [1], num_samples=1000, seed=10)
        se = float(np.sqrt((fourth - variance**2) / 1000))
        exact_ok &= abs(probed - variance) <= 3 * se
        exact.append(
            f"{variant.value} var={probed:.4f} "
            f"(exact {variance:.4f}, {(probed - variance) / se:+.1f} SE)"
        )

    started = time.perf_counter()
    variances = []
    for variant in (Ansatz.OPTIMIZED, Ansatz.VANILLA):
        variances.extend(grad_variance_probe(variant, [1, 2, 4, 8], num_samples=100, seed=11))
    elapsed = time.perf_counter() - started
    grid_ok = len(variances) == 8 and all(np.isfinite(v) and v > 0 for v in variances)
    _report(
        "criterion 10: gradient-variance probe sanity",
        exact_ok and grid_ok and elapsed < 300.0,
        f"depth 1: {', '.join(exact)}; {len(variances)} grid entries in {elapsed:.0f}s",
    )
