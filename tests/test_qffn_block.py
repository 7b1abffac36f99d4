"""Quantum feedforward block: forward contract, backward pass, parameter counts."""
import numpy as np
import pytest

from qffn.circuits import Ansatz, PqcConfig, pqc_forward
from qffn.diagnostics import finite_diff
from qffn.feedforward import (
    FfnKind,
    QffnBlock,
    classical_ffn_param_count,
    make_ffn_block,
    qffn_backward,
    qffn_forward,
    quantum_ffn_param_count,
)

HIDDEN = 128


def make_block(layers=1, hidden=HIDDEN, residual=True, variant=Ansatz.OPTIMIZED, seed=0):
    rng = np.random.default_rng(seed)
    return QffnBlock.create(hidden, PqcConfig(variant, layers), rng, residual=residual)


def random_hidden(seq, hidden=HIDDEN, seed=1):
    return np.random.default_rng(seed).normal(0.0, 1.0, (seq, hidden))


class TestForward:
    def test_zero_up_projection_is_identity(self):
        block = make_block()
        block.w_out[:] = 0.0
        block.b_out[:] = 0.0
        hidden = random_hidden(5)[0]
        out = qffn_forward(block, hidden)
        np.testing.assert_array_equal(out, hidden)

    def test_matches_stagewise_reference(self):
        block = make_block(layers=4, seed=9)
        hidden = random_hidden(4, seed=10)
        cls = 2
        out = qffn_forward(block, hidden[cls])
        # straight-line composition of the three stages plus residual
        encoded = block.w_in @ hidden[cls] + block.b_in
        z = pqc_forward(block.pqc_config, block.theta, encoded)
        expected = hidden[cls] + (block.w_out @ z + block.b_out)
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_residual_disabled_replaces_row(self):
        block = make_block(residual=False, variant=Ansatz.VANILLA)
        hidden = random_hidden(2, seed=3)
        out = qffn_forward(block, hidden[0])
        encoded = block.w_in @ hidden[0] + block.b_in
        z = pqc_forward(block.pqc_config, block.theta, encoded)
        np.testing.assert_allclose(out, block.w_out @ z + block.b_out, atol=1e-12)

    def test_bad_shapes_rejected(self):
        block = make_block()
        with pytest.raises(ValueError, match="^row must"):
            qffn_forward(block, random_hidden(3, hidden=64)[0])
        with pytest.raises(ValueError, match="^row must"):
            qffn_forward(block, random_hidden(1))


class TestBackward:
    def test_zero_up_projection_passes_upstream_through(self):
        block = make_block()
        block.w_out[:] = 0.0
        block.b_out[:] = 0.0
        hidden = random_hidden(3, seed=2)[0]
        upstream = np.ones_like(hidden)
        grads, input_grad = qffn_backward(block, hidden, upstream)
        np.testing.assert_array_equal(input_grad, upstream)
        # branch output is constant zero, so only its own weights see gradient
        assert np.max(np.abs(grads["w_in"])) == 0.0
        assert np.max(np.abs(grads["theta"])) == 0.0
        assert np.max(np.abs(grads["w_out"])) > 0.0

    @pytest.mark.parametrize("residual", [True, False])
    def test_full_finite_difference_check(self, residual):
        variant = Ansatz.OPTIMIZED if residual else Ansatz.VANILLA
        block = make_block(layers=2, hidden=16, residual=residual, variant=variant, seed=11)
        cls = 1
        hidden = random_hidden(3, hidden=16, seed=12)[cls]
        upstream = np.random.default_rng(13).normal(size=(3, 16))[cls]

        grads, input_grad = qffn_backward(block, hidden, upstream)

        def loss_with(name, value):
            saved = getattr(block, name).copy()
            getattr(block, name)[...] = value
            out = qffn_forward(block, hidden)
            getattr(block, name)[...] = saved
            return float(np.sum(out * upstream))

        for name in ("w_in", "b_in", "w_out", "b_out", "theta"):
            fd = finite_diff(lambda v, n=name: loss_with(n, v), getattr(block, name))
            np.testing.assert_allclose(grads[name], fd, rtol=1e-5, atol=1e-7)

        fd_input = finite_diff(
            lambda v: float(np.sum(qffn_forward(block, v) * upstream)), hidden
        )
        np.testing.assert_allclose(input_grad, fd_input, rtol=1e-5, atol=1e-7)

    def test_cls_jacobian_is_identity_plus_branch(self):
        # d(out_cls)/d(in_cls) minus the identity equals the pure branch jacobian
        block = make_block(hidden=16, seed=21)
        hidden = random_hidden(2, hidden=16, seed=22)[0]
        eye = np.eye(16)
        jac = np.empty((16, 16))
        for i in range(16):
            _, input_grad = qffn_backward(block, hidden, eye[i])
            jac[i] = input_grad
        branch = jac - eye

        no_res = QffnBlock(
            block.w_in, block.b_in, block.w_out, block.b_out,
            block.pqc_config, block.theta, residual=False,
        )
        fd_branch = np.empty((16, 16))
        for i in range(16):
            fd_branch[i] = finite_diff(
                lambda v: float(np.sum(qffn_forward(no_res, v) * eye[i])), hidden
            )
        np.testing.assert_allclose(branch, fd_branch, rtol=1e-5, atol=1e-7)

    def test_theta_gradient_length(self):
        for layers in (1, 2, 4, 8):
            block = make_block(layers=layers, hidden=16)
            hidden = random_hidden(2, hidden=16)[0]
            grads, _ = qffn_backward(block, hidden, np.ones_like(hidden))
            assert grads["theta"].shape == (8 * layers,)

    def test_bad_shapes_rejected(self):
        block = make_block()
        row = random_hidden(1)[0]
        with pytest.raises(ValueError, match="^row must"):
            qffn_backward(block, random_hidden(1), random_hidden(1))
        with pytest.raises(ValueError, match="^row must"):
            qffn_backward(block, row[:64], row[:64])
        with pytest.raises(ValueError, match="^upstream shape"):
            qffn_backward(block, row, random_hidden(1))

    def test_forward_rejects_a_list_row(self):
        row = random_hidden(1)[0]
        with pytest.raises(ValueError, match=r"^row must be a \[128\] array, got list of shape \(128,\)"):
            qffn_forward(make_block(), row.tolist())

    def test_backward_rejects_a_list_row(self):
        row = random_hidden(1)[0]
        with pytest.raises(ValueError, match=r"^row must be a \[128\] array, got list"):
            qffn_backward(make_block(), row.tolist(), row)

    def test_backward_rejects_a_list_upstream(self):
        row = random_hidden(1)[0]
        with pytest.raises(ValueError, match="^upstream must be an array, got list"):
            qffn_backward(make_block(), row, row.tolist())


class TestParamCount:
    @pytest.mark.parametrize("layers,expected", [(1, 1164), (2, 1172), (4, 1188), (8, 1220)])
    def test_optimized_counts_at_width_128(self, layers, expected):
        assert quantum_ffn_param_count(HIDDEN, PqcConfig(Ansatz.OPTIMIZED, layers)) == expected

    def test_count_matches_actual_arrays(self):
        for layers in (1, 2, 4, 8):
            block = make_block(layers=layers)
            actual = sum(p.size for _, p in block.named_parameters())
            assert quantum_ffn_param_count(block.hidden_dim, block.pqc_config) == actual

    def test_replacement_ratio_below_one_percent(self):
        quantum = quantum_ffn_param_count(HIDDEN, PqcConfig(Ansatz.OPTIMIZED, 4))
        classical = classical_ffn_param_count(128, 512)
        assert quantum == 1188
        assert classical == 131712
        assert quantum * 100 <= classical  # > 99% reduction, exact integers


class TestFactory:
    def test_kinds(self):
        rng = np.random.default_rng(0)
        classical = make_ffn_block("classical", 128, 512, 1, rng)
        assert classical.w1.shape == (512, 128)
        qffn = make_ffn_block("qffn", 128, 512, 2, rng)
        assert qffn.pqc_config.variant is Ansatz.OPTIMIZED and qffn.residual
        vanilla = make_ffn_block("vanilla_qffn", 128, 512, 2, rng)
        assert vanilla.pqc_config.variant is Ansatz.VANILLA and not vanilla.residual
        assert vanilla.theta.shape == (8,)
        with pytest.raises(ValueError):
            make_ffn_block("nope", 128, 512, 1, rng)

    @pytest.mark.parametrize("kind", [FfnKind.QFFN, FfnKind.VANILLA_QFFN])
    def test_kind_member_and_value_build_the_same_block(self, kind):
        by_member = make_ffn_block(kind, 16, 32, 2, np.random.default_rng(0))
        by_value = make_ffn_block(kind.value, 16, 32, 2, np.random.default_rng(0))
        assert by_member.pqc_config == by_value.pqc_config
        assert by_member.residual == by_value.residual
