"""Finite differences and the gradient-variance probe."""
import re

import numpy as np
import pytest

import qffn.circuits as circuits
from qffn.circuits import Ansatz, PqcConfig, init_pqc_params, pqc_forward
from qffn.diagnostics import finite_diff, grad_variance_probe
from qffn.statevector import z_readout


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff(lambda p: float(p[0] ** 2), np.array([3.0]))
        assert abs(grad[0] - 6.0) < 1e-8

    def test_constant(self):
        grad = finite_diff(lambda p: 1.5, np.zeros(4))
        np.testing.assert_array_equal(grad, np.zeros(4))

    def test_multivariate(self):
        f = lambda p: float(np.sin(p[0]) + p[1] ** 3)
        grad = finite_diff(f, np.array([0.3, 2.0]))
        np.testing.assert_allclose(grad, [np.cos(0.3), 12.0], atol=1e-7)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            finite_diff(lambda p: float("nan"), np.zeros(2))

    def test_matrix_shaped_params(self):
        f = lambda p: float(np.sum(p * p))
        params = np.arange(6.0).reshape(2, 3)
        np.testing.assert_allclose(finite_diff(f, params), 2 * params, atol=1e-7)

    @pytest.mark.parametrize("h", [0.0, -1e-5, float("nan"), float("inf"), "1e-5", True])
    def test_step_must_be_finite_and_positive(self, h):
        with pytest.raises(ValueError, match=re.escape(f"h must be a finite number > 0, got {h!r}")):
            finite_diff(lambda p: float(p[0]), np.zeros(1), h=h)

    def test_step_lost_to_rounding_rejected(self):
        # 3 + 1e-20 == 3, so both evaluations would see the same point and read a zero gradient.
        with pytest.raises(ValueError, match=re.escape("h=1e-20 does not change parameter index (1,), whose value is 3.0")):
            finite_diff(lambda p: float(p @ p), np.array([0.0, 3.0]), h=1e-20)

    @pytest.mark.parametrize("value", [1.0, -1.0], ids=["lost-upward", "lost-downward"])
    def test_step_lost_on_one_side_rejected(self, value):
        # Floats are twice as dense just below 1 in magnitude as just above it, so
        # 1e-16 survives the step toward zero and is lost on the step away from it.
        with pytest.raises(ValueError, match=re.escape(f"h=1e-16 does not change parameter index (0,), whose value is {value}")):
            finite_diff(lambda p: float(p[0]), np.array([value]), h=1e-16)

    @pytest.mark.parametrize("h", [1e-15, 3e-16])
    def test_linear_function_gives_its_slope_at_a_rounded_step(self, h):
        # 3 + h and 3 - h round to a step other than 2h; the quotient divides by the step taken.
        assert (3.0 + h) - (3.0 - h) != 2 * h
        np.testing.assert_array_equal(finite_diff(lambda p: float(p[0]), np.array([3.0]), h=h), [1.0])
        np.testing.assert_array_equal(finite_diff(lambda p: float(-2 * p[0]), np.array([3.0]), h=h), [-2.0])

    def test_tiny_step_at_zero_is_kept(self):
        # The check is against the parameter's own value, not a fixed floor.
        np.testing.assert_array_equal(finite_diff(lambda p: float(p[0]), np.zeros(1), h=1e-300), [1.0])


class TestProbe:
    def test_depth_one_readouts_after_the_cnot_ring(self):
        # the closed forms behind the exact depth-1 variances of criterion 10
        x = np.random.default_rng(8).uniform(-np.pi, np.pi, (200, 4))
        amps = circuits._entangle(circuits._product_states(x), 0)
        s, c = np.sin(x.T), np.cos(x.T)
        x_0 = 2 * np.sum(amps[0::2] * amps[1::2], axis=0)  # real amplitudes
        assert np.max(np.abs(x_0 - s[0] * s[1])) <= 1e-15
        assert np.max(np.abs(z_readout(amps, 4)[:, 0] - c[1] * c[2] * c[3])) <= 1e-15

    @pytest.mark.parametrize(
        "variant,depths,message",
        [
            pytest.param("bogus", [1], "variant must be one of ['optimized', 'vanilla'], got 'bogus'", id="unknown-variant"),
            pytest.param("optimized", [0], "depths must be a non-empty list of integers in 1..64, got [0]", id="depth-0"),
            pytest.param("vanilla", [65], "depths must be a non-empty list of integers in 1..64, got [65]", id="depth-65"),
            pytest.param("optimized", "12", "depths must be a non-empty list of integers in 1..64, got '12'", id="string"),
            pytest.param("optimized", [], "depths must be a non-empty list of integers in 1..64, got []", id="empty"),
            pytest.param("optimized", [1.0], "depths must be a non-empty list of integers in 1..64, got [1.0]", id="float"),
            pytest.param("optimized", [True], "depths must be a non-empty list of integers in 1..64, got [True]", id="bool"),
            pytest.param("optimized", [1, 1], "depths must hold distinct values, got [1, 1]", id="repeated"),
        ],
    )
    def test_bad_variant_or_depths_named_before_any_draw(self, variant, depths, message, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", None)  # a draw would raise TypeError
        with pytest.raises(ValueError, match=re.escape(message)):
            grad_variance_probe(variant, depths, num_samples=30, seed=0)

    def test_single_depth_variance_is_sane(self):
        (variance,) = grad_variance_probe("optimized", [1], num_samples=40, seed=1)
        assert type(variance) is float
        assert 0.0 <= variance <= 1.0

    def test_one_variance_per_depth_in_depths_order(self):
        both = grad_variance_probe("optimized", [2, 1], num_samples=30, seed=4)
        assert both[0] == grad_variance_probe("optimized", [2], num_samples=30, seed=4)[0]
        assert len(both) == 2

    def test_deterministic_under_seed(self):
        a = grad_variance_probe("vanilla", [1, 2], num_samples=35, seed=9)
        b = grad_variance_probe("vanilla", [1, 2], num_samples=35, seed=9)
        assert a == b

    def test_seed_changes_values(self):
        a = grad_variance_probe("vanilla", [1], num_samples=35, seed=9)
        b = grad_variance_probe("vanilla", [1], num_samples=35, seed=10)
        assert a != b

    def test_minimum_samples_enforced(self):
        with pytest.raises(ValueError):
            grad_variance_probe("optimized", [1], num_samples=10, seed=0)

    def test_float_sample_count_rejected(self):
        with pytest.raises(ValueError, match="num_samples must be an integer in 30..1000000, got 30.0"):
            grad_variance_probe("optimized", [1], num_samples=30.0, seed=0)

    @pytest.mark.parametrize("seed", [1.5, True, -1])
    def test_bad_seed_named(self, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must be a non-negative integer, got {seed!r}")):
            grad_variance_probe("optimized", [1], num_samples=30, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        a = grad_variance_probe("optimized", [1], num_samples=30, seed=np.int32(3))
        assert a == grad_variance_probe("optimized", [1], num_samples=30, seed=3)

    @pytest.mark.parametrize("variant", ["optimized", "vanilla"])
    def test_variances_match_finite_difference_rerun(self, variant):
        # replay the probe's documented draw stream, replacing the shift rule
        # with central finite differences on the first trainable angle
        depths = [1, 2]
        num_samples = 30
        seed = 21
        probed = grad_variance_probe(variant, depths, num_samples, seed)

        rng = np.random.default_rng(seed)
        rerun = []
        for depth in depths:
            config = PqcConfig(Ansatz(variant), depth)
            grads = np.empty(num_samples)
            for i in range(num_samples):
                theta = init_pqc_params(config, rng)
                x = rng.uniform(-np.pi, np.pi, config.num_qubits)
                grads[i] = finite_diff(lambda t: pqc_forward(config, t, x)[0], theta)[0]
            rerun.append(float(np.var(grads)))

        assert len(probed) == len(rerun)
        for variance, fd_variance in zip(probed, rerun):
            assert abs(variance - fd_variance) <= 1e-6
