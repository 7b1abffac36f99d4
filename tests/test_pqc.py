"""Ansatz circuit structure, forward values, and parameter-shift gradients."""
import gc
import weakref

import numpy as np
import pytest

import qffn.circuits as circuits
from qffn.circuits import (
    Ansatz,
    PqcConfig,
    init_pqc_params,
    layer_entangler,
    pqc_final_state,
    pqc_forward,
    pqc_gradients,
    pqc_param_count,
    pqc_value_and_gradients,
)
from qffn.diagnostics import finite_diff

from _oracles import Z, cnot_op, cz_op, dense_ansatz_output, dense_optimized_unitary, one_qubit_op, reduced_purity

ALL_CONFIGS = [
    PqcConfig(variant, layers)
    for variant in (Ansatz.OPTIMIZED, Ansatz.VANILLA)
    for layers in (1, 2, 4, 8)
]


def random_angles(config, rng):
    theta = init_pqc_params(config, rng)
    x = rng.uniform(-np.pi, np.pi, 4)
    return theta, x


class TestEntanglerPattern:
    def test_even_layers_use_cnot_ring(self):
        expected = [("cx", 0, 1), ("cx", 1, 2), ("cx", 2, 3), ("cx", 3, 0)]
        assert layer_entangler(0) == expected
        assert layer_entangler(2) == expected

    def test_odd_layers_use_cz_pairs(self):
        expected = [("cz", 0, 2), ("cz", 1, 3)]
        assert layer_entangler(1) == expected
        assert layer_entangler(3) == expected

    def test_alternation_has_period_two(self):
        for k in range(8):
            assert layer_entangler(k) == layer_entangler(k % 2)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            layer_entangler(-1)


class TestParamCount:
    @pytest.mark.parametrize(
        "variant,layers,expected",
        [
            (Ansatz.OPTIMIZED, 1, 8),
            (Ansatz.OPTIMIZED, 4, 32),
            (Ansatz.OPTIMIZED, 8, 64),
            (Ansatz.VANILLA, 1, 4),
            (Ansatz.VANILLA, 2, 8),
            (Ansatz.VANILLA, 8, 32),
        ],
    )
    def test_counts(self, variant, layers, expected):
        assert pqc_param_count(PqcConfig(variant, layers)) == expected

    def test_init_draws_match_count_and_range(self):
        rng = np.random.default_rng(0)
        for config in ALL_CONFIGS:
            theta = init_pqc_params(config, rng)
            assert theta.shape == (pqc_param_count(config),)
            assert np.all(theta > -np.pi) and np.all(theta < np.pi)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PqcConfig(Ansatz.OPTIMIZED, 0)

    def test_string_variant_is_the_ansatz_it_names(self):
        config = PqcConfig("optimized", 4)
        assert config.variant is Ansatz.OPTIMIZED
        assert config == PqcConfig(Ansatz.OPTIMIZED, 4)
        assert pqc_param_count(config) == 32

    @pytest.mark.parametrize(
        "args, message",
        [
            pytest.param(("quantum", 2), "variant must be one of", id="unknown-variant"),
            pytest.param((Ansatz.OPTIMIZED, 2.5), "num_layers must be an integer", id="fractional-depth"),
            pytest.param((Ansatz.OPTIMIZED, True), "num_layers must be an integer", id="bool-depth"),
        ],
    )
    def test_bad_field_is_named(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            PqcConfig(*args)


class TestForward:
    def test_optimized_identity_point(self):
        config = PqcConfig(Ansatz.OPTIMIZED, 1)
        out = pqc_forward(config, np.zeros(8), np.zeros(4))
        np.testing.assert_allclose(out, [1, 1, 1, 1], atol=1e-15)

    def test_vanilla_single_flip_propagates_through_ring(self):
        # frozen from the dense oracle: RY(pi) flips q0, the ring then carries
        # the flip to q1..q3 and CX(3,0) flips q0 back -> final state |1110>
        config = PqcConfig(Ansatz.VANILLA, 1)
        out = pqc_forward(config, np.zeros(4), np.array([np.pi, 0, 0, 0]))
        np.testing.assert_allclose(out, [1, -1, -1, -1], atol=1e-12)

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=str)
    def test_matches_dense_unitary_oracle(self, config):
        rng = np.random.default_rng(17 + config.num_layers)
        for _ in range(5):
            theta, x = random_angles(config, rng)
            got = pqc_forward(config, theta, x)
            expected, psi = dense_ansatz_output(config.variant.value, config.num_layers, theta, x)
            assert np.max(np.abs(got - expected)) <= 1e-10
            state = pqc_final_state(config, theta, x)
            assert state.shape == (16,) and state.dtype == np.complex128
            assert np.max(np.abs(state - psi)) <= 1e-10

    def test_outputs_bounded(self):
        rng = np.random.default_rng(23)
        for config in ALL_CONFIGS:
            theta, x = random_angles(config, rng)
            out = pqc_forward(config, theta, x)
            assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_deterministic(self):
        config = PqcConfig(Ansatz.OPTIMIZED, 4)
        rng = np.random.default_rng(29)
        theta, x = random_angles(config, rng)
        a = pqc_forward(config, theta, x)
        b = pqc_forward(config, theta, x)
        np.testing.assert_array_equal(a, b)

    def test_shape_mismatch_rejected(self):
        config = PqcConfig(Ansatz.OPTIMIZED, 2)
        with pytest.raises(ValueError):
            pqc_forward(config, np.zeros(8), np.zeros(4))  # needs 16 angles
        with pytest.raises(ValueError):
            pqc_forward(config, np.zeros(16), np.zeros(3))

    def test_deep_optimized_state_is_generically_entangled(self):
        rng = np.random.default_rng(31)
        config = PqcConfig(Ansatz.OPTIMIZED, 2)
        entangled = 0
        for _ in range(100):
            theta, x = random_angles(config, rng)
            state = pqc_final_state(config, theta, x)
            purities = [reduced_purity(4, state, q) for q in range(4)]
            if min(purities) < 1.0 - 1e-9:
                entangled += 1
        assert entangled >= 90


class TestGradients:
    def test_rz_gradients_vanish_on_z_axis(self):
        # |0000> stays on the Z axis through the ring, so RZ shifts do nothing
        config = PqcConfig(Ansatz.OPTIMIZED, 1)
        jac_theta, _ = pqc_gradients(config, np.zeros(8), np.zeros(4))
        np.testing.assert_allclose(jac_theta[:, :4], 0.0, atol=1e-12)

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=str)
    def test_matches_finite_differences(self, config):
        rng = np.random.default_rng(101 + config.num_layers)
        theta, x = random_angles(config, rng)
        _, jac_theta, jac_x = pqc_value_and_gradients(config, theta, x)
        for q in range(4):
            fd_theta = finite_diff(lambda t: pqc_forward(config, t, x)[q], theta)
            fd_x = finite_diff(lambda v: pqc_forward(config, theta, v)[q], x)
            assert np.max(np.abs(jac_theta[q] - fd_theta)) <= 1e-6
            assert np.max(np.abs(jac_x[q] - fd_x)) <= 1e-6

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=str)
    def test_value_matches_forward_bitwise(self, config):
        # rows are batch-size independent, so the gradient call's baseline row
        # must equal a standalone forward exactly
        rng = np.random.default_rng(211 + config.num_layers)
        theta, x = random_angles(config, rng)
        value, _, _ = pqc_value_and_gradients(config, theta, x)
        np.testing.assert_array_equal(value, pqc_forward(config, theta, x))

    @pytest.mark.parametrize(
        "config,occurrences",
        [
            (PqcConfig(Ansatz.OPTIMIZED, 1), 8 + 4),
            (PqcConfig(Ansatz.OPTIMIZED, 4), 32 + 4),
            (PqcConfig(Ansatz.VANILLA, 1), 4 + 4),
            (PqcConfig(Ansatz.VANILLA, 4), 16 + 4),
        ],
        ids=str,
    )
    def test_simulation_count_contract(self, config, occurrences, monkeypatch):
        # one baseline plus two circuits per shifted angle occurrence
        rng = np.random.default_rng(307)
        theta, x = random_angles(config, rng)
        simulated = []
        original = circuits._run_batch
        monkeypatch.setattr(
            circuits,
            "_run_batch",
            lambda cfg, angles, xs: simulated.append(angles.shape[0]) or original(cfg, angles, xs),
        )
        pqc_gradients(config, theta, x)
        assert sum(simulated) == 1 + 2 * occurrences

    @pytest.mark.parametrize("config", [c for c in ALL_CONFIGS if c.variant is Ansatz.VANILLA], ids=str)
    def test_vanilla_jac_x_sums_every_encoding_occurrence(self, config):
        # the dense oracle takes one x per layer, so each encoding occurrence
        # is shifted on its own; dx_j is the sum of their differences
        rng = np.random.default_rng(701 + config.num_layers)
        for _ in range(3):
            theta, x = random_angles(config, rng)
            expected = np.zeros((4, 4))
            for layer in range(config.num_layers):
                for j in range(4):
                    plus, minus = np.tile(x, (config.num_layers, 1)), np.tile(x, (config.num_layers, 1))
                    plus[layer, j] += np.pi / 2
                    minus[layer, j] -= np.pi / 2
                    z_plus, _ = dense_ansatz_output("vanilla", config.num_layers, theta, plus)
                    z_minus, _ = dense_ansatz_output("vanilla", config.num_layers, theta, minus)
                    expected[:, j] += 0.5 * (z_plus - z_minus)
            _, jac_x = pqc_gradients(config, theta, x)
            _, _, paired_jac_x = pqc_value_and_gradients(config, theta, x)
            assert np.max(np.abs(jac_x - expected)) <= 1e-12
            assert np.max(np.abs(paired_jac_x - expected)) <= 1e-12

    def test_jacobian_shapes(self):
        config = PqcConfig(Ansatz.OPTIMIZED, 2)
        rng = np.random.default_rng(401)
        theta, x = random_angles(config, rng)
        jac_theta, jac_x = pqc_gradients(config, theta, x)
        assert jac_theta.shape == (4, 16)
        assert jac_x.shape == (4, 4)


class TestBatchKernel:
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=str)
    @pytest.mark.parametrize("rows", [73, 129])
    def test_rows_match_alone_and_dense_oracle(self, config, rows):
        # every row of a batch equals the same circuit simulated alone, bit
        # for bit, and the dense 16x16 product of the ansatz gates
        rng = np.random.default_rng(503 + rows + config.num_layers)
        thetas = rng.uniform(-np.pi, np.pi, (rows, pqc_param_count(config)))
        xs = rng.uniform(-np.pi, np.pi, (rows, 4))
        angles = circuits._angles(config, thetas, xs)
        batch = circuits._z_readout(circuits._run_batch(config, angles, xs), 4)
        for r in range(rows):
            alone = circuits._z_readout(circuits._run_batch(config, angles[r : r + 1], xs[r : r + 1]), 4)
            np.testing.assert_array_equal(batch[r], alone[0])
            expected, _ = dense_ansatz_output(config.variant.value, config.num_layers, thetas[r], xs[r])
            assert np.max(np.abs(batch[r] - expected)) <= 1e-12

    @pytest.mark.parametrize(
        "layer,dense_gate,compiled_as",
        [(0, cnot_op, "permutation"), (1, cz_op, "signs")],
    )
    def test_compiled_entangler_equals_dense_gate_product(self, layer, dense_gate, compiled_as):
        expected = np.eye(16, dtype=np.complex128)
        for _, a, b in layer_entangler(layer):
            expected = dense_gate(4, a, b) @ expected
        perm, sign = circuits._compiled_entangler(layer)
        assert (perm is None, sign is None) == (compiled_as == "signs", compiled_as == "permutation")
        # the kernel maps new[j] = sign[j] * old[perm[j]]
        compiled = np.zeros((16, 16), dtype=np.complex128)
        compiled[np.arange(16), np.arange(16) if perm is None else perm] = 1.0 if sign is None else sign
        np.testing.assert_array_equal(compiled, expected)


def result_bytes(result):
    """Every array of a circuit call's result, as one byte string."""
    parts = result if isinstance(result, tuple) else (result,)
    return b"".join(part.tobytes() for part in parts)


OPTIMIZED_CONFIGS = [c for c in ALL_CONFIGS if c.variant is Ansatz.OPTIMIZED]
CIRCUIT_CALLS = [pqc_forward, pqc_value_and_gradients]


class TestCompiledCircuit:
    """The optimized ansatz's forward and gradient calls share one compile per
    live theta array."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        circuits._compiled.clear()

    @pytest.mark.parametrize("config", OPTIMIZED_CONFIGS, ids=str)
    def test_values_and_jacobians_match_the_kernel(self, config):
        rng = np.random.default_rng(591 + config.num_layers)
        for _ in range(5):
            theta, x = random_angles(config, rng)
            value, jac_theta, jac_x = pqc_value_and_gradients(config, theta, x)
            kernel_theta, kernel_x = pqc_gradients(config, theta, x)
            kernel_value = circuits._z_readout(pqc_final_state(config, theta, x)[:, None], 4)[0]
            assert np.max(np.abs(value - kernel_value)) <= 1e-12
            assert np.max(np.abs(jac_theta - kernel_theta)) <= 1e-12
            assert np.max(np.abs(jac_x - kernel_x)) <= 1e-12

    @pytest.mark.parametrize("config", OPTIMIZED_CONFIGS, ids=str)
    @pytest.mark.parametrize("order", [CIRCUIT_CALLS, CIRCUIT_CALLS[::-1]], ids=["forward-first", "gradient-first"])
    def test_warm_results_equal_cold_bitwise(self, config, order, compiles):
        rng = np.random.default_rng(601 + config.num_layers)
        theta, x = random_angles(config, rng)
        cold = []
        for call in order:
            circuits._compiled.clear()
            cold.append(result_bytes(call(config, theta.copy(), x)))
        circuits._compiled.clear()
        order[0](config, theta, rng.uniform(-np.pi, np.pi, 4))  # compiles theta at another input
        entry = circuits._compiled[id(theta)]
        warm = [result_bytes(call(config, theta, x)) for call in order]
        assert warm == cold
        # both warm calls reuse the first build
        assert len(compiles) == 3
        assert circuits._compiled == {id(theta): entry}

    @pytest.mark.parametrize("config", OPTIMIZED_CONFIGS, ids=str)
    @pytest.mark.parametrize("call", CIRCUIT_CALLS, ids=lambda f: f.__name__)
    def test_in_place_update_gives_fresh_result(self, config, call):
        rng = np.random.default_rng(611 + config.num_layers)
        theta, x = random_angles(config, rng)
        before = result_bytes(call(config, theta, x))
        theta -= 1e-3 * rng.standard_normal(theta.size)  # like the Adam step
        after = result_bytes(call(config, theta, x))
        circuits._compiled.clear()
        assert after == result_bytes(call(config, theta.copy(), x))
        assert after != before

    @pytest.mark.parametrize("config", OPTIMIZED_CONFIGS, ids=str)
    @pytest.mark.parametrize("call", CIRCUIT_CALLS, ids=lambda f: f.__name__)
    def test_signed_zero_is_a_different_key(self, config, call, compiles):
        theta, x = np.zeros(pqc_param_count(config)), np.full(4, 0.3)
        call(config, theta, x)
        entry = circuits._compiled[id(theta)]
        theta[0] = -0.0  # equal as floats, not as bytes
        call(config, theta, x)
        assert len(compiles) == 2
        assert circuits._compiled[id(theta)] is not entry

    @pytest.mark.parametrize("config", OPTIMIZED_CONFIGS, ids=str)
    @pytest.mark.parametrize("call", CIRCUIT_CALLS, ids=lambda f: f.__name__)
    def test_cached_arrays_are_read_only(self, config, call):
        theta, x = random_angles(config, np.random.default_rng(621))
        call(config, theta, x)
        entry = circuits._compiled[id(theta)]
        for cached in (entry.forms, entry.slopes(), *circuits._y_gather()):
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[...] = 0

    @pytest.mark.parametrize("config", OPTIMIZED_CONFIGS, ids=str)
    def test_forward_builds_no_slopes(self, config):
        theta, x = random_angles(config, np.random.default_rng(625))
        pqc_forward(config, theta, x)
        assert circuits._compiled[id(theta)]._slopes is None
        pqc_value_and_gradients(config, theta, x)
        assert circuits._compiled[id(theta)]._slopes is not None

    @pytest.mark.parametrize("config", OPTIMIZED_CONFIGS, ids=str)
    def test_an_entry_is_freed_with_its_theta(self, config, compiles):
        rng = np.random.default_rng(631 + config.num_layers)
        thetas = [init_pqc_params(config, rng) for _ in range(6)]
        for i, theta in enumerate(thetas):
            CIRCUIT_CALLS[i % 2](config, theta, rng.uniform(-np.pi, np.pi, 4))
        del theta
        # one entry per live theta: none evicts another
        assert set(circuits._compiled) == {id(theta) for theta in thetas}
        builds = [weakref.ref(circuits._compiled[id(theta)].forms) for theta in thetas]
        del thetas[:5]
        gc.collect()
        assert [ref() is not None for ref in builds] == [False] * 5 + [True]
        assert set(circuits._compiled) == {id(thetas[0])}
        for i in range(2):
            CIRCUIT_CALLS[i](config, thetas[0], np.zeros(4))
        assert len(compiles) == 6

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=str)
    def test_kernel_paths_never_compile(self, config, compiles):
        # vanilla re-encodes x in every layer; pqc_gradients and pqc_final_state
        # run the kernel for both ansatzes
        theta, x = random_angles(config, np.random.default_rng(641))
        pqc_gradients(config, theta, x)
        pqc_final_state(config, theta, x)
        if config.variant is Ansatz.VANILLA:
            pqc_value_and_gradients(config, theta, x)
            pqc_forward(config, theta, x)
        assert compiles == [] and circuits._compiled == {}


def dense_forms(num_layers, theta):
    """Re(U^H Z_q U) [q, 16, 16] of the dense oracle's U(theta)."""
    unitary = dense_optimized_unitary(num_layers, theta)
    return np.array([(unitary.conj().T @ one_qubit_op(4, q, Z) @ unitary).real for q in range(4)])


class TestCompiledUnitaries:
    """The compiled quadratic forms against dense 16x16 gate products: the
    compile and the kernel share their gate table, so this oracle is the check
    that shares no code with either."""

    @pytest.mark.parametrize("config", OPTIMIZED_CONFIGS, ids=str)
    def test_every_form_matches_the_dense_oracle(self, config):
        theta = init_pqc_params(config, np.random.default_rng(641 + config.num_layers))
        compiled = circuits._Compiled(config, theta)
        p = theta.size
        assert compiled.forms.shape == (16 * 4, 16)
        assert compiled.slopes().shape == (16 * 4 * p, 16)
        forms = compiled.forms.reshape(16, 4, 16).transpose(1, 0, 2)  # [q, i, j]
        assert np.max(np.abs(forms - dense_forms(config.num_layers, theta))) <= 1e-12
        slopes = compiled.slopes().reshape(16, 4, p, 16).transpose(2, 1, 0, 3)  # [k, q, i, j]
        # a quadratic form reads only the symmetric part, which is dA_q/dtheta_k,
        # and the parameter-shift difference of A is that derivative exactly
        symmetric = 0.5 * (slopes + slopes.swapaxes(-1, -2))
        for k, shift in enumerate(0.5 * np.pi * np.eye(p)):
            plus, minus = (dense_forms(config.num_layers, theta + s) for s in (shift, -shift))
            assert np.max(np.abs(symmetric[k] - 0.5 * (plus - minus))) <= 1e-12
        circuits._compiled.clear()
        circuits.pqc_value_and_gradients(config, theta, np.zeros(config.num_qubits))
        entry = circuits._compiled[id(theta)]
        assert entry.forms.tobytes() == compiled.forms.tobytes()
        assert entry.slopes().tobytes() == compiled.slopes().tobytes()
