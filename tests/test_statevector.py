"""Gate primitives against dense-matrix references.

The helpers below apply each gate to rows-last amplitudes ``[2**n, rows]``
the way ``circuits`` does: RY and RZ through ``rotate_rows`` with the
oracles' 2x2 matrices, CNOT as a ``cnot_permutation`` gather, CZ as a
``cz_signs`` multiply, and <Z> through ``z_readout``.
"""
import numpy as np

from qffn.statevector import cnot_permutation, cz_signs, rotate_rows, z_readout

from _oracles import (
    cnot_op,
    cz_op,
    one_qubit_op,
    random_state,
    ry_matrix,
    rz_matrix,
    z_expectation,
)

GATES_1Q = {"ry": ry_matrix, "rz": rz_matrix}


def column(amps):
    """One state as a single-row amplitude matrix [2**n, 1]."""
    return np.asarray(amps, dtype=np.complex128)[:, None]


def num_qubits(amps):
    return int(np.log2(len(amps)))


def rotate(amps, kind, qubit, theta):
    return rotate_rows(amps, qubit, GATES_1Q[kind](theta)[:, :, None])


def entangle(amps, kind, a, b):
    if kind == "cx":
        return amps[cnot_permutation(num_qubits(amps), a, b)]
    return amps * cz_signs(num_qubits(amps), a, b)[:, None]


def expect_z(amps, qubit):
    return z_readout(amps, num_qubits(amps))[0, qubit]


def zero(n):
    return column(np.eye(2**n)[0])


class TestSingleQubitGates:
    def test_ry_pi_flips(self):
        out = rotate(zero(1), "ry", 0, np.pi)
        np.testing.assert_allclose(out[:, 0], [0.0, 1.0], atol=1e-15)

    def test_ry_zero_is_identity(self):
        out = rotate(zero(1), "ry", 0, 0.0)
        np.testing.assert_array_equal(out[:, 0], [1.0, 0.0])

    def test_ry_half_pi(self):
        out = rotate(zero(1), "ry", 0, np.pi / 2)
        np.testing.assert_allclose(out[:, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)

    def test_rz_on_zero_state_keeps_z(self):
        out = rotate(zero(1), "rz", 0, 0.7)
        assert abs(expect_z(out, 0) - 1.0) < 1e-12
        # only a phase: probability unchanged
        np.testing.assert_allclose(np.abs(out[:, 0]), [1.0, 0.0], atol=1e-15)

    def test_rz_zero_is_identity(self):
        rng = np.random.default_rng(3)
        amps = column(random_state(2, rng))
        np.testing.assert_allclose(rotate(amps, "rz", 1, 0.0), amps, atol=1e-15)

    def test_rz_then_ry_changes_basis(self):
        # on |+>, RZ(pi) then RY(pi/2) lands somewhere else than RY(pi/2) alone
        plus = column([1 / np.sqrt(2), 1 / np.sqrt(2)])
        rotated = rotate(rotate(plus, "rz", 0, np.pi), "ry", 0, np.pi / 2)
        baseline = rotate(plus, "ry", 0, np.pi / 2)
        expected = one_qubit_op(1, 0, ry_matrix(np.pi / 2)) @ (one_qubit_op(1, 0, rz_matrix(np.pi)) @ plus[:, 0])
        np.testing.assert_allclose(rotated[:, 0], expected, atol=1e-12)
        assert np.max(np.abs(rotated - baseline)) > 0.5

    def test_ry_angles_add(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            amps = column(random_state(3, rng))
            t1, t2 = rng.uniform(-np.pi, np.pi, 2)
            q = int(rng.integers(3))
            two_step = rotate(rotate(amps, "ry", q, t1), "ry", q, t2)
            np.testing.assert_allclose(two_step, rotate(amps, "ry", q, t1 + t2), atol=1e-12)


class TestTwoQubitGates:
    def test_cnot_flips_target(self):
        # |01> (q0=1) with control q0 -> |11>
        out = entangle(column([0, 1, 0, 0]), "cx", 0, 1)
        np.testing.assert_array_equal(out[:, 0], [0, 0, 0, 1])

    def test_cnot_idle_on_zero_control(self):
        np.testing.assert_array_equal(entangle(zero(2), "cx", 0, 1), zero(2))

    def test_cnot_builds_bell_state(self):
        out = entangle(rotate(zero(2), "ry", 0, np.pi / 2), "cx", 0, 1)
        np.testing.assert_allclose(out[:, 0], [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-15)

    def test_cnot_is_an_involution(self):
        amps = column(random_state(3, np.random.default_rng(9)))
        for a, b in ((0, 1), (2, 0), (1, 2)):
            np.testing.assert_array_equal(entangle(entangle(amps, "cx", a, b), "cx", a, b), amps)

    def test_cz_negates_11(self):
        out = entangle(column([0, 0, 0, 1]), "cz", 0, 1)
        np.testing.assert_array_equal(out[:, 0], [0, 0, 0, -1])

    def test_cz_idle_elsewhere(self):
        amps = column([0, 1, 0, 0])
        np.testing.assert_array_equal(entangle(amps, "cz", 0, 1), amps)

    def test_cz_symmetric(self):
        amps = column(random_state(3, np.random.default_rng(5)))
        np.testing.assert_array_equal(entangle(amps, "cz", 0, 2), entangle(amps, "cz", 2, 0))


class TestDenseOracleEquivalence:
    def test_random_gates_match_dense_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
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
            assert np.max(np.abs(out[:, 0] - dense @ amps[:, 0])) <= 1e-12

    def test_norm_preserved_over_long_random_sequence(self):
        rng = np.random.default_rng(7)
        amps = zero(4)
        for _ in range(1000):
            kind = rng.choice(["ry", "rz", "cx", "cz"])
            if kind in GATES_1Q:
                amps = rotate(amps, kind, int(rng.integers(4)), rng.uniform(-np.pi, np.pi))
            else:
                a, b = (int(v) for v in rng.choice(4, size=2, replace=False))
                amps = entangle(amps, kind, a, b)
        assert abs(float(np.sum(np.abs(amps) ** 2)) - 1.0) <= 1e-10


class TestExpectationZ:
    def test_plus_one_on_zero_state(self):
        np.testing.assert_array_equal(z_readout(zero(1), 1), [[1.0]])

    def test_cosine_law_under_ry(self):
        for theta in np.linspace(-2 * np.pi, 2 * np.pi, 41):
            assert abs(expect_z(rotate(zero(1), "ry", 0, theta), 0) - np.cos(theta)) < 1e-12

    def test_matches_dense_diagonal_operator(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            amps = random_state(4, rng)
            got = z_readout(column(amps), 4)[0]
            assert np.all(np.abs(got) <= 1.0)
            for q in range(4):
                assert abs(got[q] - z_expectation(4, amps, q)) <= 1e-12
