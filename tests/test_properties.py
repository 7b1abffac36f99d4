"""Property-based checks of the gate primitives and the ansatz circuits.

Derandomized and without an example database, so every run draws the same
examples and leaves no files behind.
"""
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from qffn.circuits import Ansatz, PqcConfig, pqc_forward, pqc_param_count
from qffn.statevector import cnot_permutation, cz_signs, rotate_rows

# Hypothesis also caches the constants it finds in local source under its
# storage directory (./.hypothesis by default), while collecting tests, so the
# directory is moved before collection ends; it is removed at exit.
_STORAGE = tempfile.TemporaryDirectory(prefix="qffn-hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)
ANGLES = st.floats(-4 * np.pi, 4 * np.pi, allow_nan=False)


def rotation(kind, angles):
    """Per-row RY or RZ as ``gate[out, in, rows]``."""
    half = 0.5 * np.asarray(angles)
    if kind == "ry":
        c, s = np.cos(half), np.sin(half)
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    phase = np.exp(-1j * half)
    zero = np.zeros_like(phase)
    return np.array([[phase, zero], [zero, phase.conj()]])


@st.composite
def gate_sequences(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 3))
    kinds = ["ry", "rz"] + (["cx", "cz"] if n > 1 else [])
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=40)):
        if kind in ("ry", "rz"):
            angles = draw(st.lists(ANGLES, min_size=rows, max_size=rows))
            gates.append((kind, draw(st.integers(0, n - 1)), angles))
        else:
            a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            gates.append((kind, a, b))
    return n, rows, gates, draw(st.integers(0, 2**32 - 1))


@st.composite
def circuit_points(draw):
    config = PqcConfig(draw(st.sampled_from(list(Ansatz))), draw(st.integers(1, 8)))
    p = pqc_param_count(config)
    theta = draw(st.lists(ANGLES, min_size=p, max_size=p))
    x = draw(st.lists(ANGLES, min_size=config.num_qubits, max_size=config.num_qubits))
    return config, np.array(theta), np.array(x)


@PROPERTY
@given(gate_sequences())
def test_primitives_preserve_the_norm(sequence):
    n, rows, gates, seed = sequence
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((2**n, rows)) + 1j * rng.standard_normal((2**n, rows))
    amps /= np.linalg.norm(amps, axis=0)
    for kind, a, b in gates:
        if kind in ("ry", "rz"):
            amps = rotate_rows(amps, a, rotation(kind, b))
        elif kind == "cx":
            amps = amps[cnot_permutation(n, a, b)]
        else:
            amps = amps * cz_signs(n, a, b)[:, None]
    np.testing.assert_allclose(np.sum(np.abs(amps) ** 2, axis=0), 1.0, rtol=0, atol=1e-12)


@PROPERTY
@given(circuit_points())
def test_expectations_stay_in_unit_interval(point):
    out = pqc_forward(*point)
    assert out.shape == (point[0].num_qubits,)
    assert np.all(np.abs(out) <= 1.0 + 1e-12)


@PROPERTY
@given(circuit_points())
def test_forward_is_two_pi_periodic_in_every_angle(point):
    config, theta, x = point
    base = pqc_forward(config, theta, x)
    for vector in (theta, x):
        for i in range(vector.size):
            saved = vector[i]
            vector[i] = saved + 2 * np.pi
            shifted = pqc_forward(config, theta, x)
            vector[i] = saved
            np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-12, err_msg=f"index {i}")
