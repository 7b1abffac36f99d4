"""Dense statevector simulation of small qubit registers.

A state over ``n`` qubits is stored as a flat array of ``2**n`` complex128
amplitudes. Bit ordering is little-endian throughout the package: qubit 0 is
the least significant bit of the basis index, so basis state ``|q3 q2 q1 q0>``
lives at index ``q0 + 2*q1 + 4*q2 + 8*q3``.

Gate conventions (half-angle form):

    RY(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]
    RZ(t) = diag(exp(-i t/2), exp(+i t/2))

CNOT flips the target bit where the control bit is 1; CZ negates the
amplitude of basis states where both bits are 1.

Every gate is one of a few rows-last primitives on ``[2**n, rows]`` amplitude
matrices, one independent state per column so that numpy's inner loops run
along the rows: ``rotate_rows`` (a per-row 2x2 on one qubit),
``cnot_permutation`` (a basis gather), ``cz_signs`` (a +-1 vector) and
``z_readout`` (a contraction with the ``z_signs`` table). The batched circuit
kernel in ``circuits`` runs them on many rows; the register simulator below
runs them on one. Along the amplitude axis they use only elementwise
arithmetic, gathers and fixed-order sums, never BLAS.

Gate application returns a new ``StateVector``; inputs are never mutated, so
states are safe to share and to simulate in parallel.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_QUBITS = 12


@dataclass
class StateVector:
    num_qubits: int
    amplitudes: np.ndarray  # shape (2**num_qubits,), complex128


def rotate_rows(amps: np.ndarray, qubit: int, gate: np.ndarray) -> np.ndarray:
    """Apply a 2x2 per row, ``gate[out, in, rows]``, to one qubit of ``amps``.

    The state meets the gate as a [2**(n-1-q), 1, 2 (in), 2**q, rows] view;
    one broadcast multiply and a two-term sum over ``in`` give the new state.
    """
    rows = amps.shape[-1]
    pairs = amps.reshape(-1, 1, 2, 1 << qubit, rows)
    return np.add.reduce(gate[:, :, None] * pairs, axis=2).reshape(-1, rows)


def cnot_permutation(num_qubits: int, control: int, target: int) -> np.ndarray:
    """CNOT as a basis gather: ``new = amps[perm]``."""
    idx = np.arange(2**num_qubits)
    return idx ^ (((idx >> control) & 1) << target)


def cz_signs(num_qubits: int, a: int, b: int) -> np.ndarray:
    """CZ as a +-1 vector over basis states: ``new = amps * signs[:, None]``."""
    idx = np.arange(2**num_qubits)
    return 1.0 - 2.0 * ((idx >> a) & (idx >> b) & 1)


@lru_cache(maxsize=None)
def z_signs(num_qubits: int) -> np.ndarray:
    """[2**n, n] matrix of Z eigenvalues: +1 where the qubit's bit is 0, else -1."""
    idx = np.arange(2**num_qubits)[:, None]
    signs = 1.0 - 2.0 * ((idx >> np.arange(num_qubits)) & 1)
    signs.setflags(write=False)  # one cached array serves every caller
    return signs


def z_readout(amps: np.ndarray, num_qubits: int) -> np.ndarray:
    """Per-qubit <Z> of every row, [rows, n]: sum_i |amp_i|^2 * z_i.

    einsum without ``optimize`` runs numpy's own loop, not BLAS, so the sum
    over basis states has one order for every row and batch size.
    """
    probs = amps.real**2 + amps.imag**2
    return np.einsum("ri,iq->rq", probs.T, z_signs(num_qubits))


def _check_qubits(state: StateVector, *qubits: int) -> None:
    for qubit in qubits:
        if not 0 <= qubit < state.num_qubits:
            raise ValueError(f"qubit index {qubit} out of range for {state.num_qubits}-qubit state")


def zero_state(num_qubits: int) -> StateVector:
    """All-qubits-|0> state: amplitude 1 at basis index 0."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in 1..{MAX_QUBITS}, got {num_qubits}")
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def _rotate(state: StateVector, qubit: int, matrix: list) -> StateVector:
    gate = np.array(matrix, dtype=np.complex128)[:, :, None]
    return StateVector(state.num_qubits, rotate_rows(state.amplitudes[:, None], qubit, gate)[:, 0])


def apply_ry(state: StateVector, qubit: int, theta: float) -> StateVector:
    """Rotate one qubit about Y by angle theta."""
    _check_qubits(state, qubit)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return _rotate(state, qubit, [[c, -s], [s, c]])


def apply_rz(state: StateVector, qubit: int, theta: float) -> StateVector:
    """Rotate one qubit about Z by angle theta."""
    _check_qubits(state, qubit)
    phase = np.exp(-0.5j * theta)
    return _rotate(state, qubit, [[phase, 0.0], [0.0, np.conj(phase)]])


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Flip the target bit on basis states where the control bit is 1."""
    _check_qubits(state, control, target)
    if control == target:
        raise ValueError("control and target must be distinct qubits")
    perm = cnot_permutation(state.num_qubits, control, target)
    return StateVector(state.num_qubits, state.amplitudes[perm])


def apply_cz(state: StateVector, a: int, b: int) -> StateVector:
    """Negate the amplitude of basis states where both bits are 1 (symmetric in a, b)."""
    _check_qubits(state, a, b)
    if a == b:
        raise ValueError("CZ requires two distinct qubits")
    return StateVector(state.num_qubits, state.amplitudes * cz_signs(state.num_qubits, a, b))


def expectation_z(state: StateVector, qubit: int) -> float:
    """<Z> on one qubit: sum of |amplitude|^2 signed by that qubit's bit value."""
    _check_qubits(state, qubit)
    return float(z_readout(state.amplitudes[:, None], state.num_qubits)[0, qubit])
