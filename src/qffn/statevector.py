"""The gate primitives of the exact 4-qubit circuit simulation.

The package simulates one 4-qubit circuit family (``circuits``), exactly and
in complex128, and every gate it applies is one of the rows-last primitives
here. They act on ``[2**n, rows]`` amplitude matrices, one independent state
per column, so that numpy's inner loops run along the rows. Bit ordering is
little-endian throughout the package: qubit 0 is the least significant bit
of the basis index, so basis state ``|q3 q2 q1 q0>`` lives at row
``q0 + 2*q1 + 4*q2 + 8*q3``.

Gate conventions (half-angle form):

    RY(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]
    RZ(t) = diag(exp(-i t/2), exp(+i t/2))

CNOT flips the target bit where the control bit is 1; CZ negates the
amplitude of basis states where both bits are 1.

The primitives are ``rotate_rows`` (a per-row 2x2 on one qubit),
``cnot_permutation`` (a basis gather), ``cz_signs`` (a +-1 vector) and
``z_readout`` (a contraction with the ``z_signs`` table). Qubit indices are
not checked: ``circuits`` derives every one from its fixed width. Along the
amplitude axis the primitives use only elementwise arithmetic, gathers and
fixed-order sums, never BLAS, and none mutates its input.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np


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
