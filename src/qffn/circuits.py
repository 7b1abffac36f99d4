"""Layered 4-qubit ansatz circuits and their exact parameter-shift gradients.

Two ansatz variants are supported:

``Ansatz.OPTIMIZED``
    The input vector is encoded once, by an RY(x_i) on each qubit before the
    first layer. Every layer then applies an entangler that alternates with
    depth (CNOT ring on even layers, CZ pairs on odd layers) followed by a
    trainable RZ and a trainable RY on every qubit. 8 angles per layer.

``Ansatz.VANILLA``
    Every layer re-encodes the input with RY(x_i) on each qubit, applies the
    fixed CNOT ring, then one trainable RY per qubit. 4 angles per layer.

The circuit output is the vector of per-qubit Pauli-Z expectations, one value
in [-1, 1] per qubit.

Flat parameter layout (radians):

    optimized: theta[8k + q]     -> RZ angle, layer k, qubit q
               theta[8k + 4 + q] -> RY angle, layer k, qubit q
    vanilla:   theta[4k + q]     -> RY angle, layer k, qubit q

Gradients use the parameter-shift rule, df/dt = (f(t + pi/2) - f(t - pi/2)) / 2,
which is exact for the RY/RZ rotations used here. Each theta and each input
angle of the first encoding gets one shift pair. Every later vanilla encoding
of x_q shares one RY with a theta (``_angles``), so jac_x adds that theta's
column. All shifted circuits share one gate sequence and differ only in
angles, so the batched kernel ``_run_batch`` simulates them together as rows
of one amplitude matrix. Per call it computes the trig of every row's angles
at once, fuses each qubit's rotations between two entanglers into one 2x2 per
row (RY @ RZ in the optimized ansatz), applies each layer's entangler as one compiled basis permutation or sign
vector, and reads every <Z_q> out with one contraction. The gates are the
rows-last primitives of ``statevector``, which the tests check against dense
matrices. Rows never interact, and the kernel relies on one condition: along
the amplitude axis it uses only elementwise arithmetic, gathers and
fixed-order sums, never BLAS or a matmul whose summation order may depend on
the batch shape. So a row's result is bit-identical whether it is simulated
alone or inside a batch of any size.

The optimized ansatz encodes x once, so its final state is U(theta) phi(x),
with phi(x) the real product state of the encoding; and every sample of a
training batch or an evaluation pass runs one block with one theta. Since
phi(x) is real, every readout is a real quadratic form,
<Z_q> = phi^T A_q phi with A_q = Re(U^H Z_q U). ``_Compiled`` builds U by the
kernel's layer walk on the whole register (each layer's entangler, then the
Kronecker product of its fused 2x2s) and keeps, per layer, the state after
its entangler and after its rotations. Angle k's B_k is the first for an RZ
angle and the second for an RY angle: the circuit before rotation k followed
only by gates that commute with its Pauli P_k, so dU/dtheta_k = -T_k / 2 with
T_k = i U B_k^H P_k B_k. The parameter-shift difference of a Pauli rotation is
this derivative exactly, so the theta-Jacobian is a quadratic form too:
d<Z_q>/dtheta_k = phi^T S_qk phi with S_qk = -Re(U^H Z_q T_k), built as one
real product over every k on the first gradient call for a theta. Since
d phi / dx_j = phi(x + pi e_j) / 2 and A_q is symmetric,
jac_x[q, j] = (A_q phi) . phi(x + pi e_j). ``pqc_forward`` and
``pqc_value_and_gradients`` compute the value by one expression, so it is
bitwise one.

``_compiled`` holds one compile per live theta array, keyed by its id and
dropped by ``weakref.finalize`` when the array is freed. An entry is reused
while theta's bytes repeat, so an in-place update (the Adam step) misses and
-0.0 differs from 0.0. So a training step's forward, its
backward and every evaluation batch of one theta share one compile, and a
model's blocks never evict each other. An entry holds read-only A (8 KB)
and, after a gradient call, S (64 KB per layer of depth).

``pqc_gradients`` stays on the kernel: it is the reference the compiled path
is tested against, and the probe draws a fresh theta for every call, which a
compile would serve once at more cost than the kernel's batch. The vanilla
ansatz re-encodes x in every layer, so its unitary depends on x; it runs the
kernel, as does ``pqc_final_state``.
"""
from __future__ import annotations

import numbers
import weakref
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .statevector import cnot_permutation, cz_signs, rotate_rows, z_readout, z_signs

SHIFT = np.pi / 2.0
# Eight times the paper's deepest circuit; a shifted batch then has 1 + 2 * 516 rows.
MAX_PQC_LAYERS = 64


class Ansatz(str, Enum):
    OPTIMIZED = "optimized"
    VANILLA = "vanilla"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"variant must be one of {[a.value for a in cls]}, got {value!r}")


@dataclass(frozen=True)
class PqcConfig:
    """Ansatz variant and depth (number of stacked layers); the register is 4 qubits wide."""

    variant: Ansatz
    num_layers: int
    num_qubits: ClassVar[int] = 4

    def __post_init__(self):
        object.__setattr__(self, "variant", Ansatz(self.variant))  # the variant is tested by identity, which a str fails
        if isinstance(self.num_layers, bool) or not isinstance(self.num_layers, numbers.Integral):
            raise ValueError(f"num_layers must be an integer, got {self.num_layers!r}")
        if not 1 <= self.num_layers <= MAX_PQC_LAYERS:
            raise ValueError(f"num_layers must be in 1..{MAX_PQC_LAYERS}, got {self.num_layers}")


def layer_entangler(layer_index: int) -> list[tuple[str, int, int]]:
    """Two-qubit gate pattern for one layer, as ("cx"|"cz", first, second) tuples.

    Even layers (0-indexed) use the circular CNOT chain q0->q1->q2->q3->q0; odd
    layers use CZ on the next-nearest-neighbour pairs (0,2) and (1,3).
    """
    if layer_index < 0:
        raise ValueError(f"layer_index must be >= 0, got {layer_index}")
    nq = PqcConfig.num_qubits
    if layer_index % 2 == 0:
        return [("cx", q, (q + 1) % nq) for q in range(nq)]
    return [("cz", q, q + 2) for q in range(nq - 2)]


def pqc_param_count(config: PqcConfig) -> int:
    """Number of trainable angles: 8 per layer (optimized), 4 per layer (vanilla)."""
    per_layer = 2 if config.variant is Ansatz.OPTIMIZED else 1
    return per_layer * config.num_qubits * config.num_layers


def init_pqc_params(config: PqcConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw the flat angle vector i.i.d. uniform on (-pi, pi)."""
    return rng.uniform(-np.pi, np.pi, size=pqc_param_count(config))


# --- batched amplitude kernel: independent circuits, one per row ------------


@lru_cache(maxsize=None)
def _compiled_entangler(layer_index: int):
    """One layer's entangler as a signed basis permutation, new[j] = sign[j] * old[perm[j]].

    Returns ``(perm, sign)``; ``perm`` is None for the CZ pairs and ``sign`` is
    None for the CNOT ring, so each layer costs one gather or one multiply.
    """
    nq = PqcConfig.num_qubits
    idx = np.arange(2**nq)
    perm, sign = idx, np.ones(2**nq)
    for kind, a, b in layer_entangler(layer_index):
        if kind == "cx":
            step = cnot_permutation(nq, a, b)
            perm, sign = perm[step], sign[step]
        else:
            sign = sign * cz_signs(nq, a, b)
    return (
        None if np.array_equal(perm, idx) else perm,
        None if np.all(sign == 1.0) else sign,
    )


def _angles(config: PqcConfig, thetas: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Every row's rotation angles [C, P], in theta's layout, from thetas [C, P]
    and the input x ([nq] or [C, nq]).

    In the vanilla ansatz the trainable RY of layer k is followed by the
    re-encoding RY of layer k + 1 with nothing in between, so the two merge
    into one RY of the angle theta + x; the optimized angles are theta alone.
    """
    if config.variant is Ansatz.OPTIMIZED:
        return thetas
    angles = thetas.reshape(len(thetas), config.num_layers, config.num_qubits).copy()
    angles[:, :-1] += x[..., None, :]
    return angles.reshape(thetas.shape)


def _layer_rotations(config: PqcConfig, angles: np.ndarray) -> np.ndarray:
    """Per layer and qubit, the 2x2 rotation of every row of ``_angles`` that
    follows the entangler: RY in vanilla, RZ then RY fused into RY @ RZ in the
    optimized ansatz. Returns [2 (out), 2 (in), L, nq, C]."""
    rows, layers, nq = angles.shape[0], config.num_layers, config.num_qubits
    if config.variant is Ansatz.VANILLA:
        half = 0.5 * angles.T.reshape(layers, nq, rows)
        cos, sin = np.cos(half), np.sin(half)
        return np.array((cos, -sin, sin, cos)).reshape(2, 2, layers, nq, rows)
    angles = angles.T.reshape(layers, 2, nq, rows)
    phase = np.exp(-0.5j * angles[:, 0])
    cos, sin = np.cos(0.5 * angles[:, 1]), np.sin(0.5 * angles[:, 1])
    conj = phase.conj()
    return np.array((cos * phase, -sin * conj, sin * phase, cos * conj)).reshape(2, 2, layers, nq, rows)


def _product_states(angles: np.ndarray) -> np.ndarray:
    """RY(x_q)|0> on every qubit, one row per angle vector: [C, nq] -> real [2**nq, C]."""
    rows, nq = angles.shape
    half = 0.5 * angles.T
    factors = np.array((np.cos(half), np.sin(half)))  # [2, nq, C]
    amps = factors[:, 0]
    for q in range(1, nq):
        amps = (factors[:, q, None] * amps).reshape(-1, rows)
    return amps


def _entangle(amps: np.ndarray, layer_index: int) -> np.ndarray:
    """Apply one layer's ``_compiled_entangler`` to rows-last amplitudes [2**nq, C]."""
    perm, sign = _compiled_entangler(layer_index)
    amps = amps if perm is None else amps[perm]
    return amps if sign is None else amps * sign[:, None]


def _run_batch(config: PqcConfig, angles: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Simulate one circuit per row: angles [C, P] from ``_angles``, and x
    [C, nq], the input that the first encoding puts on |0...0>.

    Returns the rows-last amplitudes [2**nq, C]: complex for the optimized
    ansatz, real for vanilla, whose RY and CNOT gates are real.
    """
    nq, gates, amps = config.num_qubits, _layer_rotations(config, angles), _product_states(x)
    for layer in range(config.num_layers):
        amps = _entangle(amps, layer if config.variant is Ansatz.OPTIMIZED else 0)
        for q in range(nq):
            amps = rotate_rows(amps, q, gates[:, :, layer, q])
    return amps


_z_readout = z_readout  # per-qubit <Z> [C, nq] of rows-last amplitudes [2**nq, C]


def _check_shapes(config, theta, x):
    theta = np.asarray(theta, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    expected = pqc_param_count(config)
    if theta.shape != (expected,):
        raise ValueError(f"theta must have shape ({expected},), got {theta.shape}")
    if x.shape != (config.num_qubits,):
        raise ValueError(f"input must have shape ({config.num_qubits},), got {x.shape}")
    return theta, x


def _single_row(config: PqcConfig, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    theta, x = _check_shapes(config, theta, x)
    return _run_batch(config, _angles(config, theta[None], x), x[None])


# --- the optimized circuit compiled to real quadratic forms, once per theta --


@lru_cache(maxsize=None)
def _y_gather() -> tuple[np.ndarray, np.ndarray]:
    """Y on each qubit as a signed basis gather, (Y_q B)[b] = phase[b, q] * B[flip[b, q]]:
    ``(flip, phase)``, [2**nq, nq] each, read-only."""
    nq = PqcConfig.num_qubits
    flip = np.arange(2**nq)[:, None] ^ (1 << np.arange(nq))
    phase = 1j * np.take_along_axis(z_signs(nq), flip, axis=0)
    flip.setflags(write=False)
    phase.setflags(write=False)
    return flip, phase


def _read_only(matrix: np.ndarray) -> np.ndarray:
    matrix = np.ascontiguousarray(matrix)
    matrix.setflags(write=False)
    return matrix


class _Compiled:
    """One theta's circuit as real quadratic forms of the product state phi(x).

    ``forms`` is A [2**nq * nq, 2**nq], rows (i, q), and ``slopes()`` is S
    [2**nq * nq * P, 2**nq], rows (i, q, k): the A_q and S_qk of the module
    docstring, read-only. S is built on the first gradient call, from the layer
    states the compile kept. With the row index i outermost, each form is one
    matrix-vector and one vector-matrix product with phi (``_quadratic``).
    """

    __slots__ = ("config", "theta_bytes", "forms", "_observables", "_kept", "_slopes")

    def __init__(self, config: PqcConfig, theta: np.ndarray):
        nq, dim = config.num_qubits, 2**config.num_qubits
        self.config, self.theta_bytes, self._slopes = config, theta.tobytes(), None
        gates = _layer_rotations(config, theta[None])[..., 0]  # [2, 2, L, nq]
        unitary, self._kept = np.eye(dim, dtype=np.complex128), []
        for layer in range(config.num_layers):  # the kernel's layer walk, on the whole register
            entangled, rotation = _entangle(unitary, layer), gates[:, :, layer, 0]
            for q in range(1, nq):  # the Kronecker product of every qubit's 2x2, qubit 0 least significant
                rotation = (gates[:, None, :, None, layer, q] * rotation[None, :, None, :]).reshape(2 << q, 2 << q)
            unitary = rotation @ entangled
            self._kept.append((entangled, unitary))
        signed = unitary.conj().T[:, None, :] * z_signs(nq).T  # [i, q, b]: U^H Z_q
        self._observables = signed.reshape(-1, dim) @ unitary  # U^H Z_q U, rows (i, q)
        self.forms = _read_only(self._observables.real)

    def slopes(self) -> np.ndarray:
        if self._slopes is None:
            nq, layers, dim = self.config.num_qubits, self.config.num_layers, 2**self.config.num_qubits
            flip, phase = _y_gather()
            # Per layer, the state after its entangler is B_k of its RZ angles, and after its rotations of its RY angles
            kept = np.array(self._kept)  # [L, 2, 2**nq, 2**nq]
            paulied = (z_signs(nq)[:, :, None] * kept[:, 0, :, None], phase[:, :, None] * kept[:, 1][:, flip])
            # H_k = B_k^H P_k B_k, [L, 2 (RZ, RY), a, (q, j)]
            turned = kept.conj().swapaxes(-1, -2) @ np.stack(paulied, axis=1).reshape(layers, 2, dim, -1)
            # T_k = i U H_k, so S_qk = Im(U^H Z_q U H_k): one real product over every k
            parts = np.stack((turned.imag, turned.real), axis=2).transpose(2, 3, 0, 1, 4).reshape(2 * dim, -1)
            observables = np.concatenate((self._observables.real, self._observables.imag), axis=1)
            self._slopes = _read_only((observables @ parts).reshape(-1, dim))
            self._observables = self._kept = None
        return self._slopes


def _quadratic(matrix: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """phi^T M_r phi for every r of ``matrix`` [2**nq * R, 2**nq], rows (i, r): [R]."""
    return phi @ (matrix @ phi).reshape(len(phi), -1)


# One compile per live theta array (see the module docstring).
_compiled: dict[int, _Compiled] = {}


def _compiled_for(config: PqcConfig, theta: np.ndarray) -> _Compiled:
    """The compile of ``theta``'s current bytes: reused while they repeat, so
    an in-place update misses and -0.0 differs from 0.0. Theta's length
    (checked against the config) fixes the depth, so its bytes fix the compile."""
    key = id(theta)
    entry = _compiled.get(key)
    if entry is None:
        weakref.finalize(theta, _compiled.pop, key, None)
    elif entry.theta_bytes == theta.tobytes():
        return entry
    entry = _compiled[key] = _Compiled(config, theta)
    return entry


# --- public entry points ----------------------------------------------------


def pqc_forward(config: PqcConfig, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-qubit Z expectations of the circuit evaluated at (theta, x)."""
    if config.variant is Ansatz.VANILLA:
        return _z_readout(_single_row(config, theta, x), config.num_qubits)[0]
    theta, x = _check_shapes(config, theta, x)
    return _quadratic(_compiled_for(config, theta).forms, _product_states(x[None])[:, 0])


def pqc_final_state(config: PqcConfig, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The [2**nq] complex amplitudes after the circuit: the batched kernel's single row."""
    return _single_row(config, theta, x)[:, 0].astype(np.complex128)


@lru_cache(maxsize=None)
def _shift_table(config: PqcConfig) -> np.ndarray:
    """Row offsets of one parameter-shift batch over (theta, x): [1 + 2K, K],
    K = P + nq. Row 0 is the unshifted circuit; then each theta, then each
    input angle of the first encoding, gets a +pi/2 row and a -pi/2 row."""
    occurrences = pqc_param_count(config) + config.num_qubits
    offsets = np.zeros((1 + 2 * occurrences, occurrences))
    offsets[1::2] = SHIFT * np.eye(occurrences)
    offsets[2::2] = -SHIFT * np.eye(occurrences)
    offsets.setflags(write=False)
    return offsets


@lru_cache(maxsize=None)
def _input_shifts() -> np.ndarray:
    """[1 + nq, nq]: no shift, then pi on each input angle in turn, since
    d phi / dx_j = phi(x + pi e_j) / 2."""
    nq = PqcConfig.num_qubits
    shifts = np.concatenate((np.zeros((1, nq)), np.pi * np.eye(nq)))
    shifts.setflags(write=False)
    return shifts


def _shift_gradients(config: PqcConfig, theta: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(value, jac_theta, jac_x)`` from one kernel batch of ``_shift_table``'s
    rows. In vanilla, x's encoding in layer k + 1 is part of theta's RY in layer
    k, so jac_x also adds jac_theta's columns of layers 0..L-2."""
    nq, p = config.num_qubits, pqc_param_count(config)
    offsets = _shift_table(config)
    angles = _angles(config, theta + offsets[:, :p], x)
    out = _z_readout(_run_batch(config, angles, x + offsets[:, p:]), nq)
    shifts = out[1:].reshape(-1, 2, nq)
    diffs = 0.5 * (shifts[:, 0, :] - shifts[:, 1, :])  # [P + nq, nq]
    jac_theta, jac_x = diffs[:p].T.copy(), diffs[p:].T
    if config.variant is Ansatz.VANILLA:
        jac_x = jac_x + jac_theta[:, :-nq].reshape(nq, config.num_layers - 1, nq).sum(axis=1)
    return out[0], jac_theta, jac_x


def pqc_value_and_gradients(
    config: PqcConfig, theta: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward value plus exact Jacobians w.r.t. theta and the input angles.

    Returns ``(value[nq], jac_theta[nq, P], jac_x[nq, nq])``: for vanilla from
    ``_shift_gradients``' kernel batch; for the optimized ansatz from the
    compiled quadratic forms (see the module docstring).
    """
    theta, x = _check_shapes(config, theta, x)
    if config.variant is Ansatz.VANILLA:
        return _shift_gradients(config, theta, x)
    nq, compiled = config.num_qubits, _compiled_for(config, theta)
    states = _product_states(x + _input_shifts())  # phi(x), then phi(x + pi e_j) per input j
    phi = np.ascontiguousarray(states[:, 0])
    formed = (compiled.forms @ phi).reshape(len(phi), -1)  # ``_quadratic``'s product: the value is bitwise pqc_forward's
    jac_theta = _quadratic(compiled.slopes(), phi).reshape(nq, -1)
    return phi @ formed, jac_theta, formed.T @ states[:, 1:]


def pqc_gradients(config: PqcConfig, theta: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parameter-shift Jacobians ``(jac_theta[nq, P], jac_x[nq, nq])``, always
    simulated as one kernel batch: the reference the compiled path is tested
    against, whose rows the probe's simulation count checks, and for a theta
    used once about 0.6-1.0x the time of a compile and its readout (depths 1-8)."""
    theta, x = _check_shapes(config, theta, x)
    _, jac_theta, jac_x = _shift_gradients(config, theta, x)
    return jac_theta, jac_x
