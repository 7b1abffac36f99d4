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
rows-last primitives of ``statevector``, which the register simulator runs
too, so its dense-matrix checks cover this kernel. Rows never interact, and
the kernel relies on one condition: along the amplitude axis it uses only
elementwise arithmetic, gathers and fixed-order sums, never BLAS or a matmul
whose summation order may depend on the batch shape. So a row's result is
bit-identical whether it is simulated alone or inside a batch of any size.

The optimized ansatz encodes x once, so its final state is U(theta) phi(x),
with phi(x) the real product state of the encoding; and every sample of a
training batch or an evaluation pass runs one block with one theta. So
``pqc_forward`` and ``pqc_value_and_gradients`` compile it once per theta:
``_sweep``, the kernel's layer walk, pushes the 16x16 identity through the
kernel's fused gates and keeps B_k for each angle k, the state before its
qubit's fused RY @ RZ for an RZ angle and after it for an RY angle. That is
the circuit before rotation k followed only by gates that commute with its
Pauli P_k, so dU/dtheta_k = -T_k / 2 with T_k = i U B_k^H P_k B_k: one product
per angle. The parameter-shift difference of a Pauli rotation is this
derivative exactly. With psi = U phi(x), the value's own product in both
calls, so it is bitwise one, the Jacobians are
jac_theta[q, k] = -Re psi^H Z_q T_k phi(x) and, since
d phi / dx_j = phi(x + pi e_j) / 2, jac_x[q, j] = Re psi^H Z_q U phi(x + pi e_j).

``_compiled`` caches one compilation, keyed by the config, theta's bytes (so
-0.0 differs from 0.0 and an in-place update always misses) and whether the
T_k are wanted: a forward call compiles U alone, a gradient call U and every
T_k. U is the sweep's last state in both, so results do not depend on call
history. One entry, since a training step compiles four times (two encoder
layers, forward then backward) and every Adam step changes theta; it holds
1 + 8L read-only matrices, 270 KB at depth 8.

``pqc_gradients`` stays on the kernel: it is the reference the compiled path
is tested against, and the probe draws a fresh theta for every call, which a
compile would serve once at more cost than the kernel's batch. The vanilla
ansatz re-encodes x in every layer, so its unitary depends on x; it runs the
kernel, as does ``pqc_final_state``.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .statevector import StateVector, cnot_permutation, cz_signs, rotate_rows, z_readout, z_signs

SHIFT = np.pi / 2.0
# Eight times the paper's deepest circuit; a shifted batch then has 1 + 2 * 516 rows.
MAX_PQC_LAYERS = 64


class Ansatz(str, Enum):
    OPTIMIZED = "optimized"
    VANILLA = "vanilla"


@dataclass(frozen=True)
class PqcConfig:
    """Ansatz variant and depth (number of stacked layers); the register is 4 qubits wide."""

    variant: Ansatz
    num_layers: int
    num_qubits: ClassVar[int] = 4

    def __post_init__(self):
        try:  # the variant is tested by identity, which a str fails
            object.__setattr__(self, "variant", Ansatz(self.variant))
        except ValueError:
            raise ValueError(f"variant must be one of {[a.value for a in Ansatz]}, got {self.variant!r}") from None
        if isinstance(self.num_layers, bool) or not isinstance(self.num_layers, numbers.Integral):
            raise ValueError(f"num_layers must be an integer, got {self.num_layers!r}")
        if not 1 <= self.num_layers <= MAX_PQC_LAYERS:
            raise ValueError(f"num_layers must be in 1..{MAX_PQC_LAYERS}, got {self.num_layers}")


def layer_entangler(layer_index: int, num_qubits: int = 4) -> list[tuple[str, int, int]]:
    """Two-qubit gate pattern for one layer, as ("cx"|"cz", first, second) tuples.

    Even layers (0-indexed) use the circular CNOT chain q0->q1->...->q0; odd
    layers use CZ on next-nearest-neighbour pairs, (0,2) and (1,3) at width 4.
    """
    if layer_index < 0:
        raise ValueError(f"layer_index must be >= 0, got {layer_index}")
    if layer_index % 2 == 0:
        return [("cx", q, (q + 1) % num_qubits) for q in range(num_qubits)]
    return [("cz", q, q + 2) for q in range(max(0, num_qubits - 2))]


def pqc_param_count(config: PqcConfig) -> int:
    """Number of trainable angles: 8 per layer (optimized), 4 per layer (vanilla)."""
    per_layer = 2 if config.variant is Ansatz.OPTIMIZED else 1
    return per_layer * config.num_qubits * config.num_layers


def init_pqc_params(config: PqcConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw the flat angle vector i.i.d. uniform on (-pi, pi)."""
    return rng.uniform(-np.pi, np.pi, size=pqc_param_count(config))


# --- batched amplitude kernel: independent circuits, one per row ------------


@lru_cache(maxsize=None)
def _compiled_entangler(num_qubits: int, layer_index: int):
    """One layer's entangler as a signed basis permutation, new[j] = sign[j] * old[perm[j]].

    Returns ``(perm, sign)``; ``perm`` is None for the CZ pairs and ``sign`` is
    None for the CNOT ring, so each layer costs one gather or one multiply.
    """
    idx = np.arange(2**num_qubits)
    perm, sign = idx, np.ones(2**num_qubits)
    for kind, a, b in layer_entangler(layer_index, num_qubits):
        if kind == "cx":
            step = cnot_permutation(num_qubits, a, b)
            perm, sign = perm[step], sign[step]
        else:
            sign = sign * cz_signs(num_qubits, a, b)
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


def _sweep(config: PqcConfig, gates: np.ndarray, amps: np.ndarray, states: list | None = None) -> np.ndarray:
    """Push rows-last amplitudes [2**nq, C] through every layer: the entangler,
    then each qubit's 2x2 from ``gates`` [2, 2, L, nq, C or 1]. With ``states``,
    appends each 2x2's (before, after) amplitudes, layer by layer and qubit by
    qubit."""
    nq = config.num_qubits
    for layer in range(config.num_layers):
        perm, sign = _compiled_entangler(nq, layer if config.variant is Ansatz.OPTIMIZED else 0)
        if perm is not None:
            amps = amps[perm]
        if sign is not None:
            amps = amps * sign[:, None]
        for q in range(nq):
            rotated = rotate_rows(amps, q, gates[:, :, layer, q])
            if states is not None:
                states.append((amps, rotated))
            amps = rotated
    return amps


def _run_batch(config: PqcConfig, angles: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Simulate one circuit per row: angles [C, P] from ``_angles``, and x
    [C, nq], the input that the first encoding puts on |0...0>.

    Returns the rows-last amplitudes [2**nq, C]: complex for the optimized
    ansatz, real for vanilla, whose RY and CNOT gates are real.
    """
    return _sweep(config, _layer_rotations(config, angles), _product_states(x))


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


# --- the optimized circuit compiled to unitaries, once per theta -------------


@lru_cache(maxsize=None)
def _generators(config: PqcConfig) -> np.ndarray:
    """P_k, the Pauli that trainable angle k rotates about (Z for RZ, Y for RY),
    on the whole register: [P, 2**nq, 2**nq], read-only."""
    nq = config.num_qubits
    paulis = np.array(([[1, 0], [0, -1]], [[0, -1j], [1j, 0]]))[..., None]  # Z, Y as [out, in, 1]
    eye = np.eye(2**nq, dtype=np.complex128)
    generators = np.array(
        [rotate_rows(eye, k % nq, paulis[k // nq % 2]) for k in range(pqc_param_count(config))]
    )
    generators.setflags(write=False)
    return generators


def _compile(config: PqcConfig, theta: np.ndarray, derivatives: bool) -> np.ndarray:
    """U(theta) as [1, 2**nq, 2**nq]; with ``derivatives``, followed by every
    T_k = i U B_k^H P_k B_k = -2 dU/dtheta_k: [1 + P, 2**nq, 2**nq]. U is the
    identity's ``_sweep`` through the kernel's gates either way; ``states``
    yields each B_k (see the module docstring)."""
    nq = config.num_qubits
    gates, eye = _layer_rotations(config, theta[None]), np.eye(2**nq, dtype=np.complex128)
    states = [] if derivatives else None
    unitary = _sweep(config, gates, eye, states)
    if not derivatives:
        return unitary[None]
    # (before, after) per layer and qubit -> per layer, every qubit's before (RZ), then every qubit's after (RY)
    kept = np.array(states).reshape(config.num_layers, nq, 2, -1).swapaxes(1, 2).reshape(theta.size, 2**nq, 2**nq)
    turned = 1j * ((unitary @ kept.conj().swapaxes(1, 2)) @ (_generators(config) @ kept))
    return np.concatenate((unitary[None], turned))


@lru_cache(maxsize=1)
def _compiled(config: PqcConfig, theta_bytes: bytes, derivatives: bool) -> np.ndarray:
    """``_compile``'s matrices, read-only, for the theta whose float64 bytes are
    ``theta_bytes``; the last call's are reused while its arguments repeat."""
    matrices = _compile(config, np.frombuffer(theta_bytes), derivatives)
    matrices.setflags(write=False)
    return matrices


# --- public entry points ----------------------------------------------------


def pqc_forward(config: PqcConfig, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-qubit Z expectations of the circuit evaluated at (theta, x)."""
    if config.variant is Ansatz.VANILLA:
        return _z_readout(_single_row(config, theta, x), config.num_qubits)[0]
    theta, x = _check_shapes(config, theta, x)
    unitary = _compiled(config, theta.tobytes(), False)[0]
    return _z_readout(unitary @ _product_states(x[None]), config.num_qubits)[0]


def pqc_final_state(config: PqcConfig, theta: np.ndarray, x: np.ndarray) -> StateVector:
    """Full statevector after the circuit: the batched kernel's single row."""
    amps = _single_row(config, theta, x)
    return StateVector(config.num_qubits, amps[:, 0].astype(np.complex128))


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
    compiled U and T_k (see the module docstring).
    """
    theta, x = _check_shapes(config, theta, x)
    if config.variant is Ansatz.VANILLA:
        return _shift_gradients(config, theta, x)
    nq, compiled, state = config.num_qubits, _compiled(config, theta.tobytes(), True), _product_states(x[None])
    psi = compiled[0] @ state  # the forward's own product: the value is bitwise one
    signed = z_signs(nq) * psi.conj()
    jac_theta = -(signed.T @ (compiled[1:] @ state[:, 0]).T).real
    jac_x = (signed.T @ (compiled[0] @ _product_states(x + np.pi * np.eye(nq)))).real
    return _z_readout(psi, nq)[0], jac_theta, jac_x


def pqc_gradients(config: PqcConfig, theta: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parameter-shift Jacobians ``(jac_theta[nq, P], jac_x[nq, nq])``, always
    simulated as one kernel batch: the reference the compiled path is tested
    against, whose rows the probe's simulation count checks, and for a theta
    used once about 0.5-0.7x the time of a compile and its readout."""
    theta, x = _check_shapes(config, theta, x)
    _, jac_theta, jac_x = _shift_gradients(config, theta, x)
    return jac_theta, jac_x
