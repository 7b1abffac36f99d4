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
which is exact for the RY/RZ rotations used here. An input angle that is
encoded more than once (vanilla) gets one shift pair per occurrence, summed.
All shifted circuits share one gate sequence and differ only in angles, so
the batched kernel ``_run_batch`` simulates them together as rows of one
amplitude matrix. Per call it computes the trig of every row's angles at once,
fuses each qubit's rotations between two entanglers into one 2x2 per row
(RY @ RZ; in vanilla, the trainable RY and the next layer's encoding RY),
applies each layer's entangler as one compiled basis permutation or sign
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
Pauli P_k, and R_k(+-pi/2) = (I -+ i P_k) / sqrt(2) commutes with its gate
too, so each shifted unitary is
U B_k^H R_k(+-pi/2) B_k = (U -+ i U B_k^H P_k B_k) / sqrt(2): one product per
angle for both signs. A call multiplies phi(x) by U and by every shifted
unitary, and each input-shifted phi(x +- pi/2 e_q) by U: the kernel's rows, in
its order, with its difference formula. Both calls form the value by the same
matmul, U @ phi(x), so it is bitwise one.

The last compilation is one entry: the config, theta's bytes (so -0.0 differs
from 0.0 and an in-place update always misses) and the read-only unitaries. A
forward call compiles U alone, and a gradient call replaces that entry with
the full stack; U is the sweep's last state in both, so results do not depend
on call history. One entry, since a training step compiles four times (two
encoder layers, forward then backward) and every Adam step changes theta; it
holds 1 + 16L unitaries, 530 KB at depth 8.

``pqc_gradients`` stays on the kernel: it is the reference the compiled path
is tested against, and the probe draws a fresh theta for every call, which a
compile would serve once at more cost than the kernel's batch. The vanilla
ansatz re-encodes x in every layer, so its unitary depends on x; it runs the
kernel, as does ``pqc_final_state``.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .statevector import StateVector, cnot_permutation, cz_signs, rotate_rows, z_readout

SHIFT = np.pi / 2.0
# Eight times the paper's deepest circuit; a shifted batch then has 1 + 2 * 516 rows.
MAX_PQC_LAYERS = 64


class Ansatz(str, Enum):
    OPTIMIZED = "optimized"
    VANILLA = "vanilla"


@dataclass(frozen=True)
class PqcConfig:
    """Ansatz variant, depth (number of stacked layers), and register width."""

    variant: Ansatz
    num_layers: int
    num_qubits: int = 4

    def __post_init__(self):
        if not 1 <= self.num_layers <= MAX_PQC_LAYERS:
            raise ValueError(f"num_layers must be in 1..{MAX_PQC_LAYERS}, got {self.num_layers}")
        if self.num_qubits < 2:
            raise ValueError(f"num_qubits must be >= 2, got {self.num_qubits}")


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


def _encoding_layers(config: PqcConfig) -> int:
    return 1 if config.variant is Ansatz.OPTIMIZED else config.num_layers


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


def _layer_rotations(config: PqcConfig, thetas: np.ndarray, encodings: np.ndarray) -> np.ndarray:
    """Per layer and qubit, the 2x2 rotation of every row that follows the entangler.

    Optimized layers apply RZ then RY, fused into RY @ RZ. In the vanilla
    ansatz the trainable RY of layer k is followed by the re-encoding RY of
    layer k + 1 with nothing in between, so the two merge into one RY of the
    summed angle. Returns [2 (out), 2 (in), L, nq, C].
    """
    rows, layers, nq = thetas.shape[0], config.num_layers, config.num_qubits
    if config.variant is Ansatz.VANILLA:
        angles = thetas.T.reshape(layers, nq, rows).copy()
        angles[:-1] += encodings[:, 1:].transpose(1, 2, 0)
        cos, sin = np.cos(0.5 * angles), np.sin(0.5 * angles)
        return np.array((cos, -sin, sin, cos)).reshape(2, 2, layers, nq, rows)
    angles = thetas.T.reshape(layers, 2, nq, rows)
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


def _run_batch(config: PqcConfig, thetas: np.ndarray, encodings: np.ndarray) -> np.ndarray:
    """Simulate one circuit per row: thetas [C, P], encodings [C, E, nq].

    ``encodings`` carries one row per encoding event (a single event for the
    optimized ansatz, one per layer for vanilla) so that gradient code can
    shift individual encoding occurrences. Returns the rows-last amplitudes
    [2**nq, C]: complex for the optimized ansatz, real for vanilla, whose RY
    and CNOT gates are real. The first encoding acts on |0...0>.
    """
    return _sweep(config, _layer_rotations(config, thetas, encodings), _product_states(encodings[:, 0]))


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
    encodings = np.tile(x, (1, _encoding_layers(config), 1))
    return _run_batch(config, theta[None, :], encodings)


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


def _compile(config: PqcConfig, theta: np.ndarray, shifted: bool) -> np.ndarray:
    """U(theta) as [1, 2**nq, 2**nq]; with ``shifted``, followed by
    U(theta + pi/2 e_k) and U(theta - pi/2 e_k) for every k, in ``_shift_tables``
    row order: [1 + 2P, 2**nq, 2**nq]. U is the identity's ``_sweep`` through the
    kernel's gates either way; ``states`` yields each B_k (see the module docstring)."""
    nq = config.num_qubits
    gates, eye = _layer_rotations(config, theta[None], None), np.eye(2**nq, dtype=np.complex128)
    states = [] if shifted else None
    unitary = _sweep(config, gates, eye, states)
    if not shifted:
        return unitary[None]
    # (before, after) per layer and qubit -> per layer, every qubit's before (RZ), then every qubit's after (RY)
    kept = np.array(states).reshape(config.num_layers, nq, 2, -1).swapaxes(1, 2).reshape(theta.size, 2**nq, 2**nq)
    turned = 1j * ((unitary @ kept.conj().swapaxes(1, 2)) @ (_generators(config) @ kept))  # i U B_k^H P_k B_k
    out = np.empty((1 + 2 * theta.size, 2**nq, 2**nq), dtype=np.complex128)
    out[0] = unitary
    np.subtract(unitary, turned, out=out[1::2])
    np.add(unitary, turned, out=out[2::2])
    out[1:] *= np.sqrt(0.5)
    return out


# The last optimized circuit compiled: (config, the bytes of its theta, the
# unitaries), replaced whole so a concurrent reader always sees one entry.
_last_compiled: tuple[PqcConfig, bytes, np.ndarray] | None = None


def _compiled(config: PqcConfig, theta: np.ndarray, shifted: bool) -> np.ndarray:
    """``_compile``'s unitaries, read-only, from the cache while theta's bytes and
    the config are unchanged; an entry holding U alone is rebuilt for ``shifted``."""
    global _last_compiled
    key, last = theta.tobytes(), _last_compiled
    if last is not None and last[1] == key and last[0] == config and (len(last[2]) > 1 or not shifted):
        return last[2]
    unitaries = _compile(config, theta, shifted)
    unitaries.setflags(write=False)
    _last_compiled = (config, key, unitaries)
    return unitaries


def _compiled_amplitudes(config: PqcConfig, theta: np.ndarray, x: np.ndarray, shifted: bool) -> np.ndarray:
    """Rows-last amplitudes of the compiled circuit at (theta, x), [2**nq, 1];
    with ``shifted``, every row of the parameter-shift batch, [2**nq, R]."""
    unitaries = _compiled(config, theta, shifted)
    state = _product_states(x[None])
    amps = unitaries[0] @ state  # the same product in both modes: the value is bitwise one
    if not shifted:
        return amps
    input_shifts = _shift_tables(config)[1][1 + 2 * theta.size :, 0]
    return np.concatenate(
        (amps, (unitaries[1:] @ state)[:, :, 0].T, unitaries[0] @ _product_states(x + input_shifts)), axis=1
    )


# --- public entry points ----------------------------------------------------


def pqc_forward(config: PqcConfig, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-qubit Z expectations of the circuit evaluated at (theta, x)."""
    if config.variant is Ansatz.VANILLA:
        return _z_readout(_single_row(config, theta, x), config.num_qubits)[0]
    theta, x = _check_shapes(config, theta, x)
    return _z_readout(_compiled_amplitudes(config, theta, x, shifted=False), config.num_qubits)[0]


def pqc_final_state(config: PqcConfig, theta: np.ndarray, x: np.ndarray) -> StateVector:
    """Full statevector after the circuit: the batched kernel's single row."""
    amps = _single_row(config, theta, x)
    return StateVector(config.num_qubits, amps[:, 0].astype(np.complex128))


@lru_cache(maxsize=None)
def _shift_tables(config: PqcConfig) -> tuple[np.ndarray, np.ndarray]:
    """Row offsets of one parameter-shift batch: thetas [R, P], encodings [R, E, nq].

    Row 0 is the unshifted circuit; then every angle occurrence (each theta,
    then each encoding event's input angle) gets a +pi/2 row and a -pi/2 row.
    """
    p = pqc_param_count(config)
    occurrences = p + _encoding_layers(config) * config.num_qubits
    offsets = np.zeros((1 + 2 * occurrences, occurrences))
    offsets[1::2] = SHIFT * np.eye(occurrences)
    offsets[2::2] = -SHIFT * np.eye(occurrences)
    offsets.setflags(write=False)
    return offsets[:, :p], offsets[:, p:].reshape(len(offsets), -1, config.num_qubits)


def _kernel_shift_readout(config: PqcConfig, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """<Z> of every row of the parameter-shift batch, simulated by the kernel: [R, nq]."""
    theta_shifts, encoding_shifts = _shift_tables(config)
    return _z_readout(_run_batch(config, theta + theta_shifts, x + encoding_shifts), config.num_qubits)


def _shift_jacobians(config: PqcConfig, out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(value, jac_theta, jac_x)`` from the readout of a parameter-shift batch."""
    nq, p = config.num_qubits, pqc_param_count(config)
    shifts = out[1:].reshape(-1, 2, nq)
    diffs = 0.5 * (shifts[:, 0, :] - shifts[:, 1, :])  # [K, nq]
    jac_x = diffs[p:].reshape(-1, nq, nq).sum(axis=0).T  # summed over encoding events
    return out[0], diffs[:p].T.copy(), jac_x


def pqc_value_and_gradients(
    config: PqcConfig, theta: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward value plus exact Jacobians w.r.t. theta and the input angles.

    Returns ``(value[nq], jac_theta[nq, P], jac_x[nq, nq])`` from one baseline
    circuit plus two per shifted angle occurrence: the compiled unitaries for
    the optimized ansatz, one kernel batch for vanilla.
    """
    theta, x = _check_shapes(config, theta, x)
    if config.variant is Ansatz.VANILLA:
        return _shift_jacobians(config, _kernel_shift_readout(config, theta, x))
    out = _z_readout(_compiled_amplitudes(config, theta, x, shifted=True), config.num_qubits)
    return _shift_jacobians(config, out)


def pqc_gradients(config: PqcConfig, theta: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parameter-shift Jacobians ``(jac_theta[nq, P], jac_x[nq, nq])``, always
    simulated as one kernel batch: the reference the compiled path is tested
    against, whose rows the probe's simulation count checks, and for a theta
    used once about 0.5-0.7x the time of a compile and its readout."""
    theta, x = _check_shapes(config, theta, x)
    _, jac_theta, jac_x = _shift_jacobians(config, _kernel_shift_readout(config, theta, x))
    return jac_theta, jac_x
