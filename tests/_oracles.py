"""Independent dense-matrix reference implementations used by the tests.

Everything here builds explicit 2^n x 2^n operators via Kronecker products and
plain matrix-vector products, deliberately sharing no code with the package's
in-place gate kernels. Bit order matches the package convention: qubit 0 is
the least significant bit of the basis index.
"""
from functools import lru_cache

import numpy as np
from scipy.special import erf

from qffn.data import PAD_ID

I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
P0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
P1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)


def ry_matrix(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def rz_matrix(theta):
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def kron_chain(num_qubits, factors):
    """Full operator from a {qubit: 2x2} map; identity on unlisted qubits.

    Kron factor order runs from the highest qubit down so that qubit 0 ends up
    on the least significant bit.
    """
    op = np.array([[1.0]], dtype=np.complex128)
    for q in reversed(range(num_qubits)):
        op = np.kron(op, factors.get(q, I2))
    return op


def one_qubit_op(num_qubits, qubit, matrix):
    return kron_chain(num_qubits, {qubit: matrix})


def cnot_op(num_qubits, control, target):
    return kron_chain(num_qubits, {control: P0}) + kron_chain(
        num_qubits, {control: P1, target: X}
    )


def cz_op(num_qubits, a, b):
    return kron_chain(num_qubits, {a: P0}) + kron_chain(num_qubits, {a: P1, b: Z})


def z_expectation(num_qubits, amplitudes, qubit):
    zq = one_qubit_op(num_qubits, qubit, Z)
    return np.real(np.conj(amplitudes) @ (zq @ amplitudes))


def random_state(num_qubits, rng):
    amps = rng.standard_normal(2**num_qubits) + 1j * rng.standard_normal(2**num_qubits)
    return amps / np.linalg.norm(amps)


def _rotation_layer(num_qubits, matrices):
    op = np.eye(2**num_qubits, dtype=np.complex128)
    for q, m in enumerate(matrices):
        op = one_qubit_op(num_qubits, q, m) @ op
    return op


def dense_ansatz_output(variant, num_layers, theta, x):
    """Reference circuit output at width 4: product of dense 16x16 unitaries.

    Re-derives the circuit structure from its documented definition: optimized
    encodes once then per layer applies the alternating entangler (CNOT ring on
    even layers, CZ(0,2) CZ(1,3) on odd) and RZ-then-RY rotations; vanilla
    re-encodes every layer, applies the CNOT ring, then RY rotations. For
    vanilla, x may also be [num_layers, 4]: row k is the input layer k encodes.
    """
    n = 4
    ring = [(0, 1), (1, 2), (2, 3), (3, 0)]
    psi = np.zeros(2**n, dtype=np.complex128)
    psi[0] = 1.0

    def apply(op, v):
        return op @ v

    if variant == "optimized":
        psi = apply(_rotation_layer(n, [ry_matrix(xi) for xi in x]), psi)
        for layer in range(num_layers):
            if layer % 2 == 0:
                for c, t in ring:
                    psi = apply(cnot_op(n, c, t), psi)
            else:
                for a, b in [(0, 2), (1, 3)]:
                    psi = apply(cz_op(n, a, b), psi)
            base = 8 * layer
            psi = apply(_rotation_layer(n, [rz_matrix(theta[base + q]) for q in range(n)]), psi)
            psi = apply(_rotation_layer(n, [ry_matrix(theta[base + 4 + q]) for q in range(n)]), psi)
    elif variant == "vanilla":
        inputs = np.broadcast_to(x, (num_layers, n))
        for layer in range(num_layers):
            psi = apply(_rotation_layer(n, [ry_matrix(xi) for xi in inputs[layer]]), psi)
            for c, t in ring:
                psi = apply(cnot_op(n, c, t), psi)
            base = 4 * layer
            psi = apply(_rotation_layer(n, [ry_matrix(theta[base + q]) for q in range(n)]), psi)
    else:
        raise ValueError(variant)

    return np.array([z_expectation(n, psi, q) for q in range(n)]), psi


def dense_optimized_unitary(num_layers, theta):
    """U(theta) of the optimized ansatz at width 4, its input encoding left out:
    the product of dense 16x16 operators, built from the documented definition
    as ``dense_ansatz_output`` builds them. Per layer, the alternating entangler
    (CNOT ring on even layers, CZ(0,2) CZ(1,3) on odd), then the Kronecker
    product of every qubit's RZ, then that of every qubit's RY."""
    n = 4
    op = np.eye(2**n, dtype=np.complex128)
    for layer in range(num_layers):
        base = 8 * layer
        op = _dense_entangler(layer % 2) @ op
        op = kron_chain(n, {q: rz_matrix(theta[base + q]) for q in range(n)}) @ op
        op = kron_chain(n, {q: ry_matrix(theta[base + 4 + q]) for q in range(n)}) @ op
    return op


@lru_cache(maxsize=None)
def _dense_entangler(parity):
    n = 4
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0)] if parity == 0 else [(0, 2), (1, 3)]
    op = np.eye(2**n, dtype=np.complex128)
    for a, b in pairs:
        op = (cnot_op(n, a, b) if parity == 0 else cz_op(n, a, b)) @ op
    op.setflags(write=False)  # one cached array per parity
    return op


def reduced_purity(num_qubits, amplitudes, qubit):
    """tr(rho^2) of the single-qubit reduced density matrix."""
    psi = amplitudes.reshape([2] * num_qubits)
    psi = np.moveaxis(psi, num_qubits - 1 - qubit, 0).reshape(2, -1)
    rho = psi @ psi.conj().T
    return float(np.real(np.trace(rho @ rho)))


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(x):
    """GELU as the classical block computed it before caching its terms."""
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def gelu_grad(x):
    return 0.5 * (1.0 + erf(x * _INV_SQRT2)) + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI


def full_row_logits(model, token_ids):
    """Reference encoder forward: every layer over every row.

    Restates the documented post-norm encoder from the model's weights alone:
    scaled dot-product attention with a -1e9 additive bias on every [PAD] key,
    layer norm, the GELU MLP, and the quantum block on row 0 through
    ``dense_ansatz_output``. Nothing is skipped for rows the classifier never
    reads, so it checks the package's last-layer row pruning.
    """
    cfg = model.config
    batch, seq = token_ids.shape
    heads, width = cfg.num_heads, cfg.hidden // cfg.num_heads
    mask = (token_ids != PAD_ID).astype(np.float64)

    def layer_norm(x, g, b):
        centered = x - x.mean(axis=-1, keepdims=True)
        var = (centered**2).mean(axis=-1, keepdims=True)
        return centered / np.sqrt(var + 1e-12) * g + b

    def split(x):
        return x.reshape(batch, seq, heads, width).transpose(0, 2, 1, 3)

    h = model.tok_emb[token_ids] + model.pos_emb[:seq]
    for layer in model.layers:
        a = layer.attn
        q, k, v = split(h @ a.wq.T + a.bq), split(h @ a.wk.T), split(h @ a.wv.T + a.bv)  # no key bias
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(width)
        scores = scores + (mask[:, None, None, :] - 1.0) * 1e9
        probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(batch, seq, cfg.hidden)
        mid = layer_norm(h + ctx @ a.wo.T + a.bo, layer.ln1_g, layer.ln1_b)
        ffn = layer.ffn
        if hasattr(ffn, "w1"):
            out = gelu(mid @ ffn.w1.T + ffn.b1) @ ffn.w2.T + ffn.b2
        else:
            out = mid.copy()
            pqc = ffn.pqc_config
            for b in range(batch):
                row = mid[b, 0]
                z, _ = dense_ansatz_output(
                    pqc.variant.value, pqc.num_layers, ffn.theta, ffn.w_in @ row + ffn.b_in
                )
                branch = ffn.w_out @ z + ffn.b_out
                out[b, 0] = row + branch if ffn.residual else branch
        h = layer_norm(mid + out, layer.ln2_g, layer.ln2_b)
    return h[:, 0] @ model.cls_w.T + model.cls_b


def layer_norm_reference(x, g, b, eps):
    """Layer norm as plain expressions, one new array per operation; returns
    ``(out, xhat, inv_std)`` in the package's order of operations."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    return xhat * g + b, xhat, inv_std


def layer_norm_backward_reference(d_out, xhat, inv_std, g):
    """``(d_x, d_g, d_b)`` of ``layer_norm_reference`` as plain expressions."""
    outer = tuple(range(d_out.ndim - 1))
    d_xhat = d_out * g
    d_g = np.sum(d_out * xhat, axis=outer)
    d_b = np.sum(d_out, axis=outer)
    mean_d = d_xhat.mean(axis=-1, keepdims=True)
    mean_dx = (d_xhat * xhat).mean(axis=-1, keepdims=True)
    return inv_std * (d_xhat - mean_d - xhat * mean_dx), d_g, d_b


def softmax_reference(x, axis=-1):
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def adam_reference_steps(param, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """``param`` after one canonical Adam step per gradient in ``grads``."""
    p = param.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        p = p - lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
    return p
