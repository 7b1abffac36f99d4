"""Feedforward sublayers: the classical MLP and its quantum replacement.

The quantum block projects the hidden vector at one designated row (the
classification token) down to 4 encoding angles, runs the ansatz circuit,
projects the 4 Z-expectations back up to the hidden width, and adds the
result to the original row. Every other row passes through untouched. With
``residual=False`` (the ablation configuration) the projection output
replaces the row instead of being added to it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Ansatz, PqcConfig, init_pqc_params, pqc_forward, pqc_param_count, pqc_value_and_gradients

INIT_STD = 0.02
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@dataclass
class ClassicalFeedForward:
    """Position-wise two-layer MLP with GELU, applied to every row."""

    w1: np.ndarray  # [intermediate, hidden]
    b1: np.ndarray
    w2: np.ndarray  # [hidden, intermediate]
    b2: np.ndarray

    @classmethod
    def create(cls, hidden: int, intermediate: int, rng: np.random.Generator):
        return cls(
            w1=rng.normal(0.0, INIT_STD, (intermediate, hidden)),
            b1=np.zeros(intermediate),
            w2=rng.normal(0.0, INIT_STD, (hidden, intermediate)),
            b2=np.zeros(hidden),
        )

    def forward(self, hidden: np.ndarray):
        """Output and the cache ``(pre, cdf, act)``: GELU(x) = x * Phi(x) with
        ``cdf`` = Phi(pre), so backward needs no second ``erf``. Each
        temporary is computed in the array it ends up in."""
        from scipy.special import erf  # here, so importing qffn does not load scipy

        pre = hidden @ self.w1.T
        pre += self.b1
        cdf = np.multiply(pre, _INV_SQRT2)
        erf(cdf, out=cdf)
        cdf += 1.0
        cdf *= 0.5
        act = np.multiply(pre, cdf)
        out = act @ self.w2.T
        out += self.b2
        return out, (pre, cdf, act)

    def backward(self, hidden: np.ndarray, cache, upstream: np.ndarray):
        pre, cdf, act = cache
        # d_pre = d_act * (cdf + pre * exp(-pre^2 / 2) / sqrt(2 pi)), in two arrays
        slope = np.multiply(pre, -0.5)
        slope *= pre
        np.exp(slope, out=slope)
        slope *= pre
        slope *= _INV_SQRT_2PI
        slope += cdf
        d_pre = upstream @ self.w2
        d_pre *= slope
        grads = {
            "w1": d_pre.T @ hidden,
            "b1": d_pre.sum(axis=0),
            "w2": upstream.T @ act,
            "b2": upstream.sum(axis=0),
        }
        return grads, d_pre @ self.w1

    def named_parameters(self):
        return [("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2)]


@dataclass
class QffnBlock:
    """Down-projection, ansatz circuit, up-projection, optional residual."""

    w_in: np.ndarray  # [4, hidden]
    b_in: np.ndarray  # [4]
    w_out: np.ndarray  # [hidden, 4]
    b_out: np.ndarray  # [hidden]
    pqc_config: PqcConfig
    theta: np.ndarray  # flat trainable circuit angles
    residual: bool = True

    @classmethod
    def create(
        cls,
        hidden: int,
        pqc_config: PqcConfig,
        rng: np.random.Generator,
        residual: bool = True,
    ):
        nq = pqc_config.num_qubits
        return cls(
            w_in=rng.normal(0.0, INIT_STD, (nq, hidden)),
            b_in=np.zeros(nq),
            w_out=rng.normal(0.0, INIT_STD, (hidden, nq)),
            b_out=np.zeros(hidden),
            pqc_config=pqc_config,
            theta=init_pqc_params(pqc_config, rng),
            residual=residual,
        )

    @property
    def hidden_dim(self) -> int:
        return self.w_in.shape[1]

    def named_parameters(self):
        return [
            ("w_in", self.w_in),
            ("b_in", self.b_in),
            ("w_out", self.w_out),
            ("b_out", self.b_out),
            ("theta", self.theta),
        ]


def _check_block_input(block: QffnBlock, hidden: np.ndarray, cls_index: int) -> None:
    if hidden.ndim != 2 or hidden.shape[1] != block.hidden_dim:
        raise ValueError(
            f"hidden must be [seq, {block.hidden_dim}], got {hidden.shape}"
        )
    if not 0 <= cls_index < hidden.shape[0]:
        raise ValueError(f"cls_index {cls_index} out of range for seq {hidden.shape[0]}")


def qffn_forward(block: QffnBlock, hidden: np.ndarray, cls_index: int) -> np.ndarray:
    """Transform the cls row through the quantum branch; other rows pass through."""
    _check_block_input(block, hidden, cls_index)
    row = hidden[cls_index]
    encoded = block.w_in @ row + block.b_in
    z = pqc_forward(block.pqc_config, block.theta, encoded)
    branch = block.w_out @ z + block.b_out
    out = hidden.copy()
    out[cls_index] = row + branch if block.residual else branch
    return out


def qffn_backward(
    block: QffnBlock, hidden: np.ndarray, cls_index: int, upstream: np.ndarray
):
    """Gradients of all block parameters and of the block input.

    Returns ``(param_grads, input_grad)`` where ``param_grads`` keys match
    ``named_parameters``. The circuit Jacobians come from the parameter-shift
    rule, so the only approximation anywhere is float rounding.
    """
    _check_block_input(block, hidden, cls_index)
    if upstream.shape != hidden.shape:
        raise ValueError(f"upstream shape {upstream.shape} != hidden shape {hidden.shape}")
    row = hidden[cls_index]
    encoded = block.w_in @ row + block.b_in
    z, jac_theta, jac_x = pqc_value_and_gradients(block.pqc_config, block.theta, encoded)

    g_cls = upstream[cls_index]
    d_z = block.w_out.T @ g_cls
    d_encoded = jac_x.T @ d_z
    grads = {
        "w_in": np.outer(d_encoded, row),
        "b_in": d_encoded,
        "w_out": np.outer(g_cls, z),
        "b_out": g_cls.copy(),
        "theta": jac_theta.T @ d_z,
    }
    input_grad = upstream.copy()
    branch_grad = block.w_in.T @ d_encoded
    input_grad[cls_index] = g_cls + branch_grad if block.residual else branch_grad
    return grads, input_grad


def qffn_param_count(block: QffnBlock) -> int:
    """Projections plus circuit angles; 516 + 640 + 8L at hidden width 128."""
    nq = block.pqc_config.num_qubits
    h = block.hidden_dim
    return (nq * h + nq) + (h * nq + h) + pqc_param_count(block.pqc_config)


def classical_ffn_param_count(hidden: int, intermediate: int) -> int:
    """Weight count of the classical MLP this block replaces."""
    return (intermediate * hidden + intermediate) + (hidden * intermediate + hidden)


def make_ffn_block(
    kind: str,
    hidden: int,
    intermediate: int,
    pqc_layers: int,
    rng: np.random.Generator,
):
    """Build the feedforward sublayer for one encoder layer.

    ``kind`` is "classical", "qffn" (optimized ansatz, internal residual), or
    "vanilla_qffn" (vanilla ansatz, no internal residual).
    """
    if kind == "classical":
        return ClassicalFeedForward.create(hidden, intermediate, rng)
    if kind == "qffn":
        return QffnBlock.create(hidden, PqcConfig(Ansatz.OPTIMIZED, pqc_layers), rng, residual=True)
    if kind == "vanilla_qffn":
        return QffnBlock.create(hidden, PqcConfig(Ansatz.VANILLA, pqc_layers), rng, residual=False)
    raise ValueError(f"unknown feedforward kind: {kind!r}")
