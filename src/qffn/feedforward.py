"""Feedforward sublayers: the classical MLP and its quantum replacement.

The quantum block maps one row, the classification token's: it projects the
row down to 4 encoding angles, runs the ansatz circuit, projects the 4
Z-expectations back up to the hidden width, and adds the result to the row.
With ``residual=False`` (the ablation configuration) the projection output
replaces the row instead. The encoder hands the block that row and passes
every other row through unchanged.

The classical MLP's GELU needs erf. ``_erf`` is cephes' erf, the algorithm
and coefficients ``scipy.special.erf`` runs, ported to numpy and bitwise
equal to scipy's. Its tail, 1 < |x| < 8, takes libm's ``exp`` (``math.exp``)
one element at a time, because ``np.exp`` differs from it in the last bit;
with a third of the elements there, that took 2.1x scipy's time on a Xeon.
The MLP caches ``(pre, cdf)`` for backward, ``_erf`` writing into the scaled
pre-activation; the quantum block caches nothing. Evaluation keeps neither.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuits import Ansatz, PqcConfig, init_pqc_params, pqc_forward, pqc_param_count, pqc_value_and_gradients

INIT_STD = 0.02
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
# cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and 1 - exp(-x^2) P(|x|) / Q(|x|)
# with the sign of x for 1 < |x| < 8. U and Q are monic: their leading 1 is implied.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERF_CHUNK = 1 << 14  # elements per pass, so the scratch rows stay in cache


class FfnKind(str, Enum):
    CLASSICAL = "classical"
    QFFN = "qffn"
    VANILLA_QFFN = "vanilla_qffn"


# Each quantum kind's ansatz and whether its block adds the row back (internal residual).
QUANTUM_BLOCKS = {
    FfnKind.QFFN: (Ansatz.OPTIMIZED, True),
    FfnKind.VANILLA_QFFN: (Ansatz.VANILLA, False),
}


def _horner(x, coefs, out, monic=False):
    """cephes' polevl at ``x``, in its order, in place in ``out``; its p1evl,
    whose leading 1 is not stored, when ``monic``."""
    if monic:
        np.add(x, coefs[0], out=out)
    else:
        np.multiply(x, coefs[0], out=out)
        out += coefs[1]
        coefs = coefs[1:]
    for c in coefs[1:]:
        out *= x
        out += c
    return out


def _erf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``scipy.special.erf(x)`` bit for bit: ±1 for |x| >= 8 and ±inf, the
    positive NaN for a NaN of either sign, and the sign of a zero kept. The
    result goes into ``out``, a C-ordered float64 array of x's shape that may
    be ``x`` itself, or else a new one."""
    src = np.ravel(x)
    if out is None:
        out = np.empty(np.shape(x))
    res = out.reshape(-1)
    scratch = np.empty((3, min(src.size, _ERF_CHUNK)))
    # over/invalid only arise in the |x| <= 1 formula at elements the tail overwrites
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, src.size, _ERF_CHUNK):
            xs, ys = src[start:start + _ERF_CHUNK], res[start:start + _ERF_CHUNK]
            z, p, q = scratch[:, :xs.size]
            np.multiply(xs, xs, out=z)
            tail = np.flatnonzero(~(z <= 1.0))  # NaN included, for scipy's positive NaN
            xt = xs[tail]  # a copy, read before ``ys`` (maybe ``xs``) is written
            _horner(z, _ERF_T, p)
            _horner(z, _ERF_U, q, monic=True)
            np.divide(np.multiply(p, xs, out=p), q, out=ys)
            if tail.size:
                a = np.abs(xt)
                y = np.where(a >= 8.0, 1.0, np.nan)
                mid = a < 8.0
                t = a[mid]
                e = np.fromiter(map(math.exp, (-(t * t)).tolist()), float, t.size)
                e *= _horner(t, _ERFC_P, np.empty(t.size))
                y[mid] = 1.0 - e / _horner(t, _ERFC_Q, np.empty(t.size), monic=True)
                np.negative(y, out=y, where=xt < 0.0)  # a NaN of either sign stays positive
                ys[tail] = y
    return out


class Module:
    """A model part whose tensors are its ndarray attributes, each declared once."""

    def named_parameters(self, prefix: str = ""):
        """``(name, array)`` for every trainable tensor, in declaration order: an
        ndarray attribute is named by itself, and a part or a list of parts adds
        its tensors under ``attr.`` or ``attr.{i}.``; a config or a flag adds
        none. This order is the weight archive's layout and the optimizer's."""
        params = []
        for attr, value in vars(self).items():
            if isinstance(value, np.ndarray):
                params.append((prefix + attr, value))
            elif isinstance(value, Module):
                params += value.named_parameters(f"{prefix}{attr}.")
            elif isinstance(value, list):
                for i, part in enumerate(value):
                    params += part.named_parameters(f"{prefix}{attr}.{i}.")
        return params


@dataclass
class ClassicalFeedForward(Module):
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
        """Output and the cache ``(pre, cdf)``: GELU(x) = x * Phi(x) with
        ``cdf`` = Phi(pre), so backward needs no second ``erf`` and recomputes
        the GELU output ``pre * cdf`` bit for bit. Evaluation drops the cache."""
        pre = hidden @ self.w1.T
        pre += self.b1
        cdf = np.multiply(pre, _INV_SQRT2)
        _erf(cdf, out=cdf)
        cdf += 1.0
        cdf *= 0.5
        out = np.multiply(pre, cdf) @ self.w2.T
        out += self.b2
        return out, (pre, cdf)

    def backward(self, hidden: np.ndarray, cache, upstream: np.ndarray):
        pre, cdf = cache
        act = np.multiply(pre, cdf)  # the forward's GELU output, bit for bit
        d_w2 = upstream.T @ act
        # d_pre = d_act * (cdf + pre * exp(-pre^2 / 2) / sqrt(2 pi)), the slope in act's buffer
        slope = np.multiply(pre, -0.5, out=act)
        slope *= pre
        np.exp(slope, out=slope)
        slope *= pre
        slope *= _INV_SQRT_2PI
        slope += cdf
        d_pre = upstream @ self.w2
        d_pre *= slope
        grads = {"w1": d_pre.T @ hidden, "b1": d_pre.sum(axis=0), "w2": d_w2, "b2": upstream.sum(axis=0)}
        return grads, d_pre @ self.w1


@dataclass
class QffnBlock(Module):
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


def _check_row(block: QffnBlock, row: np.ndarray) -> None:
    if not isinstance(row, np.ndarray) or row.shape != (block.hidden_dim,):
        raise ValueError(f"row must be a [{block.hidden_dim}] array, got {type(row).__name__} of shape {np.shape(row)}")


def qffn_forward(block: QffnBlock, row: np.ndarray) -> np.ndarray:
    """The block's output for one hidden row: the quantum branch, plus the row
    itself when ``block.residual``."""
    _check_row(block, row)
    encoded = block.w_in @ row + block.b_in
    z = pqc_forward(block.pqc_config, block.theta, encoded)
    branch = block.w_out @ z + block.b_out
    return row + branch if block.residual else branch


def qffn_backward(block: QffnBlock, row: np.ndarray, upstream: np.ndarray):
    """Gradients of all block parameters and of the row, given the gradient
    ``upstream`` of the block's output.

    Returns ``(param_grads, row_grad)`` where ``param_grads`` keys match
    ``named_parameters``. The circuit Jacobians come from the parameter-shift
    rule, so the only approximation anywhere is float rounding.
    """
    _check_row(block, row)
    if not isinstance(upstream, np.ndarray):
        raise ValueError(f"upstream must be an array, got {type(upstream).__name__}")
    if upstream.shape != row.shape:
        raise ValueError(f"upstream shape {upstream.shape} != row shape {row.shape}")
    encoded = block.w_in @ row + block.b_in
    z, jac_theta, jac_x = pqc_value_and_gradients(block.pqc_config, block.theta, encoded)

    d_z = block.w_out.T @ upstream
    d_encoded = jac_x.T @ d_z
    grads = {
        "w_in": np.outer(d_encoded, row),
        "b_in": d_encoded,
        "w_out": np.outer(upstream, z),
        "b_out": upstream.copy(),
        "theta": jac_theta.T @ d_z,
    }
    branch_grad = block.w_in.T @ d_encoded
    return grads, upstream + branch_grad if block.residual else branch_grad


def quantum_ffn_param_count(hidden: int, pqc_config: PqcConfig) -> int:
    """Weight count of a quantum block of width ``hidden`` running ``pqc_config``."""
    nq = pqc_config.num_qubits
    return (nq * hidden + nq) + (hidden * nq + hidden) + pqc_param_count(pqc_config)


def classical_ffn_param_count(hidden: int, intermediate: int) -> int:
    """Weight count of the classical MLP this block replaces."""
    return (intermediate * hidden + intermediate) + (hidden * intermediate + hidden)


def make_ffn_block(
    kind: FfnKind | str,
    hidden: int,
    intermediate: int,
    pqc_layers: int,
    rng: np.random.Generator,
):
    """Build the feedforward sublayer of one encoder layer: the classical MLP,
    or the quantum block with the ansatz and residual ``QUANTUM_BLOCKS`` maps
    ``kind`` to. Raises ``ValueError`` for an unknown kind."""
    kind = FfnKind(kind)
    if kind is FfnKind.CLASSICAL:
        return ClassicalFeedForward.create(hidden, intermediate, rng)
    ansatz, residual = QUANTUM_BLOCKS[kind]
    return QffnBlock.create(hidden, PqcConfig(ansatz, pqc_layers), rng, residual=residual)
