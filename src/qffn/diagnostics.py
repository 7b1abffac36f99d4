"""Gradient-variance probes and the finite-difference reference gradient.

The probe measures how the variance (over random parameter draws) of one
circuit gradient behaves as depth grows; a collapse of this variance is the
standard signature of a flattening optimization landscape. The statistic is
the variance of d<Z_0>/d(first trainable angle) with both the trainable
angles and the encoded inputs drawn i.i.d. uniform on (-pi, pi), so the probe
reflects the circuit as deployed, not a fixed-input special case.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circuits import SHIFT, Ansatz, PqcConfig, init_pqc_params, pqc_gradients
from .data import check_seed
from .statevector import apply_ry, expectation_z, zero_state

MIN_PROBE_SAMPLES = 30
MAX_PROBE_SAMPLES = 10**6  # one float64 per sample is kept


@dataclass(frozen=True)
class ProbeEntry:
    depth: int
    variant: str
    variance: float
    num_samples: int


@dataclass
class ProbeResult:
    entries: list[ProbeEntry]
    seed: int


def finite_diff(f: Callable[[np.ndarray], float], params: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, (f(p+h) - f(p-h)) / 2h."""
    params = np.asarray(params, dtype=np.float64)
    grad = np.empty(params.shape)
    it = np.ndindex(params.shape)
    for idx in it:
        stepped = params.copy()
        stepped[idx] = params[idx] + h
        hi = f(stepped)
        stepped[idx] = params[idx] - h
        lo = f(stepped)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError(f"non-finite function value near parameter index {idx}")
        grad[idx] = (hi - lo) / (2.0 * h)
    return grad


def grad_variance_probe(
    variant: Ansatz | str,
    depths: Sequence[int],
    num_samples: int,
    seed: int,
) -> ProbeResult:
    """Variance of the first-angle gradient at each depth, over random draws.

    For every depth L the probe draws ``num_samples`` independent (theta, x)
    pairs uniform on (-pi, pi), evaluates d<Z_0>/d(theta[0]) by parameter
    shift, and records the population variance of those samples.
    """
    variant = Ansatz(variant)
    integer = isinstance(num_samples, numbers.Integral) and not isinstance(num_samples, bool)
    if not (integer and MIN_PROBE_SAMPLES <= num_samples <= MAX_PROBE_SAMPLES):
        raise ValueError(f"num_samples must be an integer in {MIN_PROBE_SAMPLES}..{MAX_PROBE_SAMPLES}, got {num_samples!r}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    entries = []
    for depth in depths:
        config = PqcConfig(variant, depth)
        grads = np.empty(num_samples)
        for i in range(num_samples):
            theta = init_pqc_params(config, rng)
            x = rng.uniform(-np.pi, np.pi, config.num_qubits)
            jac_theta, _ = pqc_gradients(config, theta, x)
            grads[i] = jac_theta[0, 0]
        entries.append(ProbeEntry(depth, variant.value, float(np.var(grads)), num_samples))
    return ProbeResult(entries, seed)


def single_qubit_ry_variance(num_samples: int, seed: int) -> float:
    """Reduced analytic probe case: one qubit, RY(t) only, gradient -sin(t).

    Var over t ~ U(-pi, pi) of -sin(t) is exactly 1/2; this serves as a
    closed-form calibration point for the probe machinery.
    """
    rng = np.random.default_rng(seed)
    grads = np.empty(num_samples)
    for i in range(num_samples):
        t = rng.uniform(-np.pi, np.pi)
        plus = expectation_z(apply_ry(zero_state(1), 0, t + SHIFT), 0)
        minus = expectation_z(apply_ry(zero_state(1), 0, t - SHIFT), 0)
        grads[i] = 0.5 * (plus - minus)
    return float(np.var(grads))


def probe_csv(*results: ProbeResult) -> str:
    """Render probe results as CSV with columns depth,variant,variance,num_samples,seed."""
    lines = ["depth,variant,variance,num_samples,seed"]
    for result in results:
        for e in result.entries:
            lines.append(f"{e.depth},{e.variant},{e.variance!r},{e.num_samples},{result.seed}")
    return "\n".join(lines) + "\n"
