"""Gradient-variance probes and the finite-difference reference gradient.

The probe measures how the variance (over random parameter draws) of one
circuit gradient behaves as depth grows; a collapse of this variance is the
standard signature of a flattening optimization landscape. The statistic is
the variance of d<Z_0>/d(first trainable angle) with both the trainable
angles and the encoded inputs drawn i.i.d. uniform on (-pi, pi), so the probe
reflects the circuit as deployed, not a fixed-input special case.

At depth 1 it has a closed form. After the encoding and the CNOT ring, qubit
0 reads <X_0> = sin x0 sin x1 and <Z_0> = cos x1 cos x2 cos x3 (and <Y_0> = 0,
the state being real). The optimized gradient, through the RZ angle a
followed by the RY angle b, is then -sin a sin b <X_0>, of variance
(1/2)^4 = 1/16; the vanilla gradient, through the RY angle t, is
cos t <X_0> - sin t <Z_0>, of variance 1/16 + 1/8 = 3/16.
"""
from __future__ import annotations

import math
import numbers
from typing import Callable

import numpy as np

from .circuits import MAX_PQC_LAYERS, Ansatz, PqcConfig, init_pqc_params, pqc_gradients
from .data import check_seed, is_integer

MIN_PROBE_SAMPLES = 30
MAX_PROBE_SAMPLES = 10**6  # one float64 per sample is kept


def finite_diff(f: Callable[[np.ndarray], float], params: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, (f(p+h) - f(p-h)) / 2h, with
    2h the step the floats took, ``(p + h) - (p - h)``. ``h`` must move every parameter
    both ways: a step lost to rounding (``p + h == p``) would read as a zero
    gradient, so it raises ``ValueError``."""
    if isinstance(h, bool) or not (isinstance(h, numbers.Real) and 0 < h < math.inf):
        raise ValueError(f"h must be a finite number > 0, got {h!r}")
    params = np.asarray(params, dtype=np.float64)
    grad = np.empty(params.shape)
    for idx in np.ndindex(params.shape):
        up, down = params[idx] + h, params[idx] - h
        if up == params[idx] or down == params[idx]:
            raise ValueError(f"h={h!r} does not change parameter index {idx}, whose value is {float(params[idx])!r}")
        stepped = params.copy()
        stepped[idx] = up
        hi = f(stepped)
        stepped[idx] = down
        lo = f(stepped)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError(f"non-finite function value near parameter index {idx}")
        grad[idx] = (hi - lo) / (up - down)
    return grad


def grad_variance_probe(
    variant: Ansatz | str,
    depths: list[int],
    num_samples: int,
    seed: int,
) -> list[float]:
    """Variance of the first-angle gradient at each depth, over random draws,
    one per depth in ``depths`` order.

    For every depth L the probe draws ``num_samples`` independent (theta, x)
    pairs uniform on (-pi, pi), evaluates d<Z_0>/d(theta[0]) by parameter
    shift, and records the population variance of those samples. ``depths``
    follows ``ProbeConfig``'s rule: a non-empty list of distinct integers in
    1..MAX_PQC_LAYERS.
    """
    variant = Ansatz(variant)
    if not (isinstance(depths, list) and depths and all(is_integer(d) and 1 <= d <= MAX_PQC_LAYERS for d in depths)):
        raise ValueError(f"depths must be a non-empty list of integers in 1..{MAX_PQC_LAYERS}, got {depths!r}")
    if len(set(depths)) < len(depths):
        raise ValueError(f"depths must hold distinct values, got {depths}")
    if not (is_integer(num_samples) and MIN_PROBE_SAMPLES <= num_samples <= MAX_PROBE_SAMPLES):
        raise ValueError(f"num_samples must be an integer in {MIN_PROBE_SAMPLES}..{MAX_PROBE_SAMPLES}, got {num_samples!r}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    variances = []
    for depth in depths:
        config = PqcConfig(variant, depth)
        grads = np.empty(num_samples)
        for i in range(num_samples):
            theta = init_pqc_params(config, rng)
            x = rng.uniform(-np.pi, np.pi, config.num_qubits)
            jac_theta, _ = pqc_gradients(config, theta, x)
            grads[i] = jac_theta[0, 0]
        variances.append(float(np.var(grads)))
    return variances

