"""Fixed reference kernel that gauges how fast the shared machine is right now.

The kernel repeats the operation mix of one coupled fast substep (Philox
integers and ``ndtri`` for 16 normals, a 64x16 sine synthesis, a pointwise
reaction, the 16x64 analysis, finiteness checks and small Python calls) with
its own code, so no change to the program can change its cost. Timing it
between invocations gives the machine's speed at that moment; the benchmark
rescales each invocation's times by NOMINAL_S / (reference time), which
removes the slow stretches other tenants cause (see NOTES.md).
"""

import math
import time

import numpy as np
from scipy.special import ndtri

N_MODES, N_QUAD = 16, 64
SUBSTEPS = 5000
# Scale of the rescaled times: one reference pass on an unloaded 2-vCPU
# x86-64 KVM guest (Xeon, Python 3.11, numpy 2.4) takes about this long.
NOMINAL_S = 0.125

_NODES = np.arange(1, N_QUAD + 1) / (N_QUAD + 1)
_BASIS = math.sqrt(2.0) * np.sin(np.outer(_NODES, np.arange(1, N_MODES + 1)) * math.pi)
_WEIGHT = 1.0 / (N_QUAD + 1)


def _checked(x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite state")
    return arr


def _synthesize(coeffs):
    return _BASIS @ _checked(coeffs)


def _analyze(values):
    return _WEIGHT * (_BASIS.T @ np.asarray(values, dtype=float))


def _normals(gen, n):
    raw = gen.integers(0, 1 << 53, size=n, dtype=np.uint64)
    return ndtri((2.0 * raw.astype(float) + 1.0) * 2.0 ** -54)


def reference_seconds() -> float:
    """Wall time of one pass of the reference kernel (same work every call)."""
    gen = np.random.Generator(np.random.Philox(12345))
    u_phys = _synthesize(np.full(N_MODES, 0.1))
    v = np.zeros(N_MODES)
    decay, drift_w, noise_w = 0.95, 0.05, 0.02
    start = time.perf_counter()
    for _ in range(SUBSTEPS):
        sigma = _synthesize(v)
        forcing = _analyze(u_phys - 2.0 * sigma + 0.2 * np.sin(sigma))
        v = decay * v + drift_w * forcing + noise_w * _normals(gen, N_MODES)
        float(np.linalg.norm(v))
    return time.perf_counter() - start
